import base64
import copy
import dataclasses
import enum
import io
import json
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from communityfl import netproto, runner, scenarios
from communityfl.community import Community, DataSignature, ParticipantMetadata
from communityfl.errors import ConfigError, ProtocolError
from communityfl.flcore import FlTask, ModelUpdate, TrainRequest
from communityfl.netproto import (
    Envelope,
    Field,
    MsgType,
    PAYLOAD_SCHEMAS,
    PROTOCOL_VERSION,
    RECORD_SCHEMAS,
    RESPONSE_OF,
    decode,
    encode,
    from_file_doc,
    read_frame,
    weights_to_wire,
    wire_to_weights,
)
from communityfl.tinylearn import EvalMetrics, WeightVector, make_arch

from conftest import decode_strictly, make_community, make_metadata, make_task, make_update


def _register_env(correlation_id: int = 42) -> Envelope:
    return Envelope(
        msg_type=MsgType.REGISTER,
        correlation_id=correlation_id,
        payload={"metadata": netproto.to_doc(make_metadata("client-z"))},
    )


# -- round trips -------------------------------------------------------------------


def test_register_roundtrip_field_equal():
    env = _register_env()
    decoded = decode(encode(env))
    assert decoded == env


def test_zero_weight_known_little_endian_pattern():
    # IEEE-754 double 0.0 is eight zero bytes; base64 of that is fixed
    assert base64.b64encode(struct.pack("<d", 0.0)) == b"AAAAAAAAAAA="
    arch = make_arch(1, 2)  # four parameters
    wire = weights_to_wire(WeightVector(values=np.zeros(arch.param_count), arch_id=arch.arch_id))
    blob = base64.b64decode(wire["values"])
    assert blob == b"\x00" * (8 * arch.param_count)
    restored = wire_to_weights(wire)
    assert np.array_equal(restored.values, np.zeros(arch.param_count))


def _random_value(spec: Field, rng):
    if spec.kind == "str":
        return "".join(rng.choice(list("abcxyz123 _-"), size=rng.integers(0, 12)))
    if spec.kind == "int":
        return int(rng.integers(-(2**31), 2**31))
    if spec.kind == "float":
        return float(np.round(rng.normal(0, 100), 9))
    if spec.kind == "number":
        return int(rng.integers(0, 100)) if rng.random() < 0.5 else float(rng.normal())
    if spec.kind == "bool":
        return bool(rng.random() < 0.5)
    if spec.kind == "list":
        return [_random_value(spec.item, rng) for _ in range(rng.integers(0, 4))]
    if spec.kind == "doc":
        return {name: _random_value(sub, rng) for name, sub in spec.schema.items()}
    if spec.kind == "map":
        return {
            f"k{i}": _random_value(spec.item, rng) for i in range(rng.integers(0, 3))
        }
    raise AssertionError(spec.kind)


def test_random_envelopes_reencode_byte_exact(rng):
    types = sorted(PAYLOAD_SCHEMAS, key=lambda t: t.value)
    for i in range(1000):
        msg_type = types[i % len(types)]
        env = Envelope(
            msg_type=msg_type,
            correlation_id=int(rng.integers(0, 2**64, dtype=np.uint64)),
            payload=_random_value(Field("doc", schema=PAYLOAD_SCHEMAS[msg_type]), rng),
        )
        frame = encode(env)
        decoded = decode_strictly(frame)
        assert encode(decoded) == frame


def test_every_message_type_roundtrips(rng):
    for msg_type in MsgType:
        env = Envelope(
            msg_type=msg_type,
            correlation_id=7,
            payload=_random_value(Field("doc", schema=PAYLOAD_SCHEMAS[msg_type]), rng),
        )
        assert decode_strictly(encode(env)) == env


# -- strict decoding ------------------------------------------------------------------


def test_truncated_frame():
    frame = encode(_register_env())
    with pytest.raises(ProtocolError) as exc:
        decode(frame[:-3])
    assert exc.value.code == "truncated"
    with pytest.raises(ProtocolError) as exc:
        decode(frame[:2])
    assert exc.value.code == "truncated"


def test_unsupported_version():
    for version in (PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1):
        doc = json.loads(encode(_register_env())[4:])
        doc["version"] = version
        body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        with pytest.raises(ProtocolError) as exc:
            decode(struct.pack(">I", len(body)) + body)
        assert exc.value.code == "unsupported_version"


def test_version_1_update_with_session_token_is_refused_by_version():
    # what a version-1 client sends: the update plus the session token that
    # version 2 dropped. The version is refused before the payload is read
    update = make_update("t", [0.0, 0.0], post_loss=0.25)
    payload = {"update": netproto.to_doc(update), "session_token": "tok"}
    doc = {"correlation_id": 3, "msg_type": "ModelUpdateMsg", "payload": payload, "version": 1}
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "unsupported_version"
    # the same payload at the current version names the field it no longer has
    doc["version"] = PROTOCOL_VERSION
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"
    assert exc.value.message == "ModelUpdateMsg: undeclared fields ['session_token']"


def test_version_2_submission_with_a_task_signature_is_refused_by_version():
    # what a version-2 client sends: the task with the copy of its
    # participant's signature that version 3 dropped
    task = netproto.to_doc(make_task("t1"))
    task["data_signature"] = netproto.to_doc(make_metadata("client-a").data_signature)
    payload = {"task": task, "session_token": "tok"}
    doc = {"correlation_id": 3, "msg_type": "SubmitTask", "payload": payload, "version": 2}
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "unsupported_version"
    assert exc.value.message == "version 2"
    # the same payload at the current version names the field it no longer has
    doc["version"] = PROTOCOL_VERSION
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"
    assert exc.value.message == "SubmitTask.task: undeclared fields ['data_signature']"


def test_version_3_registration_with_a_device_record_is_refused_by_version():
    # what a version-3 client sends: the device record that version 4
    # replaced with its device_type (abridged; the record's fields are not read)
    metadata = netproto.to_doc(make_metadata("client-a"))
    metadata["device"] = {"device_type": metadata.pop("device_type"), "model": "tracker-mk1"}
    payload = {"metadata": metadata}
    doc = {"correlation_id": 1, "msg_type": "Register", "payload": payload, "version": 3}
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "unsupported_version"
    assert exc.value.message == "version 3"
    # the same payload at the current version names the field it no longer has
    doc["version"] = PROTOCOL_VERSION
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"
    assert exc.value.message == "Register.metadata: undeclared fields ['device']"


def test_unknown_msg_type():
    doc = json.loads(encode(_register_env())[4:])
    doc["msg_type"] = "Gossip"
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "unknown_msg_type"


_CID_MESSAGE = "correlation_id must be an unsigned 64-bit integer"


@pytest.mark.parametrize(
    "field, value, code, message",
    [
        *[
            ("msg_type", v, "unknown_msg_type", f"msg_type {v!r}")
            for v in ["Gossip", "register", 5, None, True, [], ["Register"], {}, {"a": 1}]
        ],
        *[
            ("version", v, "unsupported_version", f"version {v!r}")
            for v in [True, 3.0, "3", None, [], 5]
        ],
        *[
            ("correlation_id", v, "malformed", _CID_MESSAGE)
            for v in [True, False, -1, 2**64, 1.5, "1", None, [1]]
        ],
        # the previous version, and the current one spelt as a real or a string
        *[("version", v, "unsupported_version", f"version {v!r}") for v in [3, 4.0, "4"]],
    ],
)
def test_envelope_fields_are_refused_with_their_messages(field, value, code, message):
    # an unhashable msg_type is unknown too, not a crash
    doc = json.loads(encode(_register_env())[4:])
    doc[field] = value
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert (exc.value.code, exc.value.message) == (code, message)


@pytest.mark.parametrize("added, removed", [("extra", None), (None, "payload")])
def test_envelope_keys_are_refused_with_their_message(added, removed):
    doc = json.loads(encode(_register_env())[4:])
    if added:
        doc[added] = 1
    if removed:
        del doc[removed]
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    expected = ["correlation_id", "msg_type", "payload", "version"]
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"
    assert exc.value.message == f"envelope keys {sorted(doc)} != {expected}"


def test_bytearray_frame_decodes_like_bytes():
    frame = encode(_register_env())
    assert decode_strictly(bytearray(frame)) == decode_strictly(frame)


def test_trailing_bytes_rejected():
    frame = encode(_register_env())
    with pytest.raises(ProtocolError) as exc:
        decode(frame + b"x")
    assert exc.value.code == "malformed"


def test_oversized_declared_length_rejected():
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", netproto.MAX_BODY_BYTES + 1) + b"{}")
    assert exc.value.code == "size"


def test_non_object_body_rejected():
    body = b"[1,2,3]"
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"


def test_nan_constant_rejected():
    frame = encode(_register_env())
    doc = json.loads(frame[4:])
    doc["payload"]["metadata"]["data_signature"]["quality_score"] = float("nan")
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=True).encode()
    assert b"NaN" in body
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"


def test_overflowing_float_literal_rejected():
    # 1e400 parses to inf, which encode() refuses, so accepting it would break
    # encode(decode(frame)) == frame
    update = make_update("t", [0.0, 0.0], post_loss=0.25)
    env = Envelope(MsgType.MODEL_UPDATE, 3, {"update": netproto.to_doc(update)})
    body = encode(env)[4:]
    assert body.count(b'"loss":0.25') == 1
    body = body.replace(b'"loss":0.25', b'"loss":1e400')
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"


def test_bool_is_not_an_int_or_number():
    env = _register_env()
    payload = json.loads(json.dumps(env.payload))
    payload["metadata"]["data_signature"]["n_samples"] = True
    with pytest.raises(ProtocolError):
        encode(Envelope(MsgType.REGISTER, 1, payload))


def test_random_byte_fuzz_never_crashes(rng):
    # ten thousand frames of garbage, mutations, and truncations
    template = bytearray(encode(_register_env()))
    for i in range(10_000):
        mode = i % 3
        if mode == 0:
            frame = bytes(rng.integers(0, 256, size=int(rng.integers(0, 120)), dtype=np.uint8))
        elif mode == 1:
            mutated = bytearray(template)
            for _ in range(int(rng.integers(1, 6))):
                mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
            frame = bytes(mutated)
        else:
            cut = int(rng.integers(0, len(template)))
            frame = bytes(template[:cut])
        try:
            decode(frame)
        except ProtocolError:
            pass  # the only acceptable failure mode


# -- schema-level privacy guard ---------------------------------------------------------


def _walk_fields(schema, prefix=""):
    for name, spec in schema.items():
        yield prefix + name, spec
        if spec.kind == "doc":
            yield from _walk_fields(spec.schema, prefix + name + ".")
        elif spec.kind in ("list", "map") and spec.item is not None and spec.item.kind == "doc":
            yield from _walk_fields(spec.item.schema, prefix + name + "[].")


def test_no_wire_schema_can_carry_raw_data():
    forbidden = {"features", "labels", "x", "y", "data", "samples", "records", "raw_data"}
    array_allowlist = {
        "per_feature_mean",
        "per_feature_std",
        "label_histogram",
        "interests",
        "expertise",
        "required_tags",
        "forbidden_tags",
        "communities",
    }
    for msg_type, schema in PAYLOAD_SCHEMAS.items():
        for path, spec in _walk_fields(schema):
            leaf = path.split(".")[-1].replace("[]", "")
            assert leaf.lower() not in forbidden, f"{msg_type}: field {path}"
            if spec.kind == "list":
                assert leaf in array_allowlist, f"{msg_type}: unexpected array field {path}"
                # no list of lists anywhere: nothing can smuggle a matrix
                assert spec.item.kind in ("str", "float", "doc")


def test_undeclared_payload_fields_rejected_both_ways():
    env = _register_env()
    smuggle = dict(env.payload)
    smuggle["features"] = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ProtocolError):
        encode(Envelope(MsgType.REGISTER, 1, smuggle))
    # handcrafted frame with the extra field is rejected on decode as well
    doc = {
        "correlation_id": 1,
        "msg_type": "Register",
        "payload": smuggle,
        "version": PROTOCOL_VERSION,
    }
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError):
        decode(struct.pack(">I", len(body)) + body)


def test_response_mapping_covers_requests():
    assert RESPONSE_OF[MsgType.REGISTER] == MsgType.REGISTER_ACK
    assert RESPONSE_OF[MsgType.LIST_COMMUNITIES] == MsgType.COMMUNITY_LIST
    assert RESPONSE_OF[MsgType.SUBMIT_TASK] == MsgType.TASK_ACK
    assert RESPONSE_OF[MsgType.TRAIN_REQUEST] == MsgType.MODEL_UPDATE
    assert RESPONSE_OF[MsgType.MODEL_UPDATE] == MsgType.METRICS_ACK


# -- framing over streams ----------------------------------------------------------------


def test_read_frame_sequential_and_eof():
    frames = [encode(_register_env(i)) for i in range(3)]
    stream = io.BytesIO(b"".join(frames))
    for expected in frames:
        assert read_frame(stream) == expected
    assert read_frame(stream) is None


def test_read_frame_midframe_eof():
    frame = encode(_register_env())
    stream = io.BytesIO(frame[:-2])
    with pytest.raises(ProtocolError) as exc:
        read_frame(stream)
    assert exc.value.code == "truncated"


def test_encode_size_limit():
    big_tags = ["t" * 1000] * 20000  # ~20 MB payload
    meta_doc = netproto.to_doc(make_metadata("big"))
    meta_doc["interests"] = big_tags
    with pytest.raises(ProtocolError) as exc:
        encode(Envelope(MsgType.REGISTER, 1, {"metadata": meta_doc}))
    assert exc.value.code == "size"


# -- wire weights and docs ---------------------------------------------------------------


def test_wire_weights_rejects_bad_base64_and_length():
    with pytest.raises(ProtocolError):
        wire_to_weights({"arch_id": "logreg:2x2", "values": "!!not-base64!!"})
    ok_but_short = base64.b64encode(b"\x00" * 7).decode()
    with pytest.raises(ProtocolError):
        wire_to_weights({"arch_id": "logreg:2x2", "values": ok_but_short})
    wrong_count = base64.b64encode(b"\x00" * 16).decode()
    with pytest.raises(ProtocolError):
        wire_to_weights({"arch_id": "logreg:2x2", "values": wrong_count})


def test_wire_weights_preserve_bits(rng):
    arch = make_arch(3, 2)
    w = WeightVector(values=rng.normal(0, 1, arch.param_count), arch_id=arch.arch_id)
    restored = wire_to_weights(weights_to_wire(w))
    assert np.array_equal(restored.values, w.values)


def test_wire_weights_nonfinite_representable_for_guard():
    arch = make_arch(1, 2)
    values = np.array([np.nan, 0.0, 0.0, 0.0])
    blob = base64.b64encode(values.astype("<f8").tobytes()).decode()
    hostile = wire_to_weights({"arch_id": arch.arch_id, "values": blob})
    assert not hostile.is_finite()


def test_task_and_community_doc_roundtrip():
    task = make_task("t1", overrides={"learning_rate": 0.05, "epochs": 3})
    restored = netproto.from_doc(FlTask, netproto.to_doc(task))
    assert restored.task_id == task.task_id
    assert restored.config == task.config
    assert restored.plan_overrides == task.plan_overrides
    community = make_community()
    again = netproto.from_doc(Community, netproto.to_doc(community))
    assert again.community_id == community.community_id
    assert again.default_plan == community.default_plan
    assert again.criteria == community.criteria


# -- decoder properties --------------------------------------------------------------


_TEXT = st.text(max_size=6)
_INTEGERS = st.integers(-(2**70), 2**70)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_KEYS = st.text(max_size=4)
_LEAVES = {
    "str": _TEXT,
    "key": _KEYS,
    "int": _INTEGERS,
    "float": _FLOATS,
    "number": st.one_of(_INTEGERS, _FLOATS),
}


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


# leaves of a locally built payload: subclasses of str, int and float that a
# field accepts and encode writes as their plain values
_LOCAL_LEAVES = {
    "str": st.one_of(_TEXT, st.sampled_from(MsgType)),
    "key": st.one_of(_KEYS, st.sampled_from(MsgType)),
    "int": st.one_of(_INTEGERS, st.sampled_from(_Level)),
    "float": st.one_of(_FLOATS, _FLOATS.map(np.float64)),
    "number": st.one_of(_INTEGERS, st.sampled_from(_Level), _FLOATS, _FLOATS.map(np.float64)),
}


def _values(spec: Field, leaves: dict = _LEAVES):
    """Hypothesis strategy for any value the schema field accepts, with its
    scalars and map keys drawn from ``leaves``."""
    if spec.kind in leaves:
        return leaves[spec.kind]
    if spec.kind == "list":
        return st.lists(_values(spec.item, leaves), max_size=3)
    if spec.kind == "map":
        return st.dictionaries(leaves["key"], _values(spec.item, leaves), max_size=3)
    if spec.kind == "doc":
        return st.fixed_dictionaries(
            {name: _values(sub, leaves) for name, sub in spec.schema.items()}
        )
    raise AssertionError(spec.kind)


@st.composite
def _envelope_docs(draw):
    msg_type = draw(st.sampled_from(sorted(MsgType, key=lambda t: t.value)))
    return {
        "correlation_id": draw(st.integers(0, 2**64 - 1)),
        "msg_type": msg_type.value,
        "payload": draw(_values(Field("doc", schema=PAYLOAD_SCHEMAS[msg_type]))),
        "version": netproto.PROTOCOL_VERSION,
    }


def _frame(text: str) -> bytes:
    body = text.encode("utf-8")
    return struct.pack(">I", len(body)) + body


@st.composite
def _spelled_frames(draw):
    """Schema-valid envelopes, written with or without sorted keys, spacing
    and ASCII escapes; only one of these spellings is the canonical one."""
    text = json.dumps(
        draw(_envelope_docs()),
        sort_keys=draw(st.booleans()),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (",", ": ")])),
        ensure_ascii=draw(st.booleans()),
    )
    return _frame(text)


@settings(max_examples=300, deadline=None)
@given(_spelled_frames())
def test_every_accepted_frame_reencodes_to_itself(frame):
    try:
        env = decode_strictly(frame)
    except ProtocolError as exc:
        assert exc.code == "malformed"
        return
    assert encode(env) == frame


def _update_body() -> bytes:
    update = make_update("t", [0.0, 0.0], post_loss=0.25)
    return encode(Envelope(MsgType.MODEL_UPDATE, 3, {"update": netproto.to_doc(update)}))[4:]


@pytest.mark.parametrize(
    "canonical, other",
    [
        # found by the property above: spacing after separators was accepted
        (b'"version":%d}' % PROTOCOL_VERSION, b'"version": %d}' % PROTOCOL_VERSION),
        (b'{"correlation_id":3,', b'{ "correlation_id":3,'),
        (b'"loss":0.25', b'"loss":2.5e-1'),
        (b'"loss":0.25', b'"loss":0.250'),
        (b'"round":0', b'"round":-0'),
        (b'"task_id":"t"', b'"task_id":"\\u0074"'),
        # a lone surrogate parses, but no UTF-8 frame can carry it back
        (b'"task_id":"t"', b'"task_id":"\\ud800"'),
        (b'"task_id":"t",', b'"task_id":"t","task_id":"t",'),
    ],
)
def test_non_canonical_spellings_are_malformed(canonical, other):
    body = _update_body()
    assert body.count(canonical) == 1
    body = body.replace(canonical, other)
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"


def _numeric_leaves(value, spec: Field, path: tuple):
    if spec.kind in ("int", "float", "number"):
        yield path, spec.kind
    elif spec.kind == "doc":
        for name, sub in spec.schema.items():
            yield from _numeric_leaves(value[name], sub, path + (name,))
    elif spec.kind == "list":
        for i, item in enumerate(value):
            yield from _numeric_leaves(item, spec.item, path + (i,))
    elif spec.kind == "map":
        for key, item in value.items():
            yield from _numeric_leaves(item, spec.item, path + (key,))


@settings(max_examples=200, deadline=None)
@given(_envelope_docs(), st.data())
def test_bool_in_an_integer_field_and_overflowing_floats_are_malformed(doc, data):
    payload_schema = PAYLOAD_SCHEMAS[MsgType(doc["msg_type"])]
    schema = {"correlation_id": Field("int"), "payload": Field("doc", schema=payload_schema)}
    leaves = list(_numeric_leaves(doc, Field("doc", schema=schema), ()))
    path, kind = data.draw(st.sampled_from(leaves))
    bools, overflows = ["true", "false"], ["1e400", "-1e400"]
    choices = {"int": bools, "float": overflows, "number": bools + overflows}[kind]
    hostile = data.draw(st.sampled_from(choices))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@hostile@"
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    with pytest.raises(ProtocolError) as exc:
        decode(_frame(text.replace('"@hostile@"', hostile)))
    assert exc.value.code == "malformed"


# -- compiled validators against the interpreted original ------------------------------


def _oracle_validate_value(value, spec: Field, path: str):
    """The original schema interpreter, kept as the oracle of the compiled
    checkers."""
    if spec.kind == "str":
        if not isinstance(value, str):
            raise ProtocolError("malformed", f"{path}: expected string")
    elif spec.kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError("malformed", f"{path}: expected integer")
    elif spec.kind == "float":
        if not isinstance(value, float):
            raise ProtocolError("malformed", f"{path}: expected real")
    elif spec.kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError("malformed", f"{path}: expected number")
    elif spec.kind == "list":
        if not isinstance(value, list):
            raise ProtocolError("malformed", f"{path}: expected list")
        for i, item in enumerate(value):
            _oracle_validate_value(item, spec.item, f"{path}[{i}]")
    elif spec.kind == "doc":
        _oracle_validate_doc(value, spec.schema, path)
    elif spec.kind == "map":
        if not isinstance(value, dict):
            raise ProtocolError("malformed", f"{path}: expected object")
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError("malformed", f"{path}: non-string key")
            _oracle_validate_value(item, spec.item, f"{path}.{key}")
    else:
        raise AssertionError(f"unknown field kind {spec.kind}")


def _oracle_validate_doc(doc, schema: dict, path: str):
    if not isinstance(doc, dict):
        raise ProtocolError("malformed", f"{path}: expected object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ProtocolError("malformed", f"{path}: undeclared fields {sorted(unknown)}")
    missing = set(schema) - set(doc)
    if missing:
        raise ProtocolError("malformed", f"{path}: missing fields {sorted(missing)}")
    for name, spec in schema.items():
        _oracle_validate_value(doc[name], spec, f"{path}.{name}")


def _verdict(validate, *args):
    try:
        validate(*args)
    except ProtocolError as exc:
        return exc.code, exc.message
    return None


_OTHER_VALUES = ["s", "", 3, -1, 2.5, 0.0, True, False, None, [], [1], {}, {"a": 1}]


def _other_value(data):
    # a fresh copy: a later mutation may append to a drawn list or dict
    return copy.deepcopy(data.draw(st.sampled_from(_OTHER_VALUES)))


def _nodes(value, spec: Field, path: tuple):
    """Every (path, spec) of a value, the value itself included, skipping
    containers an earlier mutation gave the wrong type."""
    container = {"doc": dict, "map": dict, "list": list}.get(spec.kind)
    if container is not None and not isinstance(value, container):
        return
    yield path, spec
    if spec.kind == "doc":
        for name, sub in spec.schema.items():
            if name in value:
                yield from _nodes(value[name], sub, path + (name,))
    elif spec.kind == "list":
        for i, item in enumerate(value):
            yield from _nodes(item, spec.item, path + (i,))
    elif spec.kind == "map":
        for key, item in value.items():
            yield from _nodes(item, spec.item, path + (key,))


def _mutate(doc, spec: Field, data):
    """Apply a drawn mutation at a drawn node it applies to: a swapped type,
    a bool in a numeric field, an undeclared or a missing key, or a bad list
    item or map entry. A swap may keep the type, so some results are valid."""
    nodes = list(_nodes(doc, spec, ()))

    def at(path):
        node = doc
        for step in path:
            node = node[step]
        return node

    eligible = {
        "swap": [n for n in nodes if n[0]],
        "bool": [n for n in nodes if n[1].kind in ("int", "number")],
        "undeclared": [n for n in nodes if n[1].kind == "doc"],
        "missing": [n for n in nodes if n[1].kind == "doc" and at(n[0])],
        "bad_item": [n for n in nodes if n[1].kind in ("list", "map")],
    }
    mutation = data.draw(st.sampled_from([k for k, found in eligible.items() if found]))
    path, node_spec = data.draw(st.sampled_from(eligible[mutation]))
    node = at(path)
    if mutation == "swap":
        at(path[:-1])[path[-1]] = _other_value(data)
    elif mutation == "bool":
        at(path[:-1])[path[-1]] = data.draw(st.booleans())
    elif mutation == "undeclared":
        node[data.draw(st.sampled_from(["aaa", "zzz", "extra_field"]))] = 1
    elif mutation == "missing":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif node_spec.kind == "list":
        bad = _other_value(data)
        if node and data.draw(st.booleans()):
            node[data.draw(st.integers(0, len(node) - 1))] = bad
        else:
            node.append(bad)
    else:  # a map: a bad value under an old or new key, or a non-string key
        node[data.draw(st.sampled_from(list(node) + ["new_key", 7]))] = _other_value(data)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(MsgType, key=lambda t: t.value)), st.data())
def test_compiled_payload_validators_match_the_interpreter(msg_type, data):
    schema = PAYLOAD_SCHEMAS[msg_type]
    spec = Field("doc", schema=schema)
    payload = data.draw(_values(spec))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(payload, spec, data)
    expected = _verdict(_oracle_validate_doc, payload, schema, msg_type.value)
    assert _verdict(encode, Envelope(msg_type, 5, payload)) == expected
    # the frame's verdict is the oracle's on the document as decoded: JSON
    # turns a non-string map key into a string, and the frame sorts keys
    payload = json.loads(json.dumps(payload))
    doc = {
        "correlation_id": 5,
        "msg_type": msg_type.value,
        "payload": payload,
        "version": PROTOCOL_VERSION,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    decoded = json.loads(text)["payload"]
    expected = _verdict(_oracle_validate_doc, decoded, schema, msg_type.value)
    assert _verdict(decode, _frame(text)) == expected


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(RECORD_SCHEMAS, key=lambda c: c.__name__)), st.data())
def test_compiled_record_validators_match_the_interpreter(cls, data):
    schema = RECORD_SCHEMAS[cls]
    spec = Field("doc", schema=schema)
    doc = data.draw(_values(spec))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, spec, data)
    expected = _verdict(_oracle_validate_doc, doc, schema, cls.__name__)
    assert _verdict(netproto._VALIDATE_RECORD[cls], doc) == expected
    if expected is not None:
        with pytest.raises(ConfigError) as exc:
            from_file_doc(cls, doc)
        assert str(exc.value) == expected[1]


@pytest.mark.parametrize(
    "payload, message",
    [
        # undeclared fields are reported before missing ones
        ({"code": 1, "extra": 2}, "Error: undeclared fields ['extra']"),
        ({"extra": 2}, "Error: undeclared fields ['extra']"),
        ({"code": "c"}, "Error: missing fields ['message']"),
        # fields in declaration order: the first failure wins
        ({"code": 1, "message": 2}, "Error.code: expected string"),
        ({"code": "c", "message": True}, "Error.message: expected string"),
        # keys of mixed types, which only a locally built payload can have
        ({"code": "c", "message": "m", 1: 0, "x": 0}, "Error: undeclared fields [1, 'x']"),
    ],
)
def test_validator_messages_name_the_first_failure(payload, message):
    with pytest.raises(ProtocolError) as exc:
        encode(Envelope(MsgType.ERROR, 1, payload))
    assert (exc.value.code, exc.value.message) == ("malformed", message)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"epochs": 2, "lr": True}, "FlTask.plan_overrides.lr: expected number"),
        ({"epochs": "2"}, "FlTask.plan_overrides.epochs: expected number"),
        ({7: 1.0}, "FlTask.plan_overrides: non-string key"),
        ([], "FlTask.plan_overrides: expected object"),
    ],
)
def test_map_entries_are_checked_like_the_interpreter(overrides, message):
    doc = netproto.to_doc(make_task("t1"))
    doc["plan_overrides"] = overrides
    expected = _verdict(_oracle_validate_doc, doc, RECORD_SCHEMAS[FlTask], "FlTask")
    assert _verdict(netproto._VALIDATE_RECORD[FlTask], doc) == expected == ("malformed", message)


# -- compiled converters against the generic ones ------------------------------------


def _generic_converters() -> tuple[dict, dict]:
    """The loop-per-field converters that the compiled ones replaced, kept as
    their oracle: a writer and a reader for every wire record, each nested
    record converted by this table's own entry."""
    writers = {WeightVector: weights_to_wire}
    readers = {WeightVector: wire_to_weights}

    def same(value):
        return value

    def value_writer(spec: Field):
        if spec.kind == "doc":
            return writers[spec.record]
        if spec.kind == "list":
            if spec.item.kind == "str":
                return sorted
            item = value_writer(spec.item)
            return lambda values: [item(v) for v in values]
        if spec.kind == "map":
            item = value_writer(spec.item)
            return lambda mapping: {k: item(v) for k, v in mapping.items()}
        return {"int": int, "float": float}.get(spec.kind, same)

    def value_reader(spec: Field):
        if spec.kind == "doc":
            return readers[spec.record]
        if spec.kind == "map":
            return dict
        return same

    def converters(cls, schema):
        write_fields = [(name, value_writer(spec)) for name, spec in schema.items()]
        read_fields = [(name, value_reader(spec)) for name, spec in schema.items()]

        def write(obj):
            return {name: convert(getattr(obj, name)) for name, convert in write_fields}

        def read(doc):
            return cls(**{name: convert(doc[name]) for name, convert in read_fields})

        return write, read

    for cls, schema in RECORD_SCHEMAS.items():
        if cls not in writers:
            writers[cls], readers[cls] = converters(cls, schema)
    return writers, readers


_GENERIC_WRITE, _GENERIC_READ = _generic_converters()


def _one_record_of_each_class() -> dict[type, object]:
    """A valid record of every wire class, found inside a few top-level ones;
    numpy scalars and an int real are there to exercise the casts."""
    signature = DataSignature(
        per_feature_mean=np.array([0.5, -1.25]),
        per_feature_std=np.array([1.0, 0.0]),
        label_histogram=np.array([0.25, 0.75]),
        n_samples=np.int64(40),
        quality_score=1,
    )
    weights = WeightVector(values=np.linspace(-1.0, 1.0, 6), arch_id="logreg:2x2")
    update = dataclasses.replace(
        make_update("t", [0.0, 0.0]),
        weights=weights,
        pre_metrics=EvalMetrics(loss=np.float64(0.75), accuracy=0.5, n_samples=np.int64(3)),
    )
    task = dataclasses.replace(make_task("t"), plan_overrides={"epochs": 3})
    community = make_community()
    roots = [
        make_metadata("p", interests=("Sleep", "fitness"), signature=signature),
        task,
        community,
        update,
        TrainRequest("t", "c", 2, community.default_plan, weights),
    ]
    found: dict[type, object] = {}

    def walk(record):
        found.setdefault(type(record), record)
        for name, spec in RECORD_SCHEMAS[type(record)].items():
            if spec.kind == "doc":
                walk(getattr(record, name))

    for root in roots:
        walk(root)
    assert set(found) == set(RECORD_SCHEMAS)
    return found


_RECORDS = _one_record_of_each_class()


def _outcome(convert, value):
    try:
        return "ok", convert(value)
    except Exception as exc:  # the oracle and the compiled code must agree
        return "raised", (type(exc), str(exc))


def _assert_same_record(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert a.flags.writeable == b.flags.writeable
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same_record(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


def _typed(value):
    """``value`` with each leaf paired with its type: == alone takes 1 for
    1.0 and a numpy scalar for a Python number."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return type(value), value


def _same_document(a, b) -> bool:
    return _typed(a) == _typed(b)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(RECORD_SCHEMAS, key=lambda c: c.__name__)), st.data())
def test_compiled_converters_match_the_generic_ones(cls, data):
    spec = Field("doc", schema=RECORD_SCHEMAS[cls])
    doc = json.loads(json.dumps(_GENERIC_WRITE[cls](_RECORDS[cls])))
    # overwrite some fields with drawn values of the declared type, which
    # keeps many records valid, then maybe break the document's shape
    for _ in range(data.draw(st.integers(0, 2))):
        nodes = [n for n in _nodes(doc, spec, ()) if n[0]]
        path, node_spec = data.draw(st.sampled_from(nodes))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = data.draw(_values(node_spec))
    if data.draw(st.booleans()):
        _mutate(doc, spec, data)
    if data.draw(st.integers(0, 9)) == 0:
        doc = _other_value(data)
    expected = _outcome(_GENERIC_READ[cls], doc)
    actual = _outcome(lambda d: netproto.from_doc(cls, d), doc)
    assert actual[0] == expected[0]
    if expected[0] == "raised":
        assert actual[1] == expected[1]
        return
    _assert_same_record(actual[1], expected[1])
    # from_doc does not validate (decode does), so a record may hold a value
    # that no writer can cast; both must then refuse it alike
    written = _outcome(netproto.to_doc, actual[1])
    expected = _outcome(_GENERIC_WRITE[cls], actual[1])
    assert written[0] == expected[0]
    if expected[0] == "raised":
        assert written[1] == expected[1]
    else:
        assert _same_document(written[1], expected[1])


@pytest.mark.parametrize("cls", sorted(RECORD_SCHEMAS, key=lambda c: c.__name__), ids=str)
def test_compiled_writers_cast_like_the_generic_ones(cls):
    record = _RECORDS[cls]
    assert _same_document(netproto.to_doc(record), _GENERIC_WRITE[cls](record))


def test_compiled_converters_fail_on_the_first_bad_field_in_schema_order():
    doc = netproto.to_doc(_RECORDS[Community])
    del doc["default_plan"]
    doc["criteria"] = []  # before default_plan in the schema
    for read in (_GENERIC_READ[Community], netproto._FROM_DOC[Community]):
        with pytest.raises(TypeError):
            read(doc)


def test_update_with_a_non_canonical_arch_id_is_malformed():
    doc = netproto.to_doc(_RECORDS[ModelUpdate])
    doc["weights"]["arch_id"] = "logreg:+2x2"  # parses to the dimensions of logreg:2x2
    with pytest.raises(ProtocolError) as exc:
        netproto.update_from_doc(doc)
    assert exc.value.code == "malformed"
    assert "not canonical" in exc.value.message


# -- the prebuilt codec -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_envelope_docs())
def test_prebuilt_encoder_writes_what_json_dumps_writes(doc):
    expected = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")
    assert netproto._canonical_body(doc) == expected
    env = Envelope(MsgType(doc["msg_type"]), doc["correlation_id"], doc["payload"])
    assert encode(env)[4:] == expected


@pytest.mark.parametrize(
    "doc", [{"loss": float("nan")}, {"loss": float("-inf")}, {"message": "\ud800"}]
)
def test_prebuilt_encoder_refuses_what_json_dumps_refuses(doc):
    # UnicodeEncodeError, which a lone surrogate raises, is a ValueError too
    with pytest.raises(ValueError) as dumped:
        json.dumps(
            doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
        ).encode("utf-8")
    with pytest.raises(ProtocolError) as refused:
        netproto._canonical_body(doc)
    assert refused.value.code == "malformed"
    assert refused.value.message == f"payload not JSON-serializable: {dumped.value}"


# -- frames this thread encoded ------------------------------------------------------


def test_encode_refuses_a_bool_correlation_id_as_decode_does():
    # True is an int to isinstance; the frame would say `true`, which decode refuses
    with pytest.raises(ProtocolError) as exc:
        encode(Envelope(MsgType.LIST_COMMUNITIES, True, {}))
    assert exc.value.code == "malformed"
    assert exc.value.message == "correlation_id must be an unsigned 64-bit integer"


def _decode_on_another_thread(frame: bytes):
    result = []
    thread = threading.Thread(target=lambda: result.append(_outcome(decode, frame)))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return result[0]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(MsgType, key=lambda t: t.value)),
    st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(_Level)),
    st.data(),
)
def test_own_frame_decodes_as_the_full_path_does(msg_type, correlation_id, data):
    schema = PAYLOAD_SCHEMAS[msg_type]
    payload = data.draw(_values(Field("doc", schema=schema), _LOCAL_LEAVES))
    frame = encode(Envelope(msg_type, correlation_id, payload))
    own = decode(frame)
    outcome, elsewhere = _decode_on_another_thread(frame)
    assert outcome == "ok"
    for full in (decode_strictly(frame), elsewhere):
        assert own.msg_type is full.msg_type
        assert type(own.correlation_id) is type(full.correlation_id) is int
        assert own.correlation_id == full.correlation_id == correlation_id
        assert _same_document(own.payload, full.payload)


@pytest.fixture
def canonical_body_calls(monkeypatch):
    """The number of ``_canonical_body`` calls so far, in any thread."""
    calls = []
    canonical_body = netproto._canonical_body

    def counted(doc):
        calls.append(1)
        return canonical_body(doc)

    monkeypatch.setattr(netproto, "_canonical_body", counted)
    return lambda: len(calls)


def test_a_frame_from_another_thread_takes_the_full_path(canonical_body_calls):
    frame = encode(_register_env())
    assert canonical_body_calls() == 1
    assert _decode_on_another_thread(frame) == ("ok", _register_env())
    assert canonical_body_calls() == 2  # validated and re-encoded there
    assert decode(frame) == _register_env()
    assert canonical_body_calls() == 2  # only parsed here, where it was encoded
    encode(_register_env(correlation_id=7))  # the thread keeps only its last frame
    assert decode(frame) == _register_env()
    assert canonical_body_calls() == 4


@pytest.mark.parametrize(
    "canonical, other",
    [
        (b'{"correlation_id":3,', b'{"correlation_id": 3,'),
        (b'"loss":0.25', b'"loss":2.5e-1'),
        (b'"accuracy":1.0', b'"accuracy":1e0'),  # the same length
    ],
)
def test_a_variant_of_the_own_frame_is_malformed(canonical, other):
    update = make_update("t", [0.0, 0.0], post_loss=0.25)
    env = Envelope(MsgType.MODEL_UPDATE, 3, {"update": netproto.to_doc(update)})
    env.payload["update"]["post_metrics"]["accuracy"] = 1.0
    body = encode(env)[4:]
    assert body.count(canonical) == 1
    body = body.replace(canonical, other)
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "malformed"
    assert exc.value.message == "body is not in canonical form"


def test_a_simulation_writes_each_frame_once(canonical_body_calls, monkeypatch):
    frames = []
    monkeypatch.setattr(netproto, "encode", lambda env: frames.append(1) or encode(env))
    runner.run_simulation(scenarios.builtin_scenarios()["uniform"], mode="cohort")
    assert len(frames) > 100
    assert canonical_body_calls() == len(frames)


def test_each_thread_keeps_its_own_frame(canonical_body_calls):
    # more threads than cores, switching often, and each yielding between
    # its encode and its decode: had the threads one slot, another thread's
    # encode would land there, and the decode would check the frame in full
    start = threading.Barrier(4)
    errors = []

    def work(worker: int):
        try:
            start.wait(timeout=10)
            for i in range(300):
                env = _register_env(correlation_id=worker * 1000 + i)
                frame = encode(env)
                time.sleep(0)
                assert decode(frame) == env
        except Exception as exc:  # reported below, in the test's own thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert canonical_body_calls() == 4 * 300
