import base64
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from communityfl import netproto
from communityfl.community import Community
from communityfl.errors import ProtocolError
from communityfl.flcore import FlTask
from communityfl.netproto import (
    Envelope,
    Field,
    MsgType,
    PAYLOAD_SCHEMAS,
    RESPONSE_OF,
    decode,
    encode,
    read_frame,
    weights_to_wire,
    wire_to_weights,
)
from communityfl.tinylearn import WeightVector, make_arch

from conftest import make_community, make_metadata, make_task, make_update


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
        decoded = decode(frame)
        assert encode(decoded) == frame


def test_every_message_type_roundtrips(rng):
    for msg_type in MsgType:
        env = Envelope(
            msg_type=msg_type,
            correlation_id=7,
            payload=_random_value(Field("doc", schema=PAYLOAD_SCHEMAS[msg_type]), rng),
        )
        assert decode(encode(env)) == env


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
    doc = json.loads(encode(_register_env())[4:])
    doc["version"] = 2
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "unsupported_version"


def test_unknown_msg_type():
    doc = json.loads(encode(_register_env())[4:])
    doc["msg_type"] = "Gossip"
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with pytest.raises(ProtocolError) as exc:
        decode(struct.pack(">I", len(body)) + body)
    assert exc.value.code == "unknown_msg_type"


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
    env = Envelope(
        MsgType.MODEL_UPDATE,
        3,
        {"update": netproto.to_doc(update), "session_token": "tok"},
    )
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
        "version": 1,
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


def _values(spec: Field):
    """Hypothesis strategy for any value the schema field accepts."""
    if spec.kind == "str":
        return st.text(max_size=6)
    if spec.kind == "int":
        return st.integers(-(2**70), 2**70)
    if spec.kind == "float":
        return st.floats(allow_nan=False, allow_infinity=False)
    if spec.kind == "number":
        return st.one_of(st.integers(-(2**70), 2**70), _values(Field("float")))
    if spec.kind == "list":
        return st.lists(_values(spec.item), max_size=3)
    if spec.kind == "map":
        return st.dictionaries(st.text(max_size=4), _values(spec.item), max_size=3)
    if spec.kind == "doc":
        return st.fixed_dictionaries({name: _values(sub) for name, sub in spec.schema.items()})
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
        env = decode(frame)
    except ProtocolError as exc:
        assert exc.code == "malformed"
        return
    assert encode(env) == frame


def _update_body() -> bytes:
    update = make_update("t", [0.0, 0.0], post_loss=0.25)
    payload = {"update": netproto.to_doc(update), "session_token": "tok"}
    return encode(Envelope(MsgType.MODEL_UPDATE, 3, payload))[4:]


@pytest.mark.parametrize(
    "canonical, other",
    [
        # found by the property above: spacing after separators was accepted
        (b'"version":1}', b'"version": 1}'),
        (b'{"correlation_id":3,', b'{ "correlation_id":3,'),
        (b'"loss":0.25', b'"loss":2.5e-1'),
        (b'"loss":0.25', b'"loss":0.250'),
        (b'"round":0', b'"round":-0'),
        (b'"task_id":"t"', b'"task_id":"\\u0074"'),
        # a lone surrogate parses, but no UTF-8 frame can carry it back
        (b'"task_id":"t"', b'"task_id":"\\ud800"'),
        (b'"session_token":"tok",', b'"session_token":"tok","session_token":"tok",'),
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
