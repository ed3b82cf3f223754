"""Wire protocol: framing, message schemas, and domain/document converters.

A frame is a 4-byte big-endian length prefix followed by a UTF-8 JSON body
in canonical form: sorted keys, no spaces, no escapes ``json`` does not need,
and shortest round-trip number literals. The decoder refuses any other
spelling, so ``encode(decode(frame)) == frame`` for every frame it accepts.
The decoder is strict and total: any malformed input raises
:class:`ProtocolError` and nothing else. The one frame it only parses is the
last one its own thread's ``encode`` returned: ``encode`` checked that
payload and wrote that body, so every frame ``encode`` returns is one the
full checks accept, with the same envelope. An in-process exchange decodes
each frame once, without the second check; a frame from a socket takes the
full path.

Every message type's payload is validated against an explicit schema; unknown
fields are rejected. Each schema is compiled once, at import, into one
straight-line checker with its nested documents inlined, which formats a
field's path only in the ``raise`` that reports it. The same schemas drive
:func:`to_doc` and :func:`from_doc`, which convert domain records to and from
documents; each record's pair is compiled once, too, into straight-line code
that calls a converter only on the fields that need one. The JSON decoders
and the canonical encoder are built once and shared by every frame and
thread. No schema declares a field that can carry raw feature or label
arrays - model weights travel as base64-encoded float64 blobs and data is only
ever described by its statistical signature.

A round sends one cohort model to each of its members, so each thread keeps
its last two weight decodes and returns the same read-only ``WeightVector``
for a document equal to either. It keeps two because in simulation one
thread decodes a member's request and then that member's update before the
next member's request: a memo of one entry would hold the update and never
hit. A thread holds at most two decoded vectors this way.

See ``docs/PROTOCOL.md`` for the normative schema reference.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import threading
from dataclasses import dataclass
from enum import Enum
from typing import IO, Callable

import numpy as np

from .community import (
    CollaborationCriteria,
    Community,
    DataSignature,
    ParticipantMetadata,
)
from .errors import ConfigError, ProtocolError, ShapeError
from .flcore import ConfigSignature, FlPlan, FlTask, ModelUpdate, TrainRequest
from .tinylearn import EvalMetrics, ModelArch, WeightVector

PROTOCOL_VERSION = 4
MAX_BODY_BYTES = 16 * 1024 * 1024
_PREFIX = struct.Struct(">I")


class MsgType(str, Enum):
    REGISTER = "Register"
    REGISTER_ACK = "RegisterAck"
    LIST_COMMUNITIES = "ListCommunities"
    COMMUNITY_LIST = "CommunityList"
    SUBMIT_TASK = "SubmitTask"
    TASK_ACK = "TaskAck"
    TRAIN_REQUEST = "TrainRequest"
    MODEL_UPDATE = "ModelUpdateMsg"
    METRICS_ACK = "MetricsAck"
    ERROR = "Error"


# each request type has exactly one response type; Error may answer any
# request, and a client's Error in place of its round's update is acked too
RESPONSE_OF = {
    MsgType.REGISTER: MsgType.REGISTER_ACK,
    MsgType.LIST_COMMUNITIES: MsgType.COMMUNITY_LIST,
    MsgType.SUBMIT_TASK: MsgType.TASK_ACK,
    MsgType.TRAIN_REQUEST: MsgType.MODEL_UPDATE,
    MsgType.MODEL_UPDATE: MsgType.METRICS_ACK,
    MsgType.ERROR: MsgType.METRICS_ACK,
}


@dataclass(frozen=True)
class Field:
    kind: str  # str | int | float | number | list | doc | map
    item: "Field | None" = None
    schema: dict | None = None
    record: type | None = None  # the domain class a "doc" field converts to


F_STR = Field("str")
F_INT = Field("int")
F_FLOAT = Field("float")
F_NUMBER = Field("number")


def f_list(item: Field) -> Field:
    return Field("list", item=item)


def f_doc(record: type) -> Field:
    return Field("doc", schema=RECORD_SCHEMAS[record], record=record)


def f_map(value: Field) -> Field:
    return Field("map", item=value)


# Wire records: each domain class that travels as a document, with its schema.
# The schema validates frames and drives to_doc / from_doc; its fields are the
# class's constructor arguments. A record is declared after those it nests.
RECORD_SCHEMAS: dict[type, dict] = {}

RECORD_SCHEMAS[CollaborationCriteria] = {
    "required_tags": f_list(F_STR),
    "forbidden_tags": f_list(F_STR),
    "min_data_quality": F_FLOAT,
    "min_samples": F_INT,
}

RECORD_SCHEMAS[DataSignature] = {
    "per_feature_mean": f_list(F_FLOAT),
    "per_feature_std": f_list(F_FLOAT),
    "label_histogram": f_list(F_FLOAT),
    "n_samples": F_INT,
    "quality_score": F_FLOAT,
}

RECORD_SCHEMAS[ParticipantMetadata] = {
    "participant_id": F_STR,
    "device_type": F_STR,
    "interests": f_list(F_STR),
    "expertise": f_list(F_STR),
    "data_signature": f_doc(DataSignature),
}

RECORD_SCHEMAS[ModelArch] = {
    "arch_id": F_STR,
    "n_features": F_INT,
    "n_classes": F_INT,
    "hidden_units": F_INT,
}

RECORD_SCHEMAS[FlPlan] = {
    "epochs": F_INT,
    "batch_size": F_INT,
    "learning_rate": F_FLOAT,
    "shuffle_seed": F_INT,
    "eval_holdout_fraction": F_FLOAT,
}

RECORD_SCHEMAS[ConfigSignature] = {
    "device_type": F_STR,
    "fl_algorithm": F_STR,
    "model_arch": f_doc(ModelArch),
    "objective": F_STR,
}

RECORD_SCHEMAS[FlTask] = {
    "task_id": F_STR,
    "client_id": F_STR,
    "community_id": F_STR,
    "config": f_doc(ConfigSignature),
    "plan_overrides": f_map(F_NUMBER),
}

RECORD_SCHEMAS[Community] = {
    "community_id": F_STR,
    "creator_id": F_STR,
    "purpose": F_STR,
    "objective": F_STR,
    "criteria": f_doc(CollaborationCriteria),
    "base_model": f_doc(ModelArch),
    "default_plan": f_doc(FlPlan),
}

# converted by weights_to_wire / wire_to_weights, not field by field
RECORD_SCHEMAS[WeightVector] = {
    "arch_id": F_STR,
    "values": F_STR,  # base64 of little-endian float64
}

RECORD_SCHEMAS[EvalMetrics] = {
    "loss": F_FLOAT,
    "accuracy": F_FLOAT,
    "n_samples": F_INT,
}

RECORD_SCHEMAS[ModelUpdate] = {
    "task_id": F_STR,
    "cohort_id": F_STR,
    "round": F_INT,
    "weights": f_doc(WeightVector),
    "n_samples": F_INT,
    "pre_metrics": f_doc(EvalMetrics),
    "post_metrics": f_doc(EvalMetrics),
    "executor_id": F_STR,
}

RECORD_SCHEMAS[TrainRequest] = {
    "task_id": F_STR,
    "cohort_id": F_STR,
    "round": F_INT,
    "plan": f_doc(FlPlan),
    "weights": f_doc(WeightVector),
}

PAYLOAD_SCHEMAS: dict[MsgType, dict] = {
    MsgType.REGISTER: {"metadata": f_doc(ParticipantMetadata)},
    MsgType.REGISTER_ACK: {"session_token": F_STR},
    MsgType.LIST_COMMUNITIES: {},
    MsgType.COMMUNITY_LIST: {"communities": f_list(f_doc(Community))},
    MsgType.SUBMIT_TASK: {"task": f_doc(FlTask), "session_token": F_STR},
    MsgType.TASK_ACK: {"task_id": F_STR, "population_id": F_STR},
    MsgType.TRAIN_REQUEST: RECORD_SCHEMAS[TrainRequest],
    MsgType.MODEL_UPDATE: {"update": f_doc(ModelUpdate)},
    MsgType.METRICS_ACK: {"task_id": F_STR, "round": F_INT, "status": F_STR},
    MsgType.ERROR: {"code": F_STR, "message": F_STR},
}


# the test that refuses a scalar held in {v}, and the failure it reports;
# bool is a subclass of int, but True is no integer on the wire. An exact int
# passes on its type alone
_SCALAR_TESTS = {
    "str": ("not isinstance({v}, str)", "expected string"),
    "int": (
        "type({v}) is not int and (not isinstance({v}, int) or isinstance({v}, bool))",
        "expected integer",
    ),
    "float": ("not isinstance({v}, float)", "expected real"),
    "number": ("not isinstance({v}, (int, float)) or isinstance({v}, bool)", "expected number"),
}


def _key_fault(path: str, doc: dict, names: frozenset) -> ProtocolError:
    """The error of a document whose keys are not its schema's: undeclared
    fields are reported before missing ones."""
    unknown = set(doc) - names
    if unknown:
        # key=str: a locally built payload may mix in non-string keys
        return ProtocolError("malformed", f"{path}: undeclared fields {sorted(unknown, key=str)}")
    return ProtocolError("malformed", f"{path}: missing fields {sorted(names - set(doc))}")


class _CheckerSource:
    """The lines of one checker function under construction. A path is the
    body of an f-string: the dotted field names, with ``{i<n>}`` and
    ``{k<n>}`` standing for the list index or map key a loop is at. Roots and
    field names are identifiers, so they need no escaping there."""

    def __init__(self):
        self.lines: list[str] = []
        self.namespace: dict[str, object] = {
            "ProtocolError": ProtocolError,
            "_key_fault": _key_fault,
        }
        self.names = 0

    def fresh(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def emit(self, depth: int, line: str):
        self.lines.append("    " * depth + line)

    def fault(self, depth: int, path: str, what: str):
        self.emit(depth, f"raise ProtocolError('malformed', f{path + ': ' + what!r})")

    def value(self, spec: Field, var: str, path: str, depth: int):
        scalar = _SCALAR_TESTS.get(spec.kind)
        if scalar is not None:
            test, what = scalar
            self.emit(depth, f"if {test.format(v=var)}:")
            self.fault(depth + 1, path, what)
        elif spec.kind == "doc":
            self.doc(spec.schema, var, path, depth)
        elif spec.kind == "list":
            self.emit(depth, f"if not isinstance({var}, list):")
            self.fault(depth + 1, path, "expected list")
            index, item = self.fresh("i"), self.fresh("v")
            self.emit(depth, f"for {index}, {item} in enumerate({var}):")
            self.value(spec.item, item, f"{path}[{{{index}}}]", depth + 1)
        elif spec.kind == "map":
            self.emit(depth, f"if not isinstance({var}, dict):")
            self.fault(depth + 1, path, "expected object")
            key, item = self.fresh("k"), self.fresh("v")
            self.emit(depth, f"for {key}, {item} in {var}.items():")
            self.emit(depth + 1, f"if not isinstance({key}, str):")
            self.fault(depth + 2, path, "non-string key")
            self.value(spec.item, item, f"{path}.{{{key}}}", depth + 1)
        else:  # pragma: no cover
            raise AssertionError(f"unknown field kind {spec.kind}")

    def doc(self, schema: dict, var: str, path: str, depth: int):
        names = self.fresh("names")
        self.namespace[names] = frozenset(schema)
        self.emit(depth, f"if not isinstance({var}, dict):")
        self.fault(depth + 1, path, "expected object")
        self.emit(depth, f"if {var}.keys() != {names}:")
        self.emit(depth + 1, f"raise _key_fault(f{path!r}, {var}, {names})")
        for name, spec in schema.items():
            field = self.fresh("v")
            self.emit(depth, f"{field} = {var}[{name!r}]")
            self.value(spec, field, f"{path}.{name}", depth)


def _validator(schema: dict, root: str) -> Callable[[object], None]:
    """Compile ``schema`` into one straight-line function, nested documents
    inlined, that raises the ``ProtocolError`` whose message names the dotted
    path from ``root``. A document is checked in a fixed order: a non-object,
    undeclared fields, missing fields, then each field in declaration order."""
    source = _CheckerSource()
    source.doc(schema, "doc", root, 1)
    exec("def validate(doc):\n" + "\n".join(source.lines) + "\n", source.namespace)
    return source.namespace["validate"]


_VALIDATE_PAYLOAD = {t: _validator(schema, t.value) for t, schema in PAYLOAD_SCHEMAS.items()}
_VALIDATE_RECORD = {cls: _validator(schema, cls.__name__) for cls, schema in RECORD_SCHEMAS.items()}


@dataclass(frozen=True)
class Envelope:
    """One protocol message: type, correlation id, and a schema-checked payload."""

    msg_type: MsgType
    correlation_id: int
    payload: dict


def error_envelope(correlation_id: int, code: str, message: str) -> Envelope:
    """The ``Error`` message that refuses a request with ``code``. A frame that
    does not decode has no correlation id to echo, so its refusal carries 0."""
    return Envelope(MsgType.ERROR, correlation_id, {"code": code, "message": message})


class _OwnFrame(threading.local):
    """The frame this thread's ``encode`` returned last, which ``decode``
    accepts without checking it again."""

    frame: bytes | None = None


_OWN_FRAME = _OwnFrame()


def encode(env: Envelope) -> bytes:
    """Serialize to a length-prefixed canonical-JSON frame of ``PROTOCOL_VERSION``."""
    cid = env.correlation_id
    # True is an int to isinstance, but decode refuses the `true` it writes
    if not isinstance(cid, int) or isinstance(cid, bool) or not 0 <= cid < 2**64:
        raise ProtocolError("malformed", "correlation_id must be an unsigned 64-bit integer")
    _VALIDATE_PAYLOAD[env.msg_type](env.payload)
    doc = {
        "correlation_id": env.correlation_id,
        "msg_type": env.msg_type.value,
        "payload": env.payload,
        "version": PROTOCOL_VERSION,
    }
    body = _canonical_body(doc)
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError("size", f"body of {len(body)} bytes exceeds {MAX_BODY_BYTES}")
    frame = _PREFIX.pack(len(body)) + body
    _OWN_FRAME.frame = frame
    return frame


# The C encoder behind json.dumps(doc, sort_keys=True, separators=(",", ":"),
# ensure_ascii=False, allow_nan=False), built once: JSONEncoder.encode would
# rebuild it on every call. markers=None skips the circular-reference check,
# which no caller needs: encode validates first, and a document that fits a
# schema, like one json parsed, is a finite tree. It keeps no state between
# calls, so threads may use it at once.
_CANONICAL = json.encoder.c_make_encoder(
    None,  # markers
    json.JSONEncoder().default,  # raises TypeError
    json.encoder.encode_basestring,  # ensure_ascii=False
    None,  # indent
    ":",  # key separator
    ",",  # item separator
    True,  # sort_keys
    False,  # skipkeys
    False,  # allow_nan
)


def _canonical_body(doc: dict) -> bytes:
    """The one spelling of a document that ``encode`` writes."""
    try:
        return "".join(_CANONICAL(doc, 0)).encode("utf-8")
    except ValueError as exc:  # also a lone surrogate, which UTF-8 cannot carry
        raise ProtocolError("malformed", f"payload not JSON-serializable: {exc}") from exc


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _parse_finite_float(literal: str) -> float:
    # a literal such as 1e400 overflows to inf, which encode() cannot write back
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"float literal {literal} overflows")
    return value


# one decoder for every frame: json.loads with keyword arguments would build a
# new decoder and scanner per call. Threads may share it: the scanner's only
# state between calls is a memo that interns object keys, which it clears
_DECODER = json.JSONDecoder(parse_float=_parse_finite_float, parse_constant=_reject_constant)
# for the frame encode wrote last: its floats are reprs of finite floats and
# it holds no NaN or Infinity, so the hooks above would have nothing to catch
_PLAIN_DECODER = json.JSONDecoder()


_ENVELOPE_KEYS = frozenset({"correlation_id", "msg_type", "payload", "version"})
_MSG_TYPE_OF = {t.value: t for t in MsgType}


def decode(frame: bytes) -> Envelope:
    """Parse exactly one frame; any malformed input raises ProtocolError."""
    if not isinstance(frame, (bytes, bytearray)) or len(frame) < 4:
        raise ProtocolError("truncated", "frame shorter than length prefix")
    if frame == _OWN_FRAME.frame:
        # encode validated this frame's payload and wrote its canonical
        # body, so the checks below would pass it; only the parse is left
        doc = _PLAIN_DECODER.decode(frame[4:].decode("utf-8"))
        return Envelope(_MSG_TYPE_OF[doc["msg_type"]], doc["correlation_id"], doc["payload"])
    (declared,) = _PREFIX.unpack_from(frame)
    if declared > MAX_BODY_BYTES:
        raise ProtocolError("size", f"declared body of {declared} bytes exceeds {MAX_BODY_BYTES}")
    body = bytes(frame[4:])
    if len(body) < declared:
        raise ProtocolError("truncated", f"declared {declared} bytes, got {len(body)}")
    if len(body) > declared:
        raise ProtocolError("malformed", "trailing bytes after frame body")
    try:
        doc = _DECODER.decode(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("malformed", f"body is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("malformed", "body is not a JSON object")
    if doc.keys() != _ENVELOPE_KEYS:
        raise ProtocolError("malformed", f"envelope keys {sorted(doc)} != {sorted(_ENVELOPE_KEYS)}")
    # a parsed document holds exact ints, so `type(...) is int` refuses bool
    version = doc["version"]
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise ProtocolError("unsupported_version", f"version {version!r}")
    raw_type = doc["msg_type"]
    try:
        msg_type = _MSG_TYPE_OF[raw_type]
    except (KeyError, TypeError):  # TypeError: a list or an object is unhashable
        raise ProtocolError("unknown_msg_type", f"msg_type {raw_type!r}") from None
    cid = doc["correlation_id"]
    if type(cid) is not int or not 0 <= cid < 2**64:
        raise ProtocolError("malformed", "correlation_id must be an unsigned 64-bit integer")
    _VALIDATE_PAYLOAD[msg_type](doc["payload"])
    # any other spelling of the same document (spacing, key order, escapes,
    # number forms such as 2.5e-1 or -0) is refused, so that every accepted
    # frame re-encodes to itself
    if _canonical_body(doc) != body:
        raise ProtocolError("malformed", "body is not in canonical form")
    return Envelope(msg_type=msg_type, correlation_id=cid, payload=doc["payload"])


def read_frame(stream: IO[bytes]) -> bytes | None:
    """Read one complete frame from a blocking byte stream.

    Returns None on clean EOF at a frame boundary; raises ProtocolError on a
    mid-frame EOF or an oversized declared length.
    """
    prefix = _read_exact(stream, 4)
    if prefix is None:
        return None
    declared = _PREFIX.unpack(prefix)[0]
    if declared > MAX_BODY_BYTES:
        raise ProtocolError("size", f"declared body of {declared} bytes exceeds {MAX_BODY_BYTES}")
    body = _read_exact(stream, declared)
    if body is None:
        raise ProtocolError("truncated", "connection closed mid-frame")
    return prefix + body


def _read_exact(stream: IO[bytes], n: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            if chunks:
                raise ProtocolError("truncated", "connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""


# ---------------------------------------------------------------------------
# domain <-> document converters


class _LastWeights(threading.local):
    """The weight values this thread's ``weights_to_wire`` encoded last, and
    their base64 text: a round sends one cohort model to each member."""

    values: np.ndarray | None = None
    text: str = ""


_LAST_WEIGHTS = _LastWeights()


def weights_to_wire(w: WeightVector) -> dict:
    last = _LAST_WEIGHTS
    # the values are read-only, so the same array encodes to the same text;
    # holding it keeps its id from being reused by another array
    if w.values is not last.values:
        blob = np.ascontiguousarray(w.values, dtype="<f8").tobytes()
        last.text = base64.b64encode(blob).decode("ascii")
        last.values = w.values
    # a fresh dict each call: payload documents are never shared
    return {"arch_id": w.arch_id, "values": last.text}


class _Decoded(threading.local):
    """This thread's last two weight decodes, the latest first, each as
    ``(arch_id, values text, WeightVector)``."""

    entries: tuple = ()


_DECODED = _Decoded()


def wire_to_weights(doc: dict) -> WeightVector:
    """The weights a ``weights_to_wire`` document carries, read-only and not
    checked for finiteness (the guard flags a non-finite update). A document
    equal to one of this thread's last two decodes returns that decode's
    object."""
    arch_id, text = doc["arch_id"], doc["values"]
    entries = _DECODED.entries
    for index, entry in enumerate(entries):
        if entry[1] == text and entry[0] == arch_id:
            if index:
                _DECODED.entries = (entry, entries[0])
            return entry[2]
    try:
        blob = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError("malformed", f"weights are not valid base64: {exc}") from exc
    if len(blob) % 8 != 0:
        raise ProtocolError("malformed", "weight blob length is not a multiple of 8")
    try:
        # the constructor's copy is the only one, in native float64
        weights = WeightVector(
            values=np.frombuffer(blob, dtype="<f8"), arch_id=arch_id, check_finite=False
        )
    except ShapeError as exc:
        raise ProtocolError("malformed", str(exc)) from exc
    _DECODED.entries = ((arch_id, text, weights),) + entries[:1]
    return weights


_TO_DOC: dict[type, Callable] = {WeightVector: weights_to_wire}
_FROM_DOC: dict[type, Callable] = {WeightVector: wire_to_weights}


def to_doc(obj) -> dict:
    """Document form of a wire record (a class in ``RECORD_SCHEMAS``)."""
    return _TO_DOC[type(obj)](obj)


def from_doc(cls: type, doc: dict):
    """Build a ``cls`` record from its document; the class's ``__post_init__``
    turns lists back into frozensets and arrays."""
    return _FROM_DOC[cls](doc)


def from_file_doc(cls: type, doc):
    """``from_doc`` for a document read from a file rather than decoded from a
    frame (``decode`` validates those): check it against the record's schema
    first, so that a string where a tag list belongs is refused instead of
    becoming a set of characters. Raises ``ConfigError``."""
    try:
        _VALIDATE_RECORD[cls](doc)
    except ProtocolError as exc:
        raise ConfigError(exc.message) from exc
    return from_doc(cls, doc)


def update_from_doc(doc: dict) -> ModelUpdate:
    """``from_doc(ModelUpdate, doc)``, named so that tracing can wrap the one
    conversion every received update goes through."""
    return from_doc(ModelUpdate, doc)


# numeric fields are cast so numpy scalars go out as JSON numbers; strings are
# not, so a non-string still fails validation in encode()
_CASTS = {"int": int, "float": float}


def _value_writer(spec: Field) -> Callable:
    if spec.kind == "doc":
        return _TO_DOC[spec.record]
    if spec.kind == "list":
        if spec.item.kind == "str":
            return sorted  # every string list on the wire holds a tag set
        item = _value_writer(spec.item)
        return lambda values: list(map(item, values))
    if spec.kind == "map":
        item = _value_writer(spec.item)
        return lambda mapping: {k: item(v) for k, v in mapping.items()}
    return _CASTS.get(spec.kind, _same)


def _value_reader(spec: Field) -> Callable:
    if spec.kind == "doc":
        return _FROM_DOC[spec.record]
    if spec.kind == "map":
        return dict
    return _same


def _same(value):
    return value


def _record_converters(cls: type, schema: dict) -> tuple[Callable, Callable]:
    """Compile a record's writer and reader into straight-line code: one dict
    display and one constructor call, calling a converter only on the fields
    that need one. Fields are visited in schema order, so a bad record or
    document fails where a loop over the fields would."""
    namespace: dict[str, object] = {"cls": cls}
    items, arguments = [], []
    for i, (name, spec) in enumerate(schema.items()):
        value, write = f"obj.{name}", _value_writer(spec)
        if write is not _same:
            namespace[f"write_{i}"] = write
            value = f"write_{i}({value})"
        items.append(f"{name!r}: {value}")
        value, read = f"doc[{name!r}]", _value_reader(spec)
        if read is not _same:
            namespace[f"read_{i}"] = read
            value = f"read_{i}({value})"
        arguments.append(f"{name}={value}")
    source = (
        f"def write(obj):\n    return {{{', '.join(items)}}}\n"
        f"def read(doc):\n    return cls({', '.join(arguments)})\n"
    )
    exec(source, namespace)
    return namespace["write"], namespace["read"]


# declaration order puts nested records first, so their converters exist
for _cls, _schema in RECORD_SCHEMAS.items():
    if _cls not in _TO_DOC:
        _TO_DOC[_cls], _FROM_DOC[_cls] = _record_converters(_cls, _schema)
