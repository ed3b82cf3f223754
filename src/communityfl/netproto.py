"""Wire protocol: framing, message schemas, and domain/document converters.

A frame is a 4-byte big-endian length prefix followed by a UTF-8 JSON body
in canonical form: sorted keys, no spaces, no escapes ``json`` does not need,
and shortest round-trip number literals. The decoder refuses any other
spelling, so ``encode(decode(frame)) == frame`` for every frame it accepts.
The decoder is strict and total: any malformed input raises
:class:`ProtocolError` and nothing else.

Every message type's payload is validated against an explicit schema; unknown
fields are rejected. The same schemas drive :func:`to_doc` and
:func:`from_doc`, which convert domain records to and from documents. No
schema declares a field that can carry raw feature or label arrays - model
weights travel as base64-encoded float64 blobs and data is only ever
described by its statistical signature.

See ``docs/PROTOCOL.md`` for the normative schema reference.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import IO, Callable

import numpy as np

from .community import (
    CollaborationCriteria,
    Community,
    DataSignature,
    DeviceDescriptor,
    ParticipantMetadata,
)
from .errors import ConfigError, ProtocolError, ShapeError
from .flcore import ConfigSignature, FlPlan, FlTask, ModelUpdate, TrainRequest
from .tinylearn import EvalMetrics, ModelArch, WeightVector

PROTOCOL_VERSION = 1
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


# each request type has exactly one response type; Error may answer any request
RESPONSE_OF = {
    MsgType.REGISTER: MsgType.REGISTER_ACK,
    MsgType.LIST_COMMUNITIES: MsgType.COMMUNITY_LIST,
    MsgType.SUBMIT_TASK: MsgType.TASK_ACK,
    MsgType.TRAIN_REQUEST: MsgType.MODEL_UPDATE,
    MsgType.MODEL_UPDATE: MsgType.METRICS_ACK,
}


@dataclass(frozen=True)
class Field:
    kind: str  # str | int | float | bool | number | list | doc | map
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

RECORD_SCHEMAS[DeviceDescriptor] = {
    "manufacturer": F_STR,
    "model": F_STR,
    "device_type": F_STR,
    "firmware": F_STR,
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
    "device": f_doc(DeviceDescriptor),
    "interests": f_list(F_STR),
    "expertise": f_list(F_STR),
    "data_signature": f_doc(DataSignature),
    "criteria": f_doc(CollaborationCriteria),
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
    "rounds_target": F_INT,
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
    "data_signature": f_doc(DataSignature),
    "targeted_device": F_STR,
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
    MsgType.REGISTER_ACK: {"participant_id": F_STR, "session_token": F_STR},
    MsgType.LIST_COMMUNITIES: {"participant_id": F_STR},
    MsgType.COMMUNITY_LIST: {"communities": f_list(f_doc(Community))},
    MsgType.SUBMIT_TASK: {"task": f_doc(FlTask), "session_token": F_STR},
    MsgType.TASK_ACK: {"task_id": F_STR, "population_id": F_STR},
    MsgType.TRAIN_REQUEST: RECORD_SCHEMAS[TrainRequest],
    MsgType.MODEL_UPDATE: {"update": f_doc(ModelUpdate), "session_token": F_STR},
    MsgType.METRICS_ACK: {"task_id": F_STR, "round": F_INT, "status": F_STR},
    MsgType.ERROR: {"code": F_STR, "message": F_STR},
}


def _validate_value(value, spec: Field, path: str):
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
    elif spec.kind == "bool":
        if not isinstance(value, bool):
            raise ProtocolError("malformed", f"{path}: expected boolean")
    elif spec.kind == "list":
        if not isinstance(value, list):
            raise ProtocolError("malformed", f"{path}: expected list")
        for i, item in enumerate(value):
            _validate_value(item, spec.item, f"{path}[{i}]")
    elif spec.kind == "doc":
        _validate_doc(value, spec.schema, path)
    elif spec.kind == "map":
        if not isinstance(value, dict):
            raise ProtocolError("malformed", f"{path}: expected object")
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError("malformed", f"{path}: non-string key")
            _validate_value(item, spec.item, f"{path}.{key}")
    else:  # pragma: no cover - schema definition bug
        raise AssertionError(f"unknown field kind {spec.kind}")


def _validate_doc(doc, schema: dict, path: str):
    if not isinstance(doc, dict):
        raise ProtocolError("malformed", f"{path}: expected object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ProtocolError("malformed", f"{path}: undeclared fields {sorted(unknown)}")
    missing = set(schema) - set(doc)
    if missing:
        raise ProtocolError("malformed", f"{path}: missing fields {sorted(missing)}")
    for name, spec in schema.items():
        _validate_value(doc[name], spec, f"{path}.{name}")


@dataclass(frozen=True)
class Envelope:
    """One protocol message: type, correlation id, and a schema-checked payload."""

    msg_type: MsgType
    correlation_id: int
    payload: dict
    version: int = PROTOCOL_VERSION


def encode(env: Envelope) -> bytes:
    """Serialize to a length-prefixed canonical-JSON frame."""
    if env.version != PROTOCOL_VERSION:
        raise ProtocolError("unsupported_version", f"cannot encode version {env.version}")
    if not isinstance(env.correlation_id, int) or not 0 <= env.correlation_id < 2**64:
        raise ProtocolError("malformed", "correlation_id must be an unsigned 64-bit integer")
    _validate_doc(env.payload, PAYLOAD_SCHEMAS[env.msg_type], env.msg_type.value)
    doc = {
        "correlation_id": env.correlation_id,
        "msg_type": env.msg_type.value,
        "payload": env.payload,
        "version": env.version,
    }
    body = _canonical_body(doc)
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError("size", f"body of {len(body)} bytes exceeds {MAX_BODY_BYTES}")
    return _PREFIX.pack(len(body)) + body


def _canonical_body(doc: dict) -> bytes:
    """The one spelling of a document that ``encode`` writes."""
    try:
        return json.dumps(
            doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
        ).encode("utf-8")
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


def decode(frame: bytes) -> Envelope:
    """Parse exactly one frame; any malformed input raises ProtocolError."""
    if not isinstance(frame, (bytes, bytearray)) or len(frame) < 4:
        raise ProtocolError("truncated", "frame shorter than length prefix")
    declared = _PREFIX.unpack(bytes(frame[:4]))[0]
    if declared > MAX_BODY_BYTES:
        raise ProtocolError("size", f"declared body of {declared} bytes exceeds {MAX_BODY_BYTES}")
    body = bytes(frame[4:])
    if len(body) < declared:
        raise ProtocolError("truncated", f"declared {declared} bytes, got {len(body)}")
    if len(body) > declared:
        raise ProtocolError("malformed", "trailing bytes after frame body")
    try:
        doc = json.loads(
            body.decode("utf-8"),
            parse_float=_parse_finite_float,
            parse_constant=_reject_constant,
        )
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("malformed", f"body is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("malformed", "body is not a JSON object")
    expected_keys = {"correlation_id", "msg_type", "payload", "version"}
    if set(doc) != expected_keys:
        raise ProtocolError("malformed", f"envelope keys {sorted(doc)} != {sorted(expected_keys)}")
    version = doc["version"]
    if not isinstance(version, int) or isinstance(version, bool) or version != PROTOCOL_VERSION:
        raise ProtocolError("unsupported_version", f"version {version!r}")
    raw_type = doc["msg_type"]
    try:
        msg_type = MsgType(raw_type)
    except ValueError:
        raise ProtocolError("unknown_msg_type", f"msg_type {raw_type!r}") from None
    cid = doc["correlation_id"]
    if not isinstance(cid, int) or isinstance(cid, bool) or not 0 <= cid < 2**64:
        raise ProtocolError("malformed", "correlation_id must be an unsigned 64-bit integer")
    _validate_doc(doc["payload"], PAYLOAD_SCHEMAS[msg_type], msg_type.value)
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


def weights_to_wire(w: WeightVector) -> dict:
    blob = np.ascontiguousarray(w.values, dtype="<f8").tobytes()
    return {"arch_id": w.arch_id, "values": base64.b64encode(blob).decode("ascii")}


def wire_to_weights(doc: dict) -> WeightVector:
    try:
        blob = base64.b64decode(doc["values"].encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError("malformed", f"weights are not valid base64: {exc}") from exc
    if len(blob) % 8 != 0:
        raise ProtocolError("malformed", "weight blob length is not a multiple of 8")
    values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    try:
        return WeightVector(values=values, arch_id=doc["arch_id"], check_finite=False)
    except ShapeError as exc:
        raise ProtocolError("malformed", str(exc)) from exc


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
        _validate_doc(doc, RECORD_SCHEMAS[cls], cls.__name__)
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
        return lambda values: [item(v) for v in values]
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
    writers = [(name, _value_writer(spec)) for name, spec in schema.items()]
    readers = [(name, _value_reader(spec)) for name, spec in schema.items()]

    def write(obj) -> dict:
        return {name: convert(getattr(obj, name)) for name, convert in writers}

    def read(doc: dict):
        return cls(**{name: convert(doc[name]) for name, convert in readers})

    return write, read


# declaration order puts nested records first, so their converters exist
for _cls, _schema in RECORD_SCHEMAS.items():
    if _cls not in _TO_DOC:
        _TO_DOC[_cls], _FROM_DOC[_cls] = _record_converters(_cls, _schema)
