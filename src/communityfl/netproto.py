"""Wire protocol: framing, message schemas, and domain/document converters.

A frame is a 4-byte big-endian length prefix followed by a UTF-8 JSON body
with lexicographically sorted keys, so ``encode(decode(frame)) == frame`` for
every well-formed frame. The decoder is strict and total: any malformed input
raises :class:`ProtocolError` and nothing else.

Every message type's payload is validated against an explicit schema; unknown
fields are rejected. No schema declares a field that can carry raw feature or
label arrays - model weights travel as base64-encoded float64 blobs and data
is only ever described by its statistical signature.

See ``docs/PROTOCOL.md`` for the normative schema reference.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import IO

import numpy as np

from .community import (
    CollaborationCriteria,
    Community,
    DataSignature,
    DeviceDescriptor,
    ParticipantMetadata,
)
from .errors import ProtocolError, ShapeError
from .flcore import ConfigSignature, FlPlan, FlTask, ModelUpdate
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


F_STR = Field("str")
F_INT = Field("int")
F_FLOAT = Field("float")
F_NUMBER = Field("number")


def f_list(item: Field) -> Field:
    return Field("list", item=item)


def f_doc(schema: dict) -> Field:
    return Field("doc", schema=schema)


def f_map(value: Field) -> Field:
    return Field("map", item=value)


CRITERIA_SCHEMA = {
    "required_tags": f_list(F_STR),
    "forbidden_tags": f_list(F_STR),
    "min_data_quality": F_FLOAT,
    "min_samples": F_INT,
}

DEVICE_SCHEMA = {
    "manufacturer": F_STR,
    "model": F_STR,
    "device_type": F_STR,
    "firmware": F_STR,
}

SIGNATURE_SCHEMA = {
    "per_feature_mean": f_list(F_FLOAT),
    "per_feature_std": f_list(F_FLOAT),
    "label_histogram": f_list(F_FLOAT),
    "n_samples": F_INT,
    "quality_score": F_FLOAT,
}

METADATA_SCHEMA = {
    "participant_id": F_STR,
    "device": f_doc(DEVICE_SCHEMA),
    "interests": f_list(F_STR),
    "expertise": f_list(F_STR),
    "data_signature": f_doc(SIGNATURE_SCHEMA),
    "criteria": f_doc(CRITERIA_SCHEMA),
}

ARCH_SCHEMA = {
    "arch_id": F_STR,
    "n_features": F_INT,
    "n_classes": F_INT,
    "hidden_units": F_INT,
}

PLAN_SCHEMA = {
    "epochs": F_INT,
    "batch_size": F_INT,
    "learning_rate": F_FLOAT,
    "shuffle_seed": F_INT,
    "eval_holdout_fraction": F_FLOAT,
    "rounds_target": F_INT,
}

CONFIG_SCHEMA = {
    "device_type": F_STR,
    "fl_algorithm": F_STR,
    "model_arch": f_doc(ARCH_SCHEMA),
    "objective": F_STR,
}

TASK_SCHEMA = {
    "task_id": F_STR,
    "client_id": F_STR,
    "community_id": F_STR,
    "config": f_doc(CONFIG_SCHEMA),
    "data_signature": f_doc(SIGNATURE_SCHEMA),
    "targeted_device": F_STR,
    "plan_overrides": f_map(F_NUMBER),
}

COMMUNITY_SCHEMA = {
    "community_id": F_STR,
    "creator_id": F_STR,
    "purpose": F_STR,
    "objective": F_STR,
    "criteria": f_doc(CRITERIA_SCHEMA),
    "base_model": f_doc(ARCH_SCHEMA),
    "default_plan": f_doc(PLAN_SCHEMA),
}

WIRE_WEIGHTS_SCHEMA = {
    "arch_id": F_STR,
    "values": F_STR,  # base64 of little-endian float64
}

METRICS_SCHEMA = {
    "loss": F_FLOAT,
    "accuracy": F_FLOAT,
    "n_samples": F_INT,
}

UPDATE_SCHEMA = {
    "task_id": F_STR,
    "cohort_id": F_STR,
    "round": F_INT,
    "weights": f_doc(WIRE_WEIGHTS_SCHEMA),
    "n_samples": F_INT,
    "pre_metrics": f_doc(METRICS_SCHEMA),
    "post_metrics": f_doc(METRICS_SCHEMA),
    "executor_id": F_STR,
}

PAYLOAD_SCHEMAS: dict[MsgType, dict] = {
    MsgType.REGISTER: {"metadata": f_doc(METADATA_SCHEMA)},
    MsgType.REGISTER_ACK: {"participant_id": F_STR, "session_token": F_STR},
    MsgType.LIST_COMMUNITIES: {"participant_id": F_STR},
    MsgType.COMMUNITY_LIST: {"communities": f_list(f_doc(COMMUNITY_SCHEMA))},
    MsgType.SUBMIT_TASK: {"task": f_doc(TASK_SCHEMA), "session_token": F_STR},
    MsgType.TASK_ACK: {"task_id": F_STR, "population_id": F_STR},
    MsgType.TRAIN_REQUEST: {
        "task_id": F_STR,
        "cohort_id": F_STR,
        "round": F_INT,
        "plan": f_doc(PLAN_SCHEMA),
        "weights": f_doc(WIRE_WEIGHTS_SCHEMA),
    },
    MsgType.MODEL_UPDATE: {"update": f_doc(UPDATE_SCHEMA), "session_token": F_STR},
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
    try:
        body = json.dumps(
            doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
        ).encode("utf-8")
    except ValueError as exc:
        raise ProtocolError("malformed", f"payload not JSON-serializable: {exc}") from exc
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError("size", f"body of {len(body)} bytes exceeds {MAX_BODY_BYTES}")
    return _PREFIX.pack(len(body)) + body


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


def metrics_to_doc(m: EvalMetrics) -> dict:
    return {"loss": float(m.loss), "accuracy": float(m.accuracy), "n_samples": int(m.n_samples)}


def metrics_from_doc(doc: dict) -> EvalMetrics:
    return EvalMetrics(loss=doc["loss"], accuracy=doc["accuracy"], n_samples=doc["n_samples"])


def criteria_to_doc(c: CollaborationCriteria) -> dict:
    return {
        "required_tags": sorted(c.required_tags),
        "forbidden_tags": sorted(c.forbidden_tags),
        "min_data_quality": float(c.min_data_quality),
        "min_samples": int(c.min_samples),
    }


def criteria_from_doc(doc: dict) -> CollaborationCriteria:
    return CollaborationCriteria(
        required_tags=frozenset(doc["required_tags"]),
        forbidden_tags=frozenset(doc["forbidden_tags"]),
        min_data_quality=doc["min_data_quality"],
        min_samples=doc["min_samples"],
    )


def signature_to_doc(s: DataSignature) -> dict:
    return {
        "per_feature_mean": [float(x) for x in s.per_feature_mean],
        "per_feature_std": [float(x) for x in s.per_feature_std],
        "label_histogram": [float(x) for x in s.label_histogram],
        "n_samples": int(s.n_samples),
        "quality_score": float(s.quality_score),
    }


def signature_from_doc(doc: dict) -> DataSignature:
    return DataSignature(
        per_feature_mean=np.array(doc["per_feature_mean"], dtype=np.float64),
        per_feature_std=np.array(doc["per_feature_std"], dtype=np.float64),
        label_histogram=np.array(doc["label_histogram"], dtype=np.float64),
        n_samples=doc["n_samples"],
        quality_score=doc["quality_score"],
    )


def metadata_to_doc(meta: ParticipantMetadata) -> dict:
    return {
        "participant_id": meta.participant_id,
        "device": {
            "manufacturer": meta.device.manufacturer,
            "model": meta.device.model,
            "device_type": meta.device.device_type,
            "firmware": meta.device.firmware,
        },
        "interests": sorted(meta.interests),
        "expertise": sorted(meta.expertise),
        "data_signature": signature_to_doc(meta.data_signature),
        "criteria": criteria_to_doc(meta.criteria),
    }


def metadata_from_doc(doc: dict) -> ParticipantMetadata:
    dev = doc["device"]
    return ParticipantMetadata(
        participant_id=doc["participant_id"],
        device=DeviceDescriptor(
            manufacturer=dev["manufacturer"],
            model=dev["model"],
            device_type=dev["device_type"],
            firmware=dev["firmware"],
        ),
        interests=frozenset(doc["interests"]),
        expertise=frozenset(doc["expertise"]),
        data_signature=signature_from_doc(doc["data_signature"]),
        criteria=criteria_from_doc(doc["criteria"]),
    )


def arch_to_doc(arch: ModelArch) -> dict:
    return {
        "arch_id": arch.arch_id,
        "n_features": arch.n_features,
        "n_classes": arch.n_classes,
        "hidden_units": arch.hidden_units,
    }


def arch_from_doc(doc: dict) -> ModelArch:
    return ModelArch(
        arch_id=doc["arch_id"],
        n_features=doc["n_features"],
        n_classes=doc["n_classes"],
        hidden_units=doc["hidden_units"],
    )


def plan_to_doc(plan: FlPlan) -> dict:
    return {
        "epochs": int(plan.epochs),
        "batch_size": int(plan.batch_size),
        "learning_rate": float(plan.learning_rate),
        "shuffle_seed": int(plan.shuffle_seed),
        "eval_holdout_fraction": float(plan.eval_holdout_fraction),
        "rounds_target": int(plan.rounds_target),
    }


def plan_from_doc(doc: dict) -> FlPlan:
    return FlPlan(
        epochs=doc["epochs"],
        batch_size=doc["batch_size"],
        learning_rate=doc["learning_rate"],
        shuffle_seed=doc["shuffle_seed"],
        eval_holdout_fraction=doc["eval_holdout_fraction"],
        rounds_target=doc["rounds_target"],
    )


def config_to_doc(config: ConfigSignature) -> dict:
    return {
        "device_type": config.device_type,
        "fl_algorithm": config.fl_algorithm,
        "model_arch": arch_to_doc(config.model_arch),
        "objective": config.objective,
    }


def config_from_doc(doc: dict) -> ConfigSignature:
    return ConfigSignature(
        device_type=doc["device_type"],
        fl_algorithm=doc["fl_algorithm"],
        model_arch=arch_from_doc(doc["model_arch"]),
        objective=doc["objective"],
    )


def task_to_doc(task: FlTask) -> dict:
    return {
        "task_id": task.task_id,
        "client_id": task.client_id,
        "community_id": task.community_id,
        "config": config_to_doc(task.config),
        "data_signature": signature_to_doc(task.data_signature),
        "targeted_device": task.targeted_device,
        "plan_overrides": dict(task.plan_overrides),
    }


def task_from_doc(doc: dict) -> FlTask:
    return FlTask(
        task_id=doc["task_id"],
        client_id=doc["client_id"],
        community_id=doc["community_id"],
        config=config_from_doc(doc["config"]),
        data_signature=signature_from_doc(doc["data_signature"]),
        targeted_device=doc["targeted_device"],
        plan_overrides=dict(doc["plan_overrides"]),
    )


def community_to_doc(community: Community) -> dict:
    return {
        "community_id": community.community_id,
        "creator_id": community.creator_id,
        "purpose": community.purpose,
        "objective": community.objective,
        "criteria": criteria_to_doc(community.criteria),
        "base_model": arch_to_doc(community.base_model),
        "default_plan": plan_to_doc(community.default_plan),
    }


def community_from_doc(doc: dict) -> Community:
    return Community(
        community_id=doc["community_id"],
        creator_id=doc["creator_id"],
        purpose=doc["purpose"],
        objective=doc["objective"],
        criteria=criteria_from_doc(doc["criteria"]),
        base_model=arch_from_doc(doc["base_model"]),
        default_plan=plan_from_doc(doc["default_plan"]),
    )


def update_to_doc(update: ModelUpdate) -> dict:
    return {
        "task_id": update.task_id,
        "cohort_id": update.cohort_id,
        "round": int(update.round),
        "weights": weights_to_wire(update.weights),
        "n_samples": int(update.n_samples),
        "pre_metrics": metrics_to_doc(update.pre_metrics),
        "post_metrics": metrics_to_doc(update.post_metrics),
        "executor_id": update.executor_id,
    }


def update_from_doc(doc: dict) -> ModelUpdate:
    return ModelUpdate(
        task_id=doc["task_id"],
        cohort_id=doc["cohort_id"],
        round=doc["round"],
        weights=wire_to_weights(doc["weights"]),
        n_samples=doc["n_samples"],
        pre_metrics=metrics_from_doc(doc["pre_metrics"]),
        post_metrics=metrics_from_doc(doc["post_metrics"]),
        executor_id=doc["executor_id"],
    )
