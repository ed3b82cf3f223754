"""Exact wire bytes for one frame of every message type.

Each frame is built from fixed domain objects through the same converters the
coordinator and clients use, then encoded. Every float is a binary fraction
and every weight vector is tiny, so the bytes do not depend on the platform.
A change to field order, numeric casts, tag sorting or the weight blob format
shows up here as a byte difference. A change that moves a frame on purpose
must say so and re-pin it; print the current frames in ``GOLDEN``'s layout with

    PYTHONPATH=src python tests/test_golden_frames.py
"""

import json
import sys
import threading

import numpy as np
import pytest

from communityfl import netproto
from communityfl.community import (
    CollaborationCriteria,
    Community,
    DataSignature,
    ParticipantMetadata,
)
from communityfl.flcore import ConfigSignature, FlPlan, FlTask, ModelUpdate, TrainRequest
from communityfl.netproto import Envelope, MsgType, decode, encode
from communityfl.tinylearn import EvalMetrics, WeightVector, make_arch

from conftest import decode_strictly

ARCH = make_arch(2, 2)
MLP = make_arch(2, 2, hidden_units=3)
PLAN = FlPlan(
    epochs=2,
    batch_size=16,
    learning_rate=0.125,
    shuffle_seed=7,
    eval_holdout_fraction=0.25,
)
SIGNATURE = DataSignature(
    per_feature_mean=np.array([0.5, -1.25]),
    per_feature_std=np.array([1.0, 0.75]),
    label_histogram=np.array([0.25, 0.75]),
    n_samples=np.int64(40),
    quality_score=1,  # an int here must still go out as a JSON real
)
CRITERIA = CollaborationCriteria(
    required_tags=frozenset({"Sleep", "fitness"}),
    forbidden_tags=frozenset({"lab"}),
    min_data_quality=0.5,
    min_samples=10,
)
METADATA = ParticipantMetadata(
    participant_id="p1",
    device_type="tracker",
    interests=frozenset({"sleep", "Fitness", "running"}),
    expertise=frozenset(),
    data_signature=SIGNATURE,
)
CONFIG = ConfigSignature(
    device_type="tracker", fl_algorithm="fedavg", model_arch=ARCH, objective="hr"
)
TASK = FlTask(
    task_id="p1-t0",
    client_id="p1",
    community_id="C1",
    config=CONFIG,
    plan_overrides={"learning_rate": 0.0625, "epochs": 3},
)
COMMUNITY = Community(
    community_id="C1",
    creator_id="creator",
    purpose="sleep study",
    objective="hr",
    criteria=CRITERIA,
    base_model=MLP,
    default_plan=PLAN,
)
WEIGHTS = WeightVector(values=np.array([0.5, -0.25, 1.5, 0.0, -2.0, 0.125]), arch_id="logreg:2x2")
REQUEST = TrainRequest(
    task_id="p1-t0", cohort_id="pop-x-c000", round=3, plan=PLAN, weights=WEIGHTS
)
UPDATE = ModelUpdate(
    task_id="p1-t0",
    cohort_id="pop-x-c000",
    round=3,
    weights=WEIGHTS,
    n_samples=30,
    pre_metrics=EvalMetrics(loss=np.float64(0.75), accuracy=0.5, n_samples=np.int64(10)),
    post_metrics=EvalMetrics(loss=0.5, accuracy=0.875, n_samples=10),
    executor_id="p2",
)


def _envelopes() -> dict[MsgType, Envelope]:
    return {
        MsgType.REGISTER: Envelope(
            MsgType.REGISTER, 1, {"metadata": netproto.to_doc(METADATA)}
        ),
        MsgType.REGISTER_ACK: Envelope(
            MsgType.REGISTER_ACK, 1, {"session_token": "tok-1"}
        ),
        MsgType.LIST_COMMUNITIES: Envelope(
            MsgType.LIST_COMMUNITIES, 2, {}
        ),
        MsgType.COMMUNITY_LIST: Envelope(
            MsgType.COMMUNITY_LIST,
            2,
            {"communities": [netproto.to_doc(COMMUNITY)]},
        ),
        MsgType.SUBMIT_TASK: Envelope(
            MsgType.SUBMIT_TASK,
            3,
            {"task": netproto.to_doc(TASK), "session_token": "tok-1"},
        ),
        MsgType.TASK_ACK: Envelope(
            MsgType.TASK_ACK, 3, {"task_id": "p1-t0", "population_id": CONFIG.population_id()}
        ),
        MsgType.TRAIN_REQUEST: Envelope(
            MsgType.TRAIN_REQUEST, 2**64 - 1, netproto.to_doc(REQUEST)
        ),
        MsgType.MODEL_UPDATE: Envelope(
            MsgType.MODEL_UPDATE,
            2**64 - 1,
            {"update": netproto.to_doc(UPDATE)},
        ),
        MsgType.METRICS_ACK: Envelope(
            MsgType.METRICS_ACK, 2**64 - 1, {"task_id": "p1-t0", "round": 3, "status": "stored"}
        ),
        MsgType.ERROR: netproto.error_envelope(0, "malformed", "payload.round: expected integer"),
    }


GOLDEN = {
    MsgType.REGISTER: (
        b'\x00\x00\x01F'
        b'{"correlation_id":1,"msg_type":"Register",'
        b'"payload":{"metadata":{"data_signature":{"label_histogram":[0.25,0.75],'
        b'"n_samples":40,"per_feature_mean":[0.5,-1.25],"per_feature_std":[1.0,'
        b'0.75],"quality_score":1.0},"device_type":"tracker","expertise":[],'
        b'"interests":["fitness","running","sleep"],"participant_id":"p1"}},'
        b'"version":4}'
    ),
    MsgType.REGISTER_ACK: (
        b'\x00\x00\x00]'
        b'{"correlation_id":1,"msg_type":"RegisterAck",'
        b'"payload":{"session_token":"tok-1"},"version":4}'
    ),
    MsgType.LIST_COMMUNITIES: (
        b'\x00\x00\x00J'
        b'{"correlation_id":2,"msg_type":"ListCommunities","payload":{},'
        b'"version":4}'
    ),
    MsgType.COMMUNITY_LIST: (
        b'\x00\x00\x01\xe2'
        b'{"correlation_id":2,"msg_type":"CommunityList",'
        b'"payload":{"communities":[{"base_model":{"arch_id":"mlp:2x3x2",'
        b'"hidden_units":3,"n_classes":2,"n_features":2},"community_id":"C1",'
        b'"creator_id":"creator","criteria":{"forbidden_tags":["lab"],'
        b'"min_data_quality":0.5,"min_samples":10,"required_tags":["fitness",'
        b'"sleep"]},"default_plan":{"batch_size":16,"epochs":2,'
        b'"eval_holdout_fraction":0.25,"learning_rate":0.125,"shuffle_seed":7},'
        b'"objective":"hr","purpose":"sleep study"}]},"version":4}'
    ),
    MsgType.SUBMIT_TASK: (
        b'\x00\x00\x01q'
        b'{"correlation_id":3,"msg_type":"SubmitTask",'
        b'"payload":{"session_token":"tok-1","task":{"client_id":"p1",'
        b'"community_id":"C1","config":{"device_type":"tracker",'
        b'"fl_algorithm":"fedavg","model_arch":{"arch_id":"logreg:2x2",'
        b'"hidden_units":0,"n_classes":2,"n_features":2},"objective":"hr"},'
        b'"plan_overrides":{"epochs":3,"learning_rate":0.0625},"task_id":"p1-t0"}},'
        b'"version":4}'
    ),
    MsgType.TASK_ACK: (
        b'\x00\x00\x00t'
        b'{"correlation_id":3,"msg_type":"TaskAck",'
        b'"payload":{"population_id":"pop-9d061bb765","task_id":"p1-t0"},'
        b'"version":4}'
    ),
    MsgType.TRAIN_REQUEST: (
        b'\x00\x00\x01e'
        b'{"correlation_id":18446744073709551615,"msg_type":"TrainRequest",'
        b'"payload":{"cohort_id":"pop-x-c000","plan":{"batch_size":16,"epochs":2,'
        b'"eval_holdout_fraction":0.25,"learning_rate":0.125,"shuffle_seed":7},'
        b'"round":3,"task_id":"p1-t0","weights":{"arch_id":"logreg:2x2",'
        b'"values":"AAAAAAAA4D8AAAAAAADQvwAAAAAAAPg/AAAAAAAAAAAAAAAAAAAAwAAAAAAAAMA/"}},'
        b'"version":4}'
    ),
    MsgType.MODEL_UPDATE: (
        b'\x00\x00\x01\xa2'
        b'{"correlation_id":18446744073709551615,"msg_type":"ModelUpdateMsg",'
        b'"payload":{"update":{"cohort_id":"pop-x-c000","executor_id":"p2",'
        b'"n_samples":30,"post_metrics":{"accuracy":0.875,"loss":0.5,'
        b'"n_samples":10},"pre_metrics":{"accuracy":0.5,"loss":0.75,'
        b'"n_samples":10},"round":3,"task_id":"p1-t0",'
        b'"weights":{"arch_id":"logreg:2x2",'
        b'"values":"AAAAAAAA4D8AAAAAAADQvwAAAAAAAPg/AAAAAAAAAAAAAAAAAAAAwAAAAAAAAMA/"}}},'
        b'"version":4}'
    ),
    MsgType.METRICS_ACK: (
        b'\x00\x00\x00\x85'
        b'{"correlation_id":18446744073709551615,"msg_type":"MetricsAck",'
        b'"payload":{"round":3,"status":"stored","task_id":"p1-t0"},"version":4}'
    ),
    MsgType.ERROR: (
        b'\x00\x00\x00~'
        b'{"correlation_id":0,"msg_type":"Error","payload":{"code":"malformed",'
        b'"message":"payload.round: expected integer"},"version":4}'
    ),
}


def test_every_message_type_has_a_golden_frame():
    assert set(GOLDEN) == set(MsgType) == set(_envelopes())


@pytest.mark.parametrize("msg_type", list(MsgType), ids=lambda t: t.value)
def test_frame_bytes_are_pinned(msg_type):
    frame = encode(_envelopes()[msg_type])
    assert frame == GOLDEN[msg_type]
    assert encode(decode_strictly(frame)) == frame


@pytest.mark.parametrize("record", [METADATA, COMMUNITY, TASK, REQUEST, UPDATE], ids=type)
def test_from_doc_inverts_to_doc(record):
    doc = netproto.to_doc(record)
    assert netproto.to_doc(netproto.from_doc(type(record), doc)) == doc


def _dumps(doc) -> bytes:
    text = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False
    )
    return text.encode("utf-8")


@pytest.mark.parametrize("msg_type", list(MsgType), ids=lambda t: t.value)
def test_prebuilt_encoder_writes_what_json_dumps_writes(msg_type):
    frame = GOLDEN[msg_type]
    doc = json.loads(frame[4:])
    assert netproto._canonical_body(doc) == _dumps(doc) == frame[4:]


def test_threads_share_the_codec():
    # the decoder and the encoder are module-level objects that every socket
    # thread uses at once
    frames = list(GOLDEN.values())
    start = threading.Barrier(4)
    results: dict[int, list[bytes]] = {}
    errors = []

    def work(worker: int):
        try:
            start.wait(timeout=10)
            out = []
            for _ in range(200):
                for frame in frames:
                    out.append(encode(decode(frame)))
            results[worker] = out
        except Exception as exc:  # reported below, in the test's own thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-frame too
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert [results[i] for i in range(4)] == [frames * 200] * 4


def _golden_source() -> str:
    """``GOLDEN`` as source: each frame's length prefix, then its body wrapped
    after commas into byte literals of at most 72 bytes where it can."""
    lines = ["GOLDEN = {"]
    for msg_type, env in _envelopes().items():
        frame = encode(env)
        lines += [f"    MsgType.{msg_type.name}: (", f"        {frame[:4]!r}"]
        chunk, *pieces = frame[4:].split(b",")
        for piece in pieces:
            if len(chunk) + 1 + len(piece) > 72:
                lines.append(f"        {chunk + b','!r}")
                chunk = piece
            else:
                chunk += b"," + piece
        lines += [f"        {chunk!r}", "    ),"]
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    print(_golden_source())
