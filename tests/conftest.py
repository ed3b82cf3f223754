"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from communityfl import netproto
from communityfl.community import (
    CollaborationCriteria,
    Community,
    DataSignature,
    ParticipantMetadata,
)
from communityfl.flcore import ConfigSignature, FlPlan, FlTask, ModelUpdate
from communityfl.hashing import stable_u64
from communityfl.netproto import Envelope
from communityfl.tinylearn import Dataset, EvalMetrics, WeightVector, make_arch

ARCH_2X2 = make_arch(2, 2)


def rand_signature(rng: np.random.Generator, n_features: int = 2, n_classes: int = 2) -> DataSignature:
    hist = rng.random(n_classes) + 0.05
    return DataSignature(
        per_feature_mean=rng.normal(0, 3, n_features),
        per_feature_std=np.abs(rng.normal(1, 0.5, n_features)) + 1e-6,
        label_histogram=hist / hist.sum(),
        n_samples=int(rng.integers(20, 500)),
        quality_score=float(rng.random()),
    )


def near_signature(base: DataSignature, rng: np.random.Generator, scale: float = 0.05) -> DataSignature:
    return DataSignature(
        per_feature_mean=base.per_feature_mean + rng.normal(0, scale, base.per_feature_mean.shape),
        per_feature_std=np.abs(base.per_feature_std + rng.normal(0, scale, base.per_feature_std.shape)),
        label_histogram=base.label_histogram,
        n_samples=base.n_samples,
        quality_score=base.quality_score,
    )


def fixed_signature(mean, std, hist, n_samples: int = 100, quality: float = 1.0) -> DataSignature:
    return DataSignature(
        per_feature_mean=np.asarray(mean, dtype=float),
        per_feature_std=np.asarray(std, dtype=float),
        label_histogram=np.asarray(hist, dtype=float),
        n_samples=n_samples,
        quality_score=quality,
    )


def decode_strictly(frame: bytes) -> Envelope:
    """``netproto.decode`` on its full path. ``decode`` only parses the frame
    that this thread's ``encode`` returned last; this forgets that frame."""
    netproto._OWN_FRAME.frame = None
    return netproto.decode(frame)


def make_update(
    task_id: str,
    values,
    n_samples: int = 1,
    cohort_id: str = "pop-t-c000",
    round: int = 0,
    pre_loss: float = 1.0,
    post_loss: float = 1.0,
    arch=None,
) -> ModelUpdate:
    arch = arch or ARCH_2X2
    vals = np.zeros(arch.param_count)
    vals[: len(values)] = values
    return ModelUpdate(
        task_id=task_id,
        cohort_id=cohort_id,
        round=round,
        weights=WeightVector(values=vals, arch_id=arch.arch_id),
        n_samples=n_samples,
        pre_metrics=EvalMetrics(loss=pre_loss, accuracy=0.5, n_samples=10),
        post_metrics=EvalMetrics(loss=post_loss, accuracy=0.5, n_samples=10),
    )


def make_task(
    task_id: str,
    client_id: str = "client-a",
    objective: str = "objective-1",
    community_id: str = "C1",
    device_type: str = "tracker",
    overrides: dict | None = None,
) -> FlTask:
    return FlTask(
        task_id=task_id,
        client_id=client_id,
        community_id=community_id,
        config=ConfigSignature(
            device_type=device_type,
            fl_algorithm="fedavg",
            model_arch=ARCH_2X2,
            objective=objective,
        ),
        plan_overrides=dict(overrides or {}),
    )


def default_plan(**overrides) -> FlPlan:
    base = dict(
        epochs=2,
        batch_size=32,
        learning_rate=0.3,
        shuffle_seed=1,
        eval_holdout_fraction=0.25,
    )
    base.update(overrides)
    return FlPlan(**base)


def make_metadata(
    participant_id: str = "client-a",
    interests=("fitness",),
    expertise=(),
    n_samples: int = 200,
    quality: float = 1.0,
    signature: DataSignature | None = None,
) -> ParticipantMetadata:
    """A participant's metadata. Its data signature is ``signature`` if given,
    else one drawn from the participant id with ``n_samples`` and ``quality``."""
    if signature is None:
        rng = np.random.default_rng(stable_u64("metadata", participant_id))
        sig = rand_signature(rng)
        signature = DataSignature(
            per_feature_mean=sig.per_feature_mean,
            per_feature_std=sig.per_feature_std,
            label_histogram=sig.label_histogram,
            n_samples=n_samples,
            quality_score=quality,
        )
    return ParticipantMetadata(
        participant_id=participant_id,
        device_type="tracker",
        interests=frozenset(interests),
        expertise=frozenset(expertise),
        data_signature=signature,
    )


def make_community(
    community_id: str = "C1",
    objective: str = "objective-1",
    criteria: CollaborationCriteria | None = None,
    plan: FlPlan | None = None,
) -> Community:
    return Community(
        community_id=community_id,
        creator_id="creator",
        purpose="testing",
        objective=objective,
        criteria=criteria or CollaborationCriteria(),
        base_model=ARCH_2X2,
        default_plan=plan or default_plan(),
    )


def separable_dataset(n: int = 20, gap: float = 4.0, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    half = n // 2
    features = np.vstack(
        [
            rng.normal(0, 0.4, (half, 2)) + np.array([-gap / 2, 0.0]),
            rng.normal(0, 0.4, (n - half, 2)) + np.array([gap / 2, 0.0]),
        ]
    )
    labels = np.array([0] * half + [1] * (n - half))
    return Dataset(features=features, labels=labels, n_classes=2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
