"""Participant metadata, admission filtering, data signatures, and cohorting.

A data signature is a compact statistical summary of local data (per-feature
moments plus a label histogram). Cohorts are formed by deterministic greedy
agglomeration on signature similarity: tasks are visited in ascending task id
and join the best-matching cohort above a threshold, otherwise open a new one.
Every similarity is above 0, so threshold 0 forms one cohort per population:
the global-model baseline is the degenerate cohorting, not a second code path.

Cohort formation works on the signatures stacked once as rows of one matrix,
``[mean | std | histogram | quality]``. Each task is scored against every
cohort centroid in one row-wise pass, and a join recomputes that cohort's
centroid from its member rows, so N tasks forming K cohorts cost O(N) numpy
calls, O(N*K) scoring work and O(sum of squared cohort sizes) centroid work.
Each cohort keeps its member rows and weights, in member order, in buffers
that double when full, so a join appends one row and reads a slice instead of
gathering the rows by a list of member indices.
Cohort membership feeds every later digest, so the centroids must not change
in their last bits: a centroid is the sum of ``alpha * row`` over the members
in member order, starting from 0, exactly as Python's ``sum`` adds them. It is
computed with ``np.cumsum(axis=0)``, which adds rows one by one for any shape.
``.sum(axis=0)`` does so only while the array has more than one column: on a
one-column array numpy switches to pairwise summation (from 8 rows on), so
summation order would hang on the stacked layout instead of being a rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from math import isfinite

import numpy as np

from .errors import ConfigError, ShapeError
from .flcore import FlCohort, FlPlan, FlPopulation
from .tinylearn import Dataset, ModelArch, WeightVector, init_weights


@dataclass(frozen=True)
class CollaborationCriteria:
    """Hard admission filter a community applies to would-be participants."""

    required_tags: frozenset[str] = frozenset()
    forbidden_tags: frozenset[str] = frozenset()
    min_data_quality: float = 0.0
    min_samples: int = 0

    def __post_init__(self):
        object.__setattr__(self, "required_tags", frozenset(t.lower() for t in self.required_tags))
        object.__setattr__(
            self, "forbidden_tags", frozenset(t.lower() for t in self.forbidden_tags)
        )
        if self.required_tags & self.forbidden_tags:
            raise ConfigError("required and forbidden tag sets overlap")
        if not 0.0 <= self.min_data_quality <= 1.0:
            raise ConfigError(f"min_data_quality must be in [0,1], got {self.min_data_quality}")
        if self.min_samples < 0:
            raise ConfigError(f"min_samples must be >= 0, got {self.min_samples}")


@dataclass(eq=False)
class DataSignature:
    """Privacy-light summary of a local dataset used for similarity."""

    per_feature_mean: np.ndarray
    per_feature_std: np.ndarray
    label_histogram: np.ndarray
    n_samples: int
    quality_score: float

    def __post_init__(self):
        mean = np.array(self.per_feature_mean, dtype=np.float64)
        std = np.array(self.per_feature_std, dtype=np.float64)
        hist = np.array(self.label_histogram, dtype=np.float64)
        if mean.ndim != 1 or std.ndim != 1 or mean.shape != std.shape:
            raise ShapeError("per-feature mean/std must be 1-D vectors of equal length")
        # checked on plain floats: a signature holds a handful of values, and
        # a numpy reduction per check costs more than one pass over them.
        # A NaN fails every comparison, so it would pass the range checks and
        # make similarity NaN; every moment is checked finite before any sign.
        negative_std = False
        for m, s in zip(mean.tolist(), std.tolist()):
            if not (isfinite(m) and isfinite(s)):
                raise ShapeError("per-feature mean/std must be finite")
            negative_std = negative_std or s < 0.0
        if negative_std:
            raise ShapeError("per-feature std must be elementwise >= 0")
        if hist.ndim != 1 or hist.size < 1:
            raise ShapeError("label histogram must be a non-negative 1-D vector")
        # numpy sums fewer than 8 values one by one from +0.0, and pairwise
        # from 8 on: below 8 this fold is its sum bit for bit, without a call
        total = 0.0
        for share in hist.tolist():
            if share < 0.0:
                raise ShapeError("label histogram must be a non-negative 1-D vector")
            total += share
        if hist.size >= 8:
            total = float(hist.sum())
        if not abs(total - 1.0) <= 1e-9:  # also refuses NaN
            raise ShapeError(f"label histogram must sum to 1, got {hist.sum()!r}")
        if self.n_samples < 1:
            raise ShapeError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= self.quality_score <= 1.0:
            raise ShapeError(f"quality_score must be in [0,1], got {self.quality_score}")
        for arr in (mean, std, hist):
            arr.setflags(write=False)
        object.__setattr__(self, "per_feature_mean", mean)
        object.__setattr__(self, "per_feature_std", std)
        object.__setattr__(self, "label_histogram", hist)


@dataclass(eq=False)
class ParticipantMetadata:
    """Self-description a participant shares with the coordinator; its data
    signature describes the data every task of the participant trains on."""

    participant_id: str
    device_type: str
    interests: frozenset[str]
    expertise: frozenset[str]
    data_signature: DataSignature

    def __post_init__(self):
        if not self.participant_id:
            raise ConfigError("participant_id must be non-empty")
        self.interests = frozenset(t.lower() for t in self.interests)
        self.expertise = frozenset(t.lower() for t in self.expertise)

    @property
    def tags(self) -> frozenset[str]:
        return self.interests | self.expertise


@dataclass(eq=False)
class Community:
    """Stakeholder-created group supplying the base model, objective,
    admission criteria, and default plan for its tasks."""

    community_id: str
    creator_id: str
    purpose: str
    objective: str
    criteria: CollaborationCriteria
    base_model: ModelArch
    default_plan: FlPlan

    def __post_init__(self):
        if not self.community_id:
            raise ConfigError("community_id must be non-empty")


@dataclass(frozen=True)
class AdmitDecision:
    admitted: bool
    reason: str | None = None


def signature_from_dataset(data: Dataset, quality_score: float = 1.0) -> DataSignature:
    """Compute the signature of a local dataset (population std, ddof=0):
    the one-block case of :func:`block_signatures`."""
    return block_signatures(data, [data.n_samples], quality_score)[0]


def block_signatures(
    data: Dataset, counts: list[int], quality_score: float = 1.0
) -> list[DataSignature]:
    """The signature of each block of consecutive rows of ``data``: block i
    is the ``counts[i]`` rows that follow block i-1's.

    Each block's moments are the ufunc calls that ``features.mean(axis=0)``
    and ``features.std(axis=0)`` make on the block alone, so their bits are
    numpy's; the methods' Python wrappers cost more than the arithmetic on a
    client's few dozen rows. The elementwise steps and the label histograms
    run once over all rows. The two column sums run once per block, as
    ``np.add.reduce`` on its contiguous rows: numpy sums one column pairwise
    but several row by row, and a segmented ``np.add.reduceat`` adds in yet
    another order."""
    features = data.features
    if sum(counts) != features.shape[0]:
        raise ShapeError(f"blocks of {sum(counts)} rows for a dataset of {features.shape[0]}")
    bounds = [0, *accumulate(counts)]
    sizes = np.array(counts)[:, None]
    sums = np.empty((len(counts), features.shape[1]))
    for i, (start, stop) in enumerate(pairwise(bounds)):
        np.add.reduce(features[start:stop], axis=0, out=sums[i])
    mean = sums / sizes
    deviations = np.repeat(mean, counts, axis=0)
    np.subtract(features, deviations, out=deviations)
    np.square(deviations, out=deviations)
    for i, (start, stop) in enumerate(pairwise(bounds)):
        np.add.reduce(deviations[start:stop], axis=0, out=sums[i])
    std = np.sqrt(sums / sizes)
    # a histogram's integer counts sum to its block size exactly, in any order
    n_classes = data.n_classes
    offsets = np.repeat(np.arange(0, len(counts) * n_classes, n_classes), counts)
    hist = np.bincount(offsets + data.labels, minlength=len(counts) * n_classes)
    hist = hist.reshape(len(counts), n_classes) / sizes
    return [
        DataSignature(
            per_feature_mean=mean[i],
            per_feature_std=std[i],
            label_histogram=hist[i],
            n_samples=n,
            quality_score=quality_score,
        )
        for i, n in enumerate(counts)
    ]


def admit(meta: ParticipantMetadata, community: Community) -> AdmitDecision:
    """Apply the community's collaboration criteria; the first failed rule is
    reported as the rejection reason."""
    crit = community.criteria
    tags = meta.tags
    if not crit.required_tags <= tags:
        return AdmitDecision(False, "required_tags")
    if crit.forbidden_tags & tags:
        return AdmitDecision(False, "forbidden_tags")
    if meta.data_signature.quality_score < crit.min_data_quality:
        return AdmitDecision(False, "min_data_quality")
    if meta.data_signature.n_samples < crit.min_samples:
        return AdmitDecision(False, "min_samples")
    return AdmitDecision(True, None)


def _squash(x: np.ndarray) -> np.ndarray:
    # maps [0, inf) into [0, 1) without dataset-dependent normalization
    return x / (1.0 + x)


def _stack(signatures: list[DataSignature]) -> tuple[np.ndarray, np.ndarray, int]:
    """Rows ``[mean | std | histogram | quality]`` and float sample counts,
    one per signature in the given order, plus the feature count."""
    if not signatures:
        raise ShapeError("no signatures to stack")
    n_features = signatures[0].per_feature_mean.size
    n_classes = signatures[0].label_histogram.size
    if any(s.per_feature_mean.size != n_features for s in signatures):
        raise ShapeError("signatures have different feature dimensions")
    if any(s.label_histogram.size != n_classes for s in signatures):
        raise ShapeError("signatures have different label arities")
    rows = np.hstack(
        [
            np.array([s.per_feature_mean for s in signatures]),
            np.array([s.per_feature_std for s in signatures]),
            np.array([s.label_histogram for s in signatures]),
            np.array([[s.quality_score] for s in signatures], dtype=np.float64),
        ]
    )
    weights = np.array([s.n_samples for s in signatures], dtype=np.float64)
    return rows, weights, n_features


def _similarities(row: np.ndarray, centroids: np.ndarray, n_features: int) -> np.ndarray:
    """Similarity of one stacked row to each centroid row: 1 minus the mean of
    a feature-moment distance and the total-variation distance between label
    histograms, in [0, 1]."""
    width = 2 * n_features
    # a row-wise reduction of C-ordered rows repeats the 1-D reduction on each
    # row, and the mean is that sum divided by the count, as np.mean does
    d_feat = _squash(np.abs(row[:width] - centroids[:, :width])).sum(axis=1) / width
    d_lab = 0.5 * np.abs(row[width:-1] - centroids[:, width:-1]).sum(axis=1)
    return 1.0 - (0.5 * d_feat + 0.5 * d_lab)


def similarity(a: DataSignature, b: DataSignature) -> float:
    """Similarity in [0, 1]: 1 minus the mean of a feature-moment distance and
    the total-variation distance between label histograms."""
    rows, _, n_features = _stack([a, b])
    return float(_similarities(rows[0], rows[1:], n_features)[0])


def _centroid_row(rows: np.ndarray, weights: np.ndarray, n_features: int) -> np.ndarray:
    """Sample-weighted centroid of stacked rows, with a renormalised histogram
    and quality capped at 1."""
    alphas = weights / weights.sum()
    # sequential, in row order, starting from 0 (so -0.0 comes out as 0.0);
    # see the module docstring
    row = 0.0 + np.cumsum(alphas[:, None] * rows, axis=0)[-1]
    hist = np.maximum(row[2 * n_features : -1], 0.0)
    row[2 * n_features : -1] = hist / hist.sum()
    row[-1] = min(1.0, row[-1])
    return row


def _row_signature(row: np.ndarray, n_samples: float, n_features: int) -> DataSignature:
    return DataSignature(
        per_feature_mean=row[:n_features],
        per_feature_std=row[n_features : 2 * n_features],
        label_histogram=row[2 * n_features : -1],
        n_samples=int(n_samples),
        quality_score=float(row[-1]),
    )


def weighted_centroid(signatures: list[DataSignature]) -> DataSignature:
    rows, weights, n_features = _stack(signatures)
    return _row_signature(_centroid_row(rows, weights, n_features), weights.sum(), n_features)


@dataclass
class _Block:
    members: list[str]
    centroid: DataSignature


def _greedy_blocks(
    signatures: dict[str, DataSignature], threshold: float
) -> list[_Block]:
    if not signatures:
        return []
    order = sorted(signatures)
    rows, weights, n_features = _stack([signatures[t] for t in order])
    if threshold == 0.0:
        # every similarity is > 0, so every task would join block 0: compute
        # its centroid once, over all rows in task-id order
        centroid = _centroid_row(rows, weights, n_features)
        return [_Block(members=order, centroid=_row_signature(centroid, weights.sum(), n_features))]
    # row k is block k's centroid; a block of one is its member's own row
    centroids = np.empty_like(rows)
    block_rows: list[list[int]] = []
    # each block's member rows and weights, in member order, in buffers that
    # double when full: a join appends one row and slices the buffers
    stacks: list[tuple[np.ndarray, np.ndarray]] = []
    for i, row in enumerate(rows):
        best = -1
        if block_rows:
            sims = _similarities(row, centroids[: len(block_rows)], n_features)
            sims = np.where(sims >= threshold, sims, -np.inf)
            # argmax takes the first maximum, so ties resolve to the earliest
            # block, i.e. the lexicographically smallest cohort id under
            # zero-padded numbering
            best = int(sims.argmax())
            if sims[best] == -np.inf:
                best = -1
        if best < 0:
            centroids[len(block_rows)] = row
            block_rows.append([i])
            stacks.append((rows[i : i + 1].copy(), weights[i : i + 1].copy()))
        else:
            members = block_rows[best]
            size = len(members)
            stack, stack_weights = stacks[best]
            if size == len(stack):
                stack = np.concatenate((stack, np.empty_like(stack)))
                stack_weights = np.concatenate((stack_weights, np.empty_like(stack_weights)))
                stacks[best] = stack, stack_weights
            stack[size] = row
            stack_weights[size] = weights[i]
            members.append(i)
            size += 1
            centroids[best] = _centroid_row(stack[:size], stack_weights[:size], n_features)
    blocks = []
    for k, members in enumerate(block_rows):
        if len(members) == 1:
            centroid = signatures[order[members[0]]]
        else:
            total = stacks[k][1][: len(members)].sum()
            centroid = _row_signature(centroids[k], total, n_features)
        blocks.append(_Block(members=[order[i] for i in members], centroid=centroid))
    return blocks


def _validate_threshold(threshold: float):
    if not 0.0 <= threshold < 1.0:
        raise ConfigError(f"cohort threshold must be in [0,1), got {threshold}")


def form_cohorts(
    population: FlPopulation,
    signatures: dict[str, DataSignature],
    threshold: float,
    seed: int,
) -> list[FlCohort]:
    """Partition a population into cohorts of similar data signatures.

    Deterministic: tasks are processed in ascending task id, join the existing
    cohort whose centroid is most similar (if at least ``threshold``), and
    otherwise open a new cohort. Threshold 0 forms one cohort of every task,
    the global-model baseline. Every cohort's first global model is
    ``init_weights(arch, seed)``, so all cohorts of one call start identically.
    """
    _validate_threshold(threshold)
    unknown = set(signatures) - population.member_task_ids
    if unknown:
        raise ConfigError(f"tasks not in population {population.population_id}: {sorted(unknown)}")
    initial = init_weights(population.config.model_arch, seed)
    return [
        _cohort(population, f"{population.population_id}-c{index:03d}", block, initial)
        for index, block in enumerate(_greedy_blocks(signatures, threshold))
    ]


def _cohort(
    population: FlPopulation,
    cohort_id: str,
    block: _Block,
    initial: WeightVector,
    inherited: FlCohort | None = None,
) -> FlCohort:
    """The cohort of ``block``'s members: a new one starts at round 0 from its
    own copy of ``initial``, an inherited one keeps the old cohort's global
    model and round counter."""
    return FlCohort(
        cohort_id=cohort_id,
        population_id=population.population_id,
        member_task_ids=set(block.members),
        centroid=block.centroid,
        global_weights=_copy_weights(initial) if inherited is None else inherited.global_weights,
        round=0 if inherited is None else inherited.round,
    )


def _copy_weights(w: WeightVector) -> WeightVector:
    # fresh copy so cohorts never alias one another's arrays
    return WeightVector(values=w.values.copy(), arch_id=w.arch_id)


@dataclass
class MigrationReport:
    """Outcome of reclustering: which tasks moved, plus cohort churn."""

    migrated: dict[str, tuple[str, str]] = field(default_factory=dict)
    new_cohort_ids: list[str] = field(default_factory=list)
    removed_cohort_ids: list[str] = field(default_factory=list)


def recluster(
    population: FlPopulation,
    new_signatures: dict[str, DataSignature],
    threshold: float,
    seed: int,
) -> tuple[list[FlCohort], MigrationReport]:
    """Re-run cohort formation on updated signatures, preserving cohort
    identity where membership overlaps.

    Each new block inherits the old cohort whose members contribute the most
    samples to it (ties: the lexicographically smallest old cohort id),
    keeping that cohort's id, global model, and round counter. Overlap is
    sample-weighted, not member-counted, because the old model fits whoever
    dominated its aggregation; giving it to a member-majority block of
    data-poor clients would hand them a model trained mostly on someone
    else's distribution. Blocks with no inherited cohort are brand-new and
    start from ``init_weights``. A task "migrated" when its cohort id changed.

    A brand-new cohort is numbered past every index the population has ever
    issued, so the id of a removed cohort is never reused: its former members
    would otherwise answer the new cohort's round 0 from their cached update
    for the old one.
    """
    _validate_threshold(threshold)
    blocks = _greedy_blocks(new_signatures, threshold)
    old_cohorts = {c.cohort_id: c for c in population.cohorts}
    old_of_task = {
        tid: cohort.cohort_id for cohort in population.cohorts for tid in cohort.member_task_ids
    }

    # the samples each (block, old cohort) pair shares, tallied in one pass
    # over block members; every n_samples is >= 1, so the pairs that share a
    # member are the candidates, matched greedily so each old cohort is
    # inherited by at most one block
    overlaps: dict[tuple[str, int], int] = {}
    for b_index, block in enumerate(blocks):
        for tid in block.members:
            old_id = old_of_task.get(tid)
            if old_id is not None:
                key = (old_id, b_index)
                overlaps[key] = overlaps.get(key, 0) + new_signatures[tid].n_samples
    candidates = sorted((-n, old_id, b_index) for (old_id, b_index), n in overlaps.items())
    assigned_old: dict[int, str] = {}
    used_old: set[str] = set()
    for neg_overlap, old_id, b_index in candidates:
        if old_id in used_old or b_index in assigned_old:
            continue
        assigned_old[b_index] = old_id
        used_old.add(old_id)

    next_index = population.next_cohort_index
    for cohort_id in old_cohorts:
        suffix = cohort_id.rsplit("-c", 1)[-1]
        if suffix.isdigit():
            next_index = max(next_index, int(suffix) + 1)

    report = MigrationReport()
    initial = init_weights(population.config.model_arch, seed)
    new_cohorts: list[FlCohort] = []
    for b_index, block in enumerate(blocks):
        old_id = assigned_old.get(b_index)
        if old_id is not None:
            cohort = _cohort(population, old_id, block, initial, old_cohorts[old_id])
        else:
            cohort_id = f"{population.population_id}-c{next_index:03d}"
            cohort = _cohort(population, cohort_id, block, initial)
            next_index += 1
            report.new_cohort_ids.append(cohort_id)
        new_cohorts.append(cohort)
        for tid in block.members:
            old_home = old_of_task.get(tid)
            if old_home is not None and old_home != cohort.cohort_id:
                report.migrated[tid] = (old_home, cohort.cohort_id)

    population.next_cohort_index = next_index
    kept = {c.cohort_id for c in new_cohorts}
    report.removed_cohort_ids = sorted(set(old_cohorts) - kept)
    new_cohorts.sort(key=lambda c: c.cohort_id)
    return new_cohorts, report
