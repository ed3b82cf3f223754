"""Federated-learning domain model and aggregation mechanics.

Tasks are grouped into populations by exact configuration-signature equality;
populations are split into cohorts by data similarity (see ``community``).
Each cohort owns one global model, and knowledge exchange never crosses a
cohort boundary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

import numpy as np

from .errors import DuplicateTaskError, EmptyAggregationError, PlanError, ShapeError
from .tinylearn import EvalMetrics, ModelArch, WeightVector

@dataclass(frozen=True)
class ConfigSignature:
    """What makes two tasks 'the same kind of job': device type, algorithm,
    model architecture, and objective. Equality is exact field equality."""

    device_type: str
    fl_algorithm: str
    model_arch: ModelArch
    objective: str

    def __post_init__(self):
        for name in ("device_type", "fl_algorithm", "objective"):
            if not getattr(self, name):
                raise PlanError(f"config signature field {name!r} must be non-empty")

    def key(self) -> str:
        """Canonical string; two signatures are equal iff their keys are equal."""
        return "|".join(
            (self.device_type, self.fl_algorithm, self.model_arch.arch_id, self.objective)
        )

    def population_id(self) -> str:
        digest = hashlib.sha256(self.key().encode("utf-8")).hexdigest()
        return f"pop-{digest[:10]}"


@dataclass(frozen=True)
class FlPlan:
    """Executable instructions for one task's federated rounds."""

    epochs: int
    batch_size: int
    learning_rate: float
    shuffle_seed: int
    eval_holdout_fraction: float

    def __post_init__(self):
        if self.epochs < 1:
            raise PlanError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise PlanError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise PlanError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.eval_holdout_fraction < 1.0:
            raise PlanError(
                f"eval_holdout_fraction must be in (0,1), got {self.eval_holdout_fraction}"
            )


PLAN_FIELDS = tuple(f.name for f in fields(FlPlan))


@dataclass(eq=False)
class FlTask:
    """One client's learning job, trained on that client's data: the signature
    the client registered describes them. ``plan`` is resolved by the
    orchestrator by merging the community's default plan with
    ``plan_overrides``."""

    task_id: str
    client_id: str
    community_id: str
    config: ConfigSignature
    plan_overrides: dict[str, float | int] = field(default_factory=dict)
    plan: FlPlan | None = None


@dataclass(eq=False)
class FlCohort:
    """Subset of a population with similar data; the unit of model sharing."""

    cohort_id: str
    population_id: str
    member_task_ids: set[str]
    centroid: "DataSignature"  # noqa: F821
    global_weights: WeightVector
    round: int = 0
    # the flag rates of this cohort's last rounds, which the coordinator's
    # recluster rule reads; a rebuilt cohort starts with an empty window
    flag_rates: list[float] = field(default_factory=list)
    # the member set sorted_members last sorted, and its result
    _sorted_of: frozenset[str] = field(default=frozenset(), init=False, repr=False)
    _sorted: tuple[str, ...] = field(default=(), init=False, repr=False)

    def sorted_members(self) -> tuple[str, ...]:
        """``member_task_ids`` in ascending order. The set is sorted again only
        when it differs from the one sorted last, so a change made in place
        is seen too."""
        if self._sorted_of != self.member_task_ids:
            members = frozenset(self.member_task_ids)
            # the result first: a reader that sees the new set sees its result
            self._sorted = tuple(sorted(members))
            self._sorted_of = members
        return self._sorted


@dataclass(eq=False)
class FlPopulation:
    """All tasks sharing one configuration signature."""

    population_id: str
    config: ConfigSignature
    member_task_ids: set[str] = field(default_factory=set)
    cohorts: list[FlCohort] = field(default_factory=list)
    # recluster numbers new cohorts from at least this index and advances it
    # past every id it has seen or issued, so no cohort id is reused
    next_cohort_index: int = 0


@dataclass(eq=False)
class ModelUpdate:
    """One client's contribution to a round: trained weights plus the metric
    pair the negative-transfer guard inspects."""

    task_id: str
    cohort_id: str
    round: int
    weights: WeightVector
    n_samples: int
    pre_metrics: EvalMetrics
    post_metrics: EvalMetrics
    executor_id: str = ""

    def __post_init__(self):
        if self.n_samples < 1:
            raise ShapeError(f"n_samples must be >= 1, got {self.n_samples}")
        if not self.executor_id:
            self.executor_id = self.task_id


@dataclass(frozen=True)
class TrainRequest:
    """The coordinator's instruction for one task's local round: the task's
    plan and the cohort's current global weights."""

    task_id: str
    cohort_id: str
    round: int
    plan: FlPlan
    weights: WeightVector


class PopulationRegistry:
    """Single-writer registry mapping tasks to populations.

    A new task joins the unique population with an equal config signature,
    creating it if absent. Resubmitting the identical task is a no-op;
    reusing a task id for a different task is a conflict.
    """

    def __init__(self):
        self.tasks: dict[str, FlTask] = {}
        self.populations: dict[str, FlPopulation] = {}

    def assign_population(self, task: FlTask) -> str:
        existing = self.tasks.get(task.task_id)
        if existing is not None:
            # the plan is built from the community and the overrides, so a
            # match on these four is the same task (a socket reconnect, say)
            if (
                existing.config == task.config
                and existing.client_id == task.client_id
                and existing.community_id == task.community_id
                and existing.plan_overrides == task.plan_overrides
            ):
                return existing.config.population_id()
            raise DuplicateTaskError(f"task id {task.task_id!r} already registered")
        pop_id = task.config.population_id()
        population = self.populations.get(pop_id)
        if population is None:
            population = FlPopulation(population_id=pop_id, config=task.config)
            self.populations[pop_id] = population
        population.member_task_ids.add(task.task_id)
        self.tasks[task.task_id] = task
        return pop_id

    def population_of(self, task_id: str) -> FlPopulation:
        task = self.tasks[task_id]
        return self.populations[task.config.population_id()]


def aggregate(updates: Iterable[ModelUpdate], weighted: bool = True) -> WeightVector:
    """Coordinate-wise weighted mean of update weights.

    Weights are ``n_samples_i / sum(n_samples)`` (or uniform with
    ``weighted=False``), summed in ascending ``task_id`` order so the result
    is independent of input order. If every update carries bit-identical
    weight vectors the first one is returned unchanged, which keeps the
    degenerate single-member and all-equal cases exact.
    """
    ordered = sorted(updates, key=lambda u: u.task_id)
    if not ordered:
        raise EmptyAggregationError("cannot aggregate zero updates")
    first = ordered[0]
    dim = first.weights.values.size
    for update in ordered:
        if not update.weights.is_finite():
            raise ShapeError(f"update {update.task_id!r} carries non-finite weights")
    for update in ordered[1:]:
        if update.weights.values.size != dim or update.weights.arch_id != first.weights.arch_id:
            raise ShapeError(
                f"update {update.task_id!r} weight shape does not match {first.task_id!r}"
            )
        if update.cohort_id != first.cohort_id or update.round != first.round:
            raise ShapeError(
                f"update {update.task_id!r} belongs to a different cohort or round"
            )
    if all(np.array_equal(u.weights.values, first.weights.values) for u in ordered[1:]):
        return WeightVector(values=first.weights.values.copy(), arch_id=first.weights.arch_id)
    if weighted:
        total = sum(u.n_samples for u in ordered)
        alphas = [u.n_samples / total for u in ordered]
    else:
        alphas = [1.0 / len(ordered)] * len(ordered)
    acc = np.zeros(dim, dtype=np.float64)
    for alpha, update in zip(alphas, ordered):
        acc += alpha * update.weights.values
    return WeightVector(values=acc, arch_id=first.weights.arch_id)


def single_member_aggregate(update: ModelUpdate) -> WeightVector:
    """Degenerate cohort of one: returns the update's weights bit-exactly."""
    return aggregate([update])


def merge_plan(default: FlPlan, overrides: Mapping[str, float | int]) -> FlPlan:
    """Apply task-level overrides to a community default plan."""
    unknown = set(overrides) - set(PLAN_FIELDS)
    if unknown:
        raise PlanError(f"unknown plan override fields: {sorted(unknown)}")
    merged = {name: getattr(default, name) for name in PLAN_FIELDS}
    merged.update(overrides)
    return FlPlan(**merged)
