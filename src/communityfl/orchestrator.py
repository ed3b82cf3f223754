"""Coordinator: task scheduling, plan translation, rounds, and the guard.

One coordinator serves many communities. It maps submitted tasks into
populations, translates them into plans, keeps cohort structure up to date,
drives aggregation rounds over a pluggable transport, and filters incoming
updates through the negative-transfer guard before they can touch a cohort's
global model.

Round semantics are atomic: a round either commits (guarded aggregation ran,
round counter advanced) or aborts with the cohort untouched.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from . import netproto
from .community import (
    Community,
    ParticipantMetadata,
    admit,
    form_cohorts,
    recluster,
    weighted_centroid,  # noqa: F401  (perfbench's traced run patches this name)
)
from .errors import (
    AdmissionRefused,
    ConfigError,
    DuplicateTaskError,
    PlanError,
    ProtocolError,
    UnregisteredClientError,
)
from .flcore import (
    FlCohort,
    FlPlan,
    FlTask,
    ModelUpdate,
    PopulationRegistry,
    TrainRequest,
    aggregate,
    merge_plan,
)
from .hashing import digest_hex, stable_u64, weights_digest
from .netproto import Envelope, MsgType
from .tinylearn import EvalMetrics

logger = logging.getLogger(__name__)

RECLUSTER_WINDOW = 3
RECLUSTER_FLAG_RATE = 0.5


@dataclass(frozen=True)
class SchedulerConfig:
    """Round scheduling knobs.

    ``cohort_threshold`` is the similarity a task needs to join a cohort;
    0 forms one cohort per population, the global-model baseline.
    ``guard_epsilon=None`` disables the guard; ``weighted_aggregation=False``
    switches to a plain unweighted mean for ablation runs.
    """

    clients_per_round: int | str = "all"
    rounds: int = 10
    cohort_threshold: float = 0.8
    min_updates_quorum: float = 1.0
    guard_epsilon: float | None = 0.0
    seed: int = 0
    weighted_aggregation: bool = True

    def __post_init__(self):
        if self.clients_per_round != "all":
            if not isinstance(self.clients_per_round, int) or self.clients_per_round < 1:
                raise ConfigError(
                    f"clients_per_round must be 'all' or a positive int, "
                    f"got {self.clients_per_round!r}"
                )
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 <= self.cohort_threshold < 1.0:
            raise ConfigError(
                f"cohort_threshold must be in [0,1) (0 selects global mode), "
                f"got {self.cohort_threshold}"
            )
        if not 0.0 < self.min_updates_quorum <= 1.0:
            raise ConfigError(
                f"min_updates_quorum must be in (0,1], got {self.min_updates_quorum}"
            )
        if self.guard_epsilon is not None and self.guard_epsilon < 0:
            raise ConfigError(f"guard_epsilon must be >= 0, got {self.guard_epsilon}")


@dataclass(frozen=True)
class GuardVerdict:
    accepted: bool
    reason: str | None = None

    def label(self) -> str:
        return "accept" if self.accepted else f"flag:{self.reason}"


@dataclass(eq=False)
class RoundReport:
    """Per-round, per-cohort aggregation outcome."""

    cohort_id: str
    round: int
    sched_round: int
    selected_task_ids: list[str]
    received_updates: int
    aggregate_pre_loss: float | None
    aggregate_post_loss: float | None
    guard_verdicts: dict[str, str]
    new_global_weights_hash: int
    status: str  # committed | aborted
    reason: str | None
    executors: dict[str, str]
    bytes_transferred: int
    # task id -> (pre, post) metrics of each received update whose task,
    # cohort and round match this round, in arrival order; not serialized
    update_metrics: dict[str, tuple[EvalMetrics, EvalMetrics]] = field(default_factory=dict)

    def __post_init__(self):
        if self.received_updates > len(self.selected_task_ids):
            raise ConfigError("received_updates exceeds the number of selected tasks")

    @property
    def flag_rate(self) -> float:
        flags = sum(1 for v in self.guard_verdicts.values() if v != "accept")
        return flags / self.received_updates if self.received_updates else 0.0

    def to_doc(self) -> dict:
        return {
            "cohort_id": self.cohort_id,
            "round": self.round,
            "sched_round": self.sched_round,
            "selected_task_ids": list(self.selected_task_ids),
            "received_updates": self.received_updates,
            "aggregate_pre_loss": self.aggregate_pre_loss,
            "aggregate_post_loss": self.aggregate_post_loss,
            "guard_verdicts": dict(sorted(self.guard_verdicts.items())),
            "new_global_weights_hash": digest_hex(self.new_global_weights_hash),
            "status": self.status,
            "reason": self.reason,
            "executors": dict(sorted(self.executors.items())),
            "bytes_transferred": self.bytes_transferred,
            "flag_rate": self.flag_rate,
        }


@dataclass(eq=False)
class CohortStats:
    """What the recluster rule reads of a cohort's ingested reports."""

    last_sched_round: int = -1
    # the flag rates of the last RECLUSTER_WINDOW ingested reports
    flag_rates: deque[float] = field(default_factory=lambda: deque(maxlen=RECLUSTER_WINDOW))


class RoundTransport(Protocol):
    """Delivers train requests and hands back the updates of one round, each
    decoded and recorded once by :meth:`Coordinator.receive_update`."""

    def exchange_round(
        self, items: list[tuple[str, Envelope]], sched_round: int
    ) -> tuple[list[tuple[str, ModelUpdate | None]], int]:
        """Return ((task_id, update or None) in arrival order, bytes)."""
        ...


def guard_update(update: ModelUpdate, epsilon: float) -> GuardVerdict:
    """Baseline negative-transfer detection.

    Flags an update when the incoming shared model degraded the client's
    holdout loss by more than ``epsilon``, when its weights are not finite,
    when either reported loss is not finite (a NaN or infinite delta never
    compares greater than ``epsilon``, so it must be refused explicitly), or
    when either metric set is out of range (accuracy outside [0, 1], loss < 0).
    The verdict is a pure function of the update and epsilon.
    """
    if not update.weights.is_finite():
        return GuardVerdict(False, "non_finite")
    if not (math.isfinite(update.pre_metrics.loss) and math.isfinite(update.post_metrics.loss)):
        return GuardVerdict(False, "non_finite_loss")
    for metrics in (update.pre_metrics, update.post_metrics):
        # written so that a NaN accuracy fails the range test too
        if not 0.0 <= metrics.accuracy <= 1.0 or metrics.loss < 0.0:
            return GuardVerdict(False, "metric_out_of_range")
    if update.post_metrics.loss - update.pre_metrics.loss > epsilon:
        return GuardVerdict(False, "loss_regression")
    return GuardVerdict(True)


class Coordinator:
    """Server side of the framework; see module docstring."""

    def __init__(self, config: SchedulerConfig, communities: Iterable[Community]):
        self.config = config
        self.communities: dict[str, Community] = {}
        for community in communities:
            if community.community_id in self.communities:
                raise ConfigError(f"duplicate community id {community.community_id!r}")
            self.communities[community.community_id] = community
        self.registry = PopulationRegistry()
        self.clients: dict[str, ParticipantMetadata] = {}
        self.session_tokens: dict[str, str] = {}
        self.dirty_populations: set[str] = set()
        self.cohort_stats: dict[str, CohortStats] = {}
        self.recluster_marks: set[str] = set()
        self.reports: list[RoundReport] = []
        self.warnings: list[str] = []
        self.migration_log: list[dict] = []
        self._received: dict[tuple[str, str, int], ModelUpdate] = {}
        self._lock = threading.RLock()

    # -- registration and task intake ----------------------------------------

    def register_client(self, metadata: ParticipantMetadata) -> str:
        """Store (or replace) a participant's metadata and issue a session token."""
        with self._lock:
            self.clients[metadata.participant_id] = metadata
            token = digest_hex(stable_u64("session", self.config.seed, metadata.participant_id))
            self.session_tokens[metadata.participant_id] = token
            return token

    def build_plan(self, task: FlTask, community: Community) -> FlPlan:
        """Translate a task into a fully-populated plan."""
        plan = merge_plan(community.default_plan, task.plan_overrides)
        min_samples = community.criteria.min_samples
        if min_samples >= 1 and plan.batch_size > min_samples:
            raise PlanError(
                f"batch_size {plan.batch_size} exceeds the community's minimum "
                f"sample count {min_samples}"
            )
        return plan

    def submit_task(self, task: FlTask) -> str:
        """Admit, plan, and map a task into its population."""
        with self._lock:
            metadata = self.clients.get(task.client_id)
            if metadata is None:
                raise UnregisteredClientError(f"client {task.client_id!r} is not registered")
            community = self.communities.get(task.community_id)
            if community is None:
                raise ConfigError(f"unknown community {task.community_id!r}")
            decision = admit(metadata, community)
            if not decision.admitted:
                raise AdmissionRefused(decision.reason)
            task.plan = self.build_plan(task, community)
            population_id = self.registry.assign_population(task)
            self.dirty_populations.add(population_id)
            return population_id

    # -- cohort bookkeeping ----------------------------------------------------

    def _population_seed(self, population_id: str) -> int:
        return stable_u64(self.config.seed, population_id, "init")

    def ensure_cohorts(self):
        """(Re)cohort every population marked dirty: form its cohorts on first
        use, recluster them afterwards. This is the only code that builds
        cohort structure."""
        with self._lock:
            threshold = self.config.cohort_threshold
            for population_id in sorted(self.dirty_populations):
                population = self.registry.populations[population_id]
                signatures = self.registry.signatures_of(population)
                seed = self._population_seed(population_id)
                if not population.cohorts:
                    population.cohorts = form_cohorts(population, signatures, threshold, seed)
                    continue
                population.cohorts, report = recluster(population, signatures, threshold, seed)
                self.recluster_marks.difference_update(report.removed_cohort_ids)
                # the new structure starts with a fresh flag-rate window
                for cohort in population.cohorts:
                    stats = self.cohort_stats.get(cohort.cohort_id)
                    if stats is not None:
                        stats.flag_rates.clear()
                if report.migrated or report.new_cohort_ids or report.removed_cohort_ids:
                    self.migration_log.append(
                        {
                            "population_id": population_id,
                            "migrated": {t: list(m) for t, m in sorted(report.migrated.items())},
                            "new_cohort_ids": report.new_cohort_ids,
                            "removed_cohort_ids": report.removed_cohort_ids,
                        }
                    )
            self.dirty_populations.clear()

    def recluster_marked(self):
        """Recluster the populations of every cohort marked by ingest_metrics."""
        with self._lock:
            for cohort_id in self.recluster_marks:
                self.dirty_populations.add(self._find_cohort(cohort_id).population_id)
            self.recluster_marks.clear()
            if self.dirty_populations:
                self.ensure_cohorts()

    def all_cohorts(self) -> list[FlCohort]:
        cohorts = []
        for population_id in sorted(self.registry.populations):
            cohorts.extend(
                sorted(
                    self.registry.populations[population_id].cohorts,
                    key=lambda c: c.cohort_id,
                )
            )
        return cohorts

    # -- rounds -----------------------------------------------------------------

    def _select_members(self, cohort: FlCohort, sched_round: int) -> list[str]:
        members = sorted(cohort.member_task_ids)
        if self.config.clients_per_round == "all":
            k = len(members)
        else:
            k = min(int(self.config.clients_per_round), len(members))
        rng = np.random.default_rng(
            stable_u64(self.config.seed, "select", cohort.cohort_id, sched_round)
        )
        chosen = list(rng.permutation(members)[:k])
        return sorted(str(t) for t in chosen)

    def receive_update(self, env: Envelope) -> tuple[ModelUpdate, Envelope]:
        """Decode one ModelUpdateMsg and store it, idempotently per (task,
        cohort, round); returns the update and its MetricsAck. Every transport
        turns a wire update into a stored one here.
        """
        if env.msg_type != MsgType.MODEL_UPDATE:
            raise ProtocolError("protocol_state", f"expected ModelUpdateMsg, got {env.msg_type}")
        update = netproto.update_from_doc(env.payload["update"])
        key = (update.task_id, update.cohort_id, update.round)
        with self._lock:
            status = "duplicate" if key in self._received else "stored"
            self._received.setdefault(key, update)
        ack = Envelope(
            msg_type=MsgType.METRICS_ACK,
            correlation_id=env.correlation_id,
            payload={"task_id": update.task_id, "round": update.round, "status": status},
        )
        return update, ack

    def run_round(
        self,
        cohort: FlCohort,
        transport: RoundTransport,
        sched_round: int | None = None,
    ) -> RoundReport:
        """Execute one guarded aggregation round for a cohort."""
        with self._lock:
            if not cohort.member_task_ids:
                raise ConfigError(f"cohort {cohort.cohort_id} has no members")
            sched_round = cohort.round if sched_round is None else sched_round
            selected = self._select_members(cohort, sched_round)
            items = []
            for task_id in selected:
                task = self.registry.tasks[task_id]
                request = TrainRequest(
                    task_id=task_id,
                    cohort_id=cohort.cohort_id,
                    round=cohort.round,
                    plan=task.plan,
                    weights=cohort.global_weights,
                )
                correlation = stable_u64("train", cohort.cohort_id, sched_round, task_id) % 2**64
                env = Envelope(MsgType.TRAIN_REQUEST, correlation, netproto.to_doc(request))
                items.append((task_id, env))

        arrivals, bytes_transferred = transport.exchange_round(items, sched_round)

        with self._lock:
            received = [(t, u) for t, u in arrivals if u is not None]
            verdicts: dict[str, GuardVerdict] = {}
            for task_id, update in received:
                if update.task_id != task_id or update.cohort_id != cohort.cohort_id:
                    verdicts[task_id] = GuardVerdict(False, "cohort_mismatch")
                elif update.round != cohort.round:
                    verdicts[task_id] = GuardVerdict(False, "round_mismatch")
                elif update.n_samples > self.registry.tasks[task_id].data_signature.n_samples:
                    # n_samples sets the aggregation weight; a client trains on
                    # a subset of the data its signature counts
                    verdicts[task_id] = GuardVerdict(False, "n_samples_exceeds_signature")
                elif not update.weights.is_finite():
                    # aggregate refuses non-finite weights, so one such update
                    # must not reach it even with the loss guard off
                    verdicts[task_id] = GuardVerdict(False, "non_finite")
                elif self.config.guard_epsilon is None:
                    verdicts[task_id] = GuardVerdict(True)
                else:
                    verdicts[task_id] = guard_update(update, self.config.guard_epsilon)

            quorum_needed = max(1, math.ceil(self.config.min_updates_quorum * len(selected) - 1e-9))
            status, reason = "committed", None
            accepted = [
                u for t, u in received if verdicts[t].accepted and u.cohort_id == cohort.cohort_id
            ]
            if len(received) < quorum_needed:
                status, reason = "aborted", "quorum_not_reached"
            elif not accepted:
                status, reason = "aborted", "no_accepted_updates"

            # the updates that answer this round's requests, before the commit
            # advances the round counter
            metrics = {
                t: (u.pre_metrics, u.post_metrics)
                for t, u in received
                if (u.task_id, u.cohort_id, u.round) == (t, cohort.cohort_id, cohort.round)
            }
            if status == "committed":
                cohort.global_weights = aggregate(
                    accepted, weighted=self.config.weighted_aggregation
                )
                cohort.round += 1

            report = RoundReport(
                cohort_id=cohort.cohort_id,
                round=cohort.round - 1 if status == "committed" else cohort.round,
                sched_round=sched_round,
                selected_task_ids=selected,
                received_updates=len(received),
                aggregate_pre_loss=_weighted_loss(received, "pre_metrics"),
                aggregate_post_loss=_weighted_loss(received, "post_metrics"),
                guard_verdicts={t: v.label() for t, v in verdicts.items()},
                new_global_weights_hash=weights_digest(cohort.global_weights.values),
                status=status,
                reason=reason,
                executors={t: u.executor_id for t, u in received},
                bytes_transferred=bytes_transferred,
                update_metrics=metrics,
            )
            self.reports.append(report)
            if status == "aborted":
                logger.info("round aborted for %s: %s", cohort.cohort_id, reason)
            return report

    # -- metric ingestion ---------------------------------------------------------

    def ingest_metrics(self, report: RoundReport) -> CohortStats:
        """Fold a round report into the cohort's time series and apply the
        recluster-marking rule."""
        with self._lock:
            stats = self.cohort_stats.setdefault(report.cohort_id, CohortStats())
            cohort = self._find_cohort(report.cohort_id)
            expected = {cohort.round, cohort.round - 1} if cohort else set()
            if (
                report.sched_round <= stats.last_sched_round
                or cohort is None
                or report.round not in expected
            ):
                message = (
                    f"stale report for {report.cohort_id}: round {report.round}, "
                    f"sched_round {report.sched_round}"
                )
                self.warnings.append(message)
                logger.warning(message)
                return stats
            stats.last_sched_round = report.sched_round
            stats.flag_rates.append(report.flag_rate)
            window = stats.flag_rates
            if len(window) == RECLUSTER_WINDOW and sum(window) / len(window) > RECLUSTER_FLAG_RATE:
                self.recluster_marks.add(report.cohort_id)
            return stats

    def _find_cohort(self, cohort_id: str) -> FlCohort | None:
        for population in self.registry.populations.values():
            for cohort in population.cohorts:
                if cohort.cohort_id == cohort_id:
                    return cohort
        return None

    # -- protocol dispatch -----------------------------------------------------------

    def handle_envelope(self, env: Envelope) -> Envelope:
        """Serve one request envelope; domain failures become Error responses."""
        try:
            if env.msg_type == MsgType.REGISTER:
                metadata = netproto.from_doc(ParticipantMetadata, env.payload["metadata"])
                token = self.register_client(metadata)
                return Envelope(
                    msg_type=MsgType.REGISTER_ACK,
                    correlation_id=env.correlation_id,
                    payload={
                        "participant_id": metadata.participant_id,
                        "session_token": token,
                    },
                )
            if env.msg_type == MsgType.LIST_COMMUNITIES:
                docs = [
                    netproto.to_doc(self.communities[cid])
                    for cid in sorted(self.communities)
                ]
                return Envelope(
                    msg_type=MsgType.COMMUNITY_LIST,
                    correlation_id=env.correlation_id,
                    payload={"communities": docs},
                )
            if env.msg_type == MsgType.SUBMIT_TASK:
                task = netproto.from_doc(FlTask, env.payload["task"])
                expected = self.session_tokens.get(task.client_id)
                if expected is None or env.payload["session_token"] != expected:
                    return self._error(env, "unregistered_client", "bad or missing session token")
                population_id = self.submit_task(task)
                return Envelope(
                    msg_type=MsgType.TASK_ACK,
                    correlation_id=env.correlation_id,
                    payload={"task_id": task.task_id, "population_id": population_id},
                )
            if env.msg_type == MsgType.MODEL_UPDATE:
                return self.receive_update(env)[1]
            return self._error(env, "protocol_state", f"{env.msg_type.value} is not a request")
        except ProtocolError as exc:
            return self._error(env, exc.code, exc.message)
        except UnregisteredClientError as exc:
            return self._error(env, "unregistered_client", str(exc))
        except DuplicateTaskError as exc:
            return self._error(env, "duplicate_task", str(exc))
        except AdmissionRefused as exc:
            return self._error(env, "admission_rejected", exc.reason)
        except PlanError as exc:
            return self._error(env, "plan_error", str(exc))
        except (ConfigError, ValueError, KeyError, TypeError) as exc:
            return self._error(env, "invalid_metadata", str(exc))

    def handle_frame(self, frame: bytes) -> bytes:
        """Byte-level dispatch; never raises on malformed input."""
        try:
            env = netproto.decode(frame)
        except ProtocolError as exc:
            error = Envelope(
                msg_type=MsgType.ERROR,
                correlation_id=0,
                payload={"code": exc.code, "message": exc.message},
            )
            return netproto.encode(error)
        return netproto.encode(self.handle_envelope(env))

    @staticmethod
    def _error(env: Envelope, code: str, message: str) -> Envelope:
        return Envelope(
            msg_type=MsgType.ERROR,
            correlation_id=env.correlation_id,
            payload={"code": code, "message": message},
        )


def _weighted_loss(received: list[tuple[str, ModelUpdate]], which: str) -> float | None:
    if not received:
        return None
    total = sum(u.n_samples for _, u in received)
    return sum(getattr(u, which).loss * u.n_samples for _, u in received) / total
