"""Coordinator: task scheduling, plan translation, rounds, and the guard.

One coordinator serves many communities. It maps submitted tasks into
populations, translates them into plans, keeps cohort structure up to date,
drives aggregation rounds over a pluggable transport, and filters incoming
updates through the negative-transfer guard before they can touch a cohort's
global model. An update gets in only as the reply to its round's request.

Each round also feeds the recluster rule: a cohort whose last
``RECLUSTER_WINDOW`` rounds average a flag rate above ``RECLUSTER_FLAG_RATE``
marks its population dirty, and the next :meth:`Coordinator.ensure_cohorts`
reclusters it.

Round semantics are atomic: a round either commits (guarded aggregation ran,
round counter advanced) or aborts with the cohort untouched.
"""

from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from . import netproto
from .community import (
    Community,
    DataSignature,
    ParticipantMetadata,
    admit,
    form_cohorts,
    recluster,
    weighted_centroid,  # noqa: F401  (perfbench's traced run patches this name)
)
from .errors import (
    AdmissionRefused,
    CommunityFlError,
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
        if self.clients_per_round != "all" and not (
            _is_int(self.clients_per_round) and self.clients_per_round >= 1
        ):
            raise ConfigError(
                f"clients_per_round must be 'all' or a positive int, "
                f"got {self.clients_per_round!r}"
            )
        if not (_is_int(self.rounds) and self.rounds >= 1):
            raise ConfigError(f"rounds must be an int >= 1, got {self.rounds!r}")
        # the seed names every cohort's member stream and is echoed into
        # run_summary.json; a float or bool would do both
        if not _is_int(self.seed):
            raise ConfigError(f"scheduler seed must be an int, got {self.seed!r}")
        # any other value would pick a mode by its truth value
        if not isinstance(self.weighted_aggregation, bool):
            raise ConfigError(
                f"weighted_aggregation must be true or false, got {self.weighted_aggregation!r}"
            )
        # a string fails a range comparison with a TypeError, and a NaN
        # epsilon passes every loss regression
        for name in ("cohort_threshold", "min_updates_quorum", "guard_epsilon"):
            value = getattr(self, name)
            if not (_is_finite_real(value) or (value is None and name == "guard_epsilon")):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
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


def _is_int(value) -> bool:
    # bool is a subclass of int, but True is no count or seed
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


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


class RoundTransport(Protocol):
    """Delivers train requests and hands back the updates of one round: each
    reply frame goes to :meth:`Coordinator.receive_update` with its request,
    and the client gets the ack it returns."""

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
        self.reports: list[RoundReport] = []
        self.migration_log: list[dict] = []
        self._lock = threading.RLock()

    # -- registration and task intake ----------------------------------------

    def register_client(self, metadata: ParticipantMetadata) -> str:
        """Store (or replace) a participant's metadata and issue a session token.

        The metadata's data signature is the one signature of each of the
        participant's tasks. A re-registration (a drifted client re-registers)
        replaces it for all of them; it marks nothing dirty, and the next
        recluster of the population reads it."""
        with self._lock:
            self.clients[metadata.participant_id] = metadata
            token = digest_hex(stable_u64("session", self.config.seed, metadata.participant_id))
            self.session_tokens[metadata.participant_id] = token
            return token

    @staticmethod
    def build_plan(task: FlTask, community: Community) -> FlPlan:
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
            is_new = task.task_id not in self.registry.tasks
            population_id = self.registry.assign_population(task)
            if is_new:
                # an identical resubmission (a socket reconnect) is a no-op and
                # must not rebuild the population's cohorts
                self.dirty_populations.add(population_id)
            return population_id

    # -- cohort bookkeeping ----------------------------------------------------

    def _population_seed(self, population_id: str) -> int:
        return stable_u64(self.config.seed, population_id, "init")

    def signature_of(self, task_id: str) -> DataSignature:
        """The data signature of a task: the one its participant registered."""
        return self.clients[self.registry.tasks[task_id].client_id].data_signature

    def ensure_cohorts(self):
        """(Re)cohort every population marked dirty, by a new task or by
        :meth:`run_round`'s recluster rule: form its cohorts on first use,
        recluster them afterwards. This is the only code that builds cohort
        structure; a rebuilt cohort is a new object with an empty flag-rate
        window."""
        with self._lock:
            threshold = self.config.cohort_threshold
            for population_id in sorted(self.dirty_populations):
                population = self.registry.populations[population_id]
                signatures = {t: self.signature_of(t) for t in population.member_task_ids}
                seed = self._population_seed(population_id)
                if not population.cohorts:
                    population.cohorts = form_cohorts(population, signatures, threshold, seed)
                    continue
                population.cohorts, report = recluster(population, signatures, threshold, seed)
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
        members = cohort.sorted_members()
        if self.config.clients_per_round == "all":
            k = len(members)
        else:
            k = min(int(self.config.clients_per_round), len(members))
        rng = np.random.default_rng(
            stable_u64(self.config.seed, "select", cohort.cohort_id, sched_round)
        )
        # a shuffle's draws depend only on the length, so permuting indices
        # picks the members a permutation of the ids would; sorted indices
        # into the sorted ids give the chosen ids sorted
        return [members[i] for i in sorted(rng.permutation(len(members))[:k].tolist())]

    def receive_update(self, frame: bytes, request: Envelope) -> tuple[ModelUpdate | None, bytes]:
        """Answer ``frame``, the reply to ``request``, the TrainRequest envelope
        a round transport sent; returns the decoded update (None when refused)
        and the encoded MetricsAck. Never raises on any frame.

        The ack says ``stored`` when the update's (task, cohort, round) is the
        request's, ``mismatch`` (left to the guard) when it is not, and
        ``refused``, with the request's task and round, for a frame that does
        not decode or convert to a ``ModelUpdateMsg``'s update.
        """
        asked = request.payload
        try:
            env = netproto.decode(frame)
            if env.msg_type == MsgType.ERROR:  # the client could not do the round
                raise ProtocolError(env.payload["code"], env.payload["message"])
            if env.msg_type != MsgType.MODEL_UPDATE:
                raise ProtocolError("protocol_state", f"got {env.msg_type}, not ModelUpdateMsg")
            update = netproto.update_from_doc(env.payload["update"])
        except Exception as exc:  # one bad reply drops its client, never the round
            task_id, round_ = asked["task_id"], asked["round"]
            # the traceback only for an error the codec does not raise by design
            expected = isinstance(exc, CommunityFlError)
            logger.warning(
                "refused the reply to %s in round %s: %r", task_id, round_, exc, exc_info=not expected
            )
            ack = {"task_id": task_id, "round": round_, "status": "refused"}
            return None, netproto.encode(Envelope(MsgType.METRICS_ACK, request.correlation_id, ack))
        key = (update.task_id, update.cohort_id, update.round)
        stored = key == (asked["task_id"], asked["cohort_id"], asked["round"])
        status = "stored" if stored else "mismatch"
        ack = {"task_id": update.task_id, "round": update.round, "status": status}
        return update, netproto.encode(Envelope(MsgType.METRICS_ACK, env.correlation_id, ack))

    def run_round(
        self,
        cohort: FlCohort,
        transport: RoundTransport,
        sched_round: int,
    ) -> RoundReport:
        """Execute one guarded aggregation round for a cohort, then apply the
        recluster rule: the round's flag rate joins the cohort's window of its
        last ``RECLUSTER_WINDOW`` rates, and a full window whose mean exceeds
        ``RECLUSTER_FLAG_RATE`` marks the population for the next
        :meth:`ensure_cohorts`."""
        with self._lock:
            if not cohort.member_task_ids:
                raise ConfigError(f"cohort {cohort.cohort_id} has no members")
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
                elif update.n_samples > self.signature_of(task_id).n_samples:
                    # n_samples sets the aggregation weight; a client trains on
                    # a subset of the data its registered signature counts
                    verdicts[task_id] = GuardVerdict(False, "n_samples_exceeds_signature")
                elif update.weights.arch_id != cohort.global_weights.arch_id:
                    # aggregate refuses mixed architectures, even of equal
                    # length, so one such update must not reach it either
                    verdicts[task_id] = GuardVerdict(False, "arch_mismatch")
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
            accepted = [u for t, u in received if verdicts[t].accepted]
            if len(received) < quorum_needed:
                status, reason = "aborted", "quorum_not_reached"
            elif not accepted:
                status, reason = "aborted", "no_accepted_updates"

            # the updates that answer this round's requests
            metrics = {
                t: (u.pre_metrics, u.post_metrics)
                for t, u in received
                if verdicts[t].reason not in ("cohort_mismatch", "round_mismatch")
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
            window = cohort.flag_rates
            window.append(report.flag_rate)
            del window[:-RECLUSTER_WINDOW]
            if len(window) == RECLUSTER_WINDOW and sum(window) / len(window) > RECLUSTER_FLAG_RATE:
                self.dirty_populations.add(cohort.population_id)
            return report

    # -- protocol dispatch -----------------------------------------------------------

    def handle_envelope(self, env: Envelope) -> Envelope:
        """Serve one registration request; domain failures become Error responses."""
        try:
            if env.msg_type == MsgType.REGISTER:
                metadata = netproto.from_doc(ParticipantMetadata, env.payload["metadata"])
                token = self.register_client(metadata)
                return Envelope(
                    msg_type=MsgType.REGISTER_ACK,
                    correlation_id=env.correlation_id,
                    payload={"session_token": token},
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
                    raise ProtocolError("unregistered_client", "bad or missing session token")
                population_id = self.submit_task(task)
                return Envelope(
                    msg_type=MsgType.TASK_ACK,
                    correlation_id=env.correlation_id,
                    payload={"task_id": task.task_id, "population_id": population_id},
                )
            message = f"{env.msg_type.value} is not a registration request"
            raise ProtocolError("protocol_state", message)
        except ProtocolError as exc:
            code, message = exc.code, exc.message
        except UnregisteredClientError as exc:
            code, message = "unregistered_client", str(exc)
        except DuplicateTaskError as exc:
            code, message = "duplicate_task", str(exc)
        except AdmissionRefused as exc:
            code, message = "admission_rejected", exc.reason
        except PlanError as exc:
            code, message = "plan_error", str(exc)
        except (ConfigError, ValueError, KeyError, TypeError) as exc:
            code, message = "invalid_metadata", str(exc)
        return netproto.error_envelope(env.correlation_id, code, message)

    def handle_frame(self, frame: bytes) -> bytes:
        """Byte-level dispatch; never raises on malformed input."""
        try:
            env = netproto.decode(frame)
        except ProtocolError as exc:
            return netproto.encode(netproto.error_envelope(0, exc.code, exc.message))
        return netproto.encode(self.handle_envelope(env))


def _weighted_loss(received: list[tuple[str, ModelUpdate]], which: str) -> float | None:
    if not received:
        return None
    total = sum(u.n_samples for _, u in received)
    return sum(getattr(u, which).loss * u.n_samples for _, u in received) / total
