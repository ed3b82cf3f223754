"""Simulation driver and artifact writers.

A run produces four artifacts in the output directory:

* ``rounds.csv``    - one row per cohort per scheduler round
                      (cohort_id, round, n_updates, mean_local_acc,
                      global_holdout_acc, flag_rate);
* ``rounds.jsonl``  - the full round reports, one JSON record per line;
* ``cohorts.json``  - final community/population/cohort structure with
                      weight digests;
* ``run_summary.json`` - per-client final holdout accuracy, cohort-vs-global
                      comparison (filled in when the sibling mode has also
                      run into the same directory), and provenance.

``rounds.csv`` is byte-identical across runs with the same scenario and seed;
``run_summary.json`` additionally records wall time, which is not.

One round driver serves both in-process simulation and socket runs; the two
differ only in set-up, the simulation's scripted drift, and how the holdout
column is filled. In simulation the runner is omniscient: it evaluates the
fresh global model on every member's holdout right after each round, in one
forward pass over the members' stacked holdouts. The socket server cannot
see client holdouts, so there the same column is filled from the next round's
client-reported metrics and left empty for the final round. Either way the
runner reads client metrics from ``RoundReport.update_metrics``, which the
transports fill with decoded, recorded updates.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import netproto
from .client import FlClient, split_all
from .errors import ConfigError
from .flcore import FlCohort
from .hashing import digest_hex, weights_digest
from .orchestrator import Coordinator, RoundReport, SchedulerConfig
from .scenarios import ScenarioData, ScenarioSpec, apply_drift, generate
from .tinylearn import evaluate  # noqa: F401  (perfbench's traced run patches runner.evaluate)
from .tinylearn import grouped_hits
from .transport import SimNetwork

logger = logging.getLogger(__name__)

MODE_COHORT = "cohort"
MODE_GLOBAL = "global"

CSV_COLUMNS = [
    "cohort_id",
    "round",
    "n_updates",
    "mean_local_acc",
    "global_holdout_acc",
    "flag_rate",
]


@dataclass
class RunSummary:
    scenario: str
    mode: str
    seed: int
    rounds_scheduled: int
    rounds_committed: int
    per_task_holdout_accuracy: dict[str, float]
    per_client_holdout_accuracy: dict[str, float]
    per_cohort: dict[str, dict]
    mean_holdout_accuracy: float
    comparison: dict
    recluster_events: list[dict]
    aborted_cohorts: list[str]
    wall_time_s: float

    def to_doc(self) -> dict:
        # json.dumps reads the fields' maps as they are; asdict would deep-copy them
        return {f.name: getattr(self, f.name) for f in fields(self)}


def scheduler_for_mode(config: SchedulerConfig, mode: str, seed: int | None) -> SchedulerConfig:
    """Apply the CLI mode and optional seed override to a scenario's scheduler.

    Global mode is cohort_threshold = 0: one cohort per population.
    """
    if mode not in (MODE_COHORT, MODE_GLOBAL):
        raise ConfigError(f"mode must be '{MODE_COHORT}' or '{MODE_GLOBAL}', got {mode!r}")
    return replace(
        config,
        cohort_threshold=0.0 if mode == MODE_GLOBAL else config.cohort_threshold,
        seed=config.seed if seed is None else seed,
    )


@dataclass(eq=False)
class SimulationRun:
    """Everything a test or demo may want to poke at after a run."""

    spec: ScenarioSpec
    mode: str
    coordinator: Coordinator
    clients: dict[str, FlClient]
    data: ScenarioData
    rows: list[dict] = field(default_factory=list)
    reports: list[RoundReport] = field(default_factory=list)
    summary: RunSummary | None = None


@dataclass(frozen=True)
class _HoldoutStack:
    """A cohort's member holdouts stacked in task-id order, for one
    :func:`grouped_hits` pass."""

    task_ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    sizes: list[int]


def _cohort_holdout_accuracy(hits: list[int], sizes: list[int]) -> float:
    """Sample-weighted mean of the per-member holdout accuracies ``hit / n``."""
    total = 0
    acc = 0.0
    for hit, n in zip(hits, sizes):
        acc += hit / n * n
        total += n
    return acc / total if total else 0.0


class _OmniscientHoldout:
    """Simulation: the runner sees every client, so it scores each fresh cohort
    model on all members' holdouts and fills that round's own row.

    Each cohort's stacked holdouts are kept until its membership changes or
    :meth:`drop_stacks` is called because a client's data drifted."""

    def __init__(self, coordinator: Coordinator, clients: dict[str, FlClient]):
        self._coordinator = coordinator
        self._clients = clients
        self._stacks: dict[str, _HoldoutStack] = {}

    def drop_stacks(self):
        self._stacks.clear()

    def _stack(self, cohort: FlCohort) -> _HoldoutStack:
        task_ids = cohort.sorted_members()
        stack = self._stacks.get(cohort.cohort_id)
        if stack is not None and stack.task_ids == task_ids:
            return stack
        # membership changed or the cohort is new: forget removed cohorts too
        live = {c.cohort_id for c in self._coordinator.all_cohorts()}
        self._stacks = {k: v for k, v in self._stacks.items() if k in live}
        requests = []
        for task_id in task_ids:
            task = self._coordinator.registry.tasks[task_id]
            requests.append((self._clients[task.client_id], task.plan.eval_holdout_fraction))
        holdouts = [holdout for _, holdout in split_all(requests)]
        sizes = [h.n_samples for h in holdouts]
        stack = _HoldoutStack(
            task_ids=task_ids,
            features=np.concatenate([h.features for h in holdouts]),
            labels=np.concatenate([h.labels for h in holdouts]),
            offsets=np.cumsum([0] + sizes[:-1]),
            sizes=sizes,
        )
        self._stacks[cohort.cohort_id] = stack
        return stack

    def _member_hits(self, cohort: FlCohort) -> tuple[tuple[str, ...], list[int], list[int]]:
        """Task ids, holdout hits and holdout sizes of the cohort's members in
        task-id order, from one forward pass of the cohort model over the
        stacked holdouts. ``hit / n`` is bit-equal to ``evaluate(...).accuracy``
        on that member's holdout."""
        if not cohort.member_task_ids:
            return (), [], []
        stack = self._stack(cohort)
        hits = grouped_hits(cohort.global_weights, stack.features, stack.labels, stack.offsets)
        return stack.task_ids, hits.tolist(), stack.sizes

    def fill(self, cohort: FlCohort, report: RoundReport, rows: list[dict]):
        _, hits, sizes = self._member_hits(cohort)
        rows[-1]["global_holdout_acc"] = _fmt(_cohort_holdout_accuracy(hits, sizes))

    def final(self, reports: list[RoundReport]) -> tuple[dict[str, float], dict[str, float]]:
        """Per-task and per-cohort accuracy of the final cohort models."""
        per_task: dict[str, float] = {}
        per_cohort: dict[str, float] = {}
        for cohort in self._coordinator.all_cohorts():
            task_ids, hits, sizes = self._member_hits(cohort)
            per_cohort[cohort.cohort_id] = _cohort_holdout_accuracy(hits, sizes)
            for task_id, hit, n in zip(task_ids, hits, sizes):
                per_task[task_id] = hit / n
        return per_task, per_cohort


class _ReportedHoldout:
    """Socket: the server cannot see client holdouts. A cohort's row for round
    r gets the mean post accuracy its clients report in round r+1, i.e. the
    round-r model on their holdouts; the final row stays empty."""

    def __init__(self):
        self._last_row: dict[str, int] = {}

    def fill(self, cohort: FlCohort, report: RoundReport, rows: list[dict]):
        post = [post.accuracy for _, post in report.update_metrics.values()]
        previous = self._last_row.get(cohort.cohort_id)
        if post and previous is not None:
            rows[previous]["global_holdout_acc"] = _fmt(sum(post) / len(post))
        self._last_row[cohort.cohort_id] = len(rows) - 1

    def final(self, reports: list[RoundReport]) -> tuple[dict[str, float], dict[str, float]]:
        """Each task's latest reported post accuracy; no per-cohort score."""
        per_task: dict[str, float] = {}
        for report in reports:
            for task_id, (_, post) in report.update_metrics.items():
                per_task[task_id] = post.accuracy
        return per_task, {}


def run_simulation(
    spec: ScenarioSpec,
    mode: str = MODE_COHORT,
    out_dir: str | Path | None = None,
    seed: int | None = None,
) -> SimulationRun:
    """Execute a scenario end to end on the deterministic in-process network."""
    started = time.perf_counter()
    config = scheduler_for_mode(spec.scheduler, mode, seed)
    data = generate(spec)
    coordinator = Coordinator(config, data.communities)
    clients = {
        generated.client_id: FlClient(
            generated.client_id,
            generated.dataset,
            generated.metadata,
            battery=generated.resources.battery,
            neighbors=generated.resources.neighbors,
            trusted_neighbors=generated.resources.trusted,
        )
        for generated in data.clients
    }
    network = SimNetwork(coordinator, clients, spec.faults)
    run = SimulationRun(spec=spec, mode=mode, coordinator=coordinator, clients=clients, data=data)
    for client_id in sorted(clients):
        clients[client_id].register(network)
    for task in data.tasks:  # already sorted by task_id
        clients[task.client_id].submit_task(network, task)
    coordinator.ensure_cohorts()

    holdout = _OmniscientHoldout(coordinator, clients)

    def drift(sched_round: int):
        for event in spec.drift_events:
            if event.round != sched_round:
                continue
            client = clients[event.client_id]
            client.set_dataset(apply_drift(data, event))
            # the re-Register carries the new signature to the coordinator's
            # registry, where a later recluster reads it
            client.register(network)
            holdout.drop_stacks()
            logger.info("round %d: client %s drifted", sched_round, event.client_id)

    _drive_rounds(coordinator, network, config.rounds, holdout, run.rows, run.reports, drift)
    run.summary = _finish(
        coordinator, holdout, spec.name, mode, config.rounds, run.rows, run.reports, started, out_dir
    )
    return run


def run_socket_rounds(
    server,
    rounds: int,
    out_dir: Path | None,
    scenario_name: str = "socket",
    mode: str = MODE_COHORT,
    ready_timeout_s: float = 60.0,
) -> tuple[list[dict], list[RoundReport]]:
    """Drive rounds over live socket sessions and write the same artifacts.

    The server cannot evaluate client holdouts, so ``global_holdout_acc`` for
    round r is filled from round r+1's client-reported post metrics and the
    final row is left empty.
    """
    coordinator = server.coordinator
    if not server.wait_ready(ready_timeout_s):
        raise ConfigError("expected clients did not register and submit tasks in time")
    started = time.perf_counter()
    coordinator.ensure_cohorts()
    rows: list[dict] = []
    reports: list[RoundReport] = []
    holdout = _ReportedHoldout()
    try:
        _drive_rounds(coordinator, server.round_transport(), rounds, holdout, rows, reports)
    finally:
        # a signal-driven shutdown still flushes whatever completed
        _finish(coordinator, holdout, scenario_name, mode, rounds, rows, reports, started, out_dir)
    return rows, reports


def _drive_rounds(coordinator, transport, rounds, holdout, rows, reports, before_round=None):
    """The round loop of both modes: each scheduler round runs every cohort
    once and appends its report and csv row, then re-cohorts the populations
    that ``run_round`` marked dirty."""
    for sched_round in range(1, rounds + 1):
        if before_round is not None:
            before_round(sched_round)
        for cohort in coordinator.all_cohorts():
            report = coordinator.run_round(cohort, transport, sched_round)
            logger.debug(
                "round %d cohort %s: %s (%d updates)",
                sched_round,
                cohort.cohort_id,
                report.status,
                report.received_updates,
            )
            reports.append(report)
            pre = [pre.accuracy for pre, _ in report.update_metrics.values()]
            rows.append(
                {
                    "cohort_id": cohort.cohort_id,
                    "round": sched_round,
                    "n_updates": report.received_updates,
                    "mean_local_acc": _fmt(sum(pre) / len(pre) if pre else None),
                    "global_holdout_acc": "",
                    "flag_rate": _fmt(report.flag_rate),
                }
            )
            holdout.fill(cohort, report, rows)
        coordinator.ensure_cohorts()


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(round(float(value), 6))


def _finish(coordinator, holdout, scenario, mode, rounds, rows, reports, started, out_dir):
    """Summarize the run and, given an output directory, write its artifacts."""
    per_task, cohort_accuracy = holdout.final(reports)
    per_cohort: dict[str, dict] = {}
    aborted = []
    for cohort in coordinator.all_cohorts():
        per_cohort[cohort.cohort_id] = {
            "rounds": cohort.round,
            "members": sorted(cohort.member_task_ids),
            "final_holdout_accuracy": cohort_accuracy.get(cohort.cohort_id),
            "weights_digest": digest_hex(weights_digest(cohort.global_weights.values)),
        }
        if cohort.round == 0:
            aborted.append(cohort.cohort_id)

    per_client: dict[str, list[float]] = {}
    for task_id, accuracy in per_task.items():
        client_id = coordinator.registry.tasks[task_id].client_id
        per_client.setdefault(client_id, []).append(accuracy)
    client_accuracy = {cid: sum(v) / len(v) for cid, v in per_client.items()}
    mean_accuracy = (
        sum(client_accuracy.values()) / len(client_accuracy) if client_accuracy else 0.0
    )

    summary = RunSummary(
        scenario=scenario,
        mode=mode,
        seed=coordinator.config.seed,
        rounds_scheduled=rounds,
        rounds_committed=sum(1 for r in reports if r.status == "committed"),
        per_task_holdout_accuracy=per_task,
        per_client_holdout_accuracy=client_accuracy,
        per_cohort=per_cohort,
        mean_holdout_accuracy=mean_accuracy,
        comparison={MODE_COHORT: None, MODE_GLOBAL: None, "delta_points": None},
        recluster_events=list(coordinator.migration_log),
        aborted_cohorts=aborted,
        wall_time_s=round(time.perf_counter() - started, 3),
    )
    if out_dir is not None:
        write_artifacts(Path(out_dir), rows, reports, coordinator, summary, scenario, mode)
    return summary


# -- artifact writing ------------------------------------------------------------


def write_rounds_csv(path: Path, rows: list[dict]):
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_rounds_jsonl(path: Path, reports: list[RoundReport]):
    with path.open("w") as fh:
        for report in reports:
            fh.write(json.dumps(report.to_doc(), sort_keys=True) + "\n")


def build_cohorts_doc(
    coordinator: Coordinator, scenario: str, mode: str
) -> dict:
    populations = []
    ordered = sorted(
        coordinator.registry.populations.values(),
        key=lambda p: min(p.member_task_ids) if p.member_task_ids else p.population_id,
    )
    for display_index, population in enumerate(ordered, start=1):
        cohorts = []
        for cohort_index, cohort in enumerate(
            sorted(population.cohorts, key=lambda c: c.cohort_id), start=1
        ):
            members = []
            for task_id in sorted(cohort.member_task_ids):
                task = coordinator.registry.tasks[task_id]
                members.append(
                    {
                        "task_id": task_id,
                        "client_id": task.client_id,
                        "community_id": task.community_id,
                    }
                )
            cohorts.append(
                {
                    "cohort_id": cohort.cohort_id,
                    "display_name": f"FL cohort {cohort_index}",
                    "round": cohort.round,
                    "weights_digest": digest_hex(weights_digest(cohort.global_weights.values)),
                    "members": members,
                }
            )
        community_ids = sorted(
            {
                coordinator.registry.tasks[t].community_id
                for t in population.member_task_ids
            }
        )
        populations.append(
            {
                "population_id": population.population_id,
                "display_name": f"FL population {display_index}",
                "community_ids": community_ids,
                "config": netproto.to_doc(population.config),
                "cohorts": cohorts,
            }
        )
    return {
        "scenario": scenario,
        "mode": mode,
        "cohort_threshold": coordinator.config.cohort_threshold,
        "populations": populations,
    }


def write_artifacts(
    out_dir: Path,
    rows: list[dict],
    reports: list[RoundReport],
    coordinator: Coordinator,
    summary: RunSummary,
    scenario_name: str,
    mode: str,
):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rounds_csv(out_dir / "rounds.csv", rows)
    write_rounds_jsonl(out_dir / "rounds.jsonl", reports)
    cohorts_doc = build_cohorts_doc(coordinator, scenario_name, mode)
    (out_dir / "cohorts.json").write_text(json.dumps(cohorts_doc, indent=2, sort_keys=True) + "\n")
    summary.comparison = _merge_comparison(out_dir, mode, summary.mean_holdout_accuracy)
    text = json.dumps(summary.to_doc(), indent=2, sort_keys=True) + "\n"
    (out_dir / f"run_summary.{mode}.json").write_text(text)
    (out_dir / "run_summary.json").write_text(text)


def _merge_comparison(out_dir: Path, mode: str, mean_accuracy: float) -> dict:
    """Fill the cohort-vs-global table from this run plus any sibling run."""
    comparison = {MODE_COHORT: None, MODE_GLOBAL: None, "delta_points": None}
    comparison[mode] = mean_accuracy
    other = MODE_GLOBAL if mode == MODE_COHORT else MODE_COHORT
    sibling = out_dir / f"run_summary.{other}.json"
    if sibling.exists():
        try:
            doc = json.loads(sibling.read_text())
            comparison[other] = doc.get("mean_holdout_accuracy")
        except (OSError, ValueError):
            pass
    if comparison[MODE_COHORT] is not None and comparison[MODE_GLOBAL] is not None:
        comparison["delta_points"] = round(
            100.0 * (comparison[MODE_COHORT] - comparison[MODE_GLOBAL]), 3
        )
    return comparison
