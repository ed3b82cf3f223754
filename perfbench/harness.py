"""One repetition of a workload, driven through communityfl's public entry points.

A repetition starts the clock, loads the generated scenario document with
``scenarios.spec_from_doc`` and runs it to completion, artifacts included:
in process with ``runner.run_simulation``, or over TCP on 127.0.0.1 with
``transport.SocketCoordinatorServer``, one ``transport.run_socket_client``
thread per client, and ``runner.run_socket_rounds``. Outcomes are read from
the coordinator's round reports and from the written artifacts, after the
clock has stopped.

A host-speed calibration runs just before and just after each repetition,
outside the timed region; the repetition's timings are reported with their
CPU part at the reference host's speed (see ``hostspeed``).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from spans import RoundClock, Tracer, patched, tracer_hooks
from workloads import WORKLOADS

CLIENT_THREAD_PREFIX = "perfbench-client-"
JOIN_TIMEOUT_S = 30.0


@dataclass
class RepResult:
    # host-corrected timings (hostspeed.corrected)
    setup_s: float  # start to the first Coordinator.run_round entry
    wall_s: float
    round_s: list[float]  # duration of every Coordinator.run_round call
    # from the exit of each run_round call to the next entry, or to the end
    gap_s: list[float]
    # as measured, for the report
    raw_setup_s: float
    raw_wall_s: float
    host_scale: float
    selected: int
    received: int
    bytes_transferred: int
    cohorts: int
    mean_holdout_acc: float
    rounds_csv_sha256: str
    digests: dict[str, str]  # cohort id -> final weights digest
    errors: list[str] = field(default_factory=list)

    @property
    def updates_per_s(self) -> float:
        return self.received / (self.wall_s - self.setup_s)


def _simulate(doc: dict, mode: str, out_dir: Path, errors: list[str]):
    from communityfl import runner, scenarios

    spec = scenarios.spec_from_doc(doc)
    return runner.run_simulation(spec, mode=mode, out_dir=out_dir).coordinator


def _serve_client(client, host: str, port: int, task, errors: list[str]):
    from communityfl.transport import run_socket_client

    try:
        run_socket_client(client, host, port, task)
    except Exception as exc:  # reported as a failed check, never swallowed
        errors.append(f"client {client.client_id}: {exc!r}")


def _over_loopback(doc: dict, mode: str, out_dir: Path, errors: list[str]):
    from communityfl import runner, scenarios
    from communityfl.client import FlClient
    from communityfl.orchestrator import Coordinator
    from communityfl.transport import SocketCoordinatorServer

    spec = scenarios.spec_from_doc(doc)
    data = scenarios.generate(spec)
    coordinator = Coordinator(spec.scheduler, data.communities)
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected_tasks=len(data.tasks))
    threads = []
    try:
        host, port = server.address
        task_of = {task.client_id: task for task in data.tasks}
        for index, generated in enumerate(data.clients):
            client = FlClient(generated.client_id, generated.dataset, generated.metadata)
            thread = threading.Thread(
                target=_serve_client,
                args=(client, host, port, task_of[generated.client_id], errors),
                name=f"{CLIENT_THREAD_PREFIX}{index}",
            )
            thread.start()
            threads.append(thread)
        runner.run_socket_rounds(
            server, spec.scheduler.rounds, out_dir, scenario_name=spec.name, mode=mode
        )
    finally:
        server.close()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
            if thread.is_alive():
                errors.append(f"{thread.name} still running after {JOIN_TIMEOUT_S} s")
    return coordinator


def run_rep(workload: str, doc: dict, out_dir: Path, tracer: Tracer | None = None) -> RepResult:
    """Run one repetition; ``tracer`` adds the per-module hooks."""
    # importing the package is a once-per-process cost, not part of any
    # repetition's set-up, so it happens before the clock starts; runner
    # imports every module a repetition uses
    import communityfl.runner  # noqa: F401

    _build, transport, mode = WORKLOADS[workload]
    drive = _simulate if transport == "sim" else _over_loopback
    clock = RoundClock()
    hooks = clock.hooks() + (tracer_hooks(tracer) if tracer is not None else [])
    errors: list[str] = []
    block_before = hostspeed.calibrate()
    with patched(hooks):
        started = hostspeed.now()
        if tracer is None:
            coordinator = drive(doc, mode, out_dir, errors)
        else:
            with tracer.span("workload"):
                coordinator = drive(doc, mode, out_dir, errors)
        finished = hostspeed.now()
    scale = hostspeed.scale_of((block_before + hostspeed.calibrate()) / 2.0)

    reports = coordinator.reports
    summary = json.loads((out_dir / "run_summary.json").read_text())
    cohorts_doc = json.loads((out_dir / "cohorts.json").read_text())
    return RepResult(
        setup_s=hostspeed.corrected(started, clock.calls[0][0], scale),
        wall_s=hostspeed.corrected(started, finished, scale),
        round_s=[hostspeed.corrected(enter, exit_, scale) for enter, exit_ in clock.calls],
        gap_s=[
            hostspeed.corrected(exit_, next_enter, scale)
            for (_enter, exit_), next_enter in zip(
                clock.calls, [enter for enter, _exit in clock.calls[1:]] + [finished]
            )
        ],
        raw_setup_s=clock.calls[0][0][0] - started[0],
        raw_wall_s=finished[0] - started[0],
        host_scale=scale,
        selected=sum(len(r.selected_task_ids) for r in reports),
        received=sum(r.received_updates for r in reports),
        bytes_transferred=sum(r.bytes_transferred for r in reports),
        cohorts=len(coordinator.all_cohorts()),
        mean_holdout_acc=summary["mean_holdout_accuracy"],
        rounds_csv_sha256=hashlib.sha256((out_dir / "rounds.csv").read_bytes()).hexdigest(),
        digests={
            cohort["cohort_id"]: cohort["weights_digest"]
            for population in cohorts_doc["populations"]
            for cohort in population["cohorts"]
        },
        errors=errors,
    )


def reference_digests(doc: dict, mode: str) -> dict[str, str]:
    """Final cohort weight digests of an in-process run of the same scenario."""
    from communityfl import runner, scenarios

    run = runner.run_simulation(scenarios.spec_from_doc(doc), mode=mode)
    return {cohort_id: c["weights_digest"] for cohort_id, c in run.summary.per_cohort.items()}
