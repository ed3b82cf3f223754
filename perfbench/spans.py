"""Timing hooks installed from outside the package, and the span tracer.

Nothing here edits ``communityfl``: each hook replaces one attribute (a
module-level function binding or a class method) for the duration of a
``patched`` block and restores it afterwards. Most modules import their
dependencies by name (``from .tinylearn import train_local``), so a hook
patches the caller's binding, e.g. ``communityfl.client.train_local``;
``netproto`` functions are always called through the module attribute, so
patching ``communityfl.netproto.encode`` catches every caller.

The untimed run installs only :class:`RoundClock`, two clock readings (wall
and process CPU time) around ``Coordinator.run_round``. The traced run adds :func:`tracer_hooks`, which
record spans (name, start, end, parent, thread, workload) in memory; they are
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import asdict, dataclass

from hostspeed import now


@contextlib.contextmanager
def patched(hooks):
    """Install ``(owner, attribute, make_wrapper)`` hooks, restoring them on exit."""
    saved = []
    try:
        for owner, attr, make_wrapper in hooks:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class RoundClock:
    """Entry and exit readings of every ``Coordinator.run_round`` call, each a
    ``hostspeed.now()`` pair of wall and process CPU seconds."""

    def __init__(self):
        self.calls: list[tuple[tuple[float, float], tuple[float, float]]] = []

    def hooks(self):
        from communityfl.orchestrator import Coordinator

        def make(run_round):
            @functools.wraps(run_round)
            def timed(*args, **kwargs):
                entered = now()
                try:
                    return run_round(*args, **kwargs)
                finally:
                    self.calls.append((entered, now()))

            return timed

        return [(Coordinator, "run_round", make)]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span on the same thread
    thread: str
    workload: str


class Tracer:
    """Thread-safe in-memory span and counter store."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        thread = threading.current_thread().name
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, thread, self.workload))
        stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def to_records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = union_length(
            [
                (max(child.start, span.start), min(child.end, span.end))
                for child in children.get(index, ())
                if child.end > span.start and child.start < span.end
            ]
        )
        result.append(span.end - span.start - covered)
    return result


def _wrap(tracer: Tracer, name: str | None, after=None):
    """Wrapper factory: a span named ``name`` (none when None) plus an
    ``after(args, result)`` counter hook."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    return make


def tracer_hooks(tracer: Tracer):
    """Every per-module hook of the traced run."""
    from communityfl import client, community, netproto, orchestrator, runner, scenarios
    from communityfl.client import FlClient
    from communityfl.orchestrator import Coordinator
    from communityfl.transport import SimNetwork, SocketRoundTransport

    count = tracer.count

    def counter(name):
        return _wrap(tracer, None, lambda args, result: count(name))

    def round_outcome(args, report):
        count("orchestrator.guard_flags", sum(v != "accept" for v in report.guard_verdicts.values()))
        count("orchestrator.aborted_rounds", report.status == "aborted")

    def exchange_outcome(args, result):
        arrivals, _bytes = result
        count("transport.delivery_attempts", len(args[1]))
        count("transport.deliveries_failed", sum(env is None for _, env in arrivals))

    generate = _wrap(tracer, "scenarios.generate")
    evaluate = _wrap(tracer, "tinylearn.evaluate")
    centroid = counter("community.weighted_centroid.calls")
    exchange = _wrap(tracer, "transport.exchange_round", exchange_outcome)
    return [
        (runner, "generate", generate),
        (scenarios, "generate", generate),
        (orchestrator, "form_cohorts", _wrap(tracer, "community.form_cohorts")),
        (orchestrator, "recluster", _wrap(tracer, "community.recluster")),
        (community, "similarity", counter("community.similarity.calls")),
        (community, "weighted_centroid", centroid),
        (orchestrator, "weighted_centroid", centroid),
        (Coordinator, "submit_task", _wrap(tracer, "orchestrator.submit_task")),
        (Coordinator, "handle_frame", _wrap(tracer, "orchestrator.handle_frame")),
        (Coordinator, "ensure_cohorts", _wrap(tracer, "orchestrator.ensure_cohorts")),
        (Coordinator, "run_round", _wrap(tracer, "orchestrator.run_round", round_outcome)),
        (
            client,
            "train_local",
            _wrap(
                tracer,
                "tinylearn.train_local",
                lambda args, result: count("tinylearn.train_local.samples", args[1].n_samples),
            ),
        ),
        (client, "evaluate", evaluate),
        (runner, "evaluate", evaluate),
        (FlClient, "execute_train_request", _wrap(tracer, "client.execute_train_request")),
        (FlClient, "split", _wrap(tracer, "client.split")),
        (
            FlClient,
            "report_metrics",
            _wrap(tracer, None, lambda args, result: count("client.report_attempts", result[1])),
        ),
        (FlClient, "delegate", counter("client.delegations")),
        (runner, "write_artifacts", _wrap(tracer, "runner.write_artifacts")),
        (
            netproto,
            "encode",
            _wrap(
                tracer,
                "netproto.encode",
                lambda args, frame: count("netproto.encode.bytes", len(frame)),
            ),
        ),
        (
            netproto,
            "decode",
            _wrap(
                tracer,
                "netproto.decode",
                lambda args, env: count("netproto.decode.bytes", len(args[0])),
            ),
        ),
        (netproto, "update_from_doc", _wrap(tracer, "netproto.update_from_doc")),
        (netproto, "read_frame", _wrap(tracer, "netproto.read_frame")),
        (
            orchestrator,
            "aggregate",
            _wrap(
                tracer,
                "flcore.aggregate",
                lambda args, result: count("flcore.aggregate.updates", len(args[0])),
            ),
        ),
        (SimNetwork, "exchange_round", exchange),
        (SocketRoundTransport, "exchange_round", exchange),
    ]


# per-layer metric name -> unit, in report order
PER_LAYER = {
    "scenarios.generate.ms": "ms",
    "community.form_cohorts.ms": "ms",
    "community.recluster.calls": "count",
    "community.recluster.ms": "ms",
    "community.similarity.calls": "count",
    "community.weighted_centroid.calls": "count",
    "community.cohorts": "count",
    "orchestrator.submit_task.calls": "count",
    "orchestrator.submit_task.ms": "ms",
    "orchestrator.handle_frame.calls": "count",
    "orchestrator.handle_frame.ms": "ms",
    "orchestrator.ensure_cohorts.ms": "ms",
    "orchestrator.run_round.self_ms": "ms",
    "orchestrator.guard_flags": "count",
    "orchestrator.aborted_rounds": "count",
    "tinylearn.train_local.calls": "count",
    "tinylearn.train_local.ms": "ms",
    "tinylearn.train_local.samples": "count",
    "tinylearn.evaluate.calls": "count",
    "tinylearn.evaluate.ms": "ms",
    "client.execute_train_request.self_ms": "ms",
    "client.split.calls": "count",
    "client.split.ms": "ms",
    "client.report_attempts": "count",
    "client.delegations": "count",
    "runner.eval.ms": "ms",
    "runner.write_artifacts.ms": "ms",
    "netproto.encode.calls": "count",
    "netproto.encode.ms": "ms",
    "netproto.encode.bytes": "B",
    "netproto.decode.calls": "count",
    "netproto.decode.ms": "ms",
    "netproto.decode.bytes": "B",
    "netproto.update_from_doc.calls": "count",
    "netproto.update_from_doc.ms": "ms",
    "netproto.decodes_per_update": "ratio",
    "flcore.aggregate.calls": "count",
    "flcore.aggregate.ms": "ms",
    "flcore.aggregate.updates": "count",
    "transport.exchange_round.self_ms": "ms",
    "transport.read_wait_ms.coordinator": "ms",
    "transport.read_wait_ms.client": "ms",
    "transport.delivery_attempts": "count",
    "transport.deliveries_failed": "count",
}

_IN_ROUND, _IN_EXCHANGE, _IN_CLIENT = 1, 2, 4
_SCOPE_BIT = {
    "orchestrator.run_round": _IN_ROUND,
    "transport.exchange_round": _IN_EXCHANGE,
    "client.execute_train_request": _IN_CLIENT,
}


def layer_metrics(
    tracer: Tracer, received_updates: int, cohorts: int, client_thread_prefix: str
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = {}
    total_ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    # scope[i]: bits of the scoped names among span i and its ancestors;
    # parents are appended before their children, so one pass suffices
    scope = [0] * len(spans)
    runner_eval_ms = read_coord_ms = read_client_ms = 0.0
    round_decodes = 0
    for index, span in enumerate(spans):
        outer = scope[span.parent] if span.parent is not None else 0
        scope[index] = outer | _SCOPE_BIT.get(span.name, 0)
        ms = (span.end - span.start) * 1000.0
        calls[span.name] = calls.get(span.name, 0) + 1
        total_ms[span.name] = total_ms.get(span.name, 0.0) + ms
        self_ms[span.name] = self_ms.get(span.name, 0.0) + own[index] * 1000.0
        if span.name in ("tinylearn.evaluate", "client.split") and not outer & _IN_CLIENT:
            runner_eval_ms += ms
        elif span.name == "netproto.decode" and outer & _IN_ROUND:
            round_decodes += 1
        elif span.name == "netproto.read_frame":
            if outer & _IN_EXCHANGE:
                read_coord_ms += ms
            elif span.thread.startswith(client_thread_prefix):
                read_client_ms += ms

    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls.get(layer, 0) or tracer.counters.get(name, 0)
        elif stat == "ms":
            metrics[name] = total_ms.get(layer, 0.0)
        elif stat == "self_ms":
            metrics[name] = self_ms.get(layer, 0.0)
        else:
            metrics[name] = tracer.counters.get(name, 0)
    metrics["community.cohorts"] = cohorts
    metrics["runner.eval.ms"] = runner_eval_ms
    metrics["netproto.decodes_per_update"] = round_decodes / received_updates
    metrics["transport.read_wait_ms.coordinator"] = read_coord_ms
    metrics["transport.read_wait_ms.client"] = read_client_ms
    return metrics


def self_time_split(tracer: Tracer, client_thread_prefix: str) -> dict[str, float]:
    """Self time in seconds per span name, outermost ``workload`` span
    included; spans on client threads are keyed ``<name>@client``."""
    split: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        key = span.name + ("@client" if span.thread.startswith(client_thread_prefix) else "")
        split[key] = split.get(key, 0.0) + own
    return split
