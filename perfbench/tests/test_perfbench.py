"""Unit tests of the benchmark's own arithmetic and generator.

    python3 -m pytest perfbench/tests -q
"""

import json
import threading
from pathlib import Path

import pytest

from hostspeed import REFERENCE_BLOCK_S, corrected, scale_of
from run import END_TO_END, typical
from spans import PER_LAYER, Span, Tracer, patched, self_times, union_length
from stats import highest_percentile, percentile, samples_beyond
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


# -- percentile choice ----------------------------------------------------------


def test_percentile_interpolates_linearly():
    values = [float(v) for v in range(1, 11)]  # 1..10
    assert percentile(values, 50.0) == 5.5
    assert percentile(values, 90.0) == pytest.approx(9.1)
    assert percentile(list(reversed(values)), 0.0) == 1.0
    assert percentile(values, 100.0) == 10.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
     (10_000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    values = [float(v) for v in range(n)]
    chosen = highest_percentile(values)
    if expected is None:
        assert chosen is None
        return
    p, value, count = chosen
    assert p == expected
    assert count == n
    assert samples_beyond(n, p) >= 10
    assert value == percentile(values, p)


def test_samples_beyond_counts_strictly_above():
    assert samples_beyond(100, 90.0) == 10
    assert samples_beyond(99, 90.0) == 9
    assert samples_beyond(1000, 99.9) == 1


# -- span self time ---------------------------------------------------------------


def _span(name, start, end, parent=None, thread="main"):
    return Span(name, start, end, parent, thread, "unit")


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: covered once, not twice
        _span("c", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 3.0, 1.0])


def test_self_time_ignores_spans_on_other_threads():
    spans = [
        _span("coordinator.wait", 0.0, 10.0, thread="main"),
        _span("client.work", 2.0, 8.0, thread="client-0"),
        _span("client.inner", 3.0, 5.0, parent=1, thread="client-0"),
    ]
    assert self_times(spans) == pytest.approx([10.0, 4.0, 2.0])


def test_tracer_parents_stay_on_their_own_thread():
    tracer = Tracer("unit")
    barrier = threading.Barrier(2)

    def work(tag):
        with tracer.span(f"outer-{tag}"):
            barrier.wait(timeout=10)  # both outer spans are open at once
            with tracer.span(f"inner-{tag}"):
                pass

    threads = [threading.Thread(target=work, args=(t,), name=f"t{t}") for t in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {span.name: index for index, span in enumerate(tracer.spans)}
    for tag in (0, 1):
        inner = tracer.spans[by_name[f"inner-{tag}"]]
        assert inner.parent == by_name[f"outer-{tag}"]
        assert inner.thread == f"t{tag}"
        assert tracer.spans[by_name[f"outer-{tag}"]].parent is None
    own = self_times(tracer.spans)
    for tag in (0, 1):
        outer, inner = by_name[f"outer-{tag}"], by_name[f"inner-{tag}"]
        duration = tracer.spans[outer].end - tracer.spans[outer].start
        inner_duration = tracer.spans[inner].end - tracer.spans[inner].start
        assert own[outer] == pytest.approx(duration - inner_duration)


def test_patched_restores_attributes():
    class Owner:
        @staticmethod
        def f():
            return 1

    original = Owner.f
    with patched([(Owner, "f", lambda fn: lambda: fn() + 1)]):
        assert Owner.f() == 2
    assert Owner.f is original
    with pytest.raises(RuntimeError):
        with patched([(Owner, "f", lambda fn: lambda: 5)]):
            raise RuntimeError
    assert Owner.f is original


# -- generator -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    build = WORKLOADS[workload][0]
    first = json.dumps(build(7), sort_keys=True)
    assert json.dumps(build(7), sort_keys=True) == first
    assert json.dumps(build(8), sort_keys=True) != first


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_documents_validate(workload):
    from communityfl.scenarios import spec_from_doc, spec_to_doc

    spec = spec_from_doc(WORKLOADS[workload][0](3))
    assert spec.name == workload
    assert spec.seed == 3 and spec.scheduler.seed == 3
    assert spec_from_doc(spec_to_doc(spec)).name == workload


# -- host-speed correction and typical repetition -----------------------------------


def test_corrected_rescales_cpu_time_and_keeps_waiting():
    # a host that takes twice the reference time computes at half speed
    assert scale_of(2 * REFERENCE_BLOCK_S) == pytest.approx(0.5)
    # 3 s of wall time of which 2 s computing: 1 s waiting + 2 s * 0.5
    assert corrected((10.0, 5.0), (13.0, 7.0), 0.5) == pytest.approx(2.0)
    assert corrected((10.0, 5.0), (13.0, 7.0), 1.0) == pytest.approx(3.0)
    # all waiting: unchanged whatever the scale
    assert corrected((0.0, 1.0), (0.044, 1.0), 0.4) == pytest.approx(0.044)


def test_typical_takes_the_median_per_position():
    series = [[1.0, 5.0, 2.0], [9.0, 4.0, 2.0], [2.0, 6.0, 8.0]]
    assert typical(series) == [2.0, 5.0, 2.0]


# -- declared metrics ----------------------------------------------------------------


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
