"""communityfl benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload crowd-cohort --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. A run repeats the workload (same seed, same inputs) until
``--seconds`` have been spent, at least ``MIN_REPS`` times, and reports
host-corrected timings of the typical repetition (see ``end_to_end`` and
``hostspeed``). ``--trace 0`` times the repetitions with only two clock
readings around ``Coordinator.run_round`` and prints the end-to-end metrics; ``--trace 1``
times them with every per-module hook and prints the per-layer metrics.
Either way one more repetition runs in the other mode, outside the
measurement, so the output can check that tracing leaves ``rounds.csv``
byte-identical and report the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Artifacts, the generated scenario document, the spans of the
last traced repetition and a full report go to
``.perfbench_out/<workload>/seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import CLIENT_THREAD_PREFIX, reference_digests, run_rep
from spans import PER_LAYER, Tracer, layer_metrics, self_time_split
from stats import highest_percentile, percentile
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".perfbench_out"
MIN_REPS = 3

# end-to-end metric name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "updates_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "bytes_per_update": "B",
    "delivered_share": "ratio",
    "mean_holdout_acc": "ratio",
    "peak_rss_mb": "MB",
}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "network": "socket traffic crosses the host loopback (127.0.0.1), not a real link",
    }


def typical(series: list[list[float]]) -> list[float]:
    """Each position's median over the repetitions' series.

    Every repetition replays the same seeded run, so the i-th
    ``Coordinator.run_round`` call, and the i-th stretch between two calls,
    does the same work in each of them (the output checks confirm
    ``rounds.csv`` is identical). The median per position drops the
    repetitions where that stretch met a slow phase of the host that the
    calibration around the repetition missed."""
    return [statistics.median(values) for values in zip(*series)]


def end_to_end(reps, peak_rss_mb: float) -> dict[str, float]:
    """Timings are host-corrected (``hostspeed``) and describe the typical
    repetition: the median set-up, then the typical duration of every
    ``run_round`` call and of every stretch after one (:func:`typical`).
    ``wall_s`` is their sum; round latency is read from the typical calls."""
    setup = statistics.median(rep.setup_s for rep in reps)
    rounds = typical([rep.round_s for rep in reps])
    after_setup = sum(rounds) + sum(typical([rep.gap_s for rep in reps]))
    selected = sum(rep.selected for rep in reps)
    received = sum(rep.received for rep in reps)
    return {
        "setup_s": setup,
        "wall_s": setup + after_setup,
        "updates_per_s": received / len(reps) / after_setup,
        "round_ms_p50": percentile(rounds, 50.0) * 1000.0,
        "round_ms_p90": percentile(rounds, 90.0) * 1000.0,
        "bytes_per_update": sum(rep.bytes_transferred for rep in reps) / received,
        "delivered_share": received / selected,
        "mean_holdout_acc": statistics.median(rep.mean_holdout_acc for rep in reps),
        "peak_rss_mb": peak_rss_mb,
    }


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": ok, "detail": detail}


def output_checks(workload: str, doc: dict, reps, other) -> list[dict]:
    everything = reps + [other]
    shas = sorted({rep.rounds_csv_sha256 for rep in everything})
    checks = [
        _check(
            "rounds.csv identical across repetitions, untraced and traced",
            len(shas) == 1,
            "sha256 " + " / ".join(shas),
        ),
        _check(
            "no client errors",
            not any(rep.errors for rep in everything),
            "; ".join(e for rep in everything for e in rep.errors) or "none",
        ),
    ]
    _build, transport, mode = WORKLOADS[workload]
    if transport == "socket":
        expected = reference_digests(doc, mode)
        checks.append(
            _check(
                "socket cohort digests equal the in-process simulation",
                all(rep.digests == expected for rep in everything),
                json.dumps(expected, sort_keys=True),
            )
        )
    else:
        checks.append(
            _check(
                "cohort digests identical across repetitions",
                all(rep.digests == reps[0].digests for rep in everything),
                f"{len(reps[0].digests)} cohorts",
            )
        )
    return checks


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    build, _transport, _mode = WORKLOADS[workload]
    doc = build(seed)
    out = OUT_ROOT / workload / f"seed{seed}-trace{int(traced)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "scenario.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    reps, layers = [], []
    last_tracer = None
    began = time.perf_counter()
    while True:
        gc.collect()
        tracer = Tracer(workload) if traced else None
        rep = run_rep(workload, doc, out / "rep", tracer)
        reps.append(rep)
        if tracer is not None:
            layers.append(layer_metrics(tracer, rep.received, rep.cohorts, CLIENT_THREAD_PREFIX))
            last_tracer = tracer
        spent = time.perf_counter() - began
        if len(reps) >= MIN_REPS and spent * (len(reps) + 1) / len(reps) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gc.collect()
    other_tracer = None if traced else Tracer(workload)
    other = run_rep(workload, doc, out / "other", other_tracer)
    last_tracer = last_tracer or other_tracer
    checks = output_checks(workload, doc, reps, other)

    if traced:
        metrics = {
            name: statistics.median(rep_layers[name] for rep_layers in layers)
            for name in PER_LAYER
        }
        units = PER_LAYER
        overhead_s = statistics.median(rep.wall_s for rep in reps) - other.wall_s
    else:
        metrics = end_to_end(reps, peak_rss_mb)
        units = END_TO_END
        overhead_s = other.wall_s - metrics["wall_s"]

    rounds_ms = [d * 1000.0 for d in typical([rep.round_s for rep in reps])]
    tail = highest_percentile(rounds_ms)
    selected = sum(rep.selected for rep in reps)
    failed_updates = selected - sum(rep.received for rep in reps)
    failed_checks = sum(not c["ok"] for c in checks)
    split = self_time_split(last_tracer, CLIENT_THREAD_PREFIX)
    traced_wall = next(s.end - s.start for s in last_tracer.spans if s.name == "workload")
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "repetitions": len(reps),
        "cohorts": reps[0].cohorts,
        "cohort_rounds_per_rep": len(reps[0].round_s),
        "round_ms_samples": len(rounds_ms),
        "per_repetition": [
            {
                "setup_s": rep.setup_s,
                "wall_s": rep.wall_s,
                "raw_setup_s": rep.raw_setup_s,
                "raw_wall_s": rep.raw_wall_s,
                "host_scale": rep.host_scale,
                "updates_per_s": rep.updates_per_s,
                "round_ms_p50": percentile(rep.round_s, 50.0) * 1000.0,
                "round_ms_p90": percentile(rep.round_s, 90.0) * 1000.0,
            }
            for rep in reps
        ],
        "round_ms_tail": (
            {"percentile": tail[0], "value": tail[1], "samples": tail[2]} if tail else None
        ),
        "failed_share": failed_updates / selected,
        "tracing_overhead_s": overhead_s,
        "self_time_share": {
            name: own / traced_wall for name, own in sorted(split.items(), key=lambda kv: -kv[1])
        },
        "checks": checks,
        "environment": environment(),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "result": {
            "correct": failed_checks == 0,
            "attempted": selected + len(checks),
            "failed": failed_updates + failed_checks,
        },
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    with (out / "spans.jsonl").open("w") as fh:
        for record in last_tracer.to_records():
            fh.write(json.dumps(record) + "\n")
    return report


def print_report(report: dict):
    print(
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"repetitions={report['repetitions']} cohorts={report['cohorts']} "
        f"cohort-rounds/rep={report['cohort_rounds_per_rep']}"
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    tail = report["round_ms_tail"]
    print(
        f"  round_ms over {report['round_ms_samples']} cohort-rounds, each the median of "
        f"{report['repetitions']} repetitions; highest percentile with "
        f">= 10 samples beyond it: "
        + (f"p{tail['percentile']:g} = {tail['value']:.4g} ms" if tail else "none")
    )
    scales = [rep["host_scale"] for rep in report["per_repetition"]]
    print(
        f"  host scale per repetition {min(scales):.3f}-{max(scales):.3f} "
        f"(reference speed / measured speed; see hostspeed.py)"
    )
    print(f"  failed_share {report['failed_share']:.6g} (selected updates not received)")
    print(f"  tracing overhead: traced wall_s - untraced wall_s = {report['tracing_overhead_s']:+.4f} s")
    top = list(report["self_time_share"].items())[:8]
    print("  traced self-time split: " + ", ".join(f"{n} {s:.0%}" for n, s in top))
    for check in report["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['detail']}")
    env = report["environment"]
    print(
        f"  env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} blas_threads={env['blas_threads']}; {env['network']}"
    )


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if not (ROOT / "src" / "communityfl" / "__init__.py").is_file():
        print(f"perfbench: no communityfl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps({**report["result"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
