"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Heavy scenario runs are shared via module-scoped
fixtures, so the whole suite stays well under a minute.
"""

import dataclasses
import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from communityfl import netproto, runner, scenarios, transport
from communityfl.cli import main as cli_main
from communityfl.client import FlClient
from communityfl.community import Community, ParticipantMetadata, form_cohorts
from communityfl.errors import ProtocolError
from communityfl.flcore import (
    FlPopulation,
    FlTask,
    PopulationRegistry,
    aggregate,
    single_member_aggregate,
)
from communityfl.netproto import PAYLOAD_SCHEMAS, Envelope, MsgType, decode, encode
from communityfl.orchestrator import Coordinator, SchedulerConfig
from communityfl.tinylearn import Dataset, WeightVector, loss_and_gradient, make_arch

from conftest import decode_strictly, make_task, make_update, near_signature, rand_signature
from test_flcore import naive_weighted_mean
from test_netproto import _random_value
from test_community import all_partitions, min_intra_similarity, two_cluster_signatures


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description}")


@pytest.fixture(scope="module")
def heartrate_runs(tmp_path_factory):
    spec = scenarios.builtin_scenarios()["heartrate"]
    base = tmp_path_factory.mktemp("heartrate")
    started = time.perf_counter()
    cohort = runner.run_simulation(spec, mode="cohort", out_dir=base / "cohort")
    global_ = runner.run_simulation(spec, mode="global", out_dir=base / "global")
    wall = time.perf_counter() - started
    return cohort, global_, wall


@pytest.fixture(scope="module")
def uniform_runs():
    spec = scenarios.builtin_scenarios()["uniform"]
    return (
        runner.run_simulation(spec, mode="cohort"),
        runner.run_simulation(spec, mode="global"),
    )


@pytest.fixture(scope="module")
def poison_runs():
    spec = scenarios.builtin_scenarios()["poison"]
    guard_on = runner.run_simulation(spec, mode="cohort")
    disabled = dataclasses.replace(
        spec, scheduler=dataclasses.replace(spec.scheduler, guard_epsilon=None)
    )
    guard_off = runner.run_simulation(disabled, mode="cohort")
    return guard_on, guard_off


def test_criterion_1_cohort_benefit_under_heterogeneity(heartrate_runs):
    with criterion(1, "heartrate cohort mode beats global mode by >= 5 accuracy points"):
        cohort, global_, wall = heartrate_runs
        delta = (
            cohort.summary.mean_holdout_accuracy - global_.summary.mean_holdout_accuracy
        )
        assert delta >= 0.05, f"delta {delta:.4f}"
        assert wall < 60.0, f"both modes took {wall:.1f}s"


def test_criterion_2_cohort_no_harm_under_homogeneity(uniform_runs):
    with criterion(2, "uniform scenario: |cohort - global| accuracy <= 2 points"):
        cohort, global_ = uniform_runs
        assert len(cohort.summary.per_cohort) == 1  # cohorting collapsed
        delta = abs(
            cohort.summary.mean_holdout_accuracy - global_.summary.mean_holdout_accuracy
        )
        assert delta <= 0.02, f"delta {delta:.4f}"


def test_criterion_3_aggregation_oracle(rng):
    with criterion(3, "aggregate matches the naive weighted-mean oracle within 1e-12"):
        for _ in range(100):
            k = int(rng.integers(1, 11))
            updates = [
                make_update(
                    f"t{i:02d}", rng.normal(0, 3, 6), n_samples=int(rng.integers(1, 1000))
                )
                for i in range(k)
            ]
            expected = naive_weighted_mean(updates)
            got = aggregate(updates)
            assert np.max(np.abs(got.values - expected)) < 1e-12
        solo = make_update("only", rng.normal(0, 2, 6), n_samples=17)
        assert np.array_equal(single_member_aggregate(solo).values, solo.weights.values)


def test_criterion_4_population_and_cohort_partitions(rng):
    with criterion(4, "populations and cohorts partition tasks, order-invariantly"):
        # exhaustive permutations on a five-task instance
        def build_tasks():
            return [
                make_task("t1", objective="alpha"),
                make_task("t2", objective="alpha"),
                make_task("t3", objective="beta"),
                make_task("t4", objective="beta"),
                make_task("t5", objective="gamma"),
            ]

        reference = None
        for perm in itertools.permutations(range(5)):
            registry = PopulationRegistry()
            tasks = build_tasks()
            for i in perm:
                registry.assign_population(tasks[i])
            snapshot = {
                pid: frozenset(p.member_task_ids)
                for pid, p in registry.populations.items()
            }
            seen = [t for members in snapshot.values() for t in members]
            assert sorted(seen) == [f"t{i}" for i in range(1, 6)]  # partition
            keys = [p.config.key() for p in registry.populations.values()]
            assert len(keys) == len(set(keys))  # pairwise-distinct signatures
            reference = reference or snapshot
            assert snapshot == reference

        # randomized fifty-task instances, including the cohort level
        for trial in range(5):
            trial_rng = np.random.default_rng(1000 + trial)
            objectives = [f"obj-{i}" for i in range(4)]
            bases = {o: rand_signature(trial_rng) for o in objectives}
            # each task has its own participant, whose registered signature
            # is the task's
            tasks, registered = [], {}
            for i in range(50):
                obj = objectives[int(trial_rng.integers(0, 4))]
                registered[f"client-{i:02d}"] = near_signature(bases[obj], trial_rng)
                tasks.append(make_task(f"task-{i:02d}", client_id=f"client-{i:02d}", objective=obj))
            registry = PopulationRegistry()
            for i in trial_rng.permutation(50):
                registry.assign_population(tasks[int(i)])
            assigned = set()
            for population in registry.populations.values():
                cohorts = form_cohorts(
                    population,
                    {t: registered[registry.tasks[t].client_id] for t in population.member_task_ids},
                    threshold=0.6,
                    seed=trial,
                )
                cohort_members = [t for c in cohorts for t in c.member_task_ids]
                assert sorted(cohort_members) == sorted(population.member_task_ids)
                assert len(cohort_members) == len(set(cohort_members))
                assigned.update(cohort_members)
            assert len(assigned) == 50


def test_criterion_5_planted_cluster_recovery(rng):
    with criterion(5, "greedy cohorting matches the exhaustive 203-partition oracle"):
        signatures = two_cluster_signatures(rng, n_per=3, gap=6.0)
        tau = 0.8
        partitions = list(all_partitions(sorted(signatures)))
        assert len(partitions) == 203
        valid = [p for p in partitions if min_intra_similarity(p, signatures) >= tau]
        fewest = min(len(p) for p in valid)
        coarsest = [p for p in valid if len(p) == fewest]
        assert len(coarsest) == 1
        oracle = {frozenset(b) for b in coarsest[0]}

        population = FlPopulation(
            population_id="pop-oracle",
            config=make_task("config-only", objective="x").config,
            member_task_ids=set(signatures),
        )
        cohorts = form_cohorts(population, signatures, tau, seed=0)
        assert {frozenset(c.member_task_ids) for c in cohorts} == oracle


def test_criterion_6_negative_transfer_guard(poison_runs):
    with criterion(6, "poisoned client isolated; guard lifts accuracy by >= 3 points"):
        guard_on, guard_off = poison_runs
        window = [r for r in guard_on.reports if 3 <= r.sched_round <= 10]
        rates: dict[str, list[int]] = {}
        for report in window:
            for task_id, verdict in report.guard_verdicts.items():
                rates.setdefault(task_id, []).append(0 if verdict == "accept" else 1)
        flag_rate = {t: sum(v) / len(v) for t, v in rates.items()}
        assert flag_rate["p-04-t0"] >= 0.8, flag_rate
        for task_id, rate in flag_rate.items():
            if task_id != "p-04-t0":
                assert rate <= 0.1, flag_rate

        clean = [c for c in guard_on.spec.clients if c != "p-04"]
        acc_on = sum(guard_on.summary.per_client_holdout_accuracy[c] for c in clean) / len(clean)
        acc_off = sum(guard_off.summary.per_client_holdout_accuracy[c] for c in clean) / len(clean)
        assert acc_on - acc_off >= 0.03, f"guard lift {acc_on - acc_off:.4f}"


def test_criterion_7_simulation_determinism(tmp_path):
    with criterion(7, "same scenario and seed give byte-identical rounds.csv and hashes"):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main(
                ["simulate", "--scenario", "heartrate", "--mode", "cohort",
                 "--seed", "42", "--out", str(out)]
            )
            assert code == 0
            outputs.append(out)
        a, b = outputs
        assert (a / "rounds.csv").read_bytes() == (b / "rounds.csv").read_bytes()
        digests = []
        for out in outputs:
            doc = json.loads((out / "cohorts.json").read_text())
            digests.append(
                {
                    c["cohort_id"]: c["weights_digest"]
                    for p in doc["populations"]
                    for c in p["cohorts"]
                }
            )
        assert digests[0] == digests[1]


def test_criterion_8_protocol_robustness(rng, tmp_path):
    with criterion(8, "decoder survives fuzzing; round-trips exact; socket == simulation"):
        # 10^4 fuzz frames: garbage, mutations, truncations
        template = bytearray(
            encode(
                Envelope(
                    MsgType.METRICS_ACK, 1, {"task_id": "t", "round": 1, "status": "stored"}
                )
            )
        )
        for i in range(10_000):
            mode = i % 3
            if mode == 0:
                frame = bytes(
                    rng.integers(0, 256, size=int(rng.integers(0, 100)), dtype=np.uint8)
                )
            elif mode == 1:
                mutated = bytearray(template)
                mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
                frame = bytes(mutated)
            else:
                frame = bytes(template[: int(rng.integers(0, len(template)))])
            try:
                decode(frame)
            except ProtocolError:
                pass

        # byte-exact round trip for every message type
        for msg_type in MsgType:
            env = Envelope(
                msg_type=msg_type,
                correlation_id=int(rng.integers(0, 2**63)),
                payload=_random_value(
                    netproto.Field("doc", schema=PAYLOAD_SCHEMAS[msg_type]), rng
                ),
            )
            frame = encode(env)
            assert encode(decode_strictly(frame)) == frame

        # zero-fault socket run reproduces the simulation bit-exactly
        spec = scenarios.builtin_scenarios()["uniform"]
        sim = runner.run_simulation(spec, mode="cohort")
        sim_digests = {c: v["weights_digest"] for c, v in sim.summary.per_cohort.items()}

        bundle = tmp_path / "bundle"
        scenarios.export_socket_bundle(spec, bundle)
        config = json.loads((bundle / "server_config.json").read_text())
        coordinator = Coordinator(
            SchedulerConfig(**config["scheduler"]),
            [netproto.from_doc(Community, c) for c in config["communities"]],
        )
        server = transport.SocketCoordinatorServer(
            coordinator, "127.0.0.1", 0, config["expected_tasks"], recv_timeout_s=10.0
        )
        host, port = server.address

        def client_main(client_id):
            doc = json.loads((bundle / f"{client_id}.data.json").read_text())
            dataset = Dataset(
                features=np.array(doc["features"]),
                labels=np.array(doc["labels"]),
                n_classes=doc["n_classes"],
            )
            metadata = netproto.from_doc(
                ParticipantMetadata,
                json.loads((bundle / f"{client_id}.metadata.json").read_text()),
            )
            task = netproto.from_doc(
                FlTask, json.loads((bundle / f"{client_id}.task.json").read_text())
            )
            transport.run_socket_client(
                FlClient(client_id, dataset, metadata), host, port, task
            )

        threads = [
            threading.Thread(target=client_main, args=(cid,), daemon=True)
            for cid in spec.clients
        ]
        for thread in threads:
            thread.start()
        out = tmp_path / "sock"
        runner.run_socket_rounds(server, spec.scheduler.rounds, out, scenario_name=spec.name)
        server.close()
        for thread in threads:
            thread.join(timeout=10)
        doc = json.loads((out / "cohorts.json").read_text())
        socket_digests = {
            c["cohort_id"]: c["weights_digest"]
            for p in doc["populations"]
            for c in p["cohorts"]
        }
        assert socket_digests == sim_digests


def test_criterion_9_gradient_check(rng):
    with criterion(9, "analytic gradients match finite differences within 1e-5"):
        for trial in range(10):
            hidden = 0 if trial % 2 == 0 else int(rng.integers(2, 6))
            arch = make_arch(int(rng.integers(2, 5)), int(rng.integers(2, 4)), hidden)
            w = WeightVector(rng.normal(0, 0.8, arch.param_count), arch.arch_id)
            data = Dataset(
                features=rng.normal(0, 1.5, (10, arch.n_features)),
                labels=rng.integers(0, arch.n_classes, 10),
                n_classes=arch.n_classes,
            )
            _, analytic = loss_and_gradient(w, data)
            h = 1e-6
            numeric = np.zeros_like(analytic)
            for i in range(w.values.size):
                bumped = w.values.copy()
                bumped[i] += h
                hi, _ = loss_and_gradient(WeightVector(bumped, arch.arch_id), data)
                bumped[i] -= 2 * h
                lo, _ = loss_and_gradient(WeightVector(bumped, arch.arch_id), data)
                numeric[i] = (hi - lo) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-5, f"trial {trial}: {rel}"


def test_criterion_10_privacy_by_schema():
    with criterion(10, "no wire message type can carry raw feature or label arrays"):
        forbidden = {"features", "labels", "x", "y", "data", "samples", "records", "raw_data"}
        array_allowlist = {
            "per_feature_mean",
            "per_feature_std",
            "label_histogram",
            "interests",
            "expertise",
            "required_tags",
            "forbidden_tags",
            "communities",
        }

        def walk(schema, prefix=""):
            for name, spec in schema.items():
                yield prefix + name, spec
                if spec.kind == "doc":
                    yield from walk(spec.schema, prefix + name + ".")
                elif spec.kind in ("list", "map") and spec.item and spec.item.kind == "doc":
                    yield from walk(spec.item.schema, prefix + name + "[].")

        for msg_type, schema in PAYLOAD_SCHEMAS.items():
            for path, spec in walk(schema):
                leaf = path.split(".")[-1].replace("[]", "")
                assert leaf.lower() not in forbidden, f"{msg_type}: {path}"
                if spec.kind == "list":
                    assert leaf in array_allowlist, f"{msg_type}: array field {path}"
                    assert spec.item.kind in ("str", "float", "doc")

        # strict validation refuses smuggled fields in both directions
        payload = {"task_id": "t", "round": 1, "status": "ok", "features": [[1.0]]}
        with pytest.raises(ProtocolError):
            encode(Envelope(MsgType.METRICS_ACK, 1, payload))
