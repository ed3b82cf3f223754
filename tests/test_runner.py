import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from communityfl import netproto, runner, scenarios
from communityfl.cli import main as cli_main
from communityfl.client import FlClient
from communityfl.orchestrator import Coordinator
from communityfl.community import signature_from_dataset
from communityfl.scenarios import FaultSpec, builtin_scenarios, generate
from communityfl.tinylearn import evaluate


@pytest.mark.parametrize("mode", ["cohort", "global"])
def test_round_state_does_not_grow_with_the_number_of_rounds(mode):
    # each client keeps its latest update per (task, cohort), and the
    # coordinator keeps nothing per round but its list of reports: 4x the
    # rounds, the same state
    spec = builtin_scenarios()["uniform"]
    sizes = []
    for rounds in (3, 12):
        scheduler = dataclasses.replace(spec.scheduler, rounds=rounds)
        run = runner.run_simulation(dataclasses.replace(spec, scheduler=scheduler), mode=mode)
        kept = {
            name: len(value)
            for name, value in vars(run.coordinator).items()
            if hasattr(value, "__len__") and name != "reports"
        }
        cached = sum(len(client._update_cache) for client in run.clients.values())
        sizes.append((kept, cached))
    assert sizes[0] == sizes[1]
    assert sizes[0][1] == len(spec.tasks)


def test_rounds_csv_has_exact_columns(tmp_path):
    spec = builtin_scenarios()["uniform"]
    runner.run_simulation(spec, mode="cohort", out_dir=tmp_path)
    header = (tmp_path / "rounds.csv").read_text().splitlines()[0]
    assert header == "cohort_id,round,n_updates,mean_local_acc,global_holdout_acc,flag_rate"


def test_rounds_jsonl_records_are_valid_and_complete(tmp_path):
    spec = builtin_scenarios()["dropout"]
    runner.run_simulation(spec, mode="cohort", out_dir=tmp_path)
    lines = (tmp_path / "rounds.jsonl").read_text().strip().splitlines()
    assert len(lines) == spec.scheduler.rounds
    required = {
        "cohort_id",
        "round",
        "sched_round",
        "selected_task_ids",
        "received_updates",
        "aggregate_pre_loss",
        "aggregate_post_loss",
        "guard_verdicts",
        "new_global_weights_hash",
        "status",
        "reason",
        "executors",
        "bytes_transferred",
        "flag_rate",
    }
    for line in lines:
        doc = json.loads(line)
        assert required <= set(doc)
        assert doc["received_updates"] <= len(doc["selected_task_ids"])
        assert len(doc["new_global_weights_hash"]) == 16


def test_rounds_jsonl_deterministic(tmp_path):
    spec = builtin_scenarios()["heartrate"]
    runner.run_simulation(spec, mode="cohort", out_dir=tmp_path / "a")
    runner.run_simulation(spec, mode="cohort", out_dir=tmp_path / "b")
    assert (tmp_path / "a/rounds.jsonl").read_bytes() == (tmp_path / "b/rounds.jsonl").read_bytes()


def test_run_summary_schema(tmp_path):
    spec = builtin_scenarios()["uniform"]
    runner.run_simulation(spec, mode="cohort", out_dir=tmp_path)
    doc = json.loads((tmp_path / "run_summary.json").read_text())
    for key in (
        "scenario",
        "mode",
        "seed",
        "rounds_scheduled",
        "rounds_committed",
        "per_task_holdout_accuracy",
        "per_client_holdout_accuracy",
        "per_cohort",
        "mean_holdout_accuracy",
        "comparison",
        "recluster_events",
        "aborted_cohorts",
        "wall_time_s",
    ):
        assert key in doc
    assert 0.0 <= doc["mean_holdout_accuracy"] <= 1.0
    for accuracy in doc["per_client_holdout_accuracy"].values():
        assert 0.0 <= accuracy <= 1.0


def test_seed_override_changes_run(tmp_path):
    spec = builtin_scenarios()["uniform"]
    a = runner.run_simulation(spec, mode="cohort", seed=1)
    b = runner.run_simulation(spec, mode="cohort", seed=2)
    da = {c: v["weights_digest"] for c, v in a.summary.per_cohort.items()}
    db = {c: v["weights_digest"] for c, v in b.summary.per_cohort.items()}
    assert da != db


def test_exit_code_3_when_a_cohort_never_commits(tmp_path, capsys):
    # quorum 1.0 with one client dropped every round: nothing ever commits
    spec = builtin_scenarios()["uniform"]
    starved = dataclasses.replace(
        spec,
        scheduler=dataclasses.replace(spec.scheduler, rounds=3, min_updates_quorum=1.0),
        faults=[FaultSpec(round=r, client_id="u-01", kind="drop") for r in (1, 2, 3)],
    )
    path = tmp_path / "starved.json"
    scenarios.dump_spec(starved, path)
    code = cli_main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "aborted cohorts" in capsys.readouterr().err


def test_log_env_var_controls_verbosity(tmp_path):
    env = dict(os.environ, COMMUNITYFL_LOG="debug")
    result = subprocess.run(
        [sys.executable, "-m", "communityfl.cli", "simulate", "--scenario", "uniform",
         "--mode", "cohort", "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0
    assert "DEBUG" in result.stderr or "INFO" in result.stderr


def test_socket_mode_csv_lags_global_holdout_column(tmp_path):
    # covered end-to-end in test_transport; here just the column contract:
    # the simulation runner fills every row, socket mode leaves the last empty
    spec = builtin_scenarios()["uniform"]
    runner.run_simulation(spec, mode="cohort", out_dir=tmp_path)
    rows = (tmp_path / "rounds.csv").read_text().strip().splitlines()[1:]
    assert all(row.split(",")[4] != "" for row in rows)


def test_summary_accuracy_equals_direct_evaluate_after_drift(tmp_path):
    # each member's holdout is rebuilt from the client's current data, so a
    # drifted client still scored on its pre-drift holdout would not match
    spec = builtin_scenarios()["drift"]
    run = runner.run_simulation(spec, mode="cohort", out_dir=tmp_path)
    doc = json.loads((tmp_path / "run_summary.json").read_text())
    drifted = {event.client_id for event in spec.drift_events}
    seen_drifted = False
    for cohort in run.coordinator.all_cohorts():
        total = correct = 0.0
        for task_id in sorted(cohort.member_task_ids):
            task = run.coordinator.registry.tasks[task_id]
            current = run.clients[task.client_id]
            fresh = FlClient(task.client_id, current.local_data, current.metadata)
            holdout = fresh.split(task.plan.eval_holdout_fraction)[1]
            metrics = evaluate(cohort.global_weights, holdout)
            assert doc["per_task_holdout_accuracy"][task_id] == metrics.accuracy
            correct += metrics.accuracy * metrics.n_samples
            total += metrics.n_samples
            seen_drifted |= task.client_id in drifted
        final = doc["per_cohort"][cohort.cohort_id]["final_holdout_accuracy"]
        assert final == correct / total
    assert seen_drifted


def _direct_accuracy(run, cohort) -> float:
    """The sample-weighted holdout accuracy of the cohort model, one
    ``evaluate`` per member holdout."""
    total = correct = 0.0
    for task_id in sorted(cohort.member_task_ids):
        task = run.coordinator.registry.tasks[task_id]
        holdout = run.clients[task.client_id].split(task.plan.eval_holdout_fraction)[1]
        metrics = evaluate(cohort.global_weights, holdout)
        correct += metrics.accuracy * metrics.n_samples
        total += metrics.n_samples
    return correct / total


def test_a_changed_member_set_rebuilds_the_holdout_stack():
    # the stack is kept while the cohort's member set equals the one it was
    # built from; a set changed in place or replaced must rebuild it
    run = runner.run_simulation(builtin_scenarios()["uniform"])
    (cohort,) = run.coordinator.all_cohorts()
    holdout = runner._OmniscientHoldout(run.coordinator, run.clients)
    members = sorted(cohort.member_task_ids)
    assert len(members) == 4

    def check(expected_members):
        rows = [{"global_holdout_acc": ""}]
        holdout.fill(cohort, None, rows)
        expected = _direct_accuracy(run, cohort)
        assert rows[0]["global_holdout_acc"] == runner._fmt(expected)
        assert holdout.final([])[1] == {cohort.cohort_id: expected}
        assert holdout._stacks[cohort.cohort_id].task_ids == tuple(expected_members)
        return holdout._stacks[cohort.cohort_id]

    first = check(members)
    assert check(members) is first  # unchanged: the stack is kept
    cohort.member_task_ids.discard(members[1])  # in place
    second = check(members[:1] + members[2:])
    assert second is not first
    cohort.member_task_ids = {members[3], members[0]}  # replaced
    third = check([members[0], members[3]])
    assert third is not second
    cohort.member_task_ids.add(members[1])  # in place, back to three
    check([members[0], members[1], members[3]])


def test_summary_doc_dumps_as_asdict_does(tmp_path):
    # drift's summary holds every kind of field: nested maps, and recluster
    # events with lists inside
    run = runner.run_simulation(builtin_scenarios()["drift"], out_dir=tmp_path)
    summary = run.summary
    assert summary.per_cohort and summary.recluster_events
    doc = summary.to_doc()
    assert list(doc) == list(dataclasses.asdict(summary))
    dumped = json.dumps(doc, indent=2, sort_keys=True)
    assert dumped == json.dumps(dataclasses.asdict(summary), indent=2, sort_keys=True)
    assert (tmp_path / "run_summary.json").read_text() == dumped + "\n"


def _signature_fields(signature):
    return (
        signature.per_feature_mean.tolist(),
        signature.per_feature_std.tolist(),
        signature.label_histogram.tolist(),
        signature.n_samples,
        signature.quality_score,
    )


def test_a_drift_reaches_every_copy_of_the_signature_and_leaves_the_scenario_data():
    # the drifted client swaps its data and signature and re-registers; the
    # coordinator's stored metadata follows, the client's task reads its
    # signature from there, and the generated scenario stays as generate made it
    spec = builtin_scenarios()["drift"]
    (event,) = spec.drift_events
    run = runner.run_simulation(spec, mode="cohort")
    client = run.clients[event.client_id]
    current = _signature_fields(signature_from_dataset(client.local_data))
    tasks = [
        task
        for task in run.coordinator.registry.tasks.values()
        if task.client_id == event.client_id
    ]
    assert tasks
    copies = [client.metadata, run.coordinator.clients[event.client_id]]
    for holder in copies:
        assert _signature_fields(holder.data_signature) == current
    for task in tasks:
        assert _signature_fields(run.coordinator.signature_of(task.task_id)) == current

    fresh = generate(spec)
    assert _signature_fields(fresh.client(event.client_id).metadata.data_signature) != current
    assert [c.client_id for c in run.data.clients] == [c.client_id for c in fresh.clients]
    for kept, made in zip(run.data.clients, fresh.clients):
        assert kept.cluster_index == made.cluster_index
        assert np.array_equal(kept.dataset.features, made.dataset.features)
        assert np.array_equal(kept.dataset.labels, made.dataset.labels)
        assert _signature_fields(kept.metadata.data_signature) == _signature_fields(
            made.metadata.data_signature
        )
    for kept, made in zip(run.data.tasks, fresh.tasks):
        assert kept.task_id == made.task_id
        assert (kept.config, kept.plan_overrides) == (made.config, made.plan_overrides)


class _SetUpDone(Exception):
    pass


def test_setup_encodes_and_decodes_four_frames_per_client(monkeypatch):
    # set-up is one Register and one SubmitTask exchange per client, and each
    # request and each ack is encoded once and decoded once: a cheaper set-up
    # must come from cheaper frames, never from fewer
    base = builtin_scenarios()["uniform"]
    clients = [f"d-{i:03d}" for i in range(200)]
    community_id = base.communities[0].community_id
    spec = dataclasses.replace(
        base,
        clients=clients,
        tasks=[scenarios.TaskSpec(f"{c}-t0", c, community_id) for c in clients],
        samples_per_client=(60, 80),
    )
    calls = {"encode": 0, "decode": 0}
    for name in calls:
        original = getattr(netproto, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(netproto, name, counting)

    def first_round(*args, **kwargs):
        raise _SetUpDone

    monkeypatch.setattr(Coordinator, "run_round", first_round)
    with pytest.raises(_SetUpDone):
        runner.run_simulation(spec)
    assert calls == {"encode": 4 * len(clients), "decode": 4 * len(clients)}
