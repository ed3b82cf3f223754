import json
import os
import subprocess
import sys
import time

import pytest

from communityfl import scenarios
from communityfl.cli import main


def run_cli(*args) -> int:
    return main(list(args))


def test_simulate_heartrate_cohort_structure(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("simulate", "--scenario", "heartrate", "--mode", "cohort", "--out", str(out)) == 0
    doc = json.loads((out / "cohorts.json").read_text())
    by_name = {p["display_name"]: p for p in doc["populations"]}
    assert len(by_name["FL population 2"]["cohorts"]) == 2
    cohort2 = by_name["FL population 2"]["cohorts"][1]
    assert sorted(m["task_id"] for m in cohort2["members"]) == ["M2.2a", "M2.2b", "M2.2c"]
    for name in ("rounds.csv", "rounds.jsonl", "run_summary.json"):
        assert (out / name).exists()


def test_simulate_global_mode_single_cohort_per_population(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--scenario", "heartrate", "--mode", "global", "--out", str(out)) == 0
    doc = json.loads((out / "cohorts.json").read_text())
    assert doc["cohort_threshold"] == 0.0
    for population in doc["populations"]:
        assert len(population["cohorts"]) == 1


def test_simulate_same_seed_byte_identical_csv(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "simulate", "--scenario", "uniform", "--mode", "cohort", "--seed", "123",
            "--out", str(out),
        ) == 0
    assert (a / "rounds.csv").read_bytes() == (b / "rounds.csv").read_bytes()
    da = json.loads((a / "cohorts.json").read_text())
    db = json.loads((b / "cohorts.json").read_text())
    assert da == db


def test_simulate_invalid_scenario_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", str(bad), "--out", str(out)) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, value",
    [("communities", "rounds_target", 10), ("tasks", "targeted_device", "u-01")],
)
def test_simulate_refuses_a_removed_scenario_field(tmp_path, capsys, section, field, value):
    # neither field is read any more: a document that still names one is
    # refused instead of having the setting silently ignored
    doc = scenarios.spec_to_doc(scenarios.builtin_scenarios()["uniform"])
    doc[section][0][field] = value
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"unexpected keyword argument '{field}'" in err


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("seed", 1.5, "seed must be an int"),
        ("class_sep", "x", "class_sep must be a finite number"),
        ("class_sep", float("inf"), "class_sep must be a finite number"),
        ("feature_std", float("nan"), "feature_std must be a finite number >= 0"),
        ("samples_per_client", [20.5, 30], "samples_per_client must be ints"),
        ("label_prior", [float("nan"), 0.3], "label_prior must be a probability vector"),
        # the data signature's squared deviations overflowed to inf
        ("class_sep", 1e155, "class_sep must be a finite number of magnitude <= 1e+100"),
        ("class_sep", 1e300, "class_sep must be a finite number of magnitude <= 1e+100"),
        ("feature_std", 1e200, "feature_std must be a finite number >= 0 and <= 1e+100"),
        ("resources", {"u-01": {"battery": "low"}}, "battery of u-01 must be a finite number"),
        ("resources", {"u-01": {"battery": float("nan")}}, "battery of u-01 must be a finite"),
        ("resources", {"u-01": {"neighbors": "u-02"}}, "neighbors of u-01 must be a list of"),
        ("resources", {"u-01": {"neighbors": ["ghost"]}}, "neighbors of u-01 must be a list of"),
        ("resources", {"u-01": {"trusted": ["ghost"]}}, "trusted of u-01 must be a list of"),
        (
            "drift_events",
            [{"round": "2", "client_id": "u-01", "new_cluster": 0}],
            "drift event: round must be an int, got '2'",
        ),
    ],
)
def test_simulate_refuses_an_unchecked_number(tmp_path, capsys, field, value, reason):
    # each of these used to run, or to fail with exit 1 or 3 inside data
    # generation or rounds
    doc = scenarios.spec_to_doc(scenarios.builtin_scenarios()["uniform"])
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and reason in err


@pytest.mark.parametrize(
    "field, value, reason",
    [
        # each of these ran, the seeds written into run_summary.json
        ("seed", 1.5, "scheduler seed must be an int, got 1.5"),
        ("seed", True, "scheduler seed must be an int, got True"),
        # this ran with weighted aggregation
        ("weighted_aggregation", "no", "weighted_aggregation must be true or false, got 'no'"),
        ("weighted_aggregation", 0, "weighted_aggregation must be true or false, got 0"),
        # these ended with only a comparison's TypeError text
        ("cohort_threshold", "0.8", "cohort_threshold must be a finite number, got '0.8'"),
        ("guard_epsilon", "0.5", "guard_epsilon must be a finite number, got '0.5'"),
        ("min_updates_quorum", "1", "min_updates_quorum must be a finite number, got '1'"),
        ("guard_epsilon", float("inf"), "guard_epsilon must be a finite number, got inf"),
        ("cohort_threshold", True, "cohort_threshold must be a finite number, got True"),
    ],
)
def test_simulate_refuses_a_mistyped_scheduler_field(tmp_path, capsys, field, value, reason):
    doc = scenarios.spec_to_doc(scenarios.builtin_scenarios()["uniform"])
    doc["scheduler"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and reason in err
    assert not out.exists()


@pytest.mark.parametrize(
    "label_map, reason",
    [
        # each of these loaded as {0: 1}
        ({"0": 1.7}, "label_map must map int labels to int labels, got {0: 1.7}"),
        ({"0": "1"}, "label_map must map int labels to int labels, got {0: '1'}"),
        ({"0": True}, "label_map must map int labels to int labels, got {0: True}"),
        ({"0.0": 1}, "label_map keys must be labels written in decimal, got '0.0'"),
        ({"01": 1}, "label_map keys must be labels written in decimal, got '01'"),
        ({" 0": 1}, "label_map keys must be labels written in decimal, got ' 0'"),
        ({"+0": 1}, "label_map keys must be labels written in decimal, got '+0'"),
        ({"zero": 1}, "label_map keys must be labels written in decimal, got 'zero'"),
        ([[0, 1]], "label_map must be an object, got [[0, 1]]"),
    ],
)
def test_simulate_refuses_a_mistyped_label_map(tmp_path, capsys, label_map, reason):
    doc = scenarios.spec_to_doc(scenarios.builtin_scenarios()["drift"])
    doc["clusters"][1]["label_map"] = label_map
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and reason in err
    assert not out.exists()


def test_simulate_refuses_a_community_field_before_it_generates_data(tmp_path, capsys):
    # "epochs": "2" ended in a TypeError traceback and exit 1 inside the run
    doc = scenarios.spec_to_doc(scenarios.builtin_scenarios()["uniform"])
    doc["communities"][0]["epochs"] = "2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "configuration error: community 'U1': epochs must be an int, got '2'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("samples_override", {"u-01": -5}, "samples_override for u-01 must be an int >= 1"),
        ("samples_override", {"u-01": 0}, "samples_override for u-01 must be an int >= 1"),
        ("n_features", 2.5, "n_features and n_classes must be ints"),
    ],
)
def test_simulate_refuses_an_out_of_range_count(tmp_path, capsys, field, value, reason):
    # each of these used to pass validation and fail inside data generation
    doc = scenarios.spec_to_doc(scenarios.builtin_scenarios()["uniform"])
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("simulate", "--scenario", str(path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and reason in err


def test_simulate_scenario_file_roundtrip(tmp_path):
    spec = scenarios.builtin_scenarios()["uniform"]
    path = tmp_path / "uniform.json"
    scenarios.dump_spec(spec, path)
    out = tmp_path / "out"
    assert run_cli("simulate", "--scenario", str(path), "--out", str(out)) == 0


def test_comparison_table_fills_after_both_modes(tmp_path):
    out = tmp_path / "run"
    run_cli("simulate", "--scenario", "heartrate", "--mode", "cohort", "--out", str(out))
    run_cli("simulate", "--scenario", "heartrate", "--mode", "global", "--out", str(out))
    summary = json.loads((out / "run_summary.json").read_text())
    comparison = summary["comparison"]
    assert comparison["cohort"] is not None
    assert comparison["global"] is not None
    assert comparison["delta_points"] == pytest.approx(
        100 * (comparison["cohort"] - comparison["global"]), abs=5e-4
    )


def test_inspect_missing_artifacts_exit_2(tmp_path, capsys):
    assert run_cli("inspect", "--out", str(tmp_path / "empty")) == 2
    out = tmp_path / "run"
    run_cli("simulate", "--scenario", "uniform", "--mode", "cohort", "--out", str(out))
    capsys.readouterr()
    cohorts = (out / "cohorts.json").read_text()
    rounds = (out / "rounds.csv").read_text()
    broken = [
        ("cohorts.json", "{broken", "JSONDecodeError"),
        ("cohorts.json", "{}", "KeyError('scenario')"),
        ("cohorts.json", '{"scenario": "s", "mode": "m", "populations": [1]}', "TypeError"),
        ("rounds.csv", "cohort_id,round\nc,1\n", "KeyError('flag_rate')"),
        ("rounds.csv", "cohort_id,flag_rate\nc,high\n", "ValueError"),
    ]
    for name, text, reason in broken:
        (out / "cohorts.json").write_text(cohorts)
        (out / "rounds.csv").write_text(rounds)
        (out / name).write_text(text)
        assert run_cli("inspect", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and reason in captured.err, captured.err


def test_inspect_tree_shows_population_two_and_is_stable(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("simulate", "--scenario", "heartrate", "--mode", "cohort", "--out", str(out))
    capsys.readouterr()
    assert run_cli("inspect", "--out", str(out)) == 0
    first = capsys.readouterr().out
    assert run_cli("inspect", "--out", str(out)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "FL population 2" in first
    assert "FL cohort 2" in first
    assert "M2.2a  (client watch-04)" in first


def test_cli_subprocess_entry_point(tmp_path):
    out = tmp_path / "run"
    result = subprocess.run(
        [sys.executable, "-m", "communityfl.cli", "simulate", "--scenario", "uniform",
         "--mode", "cohort", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "mean_holdout_accuracy" in result.stdout
    assert (out / "rounds.csv").exists()


def test_serve_and_client_subprocesses_end_to_end(tmp_path):
    spec = scenarios.builtin_scenarios()["uniform"]
    import dataclasses

    spec = dataclasses.replace(
        spec,
        clients=spec.clients[:2],
        tasks=spec.tasks[:2],
        scheduler=dataclasses.replace(spec.scheduler, rounds=3),
    )
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    out = tmp_path / "out"
    port = _free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "communityfl.cli", "serve",
         "--listen", f"127.0.0.1:{port}",
         "--config", str(bundle / "server_config.json"),
         "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_for_port(port)
        clients = [
            subprocess.Popen(
                [sys.executable, "-m", "communityfl.cli", "client",
                 "--connect", f"127.0.0.1:{port}",
                 "--data", str(bundle / f"{cid}.data.json"),
                 "--metadata", str(bundle / f"{cid}.metadata.json"),
                 "--task", str(bundle / f"{cid}.task.json")],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for cid in spec.clients
        ]
        for proc in clients:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            assert "completed 3 rounds" in stdout
        stdout, stderr = server.communicate(timeout=60)
        assert server.returncode == 0, stderr
    finally:
        if server.poll() is None:
            server.kill()
    rows = (out / "rounds.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + three rounds


def test_serve_labels_a_threshold_0_run_global(tmp_path):
    # the client gets no task file: it derives its task from its registered
    # device_type and the first community that admits it
    import dataclasses

    spec = scenarios.builtin_scenarios()["uniform"]
    spec = dataclasses.replace(
        spec,
        clients=spec.clients[:1],
        tasks=spec.tasks[:1],
        scheduler=dataclasses.replace(spec.scheduler, rounds=2, cohort_threshold=0.0),
    )
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    out = tmp_path / "out"
    port = _free_port()
    server = subprocess.Popen(
        [sys.executable, "-m", "communityfl.cli", "serve",
         "--listen", f"127.0.0.1:{port}",
         "--config", str(bundle / "server_config.json"),
         "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_for_port(port)
        cid = spec.clients[0]
        client = subprocess.run(
            [sys.executable, "-m", "communityfl.cli", "client",
             "--connect", f"127.0.0.1:{port}",
             "--data", str(bundle / f"{cid}.data.json"),
             "--metadata", str(bundle / f"{cid}.metadata.json")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert client.returncode == 0, client.stderr
        assert "completed 2 rounds" in client.stdout
        _stdout, stderr = server.communicate(timeout=60)
        assert server.returncode == 0, stderr
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    cohorts = json.loads((out / "cohorts.json").read_text())
    assert cohorts["mode"] == "global"
    [member] = [m for p in cohorts["populations"] for c in p["cohorts"] for m in c["members"]]
    assert member["task_id"] == spec.tasks[0].task_id
    assert (out / "run_summary.global.json").exists()
    assert not (out / "run_summary.cohort.json").exists()


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_for_port(port: int, timeout: float = 20.0):
    import socket

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError(f"port {port} never opened")


def _wait_for_log_line(path, text: str, process, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while text not in path.read_text():
        if process.poll() is not None:
            raise AssertionError(f"server exited with {process.returncode}: {path.read_text()}")
        if time.monotonic() > deadline:
            raise TimeoutError(f"no {text!r} in the server log after {timeout} s")
        time.sleep(0.05)


def test_serve_sigterm_flushes_reports(tmp_path):
    import dataclasses
    import signal

    spec = scenarios.builtin_scenarios()["uniform"]
    spec = dataclasses.replace(
        spec,
        clients=spec.clients[:1],
        tasks=spec.tasks[:1],
        scheduler=dataclasses.replace(spec.scheduler, rounds=2000),
    )
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    out = tmp_path / "out"
    port = _free_port()
    # the server logs each finished cohort-round at debug level, to a file the
    # test polls: "round 2 cohort" means round 1's row is stored
    log_path = tmp_path / "serve.log"
    with open(log_path, "w") as log:
        server = subprocess.Popen(
            [sys.executable, "-m", "communityfl.cli", "serve",
             "--listen", f"127.0.0.1:{port}",
             "--config", str(bundle / "server_config.json"),
             "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            env={**os.environ, "COMMUNITYFL_LOG": "debug"},
        )
    client = None
    try:
        _wait_for_port(port)
        client = subprocess.Popen(
            [sys.executable, "-m", "communityfl.cli", "client",
             "--connect", f"127.0.0.1:{port}",
             "--data", str(bundle / "u-01.data.json"),
             "--metadata", str(bundle / "u-01.metadata.json"),
             "--task", str(bundle / "u-01.task.json")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        _wait_for_log_line(log_path, "round 2 cohort", server)
        server.send_signal(signal.SIGTERM)
        stdout, _ = server.communicate(timeout=30)
        stderr = log_path.read_text()
        assert server.returncode == 0, stderr
        client.communicate(timeout=30)
    finally:
        for proc in (server, client):
            if proc is not None and proc.poll() is None:
                proc.kill()
    # the interrupted run still flushed its artifacts
    rows = (out / "rounds.csv").read_text().strip().splitlines()
    assert len(rows) >= 2  # header plus at least one completed round
    assert (out / "run_summary.json").exists()


def test_client_connect_refused_exit_nonzero(tmp_path):
    spec = scenarios.builtin_scenarios()["uniform"]
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    code = run_cli(
        "client",
        "--connect", f"127.0.0.1:{_free_port()}",
        "--data", str(bundle / "u-01.data.json"),
        "--metadata", str(bundle / "u-01.metadata.json"),
    )
    assert code == 2


# the device record of a metadata file exported before protocol version 4,
# abridged: an undeclared field is refused whatever it holds
_V3_DEVICE = {"device_type": "tracker", "model": "tracker-mk1"}


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"interests": "fitness"}, "interests: expected list"),
        ({"extra": 1}, "undeclared"),
        ({"device": _V3_DEVICE, "device_type": None}, "undeclared fields ['device']"),
    ],
)
def test_client_refuses_metadata_file_off_schema(tmp_path, capsys, fields, reason):
    # a string where a tag list belongs would otherwise load as a set of
    # characters; a field set to None is left out of the file
    spec = scenarios.builtin_scenarios()["uniform"]
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    metadata_path = bundle / "u-01.metadata.json"
    doc = {**json.loads(metadata_path.read_text()), **fields}
    metadata_path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    code = run_cli(
        "client",
        "--connect", f"127.0.0.1:{_free_port()}",
        "--data", str(bundle / "u-01.data.json"),
        "--metadata", str(metadata_path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot read metadata file" in err and reason in err
    assert "cannot connect" not in err


def test_serve_refuses_community_document_off_schema(tmp_path, capsys):
    spec = scenarios.builtin_scenarios()["uniform"]
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    config_path = bundle / "server_config.json"
    config = json.loads(config_path.read_text())
    config["communities"][0]["criteria"]["required_tags"] = "fitness"
    config["ready_timeout_s"] = 1.0  # a server that loads it anyway gives up quickly
    config_path.write_text(json.dumps(config))
    code = run_cli("serve", "--listen", f"127.0.0.1:{_free_port()}", "--config", str(config_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot read server config" in err
    assert "Community.criteria.required_tags: expected list" in err


@pytest.mark.parametrize("ready_timeout_s", [1e300, float("nan")])
def test_serve_refuses_a_ready_timeout_before_it_binds(tmp_path, capsys, ready_timeout_s):
    # 1e300 raised OverflowError once the server was up; NaN waited 0 s and
    # reported that the clients did not register
    spec = scenarios.builtin_scenarios()["uniform"]
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    config_path = bundle / "server_config.json"
    config = json.loads(config_path.read_text())
    config["ready_timeout_s"] = ready_timeout_s
    config_path.write_text(json.dumps(config))
    code = run_cli("serve", "--listen", f"127.0.0.1:{_free_port()}", "--config", str(config_path))
    assert code == 2
    captured = capsys.readouterr()
    assert "ready_timeout_s must be a finite number > 0" in captured.err
    assert "listening on" not in captured.out


@pytest.mark.parametrize("expected_tasks", [0, -1, 2.5, True, "4"])
def test_serve_refuses_expected_tasks_that_is_not_a_count_before_it_binds(
    tmp_path, capsys, expected_tasks
):
    # 0 started round 1 before any task arrived; 2.5, true and "4" were cast
    # to 2, 1 and 4
    spec = scenarios.builtin_scenarios()["uniform"]
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    config_path = bundle / "server_config.json"
    config = json.loads(config_path.read_text())
    config["expected_tasks"] = expected_tasks
    config["ready_timeout_s"] = 1.0  # a server that starts anyway gives up quickly
    config_path.write_text(json.dumps(config))
    code = run_cli("serve", "--listen", f"127.0.0.1:{_free_port()}", "--config", str(config_path))
    assert code == 2
    captured = capsys.readouterr()
    assert f"expected_tasks must be an integer >= 1, got {expected_tasks!r}" in captured.err
    assert "listening on" not in captured.out


@pytest.mark.parametrize("command, flag", [("serve", "--listen"), ("client", "--connect")])
@pytest.mark.parametrize("port", ["70000", "65536", "²"])
def test_address_with_a_port_out_of_range_is_a_config_error(tmp_path, capsys, command, flag, port):
    # with valid files, a port past 65535 would reach bind or connect and
    # raise OverflowError there
    spec = scenarios.builtin_scenarios()["uniform"]
    bundle = tmp_path / "bundle"
    scenarios.export_socket_bundle(spec, bundle)
    files = {
        "serve": ["--config", str(bundle / "server_config.json")],
        "client": [
            "--data", str(bundle / "u-01.data.json"),
            "--metadata", str(bundle / "u-01.metadata.json"),
        ],
    }
    code = run_cli(command, flag, f"127.0.0.1:{port}", *files[command])
    assert code == 2
    err = capsys.readouterr().err
    assert f"address must be HOST:PORT with a port in 0-65535, got '127.0.0.1:{port}'" in err
