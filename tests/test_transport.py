import csv
import dataclasses
import json
import socket
import struct
import threading
import time

import numpy as np

from communityfl import netproto, runner, transport
from communityfl.client import FlClient
from communityfl.community import Community, ParticipantMetadata
from communityfl.flcore import FlTask
from communityfl.netproto import MsgType
from communityfl.orchestrator import Coordinator, SchedulerConfig
from communityfl.scenarios import FaultSpec, builtin_scenarios, export_socket_bundle
from communityfl.tinylearn import Dataset
from communityfl.transport import SimNetwork, SocketCoordinatorServer, run_socket_client

from conftest import make_community, make_metadata, make_task, rand_signature, separable_dataset


# -- deterministic in-process network -----------------------------------------------


def _sim_round_setup(rng, faults=None, n_clients=3):
    coordinator = Coordinator(
        SchedulerConfig(
            clients_per_round="all",
            rounds=3,
            cohort_threshold=0.5,
            min_updates_quorum=0.5,
            guard_epsilon=5.0,
            seed=2,
        ),
        [make_community()],
    )
    network = SimNetwork(coordinator, faults)
    channel = network.control_channel()
    shared = rand_signature(rng)
    data = separable_dataset(n=40, gap=4.0, seed=6)
    for i in range(n_clients):
        client_id = f"c{i}"
        client = FlClient(client_id, data, make_metadata(client_id))
        network.add_client(client)
        client.register(channel)
        task = make_task(f"{client_id}-t", client_id=client_id, signature=shared)
        client.submit_task(channel, task)
        network.bind_task(task.task_id, client_id)
    coordinator.ensure_cohorts()
    cohort = coordinator.all_cohorts()[0]
    return coordinator, network, cohort


def test_sim_arrivals_fifo_per_dispatch_order(rng):
    coordinator, network, cohort = _sim_round_setup(rng)
    report = coordinator.run_round(cohort, network, sched_round=1)
    # with no faults, arrival order equals dispatch order (ascending task id)
    assert list(report.guard_verdicts) == sorted(report.selected_task_ids)
    assert report.bytes_transferred > 0


def test_sim_delay_fault_moves_arrival_to_the_end(rng):
    faults = [FaultSpec(round=1, client_id="c0", kind="delay")]
    coordinator, network, cohort = _sim_round_setup(rng, faults)

    arrivals_log = []
    original = network.exchange_round

    def spy(items, sched_round):
        arrivals, transferred = original(items, sched_round)
        arrivals_log.append([t for t, env in arrivals if env is not None])
        return arrivals, transferred

    network_spy = type("Spy", (), {"exchange_round": staticmethod(spy)})()
    coordinator.run_round(cohort, network_spy, sched_round=1)
    assert arrivals_log[0] == ["c1-t", "c2-t", "c0-t"]  # delayed sender last


def test_sim_drop_fault_three_attempts_then_dropout(rng):
    faults = [FaultSpec(round=1, client_id="c1", kind="drop")]
    coordinator, network, cohort = _sim_round_setup(rng, faults)
    report = coordinator.run_round(cohort, network, sched_round=1)
    assert report.received_updates == 2
    assert "c1-t" not in report.guard_verdicts
    assert network.delivery_attempts[(1, "c1")] == 3
    # next round is fault-free and everyone is back
    report2 = coordinator.run_round(cohort, network, sched_round=2)
    assert report2.received_updates == 3


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_sim_round_decodes_each_update_frame_once(rng, monkeypatch):
    coordinator, network, cohort = _sim_round_setup(rng)
    decodes = _count_calls(monkeypatch, netproto, "decode")
    conversions = _count_calls(monkeypatch, netproto, "update_from_doc")
    report = coordinator.run_round(cohort, network, sched_round=1)
    assert report.received_updates == 3
    # per update: the train request, the update itself, and its MetricsAck
    assert len(decodes) == 3 * report.received_updates
    assert len(conversions) == report.received_updates


# -- sockets -----------------------------------------------------------------------


def _bundle_client(bundle, client_id, client_cls=FlClient):
    data_doc = json.loads((bundle / f"{client_id}.data.json").read_text())
    dataset = Dataset(
        features=np.array(data_doc["features"]),
        labels=np.array(data_doc["labels"]),
        n_classes=data_doc["n_classes"],
    )
    metadata = netproto.from_doc(
        ParticipantMetadata, json.loads((bundle / f"{client_id}.metadata.json").read_text())
    )
    task = netproto.from_doc(FlTask, json.loads((bundle / f"{client_id}.task.json").read_text()))
    return client_cls(client_id, dataset, metadata), task


def _start_socket_run(tmp_path, spec, drop_client=None):
    bundle = tmp_path / "bundle"
    export_socket_bundle(spec, bundle)
    config = json.loads((bundle / "server_config.json").read_text())
    coordinator = Coordinator(
        SchedulerConfig(**config["scheduler"]),
        [netproto.from_doc(Community, c) for c in config["communities"]],
    )
    expected = config["expected_tasks"]
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected, recv_timeout_s=5.0)
    host, port = server.address

    def client_main(client_id):
        client, task = _bundle_client(bundle, client_id)
        if client_id == drop_client:
            # register and submit, then vanish before serving any round
            sock = socket.create_connection((host, port), timeout=5.0)
            channel = transport.SocketChannel(sock)
            client.register(channel)
            client.submit_task(channel, task)
            channel.close()
            return
        run_socket_client(client, host, port, task)

    threads = [
        threading.Thread(target=client_main, args=(client_id,), daemon=True)
        for client_id in spec.clients
    ]
    for thread in threads:
        thread.start()
    return server, threads


def test_socket_three_clients_five_rounds_produce_artifacts(tmp_path):
    spec = builtin_scenarios()["uniform"]
    spec = dataclasses.replace(
        spec,
        clients=spec.clients[:3],
        tasks=spec.tasks[:3],
        scheduler=dataclasses.replace(spec.scheduler, rounds=5),
    )
    server, threads = _start_socket_run(tmp_path, spec)
    out = tmp_path / "out"
    rows, reports = runner.run_socket_rounds(server, 5, out, scenario_name=spec.name)
    server.close()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    assert len(reports) == 5
    assert all(r.status == "committed" for r in reports)
    csv_text = (out / "rounds.csv").read_text().strip().splitlines()
    assert len(csv_text) == 6  # header + five rounds
    assert (out / "cohorts.json").exists()
    assert (out / "run_summary.json").exists()


def test_socket_version_mismatch_clean_refusal(tmp_path):
    spec = builtin_scenarios()["uniform"]
    spec = dataclasses.replace(spec, clients=spec.clients[:1], tasks=spec.tasks[:1])
    bundle = tmp_path / "bundle"
    export_socket_bundle(spec, bundle)
    config = json.loads((bundle / "server_config.json").read_text())
    coordinator = Coordinator(
        SchedulerConfig(**config["scheduler"]),
        [netproto.from_doc(Community, c) for c in config["communities"]],
    )
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected_tasks=1)
    host, port = server.address
    try:
        # a version-2 frame gets an Error response and a closed connection
        bad_doc = {
            "correlation_id": 9,
            "msg_type": "Register",
            "payload": {"metadata": netproto.to_doc(make_metadata("v2"))},
            "version": 2,
        }
        body = json.dumps(bad_doc, sort_keys=True, separators=(",", ":")).encode()
        sock = socket.create_connection((host, port), timeout=5.0)
        sock.sendall(struct.pack(">I", len(body)) + body)
        reply = netproto.read_frame(sock.makefile("rb"))
        env = netproto.decode(reply)
        assert env.msg_type == MsgType.ERROR
        assert env.payload["code"] == "unsupported_version"
        sock.close()

        # the server keeps serving: a well-behaved client can still register
        good = FlClient(
            "v1-client", separable_dataset(n=30, gap=4.0, seed=1), make_metadata("v1-client")
        )
        sock2 = socket.create_connection((host, port), timeout=5.0)
        channel = transport.SocketChannel(sock2)
        token = good.register(channel)
        assert token
        channel.close()
    finally:
        server.close()


def test_socket_client_killed_mid_round_counts_as_dropout(tmp_path):
    spec = builtin_scenarios()["uniform"]
    spec = dataclasses.replace(
        spec,
        scheduler=dataclasses.replace(spec.scheduler, rounds=3, min_updates_quorum=0.5),
    )
    server, threads = _start_socket_run(tmp_path, spec, drop_client="u-04")
    rows, reports = runner.run_socket_rounds(server, 3, None, scenario_name=spec.name)
    server.close()
    for thread in threads:
        thread.join(timeout=5)
    assert all(r.status == "committed" for r in reports)  # quorum still met
    assert all(r.received_updates == 3 for r in reports)
    assert all(len(r.selected_task_ids) == 4 for r in reports)


def test_socket_client_auto_derives_task_from_community_list(tmp_path):
    # without a task file the client asks for the community list and builds
    # its task from the first community that admits it; for the uniform
    # scenario that reproduces the scripted task exactly
    spec = builtin_scenarios()["uniform"]
    spec = dataclasses.replace(
        spec, scheduler=dataclasses.replace(spec.scheduler, rounds=2)
    )
    bundle = tmp_path / "bundle"
    export_socket_bundle(spec, bundle)
    config = json.loads((bundle / "server_config.json").read_text())
    coordinator = Coordinator(
        SchedulerConfig(**config["scheduler"]),
        [netproto.from_doc(Community, c) for c in config["communities"]],
    )
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, config["expected_tasks"])
    host, port = server.address

    def client_main(client_id):
        data_doc = json.loads((bundle / f"{client_id}.data.json").read_text())
        dataset = Dataset(
            features=np.array(data_doc["features"]),
            labels=np.array(data_doc["labels"]),
            n_classes=data_doc["n_classes"],
        )
        metadata = netproto.from_doc(
            ParticipantMetadata, json.loads((bundle / f"{client_id}.metadata.json").read_text())
        )
        run_socket_client(FlClient(client_id, dataset, metadata), host, port, task=None)

    threads = [
        threading.Thread(target=client_main, args=(cid,), daemon=True) for cid in spec.clients
    ]
    for thread in threads:
        thread.start()
    rows, reports = runner.run_socket_rounds(server, 2, None, scenario_name=spec.name)
    server.close()
    for thread in threads:
        thread.join(timeout=5)
    assert all(r.status == "committed" for r in reports)
    assert sorted(coordinator.registry.tasks) == sorted(t.task_id for t in spec.tasks)


def test_socket_run_reproduces_simulation_weights_bit_exactly(tmp_path):
    spec = builtin_scenarios()["uniform"]
    sim = runner.run_simulation(spec, mode="cohort")
    sim_digests = {c: v["weights_digest"] for c, v in sim.summary.per_cohort.items()}

    server, threads = _start_socket_run(tmp_path, spec)
    out = tmp_path / "out"
    runner.run_socket_rounds(server, spec.scheduler.rounds, out, scenario_name=spec.name)
    server.close()
    for thread in threads:
        thread.join(timeout=5)

    doc = json.loads((out / "cohorts.json").read_text())
    socket_digests = {
        c["cohort_id"]: c["weights_digest"]
        for population in doc["populations"]
        for c in population["cohorts"]
    }
    assert socket_digests == sim_digests


def _nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_round_connections_disable_nagle_on_both_ends(tmp_path):
    # rounds write MetricsAck then, a round later, TrainRequest with no frame
    # back in between; with Nagle on, each round waits out a delayed ACK
    spec = builtin_scenarios()["uniform"]
    spec = dataclasses.replace(spec, clients=spec.clients[:1], tasks=spec.tasks[:1])
    bundle = tmp_path / "bundle"
    export_socket_bundle(spec, bundle)
    config = json.loads((bundle / "server_config.json").read_text())
    coordinator = Coordinator(
        SchedulerConfig(**config["scheduler"]),
        [netproto.from_doc(Community, c) for c in config["communities"]],
    )
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected_tasks=1)
    host, port = server.address
    client_nodelay = []

    class RecordingClient(FlClient):
        def submit_task(self, channel, task):
            population_id = super().submit_task(channel, task)
            client_nodelay.append(_nodelay(channel.sock))
            return population_id

    client, task = _bundle_client(bundle, spec.clients[0], RecordingClient)
    thread = threading.Thread(
        target=run_socket_client, args=(client, host, port, task), daemon=True
    )
    thread.start()
    try:
        assert server.wait_ready(timeout=5.0)
        assert _nodelay(server.session_for_task(task.task_id).sock) != 0
    finally:
        server.close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(client_nodelay) == 1 and client_nodelay[0] != 0


def test_server_close_stops_accept_thread_at_once():
    coordinator = Coordinator(SchedulerConfig(), [make_community()])
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected_tasks=1)
    start = time.perf_counter()
    server.close()
    elapsed = time.perf_counter() - start
    assert not server._accept_thread.is_alive()
    assert elapsed < 0.1  # well under the listener's 0.2 s accept poll


def test_registration_closes_its_session_when_the_server_is_stopping():
    coordinator = Coordinator(SchedulerConfig(), [make_community()])
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected_tasks=1)
    server_end, peer = socket.socketpair()
    try:
        server.close()  # sets _stopping before the first frame is read
        server._serve_registration(server_end, "socketpair")
        assert server_end.fileno() == -1
        peer.settimeout(5.0)
        assert peer.recv(1) == b""  # EOF, not a connection left hanging
    finally:
        server_end.close()
        peer.close()


def test_socket_round_converts_each_update_once(tmp_path, monkeypatch):
    spec = builtin_scenarios()["uniform"]
    conversions = _count_calls(monkeypatch, netproto, "update_from_doc")
    server, threads = _start_socket_run(tmp_path, spec)
    try:
        _rows, reports = runner.run_socket_rounds(server, 2, None, scenario_name=spec.name)
    finally:
        server.close()
        for thread in threads:
            thread.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    received = sum(r.received_updates for r in reports)
    assert received == 2 * len(spec.clients)
    assert len(conversions) == received


def test_socket_holdout_column_lags_one_round(tmp_path):
    # the server cannot see holdouts: row r carries the mean post accuracy
    # the cohort's clients report in round r+1, i.e. the round-r model scored
    # on their holdouts, and the final row of each cohort stays empty
    spec = builtin_scenarios()["uniform"]
    server, threads = _start_socket_run(tmp_path, spec)
    out = tmp_path / "out"
    try:
        _rows, reports = runner.run_socket_rounds(server, 4, out, scenario_name=spec.name)
    finally:
        server.close()
        for thread in threads:
            thread.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    with (out / "rounds.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    coordinator = server.coordinator
    for cohort_id in {r.cohort_id for r in reports}:
        cohort_rows = [row for row in rows if row["cohort_id"] == cohort_id]
        cohort_reports = [r for r in reports if r.cohort_id == cohort_id]
        assert len(cohort_rows) == len(cohort_reports) == 4
        for row, later in zip(cohort_rows, cohort_reports[1:]):
            post = [
                coordinator._received[(t, cohort_id, later.round)].post_metrics.accuracy
                for t in later.guard_verdicts
            ]
            assert row["global_holdout_acc"] == repr(round(sum(post) / len(post), 6))
        assert cohort_rows[-1]["global_holdout_acc"] == ""
