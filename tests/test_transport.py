import csv
import dataclasses
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from communityfl import netproto, runner, transport
from communityfl.client import FlClient
from communityfl.community import Community, ParticipantMetadata
from communityfl.errors import ConfigError, ProtocolError
from communityfl.flcore import FlTask, ModelUpdate, TrainRequest
from communityfl.netproto import MsgType
from communityfl.orchestrator import Coordinator, SchedulerConfig
from communityfl.scenarios import FaultSpec, ResourceSpec, builtin_scenarios, export_socket_bundle
from communityfl.tinylearn import Dataset, EvalMetrics, init_weights, make_arch
from communityfl.transport import SimNetwork, SocketCoordinatorServer, run_socket_client

from conftest import (
    default_plan,
    make_community,
    make_metadata,
    make_task,
    rand_signature,
    separable_dataset,
)


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
    # every client registers one shared signature, so they form one cohort
    shared = rand_signature(rng)
    data = separable_dataset(n=40, gap=4.0, seed=6)
    clients = {
        f"c{i}": FlClient(f"c{i}", data, make_metadata(f"c{i}", signature=shared))
        for i in range(n_clients)
    }
    network = SimNetwork(coordinator, clients, faults)
    for client_id, client in clients.items():
        client.register(network)
        task = make_task(f"{client_id}-t", client_id=client_id)
        client.submit_task(network, task)
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


def test_sim_drop_fault_three_attempts_then_dropout(rng, monkeypatch):
    faults = [FaultSpec(round=1, client_id="c1", kind="drop")]
    coordinator, network, cohort = _sim_round_setup(rng, faults)
    dropped = network.clients["c1"]
    report_metrics = dropped.report_metrics
    outcomes = []

    def recording(reply, channel):
        ack, attempts = report_metrics(reply, channel)
        outcomes.append((ack, attempts))
        return ack, attempts

    monkeypatch.setattr(dropped, "report_metrics", recording)
    report = coordinator.run_round(cohort, network, sched_round=1)
    assert report.received_updates == 2
    assert "c1-t" not in report.guard_verdicts
    assert outcomes == [(None, 3)]
    # next round is fault-free and everyone is back
    report2 = coordinator.run_round(cohort, network, sched_round=2)
    assert report2.received_updates == 3


def test_reply_claiming_another_tasks_round_is_flagged_and_not_recorded(rng, monkeypatch):
    coordinator, network, cohort = _sim_round_setup(rng, n_clients=2)
    liar = network.clients["c0"]
    honest = liar.handle_train_request
    # c0 answers its own request with an update that claims c1's slot
    monkeypatch.setattr(
        liar,
        "handle_train_request",
        lambda req: dataclasses.replace(honest(req), task_id="c1-t"),
    )
    acks = []
    receive = coordinator.receive_update

    def recording(frame, request):
        update, ack = receive(frame, request)
        acks.append((request.payload["task_id"], netproto.decode(ack).payload["status"]))
        return update, ack

    monkeypatch.setattr(coordinator, "receive_update", recording)
    report = coordinator.run_round(cohort, network, sched_round=1)
    assert report.guard_verdicts == {"c0-t": "flag:cohort_mismatch", "c1-t": "accept"}
    assert acks == [("c0-t", "mismatch"), ("c1-t", "stored")]
    assert list(report.update_metrics) == ["c1-t"]


def test_sim_round_replies_echo_their_train_requests(rng, monkeypatch):
    coordinator, network, cohort = _sim_round_setup(rng)
    pairs = []
    receive = coordinator.receive_update

    def recording(frame, request):
        env = netproto.decode(frame)
        pairs.append((env.msg_type, env.correlation_id, request.correlation_id))
        return receive(frame, request)

    monkeypatch.setattr(coordinator, "receive_update", recording)
    report = coordinator.run_round(cohort, network, sched_round=1)
    assert report.received_updates == len(pairs) == 3
    for msg_type, reply_id, request_id in pairs:
        assert msg_type == MsgType.MODEL_UPDATE
        assert reply_id == request_id


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
        # what a device knows of its own battery and neighbors
        resources = spec.resources.get(client_id, ResourceSpec())
        client.battery = resources.battery
        client.neighbors = list(resources.neighbors)
        client.trusted_neighbors = frozenset(resources.trusted)
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
        # a frame of an older or a newer version gets an Error response and
        # a closed connection
        for version in (netproto.PROTOCOL_VERSION - 1, netproto.PROTOCOL_VERSION + 1):
            bad_doc = {
                "correlation_id": 9,
                "msg_type": "Register",
                "payload": {"metadata": netproto.to_doc(make_metadata("other"))},
                "version": version,
            }
            body = json.dumps(bad_doc, sort_keys=True, separators=(",", ":")).encode()
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(struct.pack(">I", len(body)) + body)
                with sock.makefile("rb") as replies:
                    env = netproto.decode(netproto.read_frame(replies))
                    assert env.msg_type == MsgType.ERROR
                    assert env.payload["code"] == "unsupported_version"
                    assert netproto.read_frame(replies) is None  # closed

        # the server keeps serving: a well-behaved client can still register
        good = FlClient(
            "good-client", separable_dataset(n=30, gap=4.0, seed=1), make_metadata("good-client")
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


@pytest.mark.parametrize("scenario", ["uniform", "heartrate", "poison"])
def test_socket_rounds_jsonl_equals_the_simulations(tmp_path, scenario):
    spec = builtin_scenarios()[scenario]
    runner.run_simulation(spec, mode="cohort", out_dir=tmp_path / "sim")
    server, threads = _start_socket_run(tmp_path, spec)
    try:
        runner.run_socket_rounds(
            server, spec.scheduler.rounds, tmp_path / "socket", scenario_name=spec.name
        )
    finally:
        server.close()
        for thread in threads:
            thread.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    sim_jsonl = (tmp_path / "sim" / "rounds.jsonl").read_bytes()
    assert (tmp_path / "socket" / "rounds.jsonl").read_bytes() == sim_jsonl


def test_a_low_battery_client_delegates_alike_on_both_transports(tmp_path):
    # delegation only relabels training done on the client's own shard, so a
    # socket client with the same battery and neighbors records the same executor
    resources = {"u-01": ResourceSpec(battery=0.1, neighbors=["u-02"], trusted=["u-02"])}
    spec = dataclasses.replace(builtin_scenarios()["uniform"], resources=resources)
    runner.run_simulation(spec, mode="cohort", out_dir=tmp_path / "sim")
    server, threads = _start_socket_run(tmp_path, spec)
    try:
        runner.run_socket_rounds(
            server, spec.scheduler.rounds, tmp_path / "socket", scenario_name=spec.name
        )
    finally:
        server.close()
        for thread in threads:
            thread.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    sim_jsonl = (tmp_path / "sim" / "rounds.jsonl").read_bytes()
    first = json.loads(sim_jsonl.splitlines()[0])
    assert first["executors"]["u-01-t0"] == "u-02"
    assert (tmp_path / "socket" / "rounds.jsonl").read_bytes() == sim_jsonl


def _spoil_u01(field, value, first_only):
    """The ``FlClient`` method that spoils u-01's replies (its first reply
    only, or all) on either transport, and its name: ``field`` of the update
    ``answer`` sends is set to ``value``, or, for ``field`` "training", the
    round's work raises ``value``."""
    spoiled = []

    def spoil(reply_round):
        if first_only and spoiled:
            return False
        spoiled.append(reply_round)
        return True

    if field == "training":
        honest_work = FlClient.handle_train_request

        def handle_train_request(self, req):
            if self.client_id == "u-01" and spoil(req.round):
                raise value
            return honest_work(self, req)

        return "handle_train_request", handle_train_request
    honest = FlClient.answer

    def answer(self, env):
        reply = honest(self, env)
        if self.client_id == "u-01" and spoil(env.correlation_id):
            document, key = reply.payload["update"], field
            if field == "arch_id":
                document = document["weights"]
            document[key] = value
        return reply

    return "answer", answer


@pytest.mark.parametrize(
    "field, value, first_only",
    [
        ("arch_id", "logreg:+2x2", True),
        ("n_samples", 0, False),
        ("n_samples", -5, False),
        ("training", RuntimeError("out of memory"), True),
    ],
)
def test_a_refused_reply_drops_its_client_from_that_round_alike_on_both_transports(
    tmp_path, monkeypatch, field, value, first_only
):
    # the coordinator refuses the reply (a non-canonical arch id is malformed,
    # n_samples < 1 fails the update's conversion, and a client whose training
    # raised replies with an Error) and acks it "refused": u-01 is out of that
    # round, not out of the run, and neither run raises
    spec = builtin_scenarios()["uniform"]
    monkeypatch.setattr(FlClient, *_spoil_u01(field, value, first_only))
    sim = runner.run_simulation(spec, mode="cohort", out_dir=tmp_path / "sim")
    monkeypatch.setattr(FlClient, *_spoil_u01(field, value, first_only))
    server, threads = _start_socket_run(tmp_path, spec)
    try:
        runner.run_socket_rounds(
            server, spec.scheduler.rounds, tmp_path / "socket", scenario_name=spec.name
        )
    finally:
        server.close()
        for thread in threads:
            thread.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    sim_jsonl = (tmp_path / "sim" / "rounds.jsonl").read_bytes()
    assert (tmp_path / "socket" / "rounds.jsonl").read_bytes() == sim_jsonl
    refused = sim.reports[:1] if first_only else sim.reports
    for report in refused:  # uniform's quorum of 1.0 aborts each such round
        assert "u-01-t0" in report.selected_task_ids
        assert "u-01-t0" not in report.guard_verdicts
        assert (report.received_updates, report.status) == (len(spec.tasks) - 1, "aborted")
    assert len(sim.reports) == spec.scheduler.rounds
    for report in sim.reports[len(refused):]:
        assert (report.received_updates, report.status) == (len(spec.tasks), "committed")


def test_socket_client_refuses_an_ack_that_does_not_echo_its_update():
    # a coordinator that registers the client, asks one round and acks the
    # reply under another correlation id
    coordinator = Coordinator(SchedulerConfig(), [make_community()])
    listener = socket.create_server(("127.0.0.1", 0))
    weights = init_weights(make_arch(2, 2), 3)
    request = TrainRequest("c0-t", "pop-x-c000", 0, default_plan(batch_size=8), weights)

    def fake_coordinator():
        conn, _ = listener.accept()
        conn.settimeout(5.0)
        with conn, conn.makefile("rb") as frames:
            for _ in range(2):  # Register, SubmitTask
                conn.sendall(coordinator.handle_frame(netproto.read_frame(frames)))
            train = netproto.Envelope(MsgType.TRAIN_REQUEST, 7, netproto.to_doc(request))
            conn.sendall(netproto.encode(train))
            reply = netproto.decode(netproto.read_frame(frames))
            ack = netproto.Envelope(
                MsgType.METRICS_ACK,
                reply.correlation_id ^ 1,
                {"task_id": "c0-t", "round": 0, "status": "stored"},
            )
            conn.sendall(netproto.encode(ack))

    thread = threading.Thread(target=fake_coordinator, daemon=True)
    thread.start()
    client = FlClient("c0", separable_dataset(n=40, gap=4.0, seed=6), make_metadata("c0"))
    task = make_task("c0-t", client_id="c0")
    host, port = listener.getsockname()[:2]
    try:
        with pytest.raises(ProtocolError) as err:
            run_socket_client(client, host, port, task)
    finally:
        listener.close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert err.value.code == "correlation_mismatch"


def _wait_for(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.01)


def test_resubmitted_task_closes_the_session_it_replaces():
    coordinator = Coordinator(SchedulerConfig(), [make_community()])
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected_tasks=2)
    client = FlClient("c0", separable_dataset(n=40, gap=4.0, seed=6), make_metadata("c0"))
    task = make_task("c0-t", client_id="c0")
    channels = []

    def connect_and_submit():
        channel = transport.SocketChannel(socket.create_connection(server.address, timeout=5.0))
        channels.append(channel)
        client.register(channel)
        client.submit_task(channel, task)
        return channel

    try:
        first_channel = connect_and_submit()
        _wait_for(lambda: server.session_for_task(task.task_id) is not None)
        first = server.session_for_task(task.task_id)
        connect_and_submit()  # the same task again: an idempotent TaskAck
        _wait_for(lambda: server.session_for_task(task.task_id) is not first)
        assert first.dead
        assert first.sock.fileno() == -1
        assert netproto.read_frame(first_channel.file) is None  # EOF, not a hang
        assert not server.session_for_task(task.task_id).dead
    finally:
        for channel in channels:
            channel.close()
        server.close()


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


@pytest.mark.parametrize("recv_timeout_s", [-1.0, 0.0, float("nan"), float("inf"), 1e10])
def test_server_refuses_a_receive_timeout_before_it_binds(recv_timeout_s):
    # a negative or NaN timeout killed the accept thread at the first
    # connection and left that socket open; 0 read every registration as EOF;
    # one above threading.TIMEOUT_MAX killed it with OverflowError
    coordinator = Coordinator(SchedulerConfig(), [make_community()])
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    with pytest.raises(ConfigError, match="recv_timeout_s must be a finite number > 0"):
        SocketCoordinatorServer(coordinator, "127.0.0.1", port, 1, recv_timeout_s)
    with pytest.raises(ConnectionRefusedError):  # nothing listens on the port
        socket.create_connection(("127.0.0.1", port), timeout=5.0).close()


def test_server_close_stops_accept_thread_at_once():
    coordinator = Coordinator(SchedulerConfig(), [make_community()])
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected_tasks=1)
    start = time.perf_counter()
    server.close()
    elapsed = time.perf_counter() - start
    assert not server._accept_thread.is_alive()
    assert elapsed < 0.1  # well under the listener's 0.2 s accept poll


def test_update_on_a_registration_connection_is_refused():
    # only a round connection may carry an update: an unregistered peer
    # posting updates on a fresh connection gets protocol_state for each
    coordinator = Coordinator(SchedulerConfig(), [make_community()])
    server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, expected_tasks=1)
    weights = init_weights(make_arch(2, 2), 3)
    metrics = EvalMetrics(loss=0.5, accuracy=0.5, n_samples=10)
    sock = socket.create_connection(server.address, timeout=5.0)
    replies = sock.makefile("rb")
    try:
        for round_ in range(5):
            update = ModelUpdate("ghost-t", "pop-ghost-c000", round_, weights, 10, metrics, metrics)
            env = netproto.Envelope(
                MsgType.MODEL_UPDATE,
                round_ + 1,
                {"update": netproto.to_doc(update)},
            )
            sock.sendall(netproto.encode(env))
            reply = netproto.decode(netproto.read_frame(replies))
            assert reply.msg_type == MsgType.ERROR
            assert reply.payload["code"] == "protocol_state"
            assert reply.correlation_id == round_ + 1
    finally:
        replies.close()
        sock.close()
        server.close()


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
    for cohort_id in {r.cohort_id for r in reports}:
        cohort_rows = [row for row in rows if row["cohort_id"] == cohort_id]
        cohort_reports = [r for r in reports if r.cohort_id == cohort_id]
        assert len(cohort_rows) == len(cohort_reports) == 4
        for row, later in zip(cohort_rows, cohort_reports[1:]):
            post = [later.update_metrics[t][1].accuracy for t in later.guard_verdicts]
            assert row["global_holdout_acc"] == repr(round(sum(post) / len(post), 6))
        assert cohort_rows[-1]["global_holdout_acc"] == ""
