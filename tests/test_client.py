import numpy as np
import pytest

from communityfl import netproto
from communityfl.client import FlClient
from communityfl.errors import DelegationError, DeliveryError, ProtocolError, ShapeError
from communityfl.flcore import TrainRequest
from communityfl.hashing import stable_u64
from communityfl.orchestrator import Coordinator, SchedulerConfig
from communityfl.runner import run_simulation
from communityfl.scenarios import (
    ClusterSpec,
    CommunitySpec,
    ResourceSpec,
    ScenarioSpec,
    TaskSpec,
)
from communityfl.tinylearn import Dataset, evaluate, init_weights, make_arch
from communityfl.transport import SimNetwork, _RoundChannel

from conftest import default_plan, make_community, make_metadata, make_task, separable_dataset


def _client(client_id="client-a", n=40, **kwargs) -> FlClient:
    return FlClient(
        client_id=client_id,
        dataset=separable_dataset(n=n, gap=4.0, seed=17),
        metadata=make_metadata(client_id),
        **kwargs,
    )


def _request(round=0, cohort="pop-x-c000", plan=None) -> TrainRequest:
    return TrainRequest(
        task_id="t-1",
        cohort_id=cohort,
        round=round,
        plan=plan or default_plan(batch_size=8),
        weights=init_weights(make_arch(2, 2), 3),
    )


def _sim_env():
    coordinator = Coordinator(SchedulerConfig(seed=1), [make_community()])
    network = SimNetwork(coordinator, {})
    return coordinator, network


# -- registration -------------------------------------------------------------------


def test_register_returns_token_and_stores_metadata():
    coordinator, network = _sim_env()
    client = _client()
    token = client.register(network)
    assert token
    assert client.session_token == token
    assert coordinator.clients["client-a"].participant_id == "client-a"


def test_reregister_replaces_metadata():
    coordinator, network = _sim_env()
    client = _client()
    client.register(network)
    assert coordinator.clients["client-a"].interests == frozenset({"fitness"})
    client.metadata = make_metadata("client-a", interests=("cycling",))
    client.register(network)
    assert coordinator.clients["client-a"].interests == frozenset({"cycling"})


def test_register_invalid_metadata_rejected_as_protocol_error():
    coordinator, network = _sim_env()
    client = _client()
    # a label histogram that does not sum to 1 violates the signature
    # invariant; the server answers with an Error envelope instead of crashing
    doc_safe = make_metadata("client-a")
    client.metadata = doc_safe
    doc = netproto.to_doc(doc_safe)
    doc["data_signature"]["label_histogram"] = [0.5, 0.75]
    env = netproto.Envelope(netproto.MsgType.REGISTER, 5, {"metadata": doc})
    response = coordinator.handle_envelope(env)
    assert response.msg_type == netproto.MsgType.ERROR
    assert response.payload["code"] == "invalid_metadata"
    assert response.correlation_id == 5


def test_list_communities_roundtrip():
    coordinator, network = _sim_env()
    client = _client()
    client.register(network)
    listed = client.list_communities(network)
    assert [c.community_id for c in listed] == ["C1"]
    assert listed[0].default_plan == coordinator.communities["C1"].default_plan


def test_submit_requires_registration():
    _, network = _sim_env()
    client = _client()
    with pytest.raises(ProtocolError):
        client.submit_task(network, make_task("t-1"))


def test_override_of_a_removed_plan_field_is_a_plan_error():
    # rounds_target left the plan in protocol version 2: a task that still
    # overrides it is refused, not silently ignored
    _, network = _sim_env()
    client = _client()
    client.register(network)
    task = make_task("t-1", overrides={"rounds_target": 5})
    with pytest.raises(ProtocolError) as exc:
        client.submit_task(network, task)
    assert exc.value.code == "plan_error"
    assert exc.value.message == "unknown plan override fields: ['rounds_target']"


# -- holdout split -----------------------------------------------------------------


def test_split_disjoint_and_covering():
    client = _client(n=40)
    train, holdout = client.split(0.25)
    assert train.n_samples + holdout.n_samples == 40
    assert holdout.n_samples == 10
    rows = {tuple(r) for r in train.features} | {tuple(r) for r in holdout.features}
    assert len(rows) == 40  # no overlap


def test_split_stable_across_calls_and_instances():
    a1, h1 = _client().split(0.25)
    a2, h2 = _client().split(0.25)
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(h1.features, h2.features)


def test_split_differs_across_clients():
    h_a = _client("client-a").split(0.25)[1]
    h_b = _client("client-b").split(0.25)[1]
    assert not np.array_equal(h_a.features, h_b.features)


def test_split_cached_until_set_dataset():
    client = _client()
    first = client.split(0.25)
    again = client.split(0.25)
    assert again[0] is first[0] and again[1] is first[1]
    assert client.split(0.5)[1] is not first[1]
    client.set_dataset(separable_dataset(n=40, gap=4.0, seed=99))
    fresh = client.split(0.25)
    assert fresh[0] is not first[0] and fresh[1] is not first[1]
    assert not fresh[1].features.flags.writeable


def test_split_halves_equal_the_checked_constructor_on_their_rows():
    client = _client(n=40)
    data = client.local_data
    perm = np.random.default_rng(stable_u64("split", client.client_id)).permutation(40)
    for part, index in zip(client.split(0.25), (np.sort(perm[10:]), np.sort(perm[:10]))):
        checked = Dataset(features=data.features[index], labels=data.labels[index], n_classes=2)
        assert part.features.tobytes() == checked.features.tobytes()
        assert part.labels.tobytes() == checked.labels.tobytes()
        assert part.n_classes == checked.n_classes


def test_split_of_a_one_sample_client_raises_shape_error():
    # the one sample trains, so the holdout would be empty
    data = separable_dataset(n=2)
    one = Dataset(features=data.features[:1], labels=data.labels[:1], n_classes=2)
    client = FlClient("solo", one, make_metadata("solo"))
    with pytest.raises(ShapeError):
        client.split(0.25)


def test_set_dataset_invalidates_split():
    client = _client()
    before = client.split(0.25)[1]
    client.set_dataset(separable_dataset(n=40, gap=4.0, seed=99))
    after = client.split(0.25)[1]
    assert not np.array_equal(before.features, after.features)


# -- plan execution ----------------------------------------------------------------


def test_first_round_pre_equals_post_fallback():
    client = _client()
    update = client.execute_train_request(_request())
    assert update.pre_metrics == update.post_metrics
    assert update.n_samples == 30
    assert update.executor_id == "client-a"


def test_set_dataset_drops_cached_updates_but_keeps_baseline():
    # a request re-sent after a drift (its round aborted before it) must be
    # answered on the new data, against the pre-drift local model
    client = _client()
    req = _request(round=2)
    before = client.execute_train_request(req)
    client.set_dataset(separable_dataset(n=40, gap=-4.0, seed=99))
    after = client.execute_train_request(req)
    holdout = client.split(req.plan.eval_holdout_fraction)[1]
    assert after.post_metrics == evaluate(req.weights, holdout)
    assert after.pre_metrics == evaluate(before.weights, holdout)
    assert after.post_metrics != before.post_metrics


def test_replay_returns_bit_identical_update():
    client = _client()
    req = _request()
    first = client.execute_train_request(req)
    second = client.execute_train_request(req)
    assert second is first  # cached; trivially bit-identical
    fresh = _client()
    other = fresh.execute_train_request(req)
    assert np.array_equal(other.weights.values, first.weights.values)
    assert other.pre_metrics == first.pre_metrics


def test_second_round_uses_previous_local_model_as_baseline():
    client = _client()
    first = client.execute_train_request(_request(round=0))
    second = client.execute_train_request(_request(round=1))
    # baseline is now the round-0 local model, which beats the init weights
    assert second.pre_metrics.loss < second.post_metrics.loss


def test_cohort_change_resets_baseline():
    client = _client()
    client.execute_train_request(_request(round=0, cohort="pop-x-c000"))
    moved = client.execute_train_request(_request(round=0, cohort="pop-x-c001"))
    assert moved.pre_metrics == moved.post_metrics


def test_shape_mismatch_is_task_error():
    client = _client()
    bad = TrainRequest(
        task_id="t-1",
        cohort_id="pop-x-c000",
        round=0,
        plan=default_plan(batch_size=8),
        weights=init_weights(make_arch(3, 2), 1),
    )
    with pytest.raises(ShapeError):
        client.execute_train_request(bad)


# -- delegation --------------------------------------------------------------------


def test_delegate_bit_identical_to_local():
    owner = _client("owner", neighbors=["helper"], trusted_neighbors=frozenset({"helper"}))
    helper = _client("helper")
    local = _client("owner").execute_train_request(_request())
    delegated = owner.delegate(_request(), helper.client_id)
    assert np.array_equal(delegated.weights.values, local.weights.values)
    assert delegated.pre_metrics == local.pre_metrics
    assert delegated.executor_id == "helper"


def test_delegate_untrusted_refused():
    owner = _client("owner", neighbors=["helper"])  # known but not trusted
    helper = _client("helper")
    with pytest.raises(DelegationError):
        owner.delegate(_request(), helper.client_id)
    stranger = _client("stranger")
    with pytest.raises(DelegationError):
        owner.delegate(_request(), stranger.client_id)


def test_low_battery_triggers_auto_delegation_in_scenario():
    clients = ["w-1", "w-2"]
    spec = ScenarioSpec(
        name="lowbatt",
        seed=4,
        clients=clients,
        clusters=[ClusterSpec(weight=1.0)],
        n_features=2,
        n_classes=2,
        samples_per_client=(120, 160),
        scheduler=SchedulerConfig(
            clients_per_round="all",
            rounds=2,
            cohort_threshold=0.5,
            min_updates_quorum=1.0,
            guard_epsilon=1.0,
            seed=4,
        ),
        communities=[
            CommunitySpec(community_id="L", objective="obj", device_type="dev")
        ],
        tasks=[TaskSpec(task_id=f"{c}-t", client_id=c, community_id="L") for c in clients],
        resources={
            "w-1": ResourceSpec(battery=0.1, neighbors=["w-2"], trusted=["w-2"]),
        },
    )
    run = run_simulation(spec, mode="cohort")
    first = run.reports[0]
    assert first.executors["w-1-t"] == "w-2"  # delegated
    assert first.executors["w-2-t"] == "w-2"  # local


# -- metric reporting ---------------------------------------------------------------


def _train_env(request: TrainRequest, correlation_id: int = 1) -> netproto.Envelope:
    return netproto.Envelope(
        netproto.MsgType.TRAIN_REQUEST, correlation_id, netproto.to_doc(request)
    )


class FlakyChannel:
    """Fails the first ``failures`` requests, then delivers through the round
    channel that carries ``request``, as the simulated network sent it."""

    def __init__(self, network, request: TrainRequest, failures: int):
        self.round_channel = _RoundChannel(network, 1, "client-a", _train_env(request))
        self.failures = failures
        self.attempts = 0

    def request(self, frame: bytes) -> bytes:
        self.attempts += 1
        if self.attempts <= self.failures:
            raise DeliveryError("injected failure")
        return self.round_channel.request(frame)


def _reporting_client(request: TrainRequest):
    client = _client()
    client.session_token = "tok"
    return client, client.answer(_train_env(request))


def test_report_metrics_retries_then_succeeds():
    _, network = _sim_env()
    client, reply = _reporting_client(_request())
    channel = FlakyChannel(network, _request(), failures=2)
    ack, attempts = client.report_metrics(reply, channel)
    assert attempts == 3
    assert ack is not None
    assert ack.payload["status"] == "stored"


def test_report_metrics_dropout_after_three_failures():
    _, network = _sim_env()
    client, reply = _reporting_client(_request())
    channel = FlakyChannel(network, _request(), failures=5)
    ack, attempts = client.report_metrics(reply, channel)
    assert ack is None
    assert attempts == 3


def test_a_reasked_rounds_answer_is_acked_stored():
    # a cohort re-asks its round after an abort; the coordinator keeps no
    # record of who answered, so every answer to the asked round is stored,
    # and so is the answer to the cohort's next round
    _, network = _sim_env()
    client, _ = _reporting_client(_request())
    statuses = []
    for round_ in (0, 0, 1):
        reply = client.answer(_train_env(_request(round=round_)))
        channel = FlakyChannel(network, _request(round=round_), failures=0)
        ack, _ = client.report_metrics(reply, channel)
        statuses.append(ack.payload["status"])
    assert statuses == ["stored", "stored", "stored"]


def test_answer_echoes_the_request_and_carries_its_update():
    client, reply = _reporting_client(_request(round=2))
    assert reply.msg_type == netproto.MsgType.MODEL_UPDATE
    assert reply.correlation_id == 1
    assert set(reply.payload) == {"update"}  # the round connection is the credential
    update = netproto.update_from_doc(reply.payload["update"])
    assert (update.task_id, update.cohort_id, update.round) == ("t-1", "pop-x-c000", 2)
    assert update.executor_id == "client-a"


def test_answer_refuses_anything_but_a_train_request():
    client = _client()
    ack = netproto.Envelope(
        netproto.MsgType.METRICS_ACK, 1, {"task_id": "t-1", "round": 0, "status": "stored"}
    )
    with pytest.raises(ProtocolError) as err:
        client.answer(ack)
    assert err.value.code == "protocol_state"


class CannedChannel:
    """Answers every request with one fixed envelope."""

    def __init__(self, response: netproto.Envelope):
        self.frame = netproto.encode(response)

    def request(self, frame: bytes) -> bytes:
        return self.frame


@pytest.mark.parametrize(
    "msg_type, correlation_id, code",
    [
        (netproto.MsgType.METRICS_ACK, 2, "correlation_mismatch"),
        (netproto.MsgType.TASK_ACK, 1, "protocol_state"),
    ],
)
def test_report_metrics_checks_the_ack_echo_and_type(msg_type, correlation_id, code):
    client, reply = _reporting_client(_request())
    payload = (
        {"task_id": "t-1", "round": 0, "status": "stored"}
        if msg_type == netproto.MsgType.METRICS_ACK
        else {"task_id": "t-1", "population_id": "pop-x"}
    )
    channel = CannedChannel(netproto.Envelope(msg_type, correlation_id, payload))
    with pytest.raises(ProtocolError) as err:
        client.report_metrics(reply, channel)
    assert err.value.code == code


# -- matched model helps ---------------------------------------------------------------


def test_matched_cohort_model_beats_own_local_model():
    # a data-poor client inside a data-rich cohort: once the shared model has
    # a round of training behind it, receiving it beats the client's own
    # small-sample local model on its holdout
    clients = ["s-small", "s-big1", "s-big2"]
    spec = ScenarioSpec(
        name="smallclient",
        seed=21,
        clients=clients,
        clusters=[ClusterSpec(weight=1.0)],
        n_features=2,
        n_classes=2,
        samples_per_client=(500, 560),
        samples_override={"s-small": 30},
        scheduler=SchedulerConfig(
            clients_per_round="all",
            rounds=6,
            cohort_threshold=0.5,
            min_updates_quorum=1.0,
            guard_epsilon=5.0,
            seed=21,
        ),
        communities=[
            CommunitySpec(
                community_id="S",
                objective="obj",
                device_type="dev",
                min_samples=30,
                batch_size=8,
                learning_rate=0.2,
                shuffle_seed=9,
            )
        ],
        tasks=[TaskSpec(task_id=f"{c}-t", client_id=c, community_id="S") for c in clients],
        class_sep=3.0,
    )
    run = run_simulation(spec, mode="cohort")
    for report in run.reports:
        if report.sched_round == 1:
            continue
        pre, post = report.update_metrics["s-small-t"]
        assert post.loss < pre.loss


# -- how many holdout evaluations a round costs -----------------------------------------


@pytest.fixture
def evaluations(monkeypatch):
    """The weights of every ``evaluate`` call a client makes."""
    calls = []

    def spy(w, data):
        calls.append(w)
        return evaluate(w, data)

    monkeypatch.setattr("communityfl.client.evaluate", spy)
    return calls


def test_first_round_in_a_cohort_evaluates_the_incoming_model_once(evaluations):
    client = _client()
    holdout = client.split(default_plan().eval_holdout_fraction)[1]
    first_req = _request(round=0)
    first = client.execute_train_request(first_req)
    assert evaluations == [first_req.weights]
    assert first.pre_metrics == first.post_metrics == evaluate(first_req.weights, holdout)

    evaluations.clear()
    repeat_req = _request(round=1)
    repeat = client.execute_train_request(repeat_req)
    assert evaluations == [repeat_req.weights, first.weights]
    assert repeat.pre_metrics == evaluate(first.weights, holdout)

    # the same task in another cohort starts a new trajectory
    evaluations.clear()
    moved_req = _request(round=1, cohort="pop-x-c001")
    moved = client.execute_train_request(moved_req)
    assert evaluations == [moved_req.weights]
    assert moved.pre_metrics == moved.post_metrics


def test_a_task_moved_by_a_recluster_evaluates_once_in_its_new_cohort(evaluations, monkeypatch):
    from communityfl.scenarios import builtin_scenarios

    # per request: one evaluation when the task's last local model was
    # trained in another cohort or never, two otherwise, none for a cached reply
    seen = []
    honest = FlClient.execute_train_request

    def execute(self, req, executor_id=None):
        stored = self._prev_local.get(req.task_id)
        cached = self._update_cache.get((req.task_id, req.cohort_id))
        before = len(evaluations)
        update = honest(self, req, executor_id)
        if cached is not None and cached.round == req.round:
            kind = "cached"
        elif stored is None:
            kind = "first"
        elif stored[0] != req.cohort_id:
            kind = "moved"
        else:
            kind = "repeat"
        seen.append((kind, len(evaluations) - before, update.pre_metrics == update.post_metrics))
        return update

    monkeypatch.setattr(FlClient, "execute_train_request", execute)
    run = run_simulation(builtin_scenarios()["drift"], mode="cohort")
    assert run.summary.recluster_events
    expected = {"first": (1, True), "moved": (1, True), "repeat": (2, None), "cached": (0, None)}
    for kind, calls, same in seen:
        assert calls == expected[kind][0], kind
        assert expected[kind][1] in (None, same), kind
    assert {kind for kind, _, _ in seen} >= {"first", "moved", "repeat"}
