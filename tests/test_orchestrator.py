import base64
import dataclasses
import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from communityfl import netproto
from communityfl.client import FlClient
from communityfl.community import CollaborationCriteria, signature_from_dataset
from communityfl.errors import (
    AdmissionRefused,
    ConfigError,
    DuplicateTaskError,
    PlanError,
    ProtocolError,
    ShapeError,
    UnregisteredClientError,
)
from communityfl.flcore import PLAN_FIELDS, FlCohort, TrainRequest, aggregate
from communityfl.hashing import stable_u64
from communityfl.netproto import Envelope, MsgType
from communityfl.orchestrator import (
    RECLUSTER_FLAG_RATE,
    RECLUSTER_WINDOW,
    Coordinator,
    GuardVerdict,
    SchedulerConfig,
    guard_update,
)
from communityfl.runner import run_simulation
from communityfl.scenarios import builtin_scenarios
from communityfl.tinylearn import Dataset, EvalMetrics, WeightVector, evaluate
from communityfl.transport import SimNetwork

from conftest import (
    default_plan,
    fixed_signature,
    make_community,
    make_metadata,
    make_task,
    make_update,
    separable_dataset,
)


def _coordinator(criteria=None, **config_overrides) -> Coordinator:
    config = dict(
        clients_per_round="all",
        rounds=5,
        cohort_threshold=0.8,
        min_updates_quorum=1.0,
        guard_epsilon=0.5,
        seed=1,
    )
    config.update(config_overrides)
    return Coordinator(SchedulerConfig(**config), [make_community(criteria=criteria)])


# -- plan translation --------------------------------------------------------------


def test_build_plan_no_overrides_is_community_default():
    coordinator = _coordinator()
    task = make_task("t-1")
    plan = coordinator.build_plan(task, coordinator.communities["C1"])
    assert plan == coordinator.communities["C1"].default_plan


def test_build_plan_single_override_changes_exactly_that_field():
    coordinator = _coordinator()
    task = make_task("t-1", overrides={"learning_rate": 0.01})
    plan = coordinator.build_plan(task, coordinator.communities["C1"])
    default = coordinator.communities["C1"].default_plan
    for name in PLAN_FIELDS:
        if name == "learning_rate":
            assert getattr(plan, name) == 0.01
        else:
            assert getattr(plan, name) == getattr(default, name)


def test_build_plan_epochs_zero_rejected():
    coordinator = _coordinator()
    task = make_task("t-1", overrides={"epochs": 0})
    with pytest.raises(PlanError):
        coordinator.build_plan(task, coordinator.communities["C1"])


def test_build_plan_batch_size_exceeding_min_samples_rejected():
    coordinator = _coordinator(criteria=CollaborationCriteria(min_samples=16))
    task = make_task("t-1", overrides={"batch_size": 64})
    with pytest.raises(PlanError):
        coordinator.build_plan(task, coordinator.communities["C1"])


# -- task intake --------------------------------------------------------------------


def test_submit_unregistered_client_rejected():
    coordinator = _coordinator()
    with pytest.raises(UnregisteredClientError):
        coordinator.submit_task(make_task("t-1"))


def test_submit_duplicate_task_rejected():
    coordinator = _coordinator()
    coordinator.register_client(make_metadata("client-a"))
    coordinator.submit_task(make_task("t-1", objective="objective-1"))
    with pytest.raises(DuplicateTaskError):
        coordinator.submit_task(make_task("t-1", objective="other"))


def test_submit_admission_refused():
    coordinator = _coordinator(criteria=CollaborationCriteria(min_samples=10_000))
    coordinator.register_client(make_metadata("client-a", n_samples=50))
    with pytest.raises(AdmissionRefused):
        coordinator.submit_task(make_task("t-1"))


def test_submit_same_config_tasks_share_population():
    coordinator = _coordinator()
    coordinator.register_client(make_metadata("watch-01"))
    coordinator.register_client(make_metadata("watch-02"))
    a = coordinator.submit_task(make_task("M2.1", client_id="watch-01"))
    b = coordinator.submit_task(make_task("M2.2", client_id="watch-02"))
    assert a == b
    assert coordinator.registry.tasks["M2.1"].plan is not None


def test_submission_order_invariance_over_all_permutations(rng):
    # each task has its own participant, and so its own registered signature
    def build_tasks():
        sig_near = [make_task(f"t{i}", client_id=f"c{i}", objective="alpha") for i in range(2)]
        sig_far = [make_task(f"t{i}", client_id=f"c{i}", objective="beta") for i in range(2, 4)]
        return sig_near + sig_far

    reference = None
    for perm in itertools.permutations(range(4)):
        coordinator = _coordinator()
        for i in range(4):
            coordinator.register_client(make_metadata(f"c{i}"))
        tasks = build_tasks()
        for i in perm:
            coordinator.submit_task(tasks[i])
        coordinator.ensure_cohorts()
        structure = tuple(
            (
                population_id,
                tuple(
                    (c.cohort_id, tuple(sorted(c.member_task_ids)))
                    for c in sorted(
                        coordinator.registry.populations[population_id].cohorts,
                        key=lambda c: c.cohort_id,
                    )
                ),
            )
            for population_id in sorted(coordinator.registry.populations)
        )
        if reference is None:
            reference = structure
        assert structure == reference


# -- rounds ------------------------------------------------------------------------


def _wire_clients(coordinator, datasets: dict[str, Dataset]):
    """Register one client per dataset, its metadata carrying that data's signature."""
    clients = {
        cid: FlClient(cid, data, make_metadata(cid, signature=signature_from_dataset(data)))
        for cid, data in datasets.items()
    }
    network = SimNetwork(coordinator, clients)
    for client in clients.values():
        client.register(network)
    return network


def test_single_member_round_adopts_trained_weights():
    coordinator = _coordinator()
    data = separable_dataset(n=40, gap=4.0, seed=1)
    network = _wire_clients(coordinator, {"solo": data})
    task = make_task("solo-t", client_id="solo")
    network.clients["solo"].submit_task(network, task)
    coordinator.ensure_cohorts()
    cohort = coordinator.all_cohorts()[0]
    transport = _RewritingTransport(network)
    report = coordinator.run_round(cohort, transport, sched_round=1)
    assert report.status == "committed"
    [(task_id, update)] = transport.arrivals
    assert (task_id, update.cohort_id, update.round) == ("solo-t", cohort.cohort_id, 0)
    assert np.array_equal(cohort.global_weights.values, update.weights.values)


def test_two_identical_clients_global_beats_initial_on_pooled_data():
    coordinator = _coordinator()
    data = separable_dataset(n=60, gap=3.0, seed=8)
    network = _wire_clients(coordinator, {"a": data, "b": data})
    for client_id in ("a", "b"):
        task = make_task(f"{client_id}-t", client_id=client_id)
        network.clients[client_id].submit_task(network, task)
    coordinator.ensure_cohorts()
    cohort = coordinator.all_cohorts()[0]
    initial = WeightVector(cohort.global_weights.values.copy(), cohort.global_weights.arch_id)
    report = coordinator.run_round(cohort, network, sched_round=1)
    assert report.status == "committed"
    pooled = Dataset(
        features=np.vstack([data.features, data.features]),
        labels=np.concatenate([data.labels, data.labels]),
        n_classes=2,
    )
    assert evaluate(cohort.global_weights, pooled).loss <= evaluate(initial, pooled).loss


def test_round_monotonicity_and_quorum_abort():
    spec = builtin_scenarios()["dropout"]
    run = run_simulation(spec, mode="cohort")
    statuses = [(r.sched_round, r.status) for r in run.reports]
    assert ("committed" in dict(statuses).values()) or statuses
    aborted = [r for r in run.reports if r.status == "aborted"]
    assert len(aborted) == 1
    assert aborted[0].reason == "quorum_not_reached"
    assert aborted[0].sched_round == 5
    # the abort leaves the cohort round unchanged: reports before and after
    # the abort carry consecutive cohort rounds
    rounds = [r.round for r in run.reports]
    assert rounds == [0, 1, 2, 3, 4, 4, 5, 6]
    # abort keeps the previous weights: digest matches the prior report
    digests = [r.new_global_weights_hash for r in run.reports]
    assert digests[4] == digests[3]
    cohort = run.coordinator.all_cohorts()[0]
    assert cohort.round == 7  # 8 scheduled, 1 aborted


def test_clients_per_round_subselection():
    # four clients with the same data register one shared signature
    coordinator = _coordinator(clients_per_round=2, min_updates_quorum=0.5)
    data = separable_dataset(n=40, gap=4.0, seed=1)
    datasets = {f"c{i}": data for i in range(4)}
    network = _wire_clients(coordinator, datasets)
    for client_id in datasets:
        task = make_task(f"{client_id}-t", client_id=client_id)
        network.clients[client_id].submit_task(network, task)
    coordinator.ensure_cohorts()
    cohort = coordinator.all_cohorts()[0]
    selections = []
    for sched_round in (1, 2, 3):
        report = coordinator.run_round(cohort, network, sched_round)
        assert len(report.selected_task_ids) == 2
        selections.append(tuple(report.selected_task_ids))
    assert len(set(selections)) > 1  # the seeded shuffle rotates participants


def _select_by_permuting_ids(members, clients_per_round, seed, cohort_id, sched_round):
    """Oracle: the selection as first written, a permutation of the ids."""
    members = sorted(members)
    k = len(members) if clients_per_round == "all" else min(clients_per_round, len(members))
    rng = np.random.default_rng(stable_u64(seed, "select", cohort_id, sched_round))
    return sorted(str(t) for t in rng.permutation(members)[:k])


@st.composite
def _selection_cases(draw):
    size = draw(st.integers(1, 300))
    # ids of mixed lengths, so that string order differs from index order;
    # no NUL, which a numpy string array drops from the end of an id
    ids = draw(
        st.lists(
            st.text(st.characters(min_codepoint=32, max_codepoint=0x2FF), min_size=1, max_size=6),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    clients_per_round = draw(st.one_of(st.just("all"), st.integers(1, size)))
    seed = draw(st.integers(0, 2**32 - 1))
    cohort_id = draw(st.sampled_from(["pop-0123456789-c000", "pop-fedcba9876-c017"]))
    return ids, clients_per_round, seed, cohort_id, draw(st.integers(0, 500))


@settings(max_examples=300, deadline=None)
@given(_selection_cases())
def test_select_members_picks_what_a_permutation_of_the_ids_picks(case):
    ids, clients_per_round, seed, cohort_id, sched_round = case
    coordinator = _coordinator(clients_per_round=clients_per_round, seed=seed)
    # selection reads only the cohort's id and members
    cohort = FlCohort(cohort_id, "pop-0123456789", set(ids), centroid=None, global_weights=None)
    expected = _select_by_permuting_ids(ids, clients_per_round, seed, cohort_id, sched_round)
    assert coordinator._select_members(cohort, sched_round) == expected


def test_select_members_returns_ids_that_end_in_nul_intact():
    # a numpy string array drops trailing NULs, so permuting the ids turned
    # "a\x00" into "a", an id no task has, and run_round raised KeyError
    coordinator = _coordinator(clients_per_round=2)
    members = {"a\x00", "a\x00\x00", "b"}
    cohort = FlCohort(
        "pop-0123456789-c000", "pop-0123456789", members, centroid=None, global_weights=None
    )
    for sched_round in range(20):
        chosen = coordinator._select_members(cohort, sched_round)
        assert len(chosen) == 2 and set(chosen) <= members


class _RewritingTransport:
    """Delivers each update with some of its fields overwritten (none by
    default) and keeps the last round's arrivals."""

    def __init__(self, network, **update_fields):
        self.network = network
        self.update_fields = update_fields
        self.arrivals = []

    def exchange_round(self, items, sched_round):
        arrivals, transferred = self.network.exchange_round(items, sched_round)
        self.arrivals = [(t, dataclasses.replace(u, **self.update_fields)) for t, u in arrivals]
        return self.arrivals, transferred


def _single_member_cohort(coordinator, data: Dataset):
    network = _wire_clients(coordinator, {"a": data})
    task = make_task("a-t", client_id="a")
    network.clients["a"].submit_task(network, task)
    coordinator.ensure_cohorts()
    return network, coordinator.all_cohorts()[0]


def test_cross_cohort_update_flagged_and_excluded():
    coordinator = _coordinator(min_updates_quorum=0.5)
    data = separable_dataset(n=40, gap=4.0, seed=1)
    network, cohort = _single_member_cohort(coordinator, data)
    before = cohort.global_weights.values.copy()
    transport = _RewritingTransport(network, cohort_id="pop-other-c999")
    report = coordinator.run_round(cohort, transport, sched_round=1)
    assert report.guard_verdicts["a-t"] == "flag:cohort_mismatch"
    assert report.status == "aborted"
    assert report.reason == "no_accepted_updates"
    assert np.array_equal(cohort.global_weights.values, before)
    assert cohort.round == 0


def test_report_metrics_cover_only_updates_that_answer_the_round():
    # a mismatched update is received and flagged, but its metrics are not
    # this cohort's round, so the runner never sees them
    coordinator = _coordinator(min_updates_quorum=0.5)
    data = separable_dataset(n=40, gap=4.0, seed=1)
    network, cohort = _single_member_cohort(coordinator, data)
    mismatched = coordinator.run_round(
        cohort, _RewritingTransport(network, cohort_id="pop-other-c999"), sched_round=1
    )
    assert mismatched.received_updates == 1
    assert mismatched.update_metrics == {}
    transport = _RewritingTransport(network)
    honest = coordinator.run_round(cohort, transport, sched_round=2)
    [(_, update)] = transport.arrivals
    assert honest.update_metrics == {"a-t": (update.pre_metrics, update.post_metrics)}
    assert "update_metrics" not in honest.to_doc()


def _update_frame(update_doc) -> bytes:
    return netproto.encode(Envelope(MsgType.MODEL_UPDATE, 7, {"update": update_doc}))


def _edited_update_frame(edit) -> bytes:
    doc = netproto.to_doc(make_update("a-t", [0.5], n_samples=3))
    edit(doc)
    return _update_frame(doc)


REFUSED_FRAMES = {
    "empty": lambda: b"",
    "not an envelope": lambda: b"\x00\x00\x00\x02{}",
    "wrong type": lambda: netproto.encode(Envelope(MsgType.LIST_COMMUNITIES, 7, {})),
    "no samples": lambda: _edited_update_frame(lambda d: d.update(n_samples=0)),
    "negative samples": lambda: _edited_update_frame(lambda d: d.update(n_samples=-5)),
    "non-canonical arch": lambda: _edited_update_frame(
        lambda d: d["weights"].update(arch_id="logreg:+2x2")
    ),
    "bad weights blob": lambda: _edited_update_frame(lambda d: d["weights"].update(values="!")),
}


def _train_request_env(round_: int, correlation_id: int) -> Envelope:
    weights = WeightVector(np.zeros(6), "logreg:2x2")
    request = TrainRequest("a-t", "pop-t-c000", round_, default_plan(), weights)
    return Envelope(MsgType.TRAIN_REQUEST, correlation_id, netproto.to_doc(request))


@pytest.mark.parametrize("name", sorted(REFUSED_FRAMES))
def test_receive_update_refuses_a_bad_reply_without_raising(name):
    # the ack carries the request's task, round and correlation id, since the
    # frame may have none; the transport sends it like any other ack
    coordinator = _coordinator()
    request = _train_request_env(2, 11)
    update, ack = coordinator.receive_update(REFUSED_FRAMES[name](), request)
    assert update is None
    assert netproto.decode(ack) == Envelope(
        MsgType.METRICS_ACK, 11, {"task_id": "a-t", "round": 2, "status": "refused"}
    )


@pytest.mark.parametrize("round_, status", [(0, "stored"), (1, "mismatch")])
def test_receive_update_acks_the_reply_it_decodes(round_, status):
    coordinator = _coordinator()
    sent = make_update("a-t", [0.5], round=round_)
    frame = _update_frame(netproto.to_doc(sent))
    update, ack = coordinator.receive_update(frame, _train_request_env(0, 7))
    assert netproto.to_doc(update) == netproto.to_doc(sent)
    assert netproto.decode(ack) == Envelope(
        MsgType.METRICS_ACK, 7, {"task_id": "a-t", "round": round_, "status": status}
    )


@pytest.mark.parametrize("guard_epsilon", [0.5, None])
def test_update_claiming_more_samples_than_signature_flagged(guard_epsilon):
    # n_samples sets the aggregation weight, so an inflated claim is refused
    # whether or not the loss guard is on
    coordinator = _coordinator(guard_epsilon=guard_epsilon)
    data = separable_dataset(n=40, gap=4.0, seed=1)
    network, cohort = _single_member_cohort(coordinator, data)
    before = cohort.global_weights.values.copy()
    transport = _RewritingTransport(network, n_samples=41)
    report = coordinator.run_round(cohort, transport, sched_round=1)
    assert report.guard_verdicts["a-t"] == "flag:n_samples_exceeds_signature"
    assert report.status == "aborted"
    assert np.array_equal(cohort.global_weights.values, before)
    # a claim equal to the signature's count is within the limit
    honest = coordinator.run_round(cohort, _RewritingTransport(network, n_samples=40), 2)
    assert honest.guard_verdicts["a-t"] == "accept"
    assert honest.status == "committed"


@pytest.mark.parametrize("guard_epsilon", [0.5, None])
def test_update_with_non_finite_weights_flagged(guard_epsilon):
    # aggregate refuses non-finite weights, so one such update is flagged
    # instead of raising out of run_round, whether or not the loss guard is on
    coordinator = _coordinator(guard_epsilon=guard_epsilon)
    data = separable_dataset(n=40, gap=4.0, seed=1)
    network, cohort = _single_member_cohort(coordinator, data)
    before = cohort.global_weights.values.copy()
    weights = WeightVector(
        np.full(before.size, np.nan), cohort.global_weights.arch_id, check_finite=False
    )
    report = coordinator.run_round(cohort, _RewritingTransport(network, weights=weights), 1)
    assert report.guard_verdicts["a-t"] == "flag:non_finite"
    assert report.status == "aborted"
    assert report.reason == "no_accepted_updates"
    assert np.array_equal(cohort.global_weights.values, before)
    assert cohort.round == 0


@pytest.mark.parametrize("guard_epsilon", [0.5, None])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_off_the_wire_flagged_and_refused_by_aggregate(
    guard_epsilon, bad, monkeypatch
):
    # the decoder keeps a non-finite update representable; its finiteness is
    # worked out once and every later check must still see it
    coordinator = _coordinator(guard_epsilon=guard_epsilon)
    data = separable_dataset(n=40, gap=4.0, seed=1)
    network, cohort = _single_member_cohort(coordinator, data)
    before = cohort.global_weights.values.copy()
    honest = FlClient.answer

    def answer(self, env):
        reply = honest(self, env)
        values = np.zeros(before.size)
        values[2] = bad
        reply.payload["update"]["weights"] = netproto.weights_to_wire(
            WeightVector(values, cohort.global_weights.arch_id, check_finite=False)
        )
        return reply

    monkeypatch.setattr(FlClient, "answer", answer)
    transport = _RewritingTransport(network)
    report = coordinator.run_round(cohort, transport, 1)
    assert report.guard_verdicts["a-t"] == "flag:non_finite"
    assert report.status == "aborted"
    assert np.array_equal(cohort.global_weights.values, before)
    ((_, update),) = transport.arrivals
    assert not update.weights.is_finite()
    with pytest.raises(ShapeError, match="non-finite"):
        aggregate([update])


@pytest.mark.parametrize("guard_epsilon", [0.5, None])
def test_update_with_another_architecture_of_equal_length_flagged(guard_epsilon):
    # mlp:1x1x2 has the 6 parameters of logreg:2x2, so the update decodes,
    # but aggregate refuses to mix the two; flagged whether or not the loss
    # guard is on, instead of raising out of run_round
    coordinator = _coordinator(guard_epsilon=guard_epsilon)
    data = separable_dataset(n=40, gap=4.0, seed=1)
    network, cohort = _single_member_cohort(coordinator, data)
    before = cohort.global_weights
    assert before.arch_id == "logreg:2x2"
    weights = WeightVector(before.values.copy(), "mlp:1x1x2")
    report = coordinator.run_round(cohort, _RewritingTransport(network, weights=weights), 1)
    assert report.guard_verdicts["a-t"] == "flag:arch_mismatch"
    assert report.status == "aborted"
    assert report.reason == "no_accepted_updates"
    assert cohort.global_weights is before
    assert cohort.round == 0


@pytest.mark.parametrize("arch_id", ["logreg:+2x2", "mlp:1x1x2"])
def test_wrong_architecture_update_does_not_crash_the_run(arch_id, monkeypatch):
    # u-01 answers its first request with the right number of weights under
    # another id: a non-canonical spelling of the cohort's own architecture,
    # which the coordinator refuses as malformed (u-01 drops out of the round,
    # and uniform's quorum of 1.0 aborts it), or another architecture, which
    # the round flags and leaves out of the aggregate
    honest = FlClient.answer
    corrupted = []

    def answer(self, env):
        reply = honest(self, env)
        if self.client_id == "u-01" and not corrupted:
            reply.payload["update"]["weights"]["arch_id"] = arch_id
            corrupted.append(env.correlation_id)
        return reply

    monkeypatch.setattr(FlClient, "answer", answer)
    run = run_simulation(builtin_scenarios()["uniform"])
    first, *later = run.reports
    assert "u-01-t0" in first.selected_task_ids
    if arch_id == "logreg:+2x2":
        assert "u-01-t0" not in first.guard_verdicts
        assert (first.status, first.reason) == ("aborted", "quorum_not_reached")
    else:
        assert first.guard_verdicts["u-01-t0"] == "flag:arch_mismatch"
        assert first.status == "committed"
    assert later and all(r.status == "committed" for r in later)


# -- one signature per participant ------------------------------------------------------


def test_one_registered_signature_governs_admission_cohorts_and_the_sample_bound():
    # a task carries no signature of its own: admission, cohort placement and
    # the n_samples bound all read its participant's registered one, and a
    # re-Register changes all three at once
    coordinator = _coordinator(criteria=CollaborationCriteria(min_samples=50))
    near = fixed_signature([0.0, 0.0], [1.0, 1.0], [0.5, 0.5], n_samples=200)
    far = fixed_signature([9.0, 9.0], [1.0, 1.0], [0.1, 0.9], n_samples=40)
    for client_id in ("a", "b"):
        coordinator.register_client(make_metadata(client_id, signature=near))
        coordinator.submit_task(make_task(f"{client_id}-t", client_id=client_id))
    coordinator.ensure_cohorts()
    (cohort,) = coordinator.all_cohorts()
    claims = {"a-t": 200, "b-t": 200}
    report = coordinator.run_round(cohort, _EchoTransport(n_samples=claims), 1)
    assert report.guard_verdicts == {"a-t": "accept", "b-t": "accept"}

    drifted = make_metadata("a", signature=far)
    coordinator.register_client(drifted)
    assert not hasattr(coordinator.registry.tasks["a-t"], "data_signature")
    assert coordinator.signature_of("a-t") is drifted.data_signature
    # the bound: a's data now count 40 samples
    claims = {"a-t": 41, "b-t": 200}
    report = coordinator.run_round(cohort, _EchoTransport(n_samples=claims), 2)
    assert report.guard_verdicts == {"a-t": "flag:n_samples_exceeds_signature", "b-t": "accept"}
    # admission: 40 samples are below the community's minimum of 50
    with pytest.raises(AdmissionRefused) as refused:
        coordinator.submit_task(make_task("a-t2", client_id="a"))
    assert refused.value.reason == "min_samples"
    # cohort placement: the next recluster of the population moves a-t away
    coordinator.dirty_populations.add(cohort.population_id)
    coordinator.ensure_cohorts()
    placed = {t: c.cohort_id for c in coordinator.all_cohorts() for t in c.member_task_ids}
    assert placed.keys() == {"a-t", "b-t"}
    assert placed["a-t"] != placed["b-t"]


def _frame(msg_type: MsgType, payload: dict) -> bytes:
    doc = {
        "correlation_id": 5,
        "msg_type": msg_type.value,
        "payload": payload,
        "version": netproto.PROTOCOL_VERSION,
    }
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack(">I", len(body)) + body


def test_registration_fields_that_version_3_removed_are_malformed():
    coordinator = _coordinator()
    metadata = make_metadata("client-a")
    token = coordinator.register_client(metadata)
    # the participant-side criteria that no code obeyed
    stale_metadata = netproto.to_doc(metadata)
    stale_metadata["criteria"] = netproto.to_doc(CollaborationCriteria())
    # the task's copy of its participant's signature
    stale_task = netproto.to_doc(make_task("t-1"))
    stale_task["data_signature"] = netproto.to_doc(metadata.data_signature)
    for frame, message in (
        (
            _frame(MsgType.REGISTER, {"metadata": stale_metadata}),
            "Register.metadata: undeclared fields ['criteria']",
        ),
        (
            _frame(MsgType.SUBMIT_TASK, {"task": stale_task, "session_token": token}),
            "SubmitTask.task: undeclared fields ['data_signature']",
        ),
    ):
        reply = netproto.decode(coordinator.handle_frame(frame))
        assert reply == netproto.error_envelope(0, "malformed", message)
    assert coordinator.registry.tasks == {}
    assert coordinator.clients == {"client-a": metadata}


# -- the negative-transfer guard -------------------------------------------------------


def test_guard_flags_nonfinite_weights():
    update = make_update("t", [0.0, 0.0])
    object.__setattr__(
        update,
        "weights",
        WeightVector([np.nan] * 6, "logreg:2x2", check_finite=False),
    )
    verdict = guard_update(update, epsilon=10.0)
    assert verdict == GuardVerdict(False, "non_finite")
    assert verdict.label() == "flag:non_finite"


def test_guard_accepts_improvement_at_zero_epsilon():
    update = make_update("t", [0.0, 0.0], pre_loss=0.9, post_loss=0.4)
    assert guard_update(update, epsilon=0.0).accepted


def test_guard_flags_regression_beyond_epsilon():
    update = make_update("t", [0.0, 0.0], pre_loss=0.4, post_loss=0.95)
    assert guard_update(update, epsilon=0.5) == GuardVerdict(False, "loss_regression")
    assert guard_update(update, epsilon=0.6).accepted


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("which", ["pre_loss", "post_loss"])
def test_guard_flags_nonfinite_loss(bad, which):
    # a NaN or -inf delta never compares greater than epsilon, so the loss
    # regression test alone would accept these updates
    update = make_update("t", [0.0, 0.0], **{which: bad})
    assert guard_update(update, epsilon=0.5) == GuardVerdict(False, "non_finite_loss")


@pytest.mark.parametrize(
    "which, loss, accuracy",
    [
        ("pre_metrics", 1.0, -0.1),
        ("post_metrics", 1.0, 1.5),
        ("post_metrics", 1.0, float("nan")),
        ("pre_metrics", -0.5, 0.5),
        ("post_metrics", -1e-12, 0.5),
    ],
)
def test_guard_flags_metric_out_of_range(which, loss, accuracy):
    update = make_update("t", [0.0, 0.0])
    update = dataclasses.replace(update, **{which: EvalMetrics(loss, accuracy, 10)})
    assert guard_update(update, epsilon=10.0) == GuardVerdict(False, "metric_out_of_range")


def test_guard_accepts_metrics_at_range_limits():
    update = make_update("t", [0.0, 0.0])
    update = dataclasses.replace(
        update, pre_metrics=EvalMetrics(0.0, 0.0, 10), post_metrics=EvalMetrics(0.0, 1.0, 10)
    )
    assert guard_update(update, epsilon=0.0).accepted


def test_poisoned_client_flagged_within_three_rounds():
    spec = builtin_scenarios()["poison"]
    run = run_simulation(spec, mode="cohort")
    first_flag = min(
        r.sched_round
        for r in run.reports
        if r.guard_verdicts.get("p-04-t0", "accept") != "accept"
    )
    assert first_flag <= 3
    for report in run.reports:
        for task_id, verdict in report.guard_verdicts.items():
            if task_id != "p-04-t0" and report.sched_round <= 3:
                assert verdict == "accept"


def test_guard_soundness_on_iid_clients():
    # 20 rounds of the uniform scenario with epsilon 0.5: zero flags
    import dataclasses

    spec = builtin_scenarios()["uniform"]
    spec = dataclasses.replace(
        spec, scheduler=dataclasses.replace(spec.scheduler, rounds=20, guard_epsilon=0.5)
    )
    run = run_simulation(spec, mode="cohort")
    assert all(v == "accept" for r in run.reports for v in r.guard_verdicts.values())


# -- the recluster rule ------------------------------------------------------------------


class _EchoTransport:
    """Answers every request with an update that echoes its task, cohort and
    round; the tasks in ``flagged`` report a loss regression the guard flags,
    and a task in ``n_samples`` claims that many samples (else 1)."""

    def __init__(self, flagged=(), n_samples=None):
        self.flagged = set(flagged)
        self.n_samples = n_samples or {}

    def exchange_round(self, items, sched_round):
        arrivals = []
        for task_id, env in items:
            asked = env.payload
            post_loss = 2.0 if task_id in self.flagged else 1.0
            update = make_update(
                task_id,
                [],
                n_samples=self.n_samples.get(task_id, 1),
                cohort_id=asked["cohort_id"],
                round=asked["round"],
                post_loss=post_loss,
            )
            arrivals.append((task_id, update))
        return arrivals, 0


def _coordinator_with_cohort(n_tasks=1, **config_overrides):
    """One cohort of tasks t1..tn, each of its own participant c1..cn, and
    every participant registered with one shared signature."""
    coordinator = _coordinator(**config_overrides)
    shared = fixed_signature([0.0, 0.0], [1.0, 1.0], [0.5, 0.5])
    for i in range(1, n_tasks + 1):
        coordinator.register_client(make_metadata(f"c{i}", signature=shared))
        coordinator.submit_task(make_task(f"t{i}", client_id=f"c{i}"))
    coordinator.ensure_cohorts()
    (cohort,) = coordinator.all_cohorts()
    return coordinator, cohort


class _RecordingTransport(_EchoTransport):
    """An ``_EchoTransport`` that keeps each round's request envelopes."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def exchange_round(self, items, sched_round):
        self.requests.append([env for _, env in items])
        return super().exchange_round(items, sched_round)


def test_a_rounds_requests_carry_equal_but_distinct_weights_documents():
    coordinator, cohort = _coordinator_with_cohort(n_tasks=3)
    transport = _RecordingTransport()
    for sched_round in (1, 2):
        weights = cohort.global_weights
        coordinator.run_round(cohort, transport, sched_round)
        blob = base64.b64encode(weights.values.astype("<f8").tobytes()).decode("ascii")
        documents = [env.payload["weights"] for env in transport.requests[-1]]
        assert len(documents) == 3
        assert all(d == {"arch_id": weights.arch_id, "values": blob} for d in documents)
        assert len({id(d) for d in documents}) == 3
    # the round committed, so the second round sent the new cohort model
    first, second = transport.requests
    assert first[0].payload["weights"] != second[0].payload["weights"]


def test_three_full_flag_reports_mark_cohort_for_recluster():
    coordinator, cohort = _coordinator_with_cohort()
    transport = _EchoTransport(flagged={"t1"})
    for sched_round in (1, 2, 3):
        assert coordinator.dirty_populations == set()
        report = coordinator.run_round(cohort, transport, sched_round)
        assert (report.status, report.flag_rate) == ("aborted", 1.0)
    assert cohort.flag_rates == [1.0, 1.0, 1.0]
    assert coordinator.dirty_populations == {cohort.population_id}


def test_zero_flag_rate_never_marks():
    coordinator, cohort = _coordinator_with_cohort()
    for sched_round in (1, 2, 3, 4):
        coordinator.run_round(cohort, _EchoTransport(), sched_round)
    assert cohort.round == 4
    assert cohort.flag_rates == [0.0, 0.0, 0.0]  # the last RECLUSTER_WINDOW rounds
    assert coordinator.dirty_populations == set()


def test_a_window_that_averages_exactly_the_threshold_does_not_mark():
    coordinator, cohort = _coordinator_with_cohort(n_tasks=2)
    transport = _EchoTransport(flagged={"t1"})
    for sched_round in (1, 2, 3, 4):
        coordinator.run_round(cohort, transport, sched_round)
    assert cohort.flag_rates == [RECLUSTER_FLAG_RATE] * RECLUSTER_WINDOW
    assert coordinator.dirty_populations == set()


def test_drift_recluster_starts_the_rebuilt_cohorts_with_empty_windows():
    # a cohort of the drift builtin flags 2 of 3 updates in rounds 5-7, so
    # its population is reclustered after round 7; round 8 is all accepted
    spec = builtin_scenarios()["drift"]
    spec = dataclasses.replace(spec, scheduler=dataclasses.replace(spec.scheduler, rounds=8))
    run = run_simulation(spec, mode="cohort")
    assert any(event["removed_cohort_ids"] for event in run.coordinator.migration_log)
    assert any(r.flag_rate > RECLUSTER_FLAG_RATE for r in run.reports if r.sched_round == 7)
    for cohort in run.coordinator.all_cohorts():
        assert cohort.flag_rates == [0.0]  # round 8 only


@pytest.mark.parametrize("threshold", [0.8, 0.0])
def test_recluster_of_a_marked_cohort_that_changes_nothing_logs_nothing(threshold):
    coordinator, cohort = _coordinator_with_cohort(n_tasks=3, cohort_threshold=threshold)
    transport = _EchoTransport(flagged={"t1", "t2"})
    for sched_round in (1, 2, 3):
        report = coordinator.run_round(cohort, transport, sched_round)
        assert report.status == "committed"
    assert coordinator.dirty_populations == {cohort.population_id}
    coordinator.ensure_cohorts()
    (after,) = coordinator.all_cohorts()
    assert (after.cohort_id, after.round) == (cohort.cohort_id, 3)
    assert after.global_weights is cohort.global_weights
    assert coordinator.dirty_populations == set()
    assert coordinator.migration_log == []
    # the rebuilt structure starts a fresh flag-rate window
    assert after.flag_rates == []


def test_task_submitted_after_setup_is_cohorted_at_the_next_recluster():
    coordinator, cohort = _coordinator_with_cohort()
    coordinator.register_client(make_metadata("c2"))
    coordinator.submit_task(make_task("t2", client_id="c2"))
    assert coordinator.dirty_populations == {cohort.population_id}
    coordinator.ensure_cohorts()
    assert coordinator.dirty_populations == set()
    members = {t for c in coordinator.all_cohorts() for t in c.member_task_ids}
    assert members == {"t1", "t2"}


def test_an_identical_resubmission_keeps_its_population_cohorts():
    # a socket client that reconnects registers and submits its task again;
    # the no-op must not rebuild the cohorts and empty their flag-rate windows
    run = run_simulation(builtin_scenarios()["uniform"])
    coordinator = run.coordinator
    before = {c.cohort_id: c for c in coordinator.all_cohorts()}
    windows = {cohort_id: list(c.flag_rates) for cohort_id, c in before.items()}
    assert windows and all(len(w) == RECLUSTER_WINDOW for w in windows.values())
    task = coordinator.registry.tasks[min(coordinator.registry.tasks)]
    client = run.clients[task.client_id]
    network = SimNetwork(coordinator, run.clients)
    client.register(network)
    client.submit_task(network, task)
    assert coordinator.dirty_populations == set()
    coordinator.ensure_cohorts()
    after = coordinator.all_cohorts()
    assert [c.cohort_id for c in after] == sorted(before)
    assert all(c is before[c.cohort_id] for c in after)
    assert {c.cohort_id: c.flag_rates for c in after} == windows


def test_a_resubmission_with_a_new_plan_is_refused_and_keeps_the_old_plan():
    run = run_simulation(builtin_scenarios()["uniform"])
    coordinator = run.coordinator
    task = coordinator.registry.tasks["u-01-t0"]
    plan = task.plan
    client = run.clients["u-01"]
    network = SimNetwork(coordinator, run.clients)
    client.register(network)
    changed = dataclasses.replace(task, plan_overrides={"epochs": 5, "learning_rate": 0.9})
    with pytest.raises(ProtocolError) as err:
        client.submit_task(network, changed)
    assert err.value.code == "duplicate_task"
    assert coordinator.registry.tasks["u-01-t0"] is task
    assert (task.plan, task.plan.epochs, task.plan.learning_rate) == (plan, 2, 0.3)
    assert coordinator.dirty_populations == set()
    # the identical task is still acked
    client.submit_task(network, dataclasses.replace(task, plan=None))
    assert coordinator.registry.tasks["u-01-t0"] is task


def test_recluster_resolves_planted_drift_within_two_points():
    import dataclasses

    spec = builtin_scenarios()["drift"]
    drifted_run = run_simulation(spec, mode="cohort")
    reference = run_simulation(dataclasses.replace(spec, drift_events=[]), mode="cohort")
    assert drifted_run.summary.recluster_events
    # the clients stranded by the data-rich drifter recover to the accuracy
    # they reach in a never-drifted world
    for client_id in ("d-a1", "d-a2"):
        drifted_acc = drifted_run.summary.per_client_holdout_accuracy[client_id]
        reference_acc = reference.summary.per_client_holdout_accuracy[client_id]
        assert drifted_acc >= reference_acc - 0.02


def test_unweighted_aggregation_flag_changes_outcome():
    import dataclasses

    # the drift builtin has a data-rich client, so sample weighting matters
    spec = builtin_scenarios()["drift"]
    spec = dataclasses.replace(
        spec,
        drift_events=[],
        scheduler=dataclasses.replace(spec.scheduler, rounds=3),
    )
    weighted = run_simulation(spec, mode="cohort")
    unweighted = run_simulation(
        dataclasses.replace(
            spec, scheduler=dataclasses.replace(spec.scheduler, weighted_aggregation=False)
        ),
        mode="cohort",
    )
    dw = {c: v["weights_digest"] for c, v in weighted.summary.per_cohort.items()}
    du = {c: v["weights_digest"] for c, v in unweighted.summary.per_cohort.items()}
    assert dw != du


def test_scheduler_config_validation():
    with pytest.raises(ConfigError):
        SchedulerConfig(rounds=0)
    with pytest.raises(ConfigError):
        SchedulerConfig(min_updates_quorum=0.0)
    with pytest.raises(ConfigError):
        SchedulerConfig(cohort_threshold=1.0)
    with pytest.raises(ConfigError):
        SchedulerConfig(clients_per_round=0)
    with pytest.raises(ConfigError):
        SchedulerConfig(guard_epsilon=-1.0)
    # a float or bool count would reach range() in the round loop, and a NaN
    # epsilon would pass every loss regression
    for fields in (
        {"rounds": 2.5},
        {"rounds": True},
        {"rounds": "3"},
        {"clients_per_round": 2.5},
        {"clients_per_round": True},
        {"guard_epsilon": float("nan")},
    ):
        with pytest.raises(ConfigError):
            SchedulerConfig(**fields)
    assert SchedulerConfig(cohort_threshold=0.0).cohort_threshold == 0.0  # global mode
