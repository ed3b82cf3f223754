import dataclasses
import itertools

import numpy as np
import pytest

from communityfl.client import FlClient
from communityfl.community import CollaborationCriteria, signature_from_dataset
from communityfl.errors import (
    AdmissionRefused,
    ConfigError,
    DuplicateTaskError,
    PlanError,
    UnregisteredClientError,
)
from communityfl.flcore import PLAN_FIELDS
from communityfl.orchestrator import (
    Coordinator,
    GuardVerdict,
    RoundReport,
    SchedulerConfig,
    guard_update,
)
from communityfl.runner import run_simulation
from communityfl.scenarios import builtin_scenarios
from communityfl.tinylearn import Dataset, EvalMetrics, WeightVector, evaluate
from communityfl.transport import SimNetwork

from conftest import (
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
    def build_tasks():
        sig_near = [make_task(f"t{i}", objective="alpha") for i in range(2)]
        sig_far = [make_task(f"t{i}", objective="beta") for i in range(2, 4)]
        return sig_near + sig_far

    reference = None
    for perm in itertools.permutations(range(4)):
        coordinator = _coordinator()
        coordinator.register_client(make_metadata("client-a"))
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
    network = SimNetwork(coordinator)
    channel = network.control_channel()
    for client_id, dataset in datasets.items():
        client = FlClient(client_id, dataset, make_metadata(client_id))
        network.add_client(client)
        client.register(channel)
    return network, channel


def test_single_member_round_adopts_trained_weights():
    coordinator = _coordinator()
    data = separable_dataset(n=40, gap=4.0, seed=1)
    network, channel = _wire_clients(coordinator, {"solo": data})
    task = make_task("solo-t", client_id="solo", signature=signature_from_dataset(data))
    network.clients["solo"].submit_task(channel, task)
    network.bind_task("solo-t", "solo")
    coordinator.ensure_cohorts()
    cohort = coordinator.all_cohorts()[0]
    report = coordinator.run_round(cohort, network, sched_round=1)
    assert report.status == "committed"
    update = coordinator._received[("solo-t", cohort.cohort_id, 0)]
    assert np.array_equal(cohort.global_weights.values, update.weights.values)


def test_two_identical_clients_global_beats_initial_on_pooled_data():
    coordinator = _coordinator()
    data = separable_dataset(n=60, gap=3.0, seed=8)
    network, channel = _wire_clients(coordinator, {"a": data, "b": data})
    signature = signature_from_dataset(data)
    for client_id in ("a", "b"):
        task = make_task(f"{client_id}-t", client_id=client_id, signature=signature)
        network.clients[client_id].submit_task(channel, task)
        network.bind_task(f"{client_id}-t", client_id)
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


def test_clients_per_round_subselection(rng):
    from conftest import rand_signature

    coordinator = _coordinator(clients_per_round=2, min_updates_quorum=0.5)
    data = separable_dataset(n=40, gap=4.0, seed=1)
    datasets = {f"c{i}": data for i in range(4)}
    network, channel = _wire_clients(coordinator, datasets)
    shared = rand_signature(rng)
    for client_id in datasets:
        task = make_task(f"{client_id}-t", client_id=client_id, signature=shared)
        network.clients[client_id].submit_task(channel, task)
        network.bind_task(f"{client_id}-t", client_id)
    coordinator.ensure_cohorts()
    cohort = coordinator.all_cohorts()[0]
    selections = []
    for sched_round in (1, 2, 3):
        report = coordinator.run_round(cohort, network, sched_round)
        assert len(report.selected_task_ids) == 2
        selections.append(tuple(report.selected_task_ids))
    assert len(set(selections)) > 1  # the seeded shuffle rotates participants


class _RewritingTransport:
    """Delivers each update with some of its fields overwritten."""

    def __init__(self, network, **update_fields):
        self.network = network
        self.update_fields = update_fields

    def exchange_round(self, items, sched_round):
        arrivals, transferred = self.network.exchange_round(items, sched_round)
        patched = [(t, dataclasses.replace(u, **self.update_fields)) for t, u in arrivals]
        return patched, transferred


def _single_member_cohort(coordinator, data: Dataset):
    network, channel = _wire_clients(coordinator, {"a": data})
    task = make_task("a-t", client_id="a", signature=signature_from_dataset(data))
    network.clients["a"].submit_task(channel, task)
    network.bind_task("a-t", "a")
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
    honest = coordinator.run_round(cohort, network, sched_round=2)
    update = coordinator._received[("a-t", cohort.cohort_id, 0)]
    assert honest.update_metrics == {"a-t": (update.pre_metrics, update.post_metrics)}
    assert "update_metrics" not in honest.to_doc()


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


# -- metric ingestion -------------------------------------------------------------------


def _report(cohort_id: str, round: int, sched_round: int, flag_rate_one: bool) -> RoundReport:
    verdict = "flag:loss_regression" if flag_rate_one else "accept"
    return RoundReport(
        cohort_id=cohort_id,
        round=round,
        sched_round=sched_round,
        selected_task_ids=["t1"],
        received_updates=1,
        aggregate_pre_loss=1.0,
        aggregate_post_loss=1.0,
        guard_verdicts={"t1": verdict},
        new_global_weights_hash=0,
        status="committed",
        reason=None,
        executors={},
        bytes_transferred=0,
    )


def _coordinator_with_cohort(**config_overrides):
    coordinator = _coordinator(**config_overrides)
    coordinator.register_client(make_metadata("client-a"))
    coordinator.submit_task(make_task("t1"))
    coordinator.ensure_cohorts()
    cohort = coordinator.all_cohorts()[0]
    return coordinator, cohort


def test_three_full_flag_reports_mark_cohort_for_recluster():
    coordinator, cohort = _coordinator_with_cohort()
    for sched_round in (1, 2, 3):
        cohort.round = sched_round  # simulate commits between reports
        stats = coordinator.ingest_metrics(
            _report(cohort.cohort_id, sched_round - 1, sched_round, flag_rate_one=True)
        )
    assert list(stats.flag_rates) == [1.0, 1.0, 1.0]
    assert cohort.cohort_id in coordinator.recluster_marks


def test_zero_flag_rate_never_marks():
    coordinator, cohort = _coordinator_with_cohort()
    for sched_round in (1, 2, 3, 4):
        cohort.round = sched_round
        stats = coordinator.ingest_metrics(
            _report(cohort.cohort_id, sched_round - 1, sched_round, flag_rate_one=False)
        )
    assert list(stats.flag_rates) == [0.0, 0.0, 0.0]  # the last RECLUSTER_WINDOW reports
    assert coordinator.recluster_marks == set()


def test_stale_report_ignored_with_warning():
    coordinator, cohort = _coordinator_with_cohort()
    cohort.round = 1
    coordinator.ingest_metrics(_report(cohort.cohort_id, 0, 1, flag_rate_one=False))
    stats = coordinator.ingest_metrics(_report(cohort.cohort_id, 0, 1, flag_rate_one=True))
    assert list(stats.flag_rates) == [0.0]  # second one ignored
    assert coordinator.warnings and "stale" in coordinator.warnings[0]


@pytest.mark.parametrize("threshold", [0.8, 0.0])
def test_recluster_of_a_marked_cohort_that_changes_nothing_logs_nothing(threshold):
    coordinator, cohort = _coordinator_with_cohort(cohort_threshold=threshold)
    for sched_round in (1, 2, 3):
        cohort.round = sched_round
        coordinator.ingest_metrics(
            _report(cohort.cohort_id, sched_round - 1, sched_round, flag_rate_one=True)
        )
    assert coordinator.recluster_marks == {cohort.cohort_id}
    coordinator.recluster_marked()
    (after,) = coordinator.all_cohorts()
    assert (after.cohort_id, after.round) == (cohort.cohort_id, 3)
    assert after.global_weights is cohort.global_weights
    assert coordinator.recluster_marks == set()
    assert coordinator.migration_log == []
    # the rebuilt structure starts a fresh flag-rate window
    assert list(coordinator.cohort_stats[cohort.cohort_id].flag_rates) == []


def test_task_submitted_after_setup_is_cohorted_at_the_next_recluster():
    coordinator, cohort = _coordinator_with_cohort()
    coordinator.submit_task(make_task("t2"))
    assert coordinator.dirty_populations == {cohort.population_id}
    coordinator.recluster_marked()
    assert coordinator.dirty_populations == set()
    members = {t for c in coordinator.all_cohorts() for t in c.member_task_ids}
    assert members == {"t1", "t2"}


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
    assert SchedulerConfig(cohort_threshold=0.0).cohort_threshold == 0.0  # global mode
