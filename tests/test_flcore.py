import itertools
import math

import numpy as np
import pytest

from communityfl.errors import DuplicateTaskError, EmptyAggregationError, PlanError, ShapeError
from communityfl.flcore import (
    FlCohort,
    PopulationRegistry,
    aggregate,
    merge_plan,
    single_member_aggregate,
)

from conftest import default_plan, make_task, make_update


def naive_weighted_mean(updates):
    """Independent oracle: plain big-sum weighted mean, coordinate by coordinate."""
    total = sum(u.n_samples for u in updates)
    dim = updates[0].weights.values.size
    out = []
    for j in range(dim):
        out.append(math.fsum(u.n_samples * float(u.weights.values[j]) for u in updates) / total)
    return np.array(out)


# -- aggregate ----------------------------------------------------------------


def test_aggregate_symmetric_pair():
    updates = [
        make_update("a", [0.0, 0.0], n_samples=10),
        make_update("b", [2.0, 2.0], n_samples=10),
    ]
    result = aggregate(updates)
    assert np.array_equal(result.values[:2], [1.0, 1.0])


def test_aggregate_weighted_pair():
    updates = [
        make_update("a", [1.0], n_samples=1),
        make_update("b", [4.0], n_samples=3),
    ]
    assert aggregate(updates).values[0] == 3.25


def test_aggregate_matches_naive_oracle_seven_updates(rng):
    updates = [
        make_update(f"t{i}", rng.normal(0, 2, 6), n_samples=int(rng.integers(1, 400)))
        for i in range(7)
    ]
    expected = naive_weighted_mean(updates)
    result = aggregate(updates)
    assert np.max(np.abs(result.values - expected)) < 1e-12


def test_aggregate_oracle_hundred_random_sets(rng):
    for _ in range(100):
        k = int(rng.integers(1, 11))
        updates = [
            make_update(f"t{i:02d}", rng.normal(0, 3, 6), n_samples=int(rng.integers(1, 1000)))
            for i in range(k)
        ]
        expected = naive_weighted_mean(updates)
        result = aggregate(updates)
        assert np.max(np.abs(result.values - expected)) < 1e-12


def test_single_member_identity_bit_exact():
    update = make_update("solo", [0.3, -0.7], n_samples=5)
    result = single_member_aggregate(update)
    assert np.array_equal(result.values, update.weights.values)


def test_single_member_identity_property(rng):
    for i in range(100):
        update = make_update(
            f"t{i}", rng.normal(0, 5, 6), n_samples=int(rng.integers(1, 10_000))
        )
        assert np.array_equal(single_member_aggregate(update).values, update.weights.values)


def test_aggregate_empty_rejected():
    with pytest.raises(EmptyAggregationError):
        aggregate([])


def test_aggregate_shape_mismatch_rejected(rng):
    from communityfl.tinylearn import make_arch

    a = make_update("a", [1.0, 2.0], arch=make_arch(2, 2))
    b = make_update("b", [1.0], arch=make_arch(1, 2))
    with pytest.raises(ShapeError):
        aggregate([a, b])


def test_aggregate_cross_cohort_rejected():
    a = make_update("a", [1.0], cohort_id="pop-x-c000")
    b = make_update("b", [2.0], cohort_id="pop-x-c001")
    with pytest.raises(ShapeError):
        aggregate([a, b])


def test_aggregate_nonfinite_rejected():
    from communityfl.tinylearn import WeightVector

    bad = make_update("a", [1.0, 1.0])
    object.__setattr__(
        bad,
        "weights",
        WeightVector(values=[np.nan] * 6, arch_id="logreg:2x2", check_finite=False),
    )
    with pytest.raises(ShapeError):
        aggregate([bad])


def test_aggregate_permutation_bit_exact(rng):
    updates = [
        make_update(f"t{i}", rng.normal(0, 1, 6), n_samples=int(rng.integers(1, 50)))
        for i in range(5)
    ]
    baseline = aggregate(updates)
    for perm in itertools.permutations(updates):
        assert np.array_equal(aggregate(list(perm)).values, baseline.values)


def test_aggregate_all_equal_vectors_exact(rng):
    values = rng.normal(0, 1, 6)
    updates = [
        make_update(f"t{i}", values, n_samples=int(rng.integers(1, 100))) for i in range(4)
    ]
    assert np.array_equal(aggregate(updates).values, updates[0].weights.values)


def test_aggregate_sample_scaling_invariance(rng):
    updates = [
        make_update(f"t{i}", rng.normal(0, 1, 6), n_samples=int(rng.integers(1, 60)))
        for i in range(4)
    ]
    scaled = [
        make_update(u.task_id, u.weights.values, n_samples=u.n_samples * 7) for u in updates
    ]
    assert np.array_equal(aggregate(updates).values, aggregate(scaled).values)


def test_aggregate_unweighted_flag(rng):
    updates = [
        make_update("a", [0.0, 0.0], n_samples=1),
        make_update("b", [2.0, 2.0], n_samples=999),
    ]
    unweighted = aggregate(updates, weighted=False)
    assert np.array_equal(unweighted.values[:2], [1.0, 1.0])
    weighted = aggregate(updates)
    assert weighted.values[0] > 1.9


# -- populations -----------------------------------------------------------------


def test_same_config_tasks_share_population():
    registry = PopulationRegistry()
    m21 = make_task("M2.1", client_id="watch-01", objective="heartrate-anomaly", community_id="C2")
    m22 = make_task("M2.2", client_id="watch-02", objective="heartrate-anomaly", community_id="C2")
    pop_a = registry.assign_population(m21)
    pop_b = registry.assign_population(m22)
    assert pop_a == pop_b
    assert registry.populations[pop_a].member_task_ids == {"M2.1", "M2.2"}


def test_differing_objective_splits_populations():
    registry = PopulationRegistry()
    a = registry.assign_population(make_task("t1", objective="steps"))
    b = registry.assign_population(make_task("t2", objective="sleep"))
    assert a != b
    assert len(registry.populations) == 2


def test_population_membership_is_order_invariant_exhaustive():
    # five tasks over three signatures, all 120 submission orders
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
        for index in perm:
            registry.assign_population(tasks[index])
        snapshot = {
            pid: frozenset(p.member_task_ids) for pid, p in registry.populations.items()
        }
        assert len(snapshot) == 3
        if reference is None:
            reference = snapshot
        assert snapshot == reference


def test_duplicate_task_id_conflict():
    registry = PopulationRegistry()
    registry.assign_population(make_task("t1", objective="alpha"))
    with pytest.raises(DuplicateTaskError):
        registry.assign_population(make_task("t1", objective="beta"))


def test_resubmitting_identical_task_is_idempotent():
    registry = PopulationRegistry()
    task = make_task("t1", objective="alpha")
    first = registry.assign_population(task)
    again = registry.assign_population(make_task("t1", objective="alpha"))
    assert first == again
    assert len(registry.populations[first].member_task_ids) == 1


@pytest.mark.parametrize(
    "changed",
    [
        {"community_id": "C2"},
        {"overrides": {"epochs": 5, "learning_rate": 0.9}},
        {"client_id": "client-b"},
        {"objective": "beta"},
    ],
)
def test_resubmission_that_changes_the_task_is_a_conflict(changed):
    # the registry would keep the first task and silently drop the change
    registry = PopulationRegistry()
    task = make_task("t1", objective="alpha", overrides={"epochs": 2})
    registry.assign_population(task)
    with pytest.raises(DuplicateTaskError):
        registry.assign_population(
            make_task("t1", **{"objective": "alpha", "overrides": {"epochs": 2}, **changed})
        )
    assert registry.tasks["t1"] is task


def test_sorted_members_follow_the_member_set():
    cohort = FlCohort("c", "pop", {"t2", "t1"}, centroid=None, global_weights=None)
    first = cohort.sorted_members()
    assert first == ("t1", "t2")
    assert cohort.sorted_members() is first  # an unchanged set is not sorted again
    cohort.member_task_ids.add("t0")  # in place
    assert cohort.sorted_members() == ("t0", "t1", "t2")
    cohort.member_task_ids = {"t3"}  # replaced
    assert cohort.sorted_members() == ("t3",)
    cohort.member_task_ids.clear()
    assert cohort.sorted_members() == ()


def test_population_partition_on_random_fifty_tasks(rng):
    objectives = [f"obj-{i}" for i in range(5)]
    tasks = [
        make_task(f"task-{i:02d}", objective=objectives[int(rng.integers(0, 5))])
        for i in range(50)
    ]
    order = rng.permutation(50)
    registry = PopulationRegistry()
    for i in order:
        registry.assign_population(tasks[i])
    # every task in exactly one population
    seen: dict[str, str] = {}
    for pid, population in registry.populations.items():
        assert population.config.population_id() == pid
        for tid in population.member_task_ids:
            assert tid not in seen
            seen[tid] = pid
    assert len(seen) == 50
    # pairwise-distinct config signatures
    keys = [p.config.key() for p in registry.populations.values()]
    assert len(keys) == len(set(keys))


# -- plans -----------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(PlanError):
        default_plan(epochs=0)
    with pytest.raises(PlanError):
        default_plan(eval_holdout_fraction=1.0)
    with pytest.raises(PlanError):
        default_plan(learning_rate=-0.1)


def test_merge_plan_overrides():
    base = default_plan()
    merged = merge_plan(base, {"learning_rate": 0.05})
    assert merged.learning_rate == 0.05
    assert merged.epochs == base.epochs
    with pytest.raises(PlanError):
        merge_plan(base, {"warmup": 5})


def test_merge_plan_no_overrides_is_identity():
    base = default_plan()
    assert merge_plan(base, {}) == base
