import dataclasses
import hashlib
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from communityfl.community import (
    CollaborationCriteria,
    DataSignature,
    MigrationReport,
    _centroid_row,
    admit,
    form_cohorts,
    recluster,
    similarity,
    weighted_centroid,
)
from communityfl.errors import ConfigError, ShapeError
from communityfl.flcore import FlPopulation
from communityfl.tinylearn import init_weights

from conftest import (
    fixed_signature,
    make_community,
    make_metadata,
    make_task,
    near_signature,
    rand_signature,
)


# -- admission -------------------------------------------------------------------


def test_admit_required_subset_holds():
    community = make_community(criteria=CollaborationCriteria(required_tags=frozenset({"fitness"})))
    meta = make_metadata(interests=("fitness", "running"))
    assert admit(meta, community).admitted


def test_admit_min_samples_reject_reason():
    community = make_community(criteria=CollaborationCriteria(min_samples=100))
    meta = make_metadata(n_samples=50)
    decision = admit(meta, community)
    assert not decision.admitted
    assert decision.reason == "min_samples"


def test_admit_rejects_in_rule_order():
    community = make_community(
        criteria=CollaborationCriteria(
            required_tags=frozenset({"alpha"}),
            forbidden_tags=frozenset({"beta"}),
            min_data_quality=0.9,
            min_samples=1000,
        )
    )
    # fails every rule; the first one (required_tags) is reported
    meta = make_metadata(interests=("beta",), n_samples=10, quality=0.1)
    assert admit(meta, community).reason == "required_tags"


def test_criteria_overlap_rejected():
    with pytest.raises(ConfigError):
        CollaborationCriteria(required_tags=frozenset({"x"}), forbidden_tags=frozenset({"x"}))


def naive_admit(meta, community) -> tuple[bool, str | None]:
    # independent predicate, written as four literal checks
    tags = set(meta.interests) | set(meta.expertise)
    crit = community.criteria
    for tag in crit.required_tags:
        if tag not in tags:
            return False, "required_tags"
    for tag in crit.forbidden_tags:
        if tag in tags:
            return False, "forbidden_tags"
    if meta.data_signature.quality_score < crit.min_data_quality:
        return False, "min_data_quality"
    if meta.data_signature.n_samples < crit.min_samples:
        return False, "min_samples"
    return True, None


def test_admit_matches_oracle_on_random_pairs(rng):
    vocab = ["a", "b", "c", "d", "e"]
    for _ in range(1000):
        req = frozenset(rng.choice(vocab, size=rng.integers(0, 3), replace=False))
        forb = frozenset(
            t for t in rng.choice(vocab, size=rng.integers(0, 3), replace=False) if t not in req
        )
        community = make_community(
            criteria=CollaborationCriteria(
                required_tags=req,
                forbidden_tags=forb,
                min_data_quality=float(rng.random()),
                min_samples=int(rng.integers(0, 300)),
            )
        )
        meta = make_metadata(
            participant_id=f"p{rng.integers(1e6)}",
            interests=tuple(rng.choice(vocab, size=rng.integers(0, 4), replace=False)),
            expertise=tuple(rng.choice(vocab, size=rng.integers(0, 3), replace=False)),
            n_samples=int(rng.integers(1, 400)),
            quality=float(rng.random()),
        )
        decision = admit(meta, community)
        expected_ok, expected_reason = naive_admit(meta, community)
        assert decision.admitted == expected_ok
        assert decision.reason == expected_reason


# -- similarity -------------------------------------------------------------------


def test_similarity_identity_is_one():
    sig = fixed_signature([0.0, 1.0], [1.0, 2.0], [0.5, 0.5])
    assert similarity(sig, sig) == 1.0


def test_similarity_disjoint_histograms_half():
    a = fixed_signature([0.0, 0.0], [1.0, 1.0], [1.0, 0.0])
    b = fixed_signature([0.0, 0.0], [1.0, 1.0], [0.0, 1.0])
    assert similarity(a, b) == pytest.approx(0.5)


def test_similarity_symmetric_and_bounded(rng):
    for _ in range(1000):
        a = rand_signature(rng, n_features=int(rng.integers(1, 4)))
        b = rand_signature(rng, n_features=a.per_feature_mean.size)
        s_ab = similarity(a, b)
        s_ba = similarity(b, a)
        assert s_ab == s_ba
        assert 0.0 <= s_ab <= 1.0


def test_similarity_shape_mismatch():
    a = fixed_signature([0.0], [1.0], [0.5, 0.5])
    b = fixed_signature([0.0, 0.0], [1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ShapeError):
        similarity(a, b)
    c = fixed_signature([0.0], [1.0], [0.3, 0.3, 0.4])
    with pytest.raises(ShapeError):
        similarity(a, c)


@pytest.mark.parametrize("field", ["mean", "std", "hist"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_signature_refuses_non_finite_moments(field, bad):
    # NaN passes the range checks and would make similarity NaN
    parts = {"mean": [0.0, 1.0], "std": [0.5, 1.0], "hist": [0.5, 0.5]}
    parts[field] = [bad, parts[field][1]]
    with pytest.raises(ShapeError):
        fixed_signature(parts["mean"], parts["std"], parts["hist"])


# -- bit-exact cohort formation -----------------------------------------------------
#
# The reference functions below are the Python-order implementation that cohort
# formation had before it worked on stacked arrays. They are oracles only: the
# array version must reproduce their results bit for bit, because cohort
# membership and centroids feed every later digest.


def _reference_similarity(a, b) -> float:
    def squash(x):
        return x / (1.0 + x)

    gaps = np.concatenate(
        [
            squash(np.abs(a.per_feature_mean - b.per_feature_mean)),
            squash(np.abs(a.per_feature_std - b.per_feature_std)),
        ]
    )
    d_feat = float(gaps.mean())
    d_lab = 0.5 * float(np.abs(a.label_histogram - b.label_histogram).sum())
    return 1.0 - (0.5 * d_feat + 0.5 * d_lab)


def _reference_centroid(signatures):
    weights = np.array([s.n_samples for s in signatures], dtype=np.float64)
    alphas = weights / weights.sum()
    mean = sum(a * s.per_feature_mean for a, s in zip(alphas, signatures))
    std = sum(a * s.per_feature_std for a, s in zip(alphas, signatures))
    hist = sum(a * s.label_histogram for a, s in zip(alphas, signatures))
    hist = np.maximum(hist, 0.0)
    hist = hist / hist.sum()
    quality = float(sum(a * s.quality_score for a, s in zip(alphas, signatures)))
    return DataSignature(
        per_feature_mean=mean,
        per_feature_std=std,
        label_histogram=hist,
        n_samples=int(weights.sum()),
        quality_score=min(1.0, quality),
    )


def _reference_blocks(signatures, threshold):
    """Returns [(members, centroid)] and the number of joins that had to break
    a tie between equally similar blocks."""
    blocks, ties = [], 0
    for task_id in sorted(signatures):
        sig = signatures[task_id]
        sims = [_reference_similarity(sig, centroid) for _, _, centroid in blocks]
        best_index, best_sim = -1, -1.0
        for index, sim in enumerate(sims):
            if sim >= threshold and sim > best_sim:
                best_sim, best_index = sim, index
        if best_index < 0:
            blocks.append(([task_id], [sig], sig))
        else:
            ties += sims.count(best_sim) > 1
            members, member_sigs, _ = blocks[best_index]
            members.append(task_id)
            member_sigs.append(sig)
            blocks[best_index] = (members, member_sigs, _reference_centroid(member_sigs))
    return [(members, centroid) for members, _, centroid in blocks], ties


def _signature_bytes(sig) -> bytes:
    return b"".join(
        [
            sig.per_feature_mean.tobytes(),
            sig.per_feature_std.tobytes(),
            sig.label_histogram.tobytes(),
            struct.pack("<d", sig.quality_score),
            struct.pack("<q", sig.n_samples),
        ]
    )


def _population_of(signatures: dict) -> FlPopulation:
    return FlPopulation(
        population_id="pop-test",
        config=make_task("config-only").config,
        member_task_ids=set(signatures),
    )


_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
# -0.0 is drawn often: a sum of signed zeros is where a start value of 0 matters
_moment = st.one_of(st.just(-0.0), st.just(0.0), _finite)


@st.composite
def _signatures(draw, n_features, n_classes):
    vector = arrays(np.float64, n_features, elements=_moment)
    hist = draw(arrays(np.float64, n_classes, elements=st.floats(0.0, 1.0)))
    hist = hist / hist.sum() if hist.sum() > 0 else np.full(n_classes, 1.0 / n_classes)
    # -0.0 passes the non-negativity checks of std and histogram
    std = draw(vector)
    return DataSignature(
        per_feature_mean=draw(vector),
        per_feature_std=np.where(std == 0.0, std, np.abs(std)),
        label_histogram=np.where(hist == 0.0, draw(st.sampled_from([0.0, -0.0])), hist),
        n_samples=draw(st.integers(1, 10**6)),
        quality_score=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def _member_lists(draw):
    n_features = draw(st.sampled_from([1, 16]))
    n_classes = draw(st.integers(1, 5))
    return draw(st.lists(_signatures(n_features, n_classes), min_size=1, max_size=12))


@settings(max_examples=100, deadline=None)
@given(_member_lists())
def test_centroid_equals_python_order_sum_bytewise(members):
    assert _signature_bytes(weighted_centroid(members)) == _signature_bytes(
        _reference_centroid(members)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 10**6), st.floats(0.0, 1.0)), min_size=1, max_size=40
    )
)
def test_centroid_kernel_sums_one_column_in_member_order(members):
    # numpy sums a one-column array along axis 0 pairwise (from 8 rows on), so
    # the kernel must not rely on the stacked rows being wider than that
    weights = np.array([n for n, _ in members], dtype=np.float64)
    alphas = weights / weights.sum()
    expected = min(1.0, float(sum(a * q for a, (_, q) in zip(alphas, members))))
    quality = np.array([[q] for _, q in members])
    row = _centroid_row(quality, weights, n_features=0)
    assert struct.pack("<d", row[0]) == struct.pack("<d", expected)


@st.composite
def _signature_pairs(draw):
    n_features = draw(st.sampled_from([1, 2, 3, 16]))
    n_classes = draw(st.integers(1, 12))  # 8 and more sum pairwise
    return draw(_signatures(n_features, n_classes)), draw(_signatures(n_features, n_classes))


@settings(max_examples=100, deadline=None)
@given(_signature_pairs())
def test_similarity_equals_reference_bitwise(pair):
    a, b = pair
    assert struct.pack("<d", similarity(a, b)) == struct.pack("<d", _reference_similarity(a, b))


def _grid_signature(rng, n_features, n_classes) -> DataSignature:
    # few distinct values, so that many scores coincide
    hist = rng.choice([0.0, 1.0, 2.0], n_classes) + (rng.random() < 0.5)
    if hist.sum() == 0:
        hist[0] = 1.0
    return DataSignature(
        per_feature_mean=rng.choice([-1.0, 0.0, 1.0, 2.0], n_features),
        per_feature_std=rng.choice([0.5, 1.0], n_features),
        label_histogram=hist / hist.sum(),
        n_samples=int(rng.choice([10, 30, 60])),
        quality_score=float(rng.choice([0.25, 0.5, 1.0])),
    )


def test_form_cohorts_matches_python_order_oracle_with_ties():
    rng = np.random.default_rng(7)
    ties = 0
    for _ in range(40):
        n_features = int(rng.choice([1, 2, 16]))
        n_classes = int(rng.integers(1, 5))
        base = _grid_signature(rng, n_features, n_classes)
        shift = rng.choice([0.5, 1.0, 2.0], n_features)

        def at(mean):
            return dataclasses.replace(base, per_feature_mean=mean)

        # blocks at -shift and +shift are mirror images, so a task at 0 scores
        # exactly alike against both; the threshold is that score
        copies = int(rng.choice([1, 2, 4]))
        signatures = {f"a{i}": at(-shift) for i in range(copies)}
        signatures.update({f"b{i}": at(shift) for i in range(copies)})
        signatures.update({f"c{i}": at(0.0 * shift) for i in range(int(rng.integers(1, 4)))})
        threshold = _reference_similarity(
            at(0.0 * shift), _reference_centroid([at(shift)] * copies)
        )
        signatures.update(
            {
                f"t{i:03d}": _grid_signature(rng, n_features, n_classes)
                for i in range(int(rng.integers(0, 80)))
            }
        )
        expected, trial_ties = _reference_blocks(signatures, threshold)
        ties += trial_ties
        cohorts = form_cohorts(_population_of(signatures), signatures, threshold, seed=0)
        assert len(cohorts) == len(expected)
        for cohort, (members, centroid) in zip(cohorts, expected):
            assert sorted(cohort.member_task_ids) == members
            assert _signature_bytes(cohort.centroid) == _signature_bytes(centroid)
    assert ties >= 40  # every population made at least one join break a tie


def _crowd_signatures(n_tasks: int = 1600, seed: int = 2023) -> dict[str, DataSignature]:
    """Two planted clusters of small devices (60-80 samples, 2 features,
    2 classes, labels flipped in the shifted cluster), as in crowd-cohort."""
    rng = np.random.default_rng(seed)
    centers = np.array([[-2.0, 0.0], [2.0, 0.0]])
    signatures = {}
    for i in range(n_tasks):
        cluster = int(rng.integers(2))
        n = int(rng.integers(60, 81))
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        features = centers[labels] + rng.normal(0.0, 1.0, (n, 2)) + 5.0 * cluster
        if cluster:
            labels = 1 - labels
        signatures[f"dev-{i:04d}-t0"] = DataSignature(
            per_feature_mean=features.mean(axis=0),
            per_feature_std=features.std(axis=0),
            label_histogram=np.bincount(labels, minlength=2) / n,
            n_samples=n,
            quality_score=float(rng.uniform(0.5, 1.0)),
        )
    return signatures


def test_crowd_population_cohorts_match_golden_digest():
    # pinned on the Python-order implementation; any change to membership or to
    # one bit of a centroid changes the digest
    signatures = _crowd_signatures()
    cohorts = form_cohorts(_population_of(signatures), signatures, threshold=0.88, seed=0)
    digest = hashlib.sha256()
    for cohort in cohorts:
        s = cohort.centroid
        digest.update(cohort.cohort_id.encode())
        digest.update(",".join(sorted(cohort.member_task_ids)).encode())
        for array in (s.per_feature_mean, s.per_feature_std, s.label_histogram):
            digest.update(array.tobytes())
        digest.update(np.float64(s.quality_score).tobytes())
        digest.update(str(s.n_samples).encode())
    assert len(cohorts) == 16
    assert digest.hexdigest() == (
        "d05f90da4b950378059b34aeb570b169c5f755039f67ddea9c95cd70a5cb02a1"
    )


# -- cohort formation --------------------------------------------------------------


def _population_with(signatures: dict):
    tasks = {tid: make_task(tid, signature=sig, objective="shared") for tid, sig in signatures.items()}
    population = FlPopulation(
        population_id="pop-test",
        config=next(iter(tasks.values())).config,
        member_task_ids=set(signatures),
    )
    return population


def two_cluster_signatures(rng, n_per=2, gap=6.0):
    base_a = fixed_signature([0.0, 0.0], [1.0, 1.0], [0.5, 0.5], n_samples=200)
    base_b = fixed_signature([gap, gap], [1.0, 1.0], [0.5, 0.5], n_samples=200)
    sigs = {}
    for i in range(n_per):
        sigs[f"M2.1{chr(97 + i)}"] = near_signature(base_a, rng)
        sigs[f"M2.2{chr(97 + i)}"] = near_signature(base_b, rng)
    return sigs


def test_form_cohorts_two_planted_clusters(rng):
    signatures = two_cluster_signatures(rng)
    population = _population_with(signatures)
    cohorts = form_cohorts(population, signatures, threshold=0.8, seed=1)
    assert len(cohorts) == 2
    members = {c.cohort_id: sorted(c.member_task_ids) for c in cohorts}
    # ascending task ids: the M2.1 group opens the first cohort, so the
    # M2.2 tasks end up together in the second one
    assert members["pop-test-c000"] == ["M2.1a", "M2.1b"]
    assert members["pop-test-c001"] == ["M2.2a", "M2.2b"]


def test_identical_signatures_single_cohort_any_threshold():
    sig = fixed_signature([1.0, 2.0], [1.0, 1.0], [0.4, 0.6], n_samples=50)
    signatures = {f"t{i}": sig for i in range(5)}
    population = _population_with(signatures)
    for tau in (0.05, 0.5, 0.9, 0.999):
        cohorts = form_cohorts(population, signatures, threshold=tau, seed=0)
        assert len(cohorts) == 1
        assert cohorts[0].member_task_ids == set(signatures)


def test_threshold_validation():
    signatures = {"t0": fixed_signature([0.0], [1.0], [0.5, 0.5])}
    population = _population_with(signatures)
    for tau in (1.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            form_cohorts(population, signatures, threshold=tau, seed=0)


def test_threshold_zero_forms_one_cohort_with_the_population_centroid():
    # the global-model baseline: every task in one cohort, whose centroid is
    # the weighted centroid of all signatures in task-id order, to the bit
    signatures = _crowd_signatures()
    cohorts = form_cohorts(_population_of(signatures), signatures, threshold=0.0, seed=0)
    assert len(cohorts) == 1
    assert cohorts[0].member_task_ids == set(signatures)
    expected = weighted_centroid([signatures[t] for t in sorted(signatures)])
    assert _signature_bytes(cohorts[0].centroid) == _signature_bytes(expected)


def test_low_threshold_one_cohort_high_threshold_singletons(rng):
    signatures = {f"t{i}": rand_signature(rng) for i in range(6)}
    population = _population_with(signatures)
    low = form_cohorts(population, signatures, threshold=0.01, seed=0)
    assert len(low) == 1
    pairwise = [
        similarity(a, b) for a, b in itertools.combinations(signatures.values(), 2)
    ]
    assert max(pairwise) < 0.999  # all-distinct precondition for the singleton case
    high = form_cohorts(population, signatures, threshold=0.999, seed=0)
    assert len(high) == len(signatures)


def test_form_cohorts_deterministic_and_insertion_order_invariant(rng):
    signatures = two_cluster_signatures(rng, n_per=3)
    population = _population_with(signatures)
    baseline = form_cohorts(population, signatures, threshold=0.8, seed=5)
    shuffled = dict(reversed(list(signatures.items())))
    again = form_cohorts(population, shuffled, threshold=0.8, seed=5)
    assert [sorted(c.member_task_ids) for c in baseline] == [
        sorted(c.member_task_ids) for c in again
    ]
    assert [c.cohort_id for c in baseline] == [c.cohort_id for c in again]
    for a, b in zip(baseline, again):
        assert np.array_equal(a.global_weights.values, b.global_weights.values)


def test_cohort_seed_controls_initial_weights(rng):
    signatures = {"t0": rand_signature(rng)}
    population = _population_with(signatures)
    a = form_cohorts(population, signatures, threshold=0.5, seed=1)[0]
    b = form_cohorts(population, signatures, threshold=0.5, seed=2)[0]
    assert np.any(a.global_weights.values != b.global_weights.values)
    expected = init_weights(population.config.model_arch, 1)
    assert np.array_equal(a.global_weights.values, expected.values)


def test_centroid_is_sample_weighted(rng):
    heavy = fixed_signature([0.0, 0.0], [1.0, 1.0], [0.5, 0.5], n_samples=300)
    light = fixed_signature([1.0, 1.0], [1.0, 1.0], [0.5, 0.5], n_samples=100)
    population = _population_with({"a": heavy, "b": light})
    cohorts = form_cohorts(population, {"a": heavy, "b": light}, threshold=0.2, seed=0)
    assert len(cohorts) == 1
    np.testing.assert_allclose(cohorts[0].centroid.per_feature_mean, [0.25, 0.25])
    assert cohorts[0].centroid.n_samples == 400


# -- planted-partition oracle ----------------------------------------------------


def all_partitions(items):
    """Enumerate every set partition of the given items."""
    items = list(items)
    if not items:
        yield []
        return
    head, *rest = items
    for partition in all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [head]] + partition[i + 1 :]
        yield [[head]] + partition


def min_intra_similarity(partition, signatures) -> float:
    worst = 1.0
    for block in partition:
        for a, b in itertools.combinations(block, 2):
            worst = min(worst, similarity(signatures[a], signatures[b]))
    return worst


def test_planted_two_clusters_match_exhaustive_oracle(rng):
    signatures = two_cluster_signatures(rng, n_per=3, gap=6.0)
    tau = 0.8
    pairwise = {
        (a, b): similarity(signatures[a], signatures[b])
        for a, b in itertools.combinations(sorted(signatures), 2)
    }
    intra = [v for (a, b), v in pairwise.items() if a[:4] == b[:4]]
    inter = [v for (a, b), v in pairwise.items() if a[:4] != b[:4]]
    assert min(intra) > tau > max(inter)  # planted margin

    partitions = list(all_partitions(sorted(signatures)))
    assert len(partitions) == 203  # Bell number for six tasks

    # oracle: among partitions whose every within-block pair clears the
    # threshold, the planted margin makes the two-block split the unique
    # coarsest (fewest-block) optimum of min intra-cohort similarity
    valid = [p for p in partitions if min_intra_similarity(p, signatures) >= tau]
    fewest = min(len(p) for p in valid)
    coarsest = [p for p in valid if len(p) == fewest]
    assert len(coarsest) == 1
    oracle = {frozenset(block) for block in coarsest[0]}
    planted = {
        frozenset({"M2.1a", "M2.1b", "M2.1c"}),
        frozenset({"M2.2a", "M2.2b", "M2.2c"}),
    }
    assert oracle == planted

    population = _population_with(signatures)
    cohorts = form_cohorts(population, signatures, threshold=tau, seed=0)
    recovered = {frozenset(c.member_task_ids) for c in cohorts}
    assert recovered == planted


# -- reclustering ------------------------------------------------------------------


def test_recluster_no_change_zero_migrations(rng):
    signatures = two_cluster_signatures(rng)
    population = _population_with(signatures)
    population.cohorts = form_cohorts(population, signatures, threshold=0.8, seed=3)
    old_ids = [c.cohort_id for c in population.cohorts]
    old_weights = [c.global_weights.values.copy() for c in population.cohorts]
    cohorts, report = recluster(population, signatures, threshold=0.8, seed=3)
    assert report.migrated == {}
    assert report.new_cohort_ids == []
    assert report.removed_cohort_ids == []
    assert [c.cohort_id for c in cohorts] == old_ids
    for cohort, weights in zip(cohorts, old_weights):
        assert np.array_equal(cohort.global_weights.values, weights)


def test_recluster_at_threshold_zero_keeps_the_one_cohort(rng):
    signatures = two_cluster_signatures(rng)
    population = _population_with(signatures)
    population.cohorts = form_cohorts(population, signatures, threshold=0.0, seed=3)
    (old,) = population.cohorts
    old.round = 4
    drifted = dict(signatures)
    drifted["M2.2a"] = near_signature(signatures["M2.1a"], rng)
    (cohort,), report = recluster(population, drifted, threshold=0.0, seed=3)
    assert report == MigrationReport()
    assert (cohort.cohort_id, cohort.round) == (old.cohort_id, 4)
    assert cohort.global_weights is old.global_weights
    assert cohort.member_task_ids == set(signatures)


def test_recluster_flipped_histogram_migrates_exactly_that_task(rng):
    signatures = two_cluster_signatures(rng)
    population = _population_with(signatures)
    population.cohorts = form_cohorts(population, signatures, threshold=0.8, seed=3)
    # M2.2a's distribution now looks like the M2.1 cluster
    drifted = dict(signatures)
    drifted["M2.2a"] = near_signature(signatures["M2.1a"], rng)
    cohorts, report = recluster(population, drifted, threshold=0.8, seed=3)
    assert set(report.migrated) == {"M2.2a"}
    old_home, new_home = report.migrated["M2.2a"]
    assert old_home == "pop-test-c001"
    assert new_home == "pop-test-c000"
    assert set(report.migrated) <= population.member_task_ids
    by_id = {c.cohort_id: c for c in cohorts}
    assert by_id["pop-test-c000"].member_task_ids == {"M2.1a", "M2.1b", "M2.2a"}
    assert by_id["pop-test-c001"].member_task_ids == {"M2.2b"}


def test_recluster_migrated_task_adopts_new_cohort_model(rng):
    signatures = two_cluster_signatures(rng)
    population = _population_with(signatures)
    population.cohorts = form_cohorts(population, signatures, threshold=0.8, seed=3)
    marker = {
        c.cohort_id: np.full_like(c.global_weights.values, i + 1.0)
        for i, c in enumerate(population.cohorts)
    }
    for cohort in population.cohorts:
        cohort.global_weights = type(cohort.global_weights)(
            values=marker[cohort.cohort_id], arch_id=cohort.global_weights.arch_id
        )
        cohort.round = 4
    drifted = dict(signatures)
    drifted["M2.2a"] = near_signature(signatures["M2.1a"], rng)
    cohorts, _report = recluster(population, drifted, threshold=0.8, seed=3)
    by_id = {c.cohort_id: c for c in cohorts}
    # inherited cohorts keep their model and round counter
    assert np.array_equal(by_id["pop-test-c000"].global_weights.values, marker["pop-test-c000"])
    assert by_id["pop-test-c000"].round == 4


def test_recluster_brand_new_cohort_initialized_from_seed(rng):
    sig_a = fixed_signature([0.0, 0.0], [1.0, 1.0], [0.5, 0.5], n_samples=100)
    population = _population_with({"a1": sig_a, "a2": near_signature(sig_a, rng)})
    signatures = {"a1": sig_a, "a2": near_signature(sig_a, rng)}
    population.cohorts = form_cohorts(population, signatures, threshold=0.8, seed=9)
    assert len(population.cohorts) == 1
    # a2 drifts far away: it must open a brand-new cohort seeded from scratch
    drifted = dict(signatures)
    drifted["a2"] = fixed_signature([9.0, 9.0], [1.0, 1.0], [0.5, 0.5], n_samples=100)
    cohorts, report = recluster(population, drifted, threshold=0.8, seed=9)
    assert len(cohorts) == 2
    assert len(report.new_cohort_ids) == 1
    fresh = next(c for c in cohorts if c.cohort_id in report.new_cohort_ids)
    assert fresh.round == 0
    expected = init_weights(population.config.model_arch, 9)
    assert np.array_equal(fresh.global_weights.values, expected.values)


def test_recluster_never_reissues_a_removed_cohort_id():
    far_a = fixed_signature([0.0, 0.0], [1.0, 1.0], [0.5, 0.5], n_samples=200)
    far_b = fixed_signature([9.0, 9.0], [1.0, 1.0], [0.5, 0.5], n_samples=200)
    far_c = fixed_signature([-9.0, -9.0], [1.0, 1.0], [0.5, 0.5], n_samples=50)
    signatures = {"a": far_a, "b": far_b, "c": far_c}
    population = _population_with(signatures)
    population.cohorts = form_cohorts(population, signatures, threshold=0.8, seed=4)
    assert [c.cohort_id for c in population.cohorts] == [
        "pop-test-c000",
        "pop-test-c001",
        "pop-test-c002",
    ]
    # c joins a's cohort, so c002 is removed
    population.cohorts, report = recluster(
        population, {**signatures, "c": far_a}, threshold=0.8, seed=4
    )
    assert report.removed_cohort_ids == ["pop-test-c002"]
    # c drifts back: it opens a brand-new cohort, which must not be c002 again
    population.cohorts, report = recluster(population, signatures, threshold=0.8, seed=4)
    assert report.new_cohort_ids == ["pop-test-c003"]
    assert {c.cohort_id for c in population.cohorts} == {
        "pop-test-c000",
        "pop-test-c001",
        "pop-test-c003",
    }
