import dataclasses
import hashlib
import itertools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from communityfl.community import (
    CollaborationCriteria,
    DataSignature,
    MigrationReport,
    _centroid_row,
    _greedy_blocks,
    _row_signature,
    _similarities,
    _stack,
    admit,
    block_signatures,
    form_cohorts,
    recluster,
    signature_from_dataset,
    similarity,
    weighted_centroid,
)
from communityfl.errors import ConfigError, ShapeError
from communityfl.flcore import FlPopulation
from communityfl.tinylearn import Dataset, init_weights

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


def _numpy_signature_check(mean, std, hist, n_samples, quality_score):
    """The numpy-reduction checks that DataSignature made before it checked
    plain floats, kept as the oracle: the arrays it would store, or the
    ShapeError it would raise."""
    mean = np.array(mean, dtype=np.float64)
    std = np.array(std, dtype=np.float64)
    hist = np.array(hist, dtype=np.float64)
    if mean.ndim != 1 or std.ndim != 1 or mean.shape != std.shape:
        raise ShapeError("per-feature mean/std must be 1-D vectors of equal length")
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ShapeError("per-feature mean/std must be finite")
    if np.any(std < 0):
        raise ShapeError("per-feature std must be elementwise >= 0")
    if hist.ndim != 1 or hist.size < 1 or np.any(hist < 0):
        raise ShapeError("label histogram must be a non-negative 1-D vector")
    if not abs(float(hist.sum()) - 1.0) <= 1e-9:
        raise ShapeError(f"label histogram must sum to 1, got {hist.sum()!r}")
    if n_samples < 1:
        raise ShapeError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 <= quality_score <= 1.0:
        raise ShapeError(f"quality_score must be in [0,1], got {quality_score}")
    return mean, std, hist


_AWKWARD_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.5, -1e-300, 1e300, float("nan"), float("inf"), float("-inf")]
)
_SIGNATURE_FLOATS = st.one_of(st.floats(-10.0, 10.0), _AWKWARD_FLOATS)


@st.composite
def _signature_vectors(draw, size):
    """A 1-D list of ``size`` floats, or now and then an empty, scalar or
    2-D one."""
    shape = draw(st.sampled_from(["1-D"] * 6 + ["empty", "scalar", "2-D"]))
    if shape == "empty":
        return []
    if shape == "scalar":
        return draw(_SIGNATURE_FLOATS)
    if shape == "2-D":
        return [draw(st.lists(_SIGNATURE_FLOATS, min_size=size, max_size=size))] * 2
    return draw(st.lists(_SIGNATURE_FLOATS, min_size=size, max_size=size))


@st.composite
def _histograms(draw):
    """Mostly a histogram that sums to 1 up to a drawn error around the 1e-9
    tolerance; sometimes any vector at all."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_signature_vectors(draw(st.integers(0, 4))))
    counts = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
    total = sum(counts)
    hist = [c / total for c in counts] if total > 0 else [1.0] + [0.0] * (len(counts) - 1)
    i = draw(st.integers(0, len(hist) - 1))
    hist[i] += draw(st.sampled_from([0.0, 0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1.5e-9, -2e-9]))
    for j in range(len(hist)):
        if draw(st.integers(0, 4)) == 0:
            hist[j] = draw(_AWKWARD_FLOATS)
    return hist


@settings(max_examples=600, deadline=None)
@given(
    st.integers(0, 4),
    st.data(),
    _histograms(),
    st.sampled_from([1, 40, 0, -3]),
    st.sampled_from([1.0, 0.0, 0.5, 1.5, -0.1, float("nan")]),
)
def test_signature_checks_refuse_exactly_what_numpy_checks_refused(
    n_features, data, hist, n_samples, quality_score
):
    mean = data.draw(_signature_vectors(n_features))
    std_size = n_features if data.draw(st.integers(0, 5)) else n_features + 1
    std = data.draw(_signature_vectors(std_size))
    if data.draw(st.booleans()) and isinstance(std, list) and std and not isinstance(std[0], list):
        std = [abs(v) for v in std]  # mostly valid, so later checks get reached
    args = (mean, std, hist, n_samples, quality_score)
    try:
        expected = _numpy_signature_check(*args)
    except ShapeError as exc:
        with pytest.raises(ShapeError) as refused:
            DataSignature(*args)
        assert str(refused.value) == str(exc)
        return
    signature = DataSignature(*args)
    stored = (signature.per_feature_mean, signature.per_feature_std, signature.label_histogram)
    for got, want in zip(stored, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-12), st.sampled_from([0.0, 1e16])),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9]),
)
def test_histogram_sum_is_numpys_for_every_length(counts, error):
    # DataSignature folds fewer than 8 shares itself and asks numpy from 8 on;
    # its verdict and message at the 1e-9 tolerance must be numpy's either way
    total = sum(counts)
    hist = [c / total for c in counts] if total > 0 else [1.0] + [0.0] * (len(counts) - 1)
    hist[0] += error
    args = ([0.0], [1.0], hist, 1, 1.0)
    try:
        _numpy_signature_check(*args)
    except ShapeError as exc:
        with pytest.raises(ShapeError) as refused:
            DataSignature(*args)
        assert str(refused.value) == str(exc)
        return
    DataSignature(*args)


@st.composite
def _datasets(draw):
    n_samples = draw(st.integers(1, 80))
    n_features = draw(st.integers(1, 16))
    n_classes = draw(st.integers(1, 5))
    # squares of these magnitudes, summed over 80 rows, stay finite
    element = st.one_of(st.just(-0.0), st.floats(-1e150, 1e150))
    features = draw(arrays(np.float64, (n_samples, n_features), elements=element))
    labels = draw(arrays(np.int64, n_samples, elements=st.integers(0, n_classes - 1)))
    return features, labels, n_classes


@settings(max_examples=300, deadline=None)
@given(_datasets())
@example((np.array([[2.5]]), np.array([0]), 1))  # one sample, one feature
@example((np.array([[1.0, -3.0, 0.25]]), np.array([1]), 2))  # one sample
@example((np.arange(24.0).reshape(24, 1) / 7, np.arange(24) % 3, 3))  # one feature
def test_signature_moments_equal_numpy_mean_and_std(dataset):
    features, labels, n_classes = dataset
    signature = signature_from_dataset(Dataset(features, labels, n_classes))
    assert signature.per_feature_mean.tobytes() == features.mean(axis=0).tobytes()
    assert signature.per_feature_std.tobytes() == features.std(axis=0).tobytes()
    hist = np.bincount(labels, minlength=n_classes) / labels.size
    assert signature.label_histogram.tobytes() == hist.tobytes()


@st.composite
def _populations(draw):
    n_features = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 10))
    counts = draw(st.lists(st.integers(1, 100), min_size=1, max_size=6))
    element = st.one_of(st.just(-0.0), st.floats(-1e150, 1e150))
    features = draw(arrays(np.float64, (sum(counts), n_features), elements=element))
    labels = draw(arrays(np.int64, sum(counts), elements=st.integers(0, n_classes - 1)))
    return features, labels, n_classes, counts


@settings(max_examples=300, deadline=None)
@given(_populations())
@example((np.arange(30.0).reshape(30, 1) / 7, np.arange(30) % 9, 9, [1, 8, 21]))
@example((np.linspace(-5, 5, 400).reshape(100, 4), np.arange(100) % 10, 10, [37, 63]))
def test_block_signatures_equal_each_block_alone(population):
    # the population path sums each block on its rows of the population's
    # arrays and runs every other step once over all rows
    features, labels, n_classes, counts = population
    signatures = block_signatures(Dataset(features, labels, n_classes), counts)
    assert len(signatures) == len(counts)
    start = 0
    for signature, n in zip(signatures, counts):
        block = Dataset(features[start : start + n], labels[start : start + n], n_classes)
        start += n
        alone = signature_from_dataset(block)
        for field in ("per_feature_mean", "per_feature_std", "label_histogram"):
            assert getattr(signature, field).tobytes() == getattr(alone, field).tobytes()
        assert signature.n_samples == alone.n_samples == n
        assert signature.per_feature_std.tobytes() == block.features.std(axis=0).tobytes()


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


def _fancy_index_blocks(signatures, threshold):
    """The join loop that recomputed a centroid from ``rows[members]``, a fancy
    index by the block's member list, kept as the oracle of the buffered one:
    [(members, centroid)] in block order."""
    order = sorted(signatures)
    rows, weights, n_features = _stack([signatures[t] for t in order])
    if threshold == 0.0:
        centroid = _centroid_row(rows, weights, n_features)
        return [(order, _row_signature(centroid, weights.sum(), n_features))]
    centroids = np.empty_like(rows)
    block_rows = []
    for i, row in enumerate(rows):
        best = -1
        if block_rows:
            sims = _similarities(row, centroids[: len(block_rows)], n_features)
            sims = np.where(sims >= threshold, sims, -np.inf)
            best = int(sims.argmax())
            if sims[best] == -np.inf:
                best = -1
        if best < 0:
            centroids[len(block_rows)] = row
            block_rows.append([i])
        else:
            members = block_rows[best]
            members.append(i)
            centroids[best] = _centroid_row(rows[members], weights[members], n_features)
    blocks = []
    for k, members in enumerate(block_rows):
        if len(members) == 1:
            centroid = signatures[order[members[0]]]
        else:
            centroid = _row_signature(centroids[k], weights[members].sum(), n_features)
        blocks.append(([order[i] for i in members], centroid))
    return blocks


@st.composite
def _populations(draw):
    n_features = draw(st.sampled_from([1, 2, 16]))
    n_classes = draw(st.integers(1, 5))
    signatures = draw(st.lists(_signatures(n_features, n_classes), min_size=1, max_size=40))
    return {f"t{i:03d}": s for i, s in enumerate(signatures)}


@settings(max_examples=200, deadline=None)
@given(_populations(), st.one_of(st.sampled_from([0.0, 0.2, 0.5, 0.8]), st.floats(0.0, 0.99)))
def test_buffered_joins_match_fancy_indexed_joins_bytewise(signatures, threshold):
    blocks = _greedy_blocks(signatures, threshold)
    expected = _fancy_index_blocks(signatures, threshold)
    assert [block.members for block in blocks] == [members for members, _ in expected]
    for block, (_, centroid) in zip(blocks, expected):
        assert _signature_bytes(block.centroid) == _signature_bytes(centroid)


# -- cohort formation --------------------------------------------------------------


def _population_with(signatures: dict):
    return FlPopulation(
        population_id="pop-test",
        config=make_task("config-only", objective="shared").config,
        member_task_ids=set(signatures),
    )


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
