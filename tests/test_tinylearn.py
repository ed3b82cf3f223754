import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from communityfl.errors import ConfigError, ShapeError
from communityfl.tinylearn import (
    Dataset,
    HyperParams,
    WeightVector,
    arch_from_id,
    evaluate,
    grouped_hits,
    init_weights,
    loss_and_gradient,
    make_arch,
    train_local,
)

from conftest import separable_dataset


def test_init_weights_deterministic_for_same_seed():
    arch = make_arch(2, 2)
    a = init_weights(arch, 7)
    b = init_weights(arch, 7)
    assert np.array_equal(a.values, b.values)


def test_param_count_logreg_3x2():
    arch = make_arch(3, 2)
    assert arch.param_count == 8  # 3*2 weights + 2 biases
    assert init_weights(arch, 0).values.size == 8


def test_param_count_mlp():
    arch = make_arch(3, 2, hidden_units=4)
    assert arch.param_count == 3 * 4 + 4 + 4 * 2 + 2


def test_init_weights_seeds_differ():
    arch = make_arch(4, 3)
    a = init_weights(arch, 1)
    b = init_weights(arch, 2)
    assert np.any(a.values != b.values)


def test_init_weights_biases_zero_and_weights_bounded():
    arch = make_arch(3, 2, hidden_units=5)
    w = init_weights(arch, 99)
    w1_end = 3 * 5
    b1_end = w1_end + 5
    w2_end = b1_end + 5 * 2
    assert np.all(w.values[w1_end:b1_end] == 0.0)
    assert np.all(w.values[w2_end:] == 0.0)
    weights_only = np.concatenate([w.values[:w1_end], w.values[b1_end:w2_end]])
    assert np.all(np.abs(weights_only) < 0.05)


def test_arch_id_roundtrip():
    for arch in (make_arch(2, 2), make_arch(7, 3, hidden_units=6)):
        assert arch_from_id(arch.arch_id) == arch
    with pytest.raises(ShapeError):
        arch_from_id("resnet:50")


@pytest.mark.parametrize("arch_id", ["logreg:+2x2", "logreg:02x2", "logreg: 2x2", "mlp:2x1_0x2"])
def test_arch_from_id_refuses_non_canonical_spellings(arch_id):
    # int() reads each of these as the dimensions of a canonical id; a second
    # spelling would let two weight vectors of one architecture carry
    # different ids, which aggregate refuses to mix
    with pytest.raises(ShapeError, match="not canonical"):
        arch_from_id(arch_id)
    with pytest.raises(ShapeError):
        WeightVector(values=np.zeros(6), arch_id=arch_id)


def test_arch_from_id_cache_is_bounded():
    for n in range(1, 200):
        arch_from_id(f"logreg:{n}x2")
    assert arch_from_id.cache_info().maxsize == 64
    assert arch_from_id.cache_info().currsize <= 64


def test_weight_vector_rejects_nonfinite_and_bad_length():
    arch = make_arch(2, 2)
    with pytest.raises(ShapeError):
        WeightVector(values=np.array([np.nan] * arch.param_count), arch_id=arch.arch_id)
    with pytest.raises(ShapeError):
        WeightVector(values=np.zeros(3), arch_id=arch.arch_id)
    lenient = WeightVector(
        values=np.array([np.inf, 0, 0, 0, 0, 0]), arch_id=arch.arch_id, check_finite=False
    )
    assert not lenient.is_finite()
    with pytest.raises(ShapeError):
        WeightVector(values=np.zeros(6), arch_id="logreg:2x")
    assert lenient.arch == arch and lenient.arch is lenient.arch


def test_train_separable_reaches_full_accuracy():
    data = separable_dataset(n=20, gap=4.0, seed=3)
    arch = make_arch(2, 2)
    w0 = init_weights(arch, 0)
    hp = HyperParams(epochs=50, batch_size=4, learning_rate=0.5, shuffle_seed=11)
    trained = train_local(w0, data, hp)
    metrics = evaluate(trained, data)
    assert metrics.accuracy == 1.0


def test_train_epochs_zero_rejected():
    with pytest.raises(ConfigError):
        HyperParams(epochs=0, batch_size=4, learning_rate=0.5, shuffle_seed=0)


def test_hyperparams_validation():
    with pytest.raises(ConfigError):
        HyperParams(epochs=1, batch_size=0, learning_rate=0.5, shuffle_seed=0)
    with pytest.raises(ConfigError):
        HyperParams(epochs=1, batch_size=4, learning_rate=0.0, shuffle_seed=0)


def _finite_difference_gradient(w: WeightVector, data: Dataset, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(w.values)
    for i in range(w.values.size):
        bumped = w.values.copy()
        bumped[i] += h
        loss_hi, _ = loss_and_gradient(WeightVector(bumped, w.arch_id), data)
        bumped[i] -= 2 * h
        loss_lo, _ = loss_and_gradient(WeightVector(bumped, w.arch_id), data)
        grad[i] = (loss_hi - loss_lo) / (2 * h)
    return grad


def test_gradient_matches_finite_differences(rng):
    # central-difference oracle on ten random instances, logreg and MLP
    for trial in range(10):
        hidden = 0 if trial % 2 == 0 else int(rng.integers(2, 5))
        n_features = int(rng.integers(2, 5))
        n_classes = int(rng.integers(2, 4))
        arch = make_arch(n_features, n_classes, hidden)
        w = WeightVector(values=rng.normal(0, 0.7, arch.param_count), arch_id=arch.arch_id)
        data = Dataset(
            features=rng.normal(0, 1.5, (12, n_features)),
            labels=rng.integers(0, n_classes, 12),
            n_classes=n_classes,
        )
        _, analytic = loss_and_gradient(w, data)
        numeric = _finite_difference_gradient(w, data)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-5, f"trial {trial}: relative error {rel}"


def test_evaluate_random_weights_near_chance(rng):
    # balanced 2-class data, random weights: accuracy should hover around 0.5
    data = Dataset(
        features=rng.normal(0, 1, (200, 2)),
        labels=np.array([0, 1] * 100),
        n_classes=2,
    )
    w = WeightVector(values=rng.normal(0, 0.05, 6), arch_id="logreg:2x2")
    metrics = evaluate(w, data)
    assert 0.35 <= metrics.accuracy <= 0.65
    assert metrics.n_samples == 200


def test_evaluate_after_fit_low_loss():
    data = separable_dataset(n=20, gap=4.0, seed=5)
    trained = train_local(
        init_weights(make_arch(2, 2), 1),
        data,
        HyperParams(epochs=50, batch_size=4, learning_rate=0.5, shuffle_seed=2),
    )
    assert evaluate(trained, data).loss < 0.1


def test_empty_dataset_rejected():
    with pytest.raises(ShapeError):
        Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), n_classes=2)


def test_dataset_label_range_and_finite_checks():
    with pytest.raises(ShapeError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 2]), n_classes=2)
    with pytest.raises(ShapeError):
        Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([0]), n_classes=2)


def test_train_deterministic_bit_identical():
    data = separable_dataset(n=30, gap=2.0, seed=9)
    w0 = init_weights(make_arch(2, 2), 4)
    hp = HyperParams(epochs=3, batch_size=8, learning_rate=0.2, shuffle_seed=77)
    a = train_local(w0, data, hp)
    b = train_local(w0, data, hp)
    assert np.array_equal(a.values, b.values)


def test_different_shuffle_seed_changes_trajectory():
    data = separable_dataset(n=30, gap=2.0, seed=9)
    w0 = init_weights(make_arch(2, 2), 4)
    a = train_local(w0, data, HyperParams(2, 8, 0.2, shuffle_seed=1))
    b = train_local(w0, data, HyperParams(2, 8, 0.2, shuffle_seed=2))
    assert np.any(a.values != b.values)


def test_evaluate_is_pure():
    data = separable_dataset(n=16, gap=3.0, seed=2)
    w = init_weights(make_arch(2, 2), 8)
    first = evaluate(w, data)
    second = evaluate(w, data)
    assert first == second
    assert np.array_equal(w.values, init_weights(make_arch(2, 2), 8).values)


def test_shape_mismatch_raises():
    data = separable_dataset(n=10, gap=3.0, seed=2)
    wrong = init_weights(make_arch(3, 2), 0)
    with pytest.raises(ShapeError):
        train_local(wrong, data, HyperParams(1, 4, 0.1, 0))
    with pytest.raises(ShapeError):
        evaluate(wrong, data)


def test_mlp_trains_on_nonlinear_boundary(rng):
    # XOR-style blobs: logreg cannot fit them, a small tanh MLP can
    centers = np.array([[0, 0], [3, 3], [0, 3], [3, 0]], dtype=float)
    labels = np.array([0, 0, 1, 1])
    idx = rng.integers(0, 4, 160)
    data = Dataset(
        features=centers[idx] + rng.normal(0, 0.4, (160, 2)),
        labels=labels[idx],
        n_classes=2,
    )
    hp = HyperParams(epochs=120, batch_size=16, learning_rate=0.4, shuffle_seed=5)
    logreg = train_local(init_weights(make_arch(2, 2), 3), data, hp)
    mlp = train_local(init_weights(make_arch(2, 2, hidden_units=8), 3), data, hp)
    assert evaluate(logreg, data).accuracy < 0.75
    assert evaluate(mlp, data).accuracy > 0.9


@pytest.mark.parametrize("hidden_units", [0, 5])
def test_grouped_hits_match_per_group_evaluate(rng, hidden_units):
    arch = make_arch(3, 4, hidden_units=hidden_units)
    w = WeightVector(values=rng.normal(0, 1.5, arch.param_count), arch_id=arch.arch_id)
    groups = [
        Dataset(features=rng.normal(0, 2, (n, 3)), labels=rng.integers(0, 4, n), n_classes=4)
        for n in (7, 1, 12, 3)
    ]
    sizes = [g.n_samples for g in groups]
    hits = grouped_hits(
        w,
        np.concatenate([g.features for g in groups]),
        np.concatenate([g.labels for g in groups]),
        np.cumsum([0] + sizes[:-1]),
    )
    assert hits.tolist() == [round(evaluate(w, g).accuracy * g.n_samples) for g in groups]
    for g, h in zip(groups, hits):
        assert int(h) / g.n_samples == evaluate(w, g).accuracy  # bit-equal, not approximate
    assert 0 < hits.sum() < sum(sizes)  # both hits and misses exercised


def _array_facts(a: np.ndarray):
    return (a.tobytes(), a.dtype, a.shape, a.flags.c_contiguous, a.flags.writeable)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_rows_equal_the_checked_constructor_on_those_rows(n, n_features, n_classes, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dataset = Dataset(
        features=rng.normal(0, 3, (n, n_features)),
        labels=rng.integers(0, n_classes, n),
        n_classes=n_classes,
    )
    if data.draw(st.booleans()):
        # a block of consecutive rows, taken as a slice
        start = data.draw(st.integers(0, n - 1))
        index = slice(start, data.draw(st.integers(start + 1, n)))
    else:
        positions = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        if data.draw(st.booleans()):
            positions.sort()
        index = np.array(positions, dtype=np.int64)
    rows = dataset.rows(index)
    checked = Dataset(
        features=dataset.features[index], labels=dataset.labels[index], n_classes=n_classes
    )
    assert type(rows) is Dataset
    assert _array_facts(rows.features) == _array_facts(checked.features)
    assert _array_facts(rows.labels) == _array_facts(checked.labels)
    assert rows.n_classes == checked.n_classes
    assert not rows.features.flags.writeable and not rows.labels.flags.writeable
    # one copy each: the rows share no memory with the dataset they came from
    assert not np.shares_memory(rows.features, dataset.features)
    assert not np.shares_memory(rows.labels, dataset.labels)


def test_rows_refuse_an_empty_index_as_the_constructor_does():
    dataset = separable_dataset(n=6)
    for empty in (np.array([], dtype=np.int64), slice(3, 3)):
        with pytest.raises(ShapeError) as from_rows:
            dataset.rows(empty)
        with pytest.raises(ShapeError) as from_constructor:
            Dataset(features=dataset.features[empty], labels=dataset.labels[empty], n_classes=2)
        assert str(from_rows.value) == str(from_constructor.value)


def test_grouped_hits_rejects_feature_mismatch():
    w = init_weights(make_arch(3, 2), 0)
    with pytest.raises(ShapeError):
        grouped_hits(w, np.zeros((4, 2)), np.zeros(4, dtype=np.int64), np.array([0]))


def _per_batch_train_local(w: WeightVector, data: Dataset, hp: HyperParams) -> WeightVector:
    """Oracle: the original SGD loop, which built a validated ``Dataset`` and
    ``WeightVector`` for every mini-batch."""
    rng = np.random.default_rng(hp.shuffle_seed)
    n = data.n_samples
    current = WeightVector(values=w.values.copy(), arch_id=w.arch_id)
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            batch = Dataset(
                features=data.features[idx], labels=data.labels[idx], n_classes=data.n_classes
            )
            _, grad = loss_and_gradient(current, batch)
            current = WeightVector(
                values=current.values - hp.learning_rate * grad, arch_id=w.arch_id
            )
    return current


@st.composite
def _training_cases(draw):
    hidden = draw(st.sampled_from([0, 0, 1, 3, 6]))
    n_features = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(1, 40))
    divisors = [b for b in range(1, n + 1) if n % b == 0]
    if draw(st.booleans()):
        batch_size = draw(st.sampled_from(divisors))
    else:
        batch_size = draw(st.integers(1, n + 3).filter(lambda b: n % b != 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arch = make_arch(n_features, n_classes, hidden)
    w = WeightVector(values=rng.normal(0, 0.5, arch.param_count), arch_id=arch.arch_id)
    data = Dataset(
        features=rng.normal(0, 2.0, (n, n_features)),
        labels=rng.integers(0, n_classes, n),
        n_classes=n_classes,
    )
    hp = HyperParams(
        epochs=draw(st.integers(1, 3)),
        batch_size=batch_size,
        learning_rate=draw(st.sampled_from([0.01, 0.2, 0.5, 1.3])),
        shuffle_seed=draw(st.integers(0, 2**63 - 1)),
    )
    return w, data, hp


@settings(max_examples=150, deadline=None)
@given(_training_cases())
def test_train_local_bit_identical_to_per_batch_loop(case):
    w, data, hp = case
    trained = train_local(w, data, hp)
    expected = _per_batch_train_local(w, data, hp)
    assert trained.arch_id == expected.arch_id
    assert trained.values.tobytes() == expected.values.tobytes()
    assert not trained.values.flags.writeable
    assert np.shares_memory(trained.values, w.values) is False


@pytest.mark.parametrize("hidden_units", [0, 4])
def test_train_local_refuses_non_finite_incoming_weights(hidden_units):
    arch = make_arch(2, 2, hidden_units)
    values = init_weights(arch, 0).values.copy()
    values[1] = np.nan
    hostile = WeightVector(values=values, arch_id=arch.arch_id, check_finite=False)
    data = separable_dataset(n=12, gap=2.0, seed=1)
    with pytest.raises(ShapeError, match="non-finite"):
        train_local(hostile, data, HyperParams(1, 4, 0.1, 0))


def test_train_local_overflow_raises_shape_error():
    # the logits overflow after the first step; a tanh MLP saturates instead
    data = separable_dataset(n=12, gap=4.0, seed=1)
    w = init_weights(make_arch(2, 2), 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ShapeError, match="non-finite"):
            train_local(w, data, HyperParams(2, 4, 1e308, 0))


def test_is_finite_scans_the_values_at_most_once(monkeypatch):
    scans = []
    real_isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda v: scans.append(1) or real_isfinite(v))
    arch = make_arch(2, 2)
    checked = WeightVector(values=np.zeros(6), arch_id=arch.arch_id)
    assert len(scans) == 1  # the constructor's check
    assert all(checked.is_finite() for _ in range(3))
    assert len(scans) == 1  # finite by construction
    for bad, expected in ((np.nan, False), (np.inf, False), (-np.inf, False), (0.5, True)):
        scans.clear()
        values = np.zeros(6)
        values[4] = bad
        lenient = WeightVector(values=values, arch_id=arch.arch_id, check_finite=False)
        assert not scans
        assert [lenient.is_finite() for _ in range(3)] == [expected] * 3
        assert len(scans) == 1


# -- oracles: the arithmetic of the kernel and of evaluate as first written ------


def _reference_forward(values: np.ndarray, arch, x: np.ndarray):
    f, c, h = arch.n_features, arch.n_classes, arch.hidden_units
    if h == 0:
        return x @ values[: f * c].reshape(f, c) + values[f * c :], None
    o1 = f * h
    o2 = o1 + h
    o3 = o2 + h * c
    hidden = np.tanh(x @ values[:o1].reshape(f, h) + values[o1:o2])
    return hidden @ values[o2:o3].reshape(h, c) + values[o3:], hidden


def _reference_log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_evaluate(w: WeightVector, data: Dataset) -> tuple[float, float]:
    """Oracle: ``evaluate`` with two ``ndarray.mean`` calls."""
    x, y = data.features, data.labels
    n = data.n_samples
    logits, _ = _reference_forward(w.values, w.arch, x)
    log_probs = _reference_log_softmax(logits)
    loss = float(-log_probs[np.arange(n), y].mean())
    accuracy = float((logits.argmax(axis=1) == y).mean())
    return loss, accuracy


def _reference_loss_and_gradient(w: WeightVector, data: Dataset) -> tuple[float, np.ndarray]:
    """Oracle: the loss-and-gradient kernel with a label index and a scatter."""
    values, arch = w.values, w.arch
    x, y = data.features, data.labels
    n = x.shape[0]
    logits, hidden = _reference_forward(values, arch, x)
    log_probs = _reference_log_softmax(logits)
    loss = float(-log_probs[np.arange(n), y].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grad = np.empty_like(values)
    f, c, h = arch.n_features, arch.n_classes, arch.hidden_units
    if h == 0:
        grad[: f * c] = (x.T @ dlogits).reshape(-1)
        grad[f * c :] = dlogits.sum(axis=0)
        return loss, grad
    o1 = f * h
    o2 = o1 + h
    o3 = o2 + h * c
    dhidden = (dlogits @ values[o2:o3].reshape(h, c).T) * (1.0 - hidden**2)
    grad[:o1] = (x.T @ dhidden).reshape(-1)
    grad[o1:o2] = dhidden.sum(axis=0)
    grad[o2:o3] = (hidden.T @ dlogits).reshape(-1)
    grad[o3:] = dlogits.sum(axis=0)
    return loss, grad


@st.composite
def _model_and_data(draw):
    hidden = draw(st.sampled_from([0, 0, 1, 3, 6]))
    n_features = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arch = make_arch(n_features, n_classes, hidden)
    scale = draw(st.sampled_from([0.05, 0.5, 3.0, 40.0]))
    w = WeightVector(values=rng.normal(0, scale, arch.param_count), arch_id=arch.arch_id)
    data = Dataset(
        features=rng.normal(0, 2.0, (n, n_features)),
        labels=rng.integers(0, n_classes, n),
        n_classes=n_classes,
    )
    return w, data


@settings(max_examples=200, deadline=None)
@given(_model_and_data())
def test_evaluate_bit_identical_to_mean_based_evaluate(case):
    w, data = case
    metrics = evaluate(w, data)
    loss, accuracy = _reference_evaluate(w, data)
    assert metrics.loss.hex() == loss.hex()
    assert metrics.accuracy.hex() == accuracy.hex()
    assert type(metrics.loss) is float and type(metrics.accuracy) is float
    assert metrics.n_samples == data.n_samples


@settings(max_examples=200, deadline=None)
@given(_model_and_data())
def test_loss_and_gradient_bit_identical_to_scatter_kernel(case):
    # with the per-batch oracle above, this pins train_local's steps to the
    # arithmetic of the kernel as first written
    w, data = case
    loss, grad = loss_and_gradient(w, data)
    expected_loss, expected_grad = _reference_loss_and_gradient(w, data)
    assert loss.hex() == expected_loss.hex()
    assert grad.tobytes() == expected_grad.tobytes()
