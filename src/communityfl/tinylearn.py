"""Minimal supervised-learning core used by the federated rounds.

Two model families are supported: multinomial logistic regression and a
one-hidden-layer tanh MLP. Both are small enough that analytic gradients can
be checked against finite differences, and every operation is deterministic
given its explicit seeds.

Weight layout is canonical so aggregation and serialization are unambiguous:
for each layer, the row-major weight matrix comes first, then its bias
vector. All arithmetic is float64 with summations in fixed index order.

One private kernel, ``_loss_grad``, computes the gradient on raw arrays
and one-hot targets, and the loss only when asked. ``loss_and_gradient``
checks shapes and asks for both; each ``train_local`` step asks for the
gradient alone. The kernel writes its logits, probabilities and flat
gradient into work arrays (``_Scratch``) that its caller allocates once per
call, one ufunc at a time with ``out``: the ufuncs, operands and order of
the expressions they replace. ``train_local`` checks shapes once, permutes
the rows once per epoch and slices its batches from that copy, updates one
weight buffer in place, and builds one ``WeightVector`` at the end. Each of
these is the arithmetic of the plain per-batch loop, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError

INIT_SCALE = 0.05


@dataclass(frozen=True)
class ModelArch:
    """Shape of a model: inputs, outputs, and optional hidden layer.

    ``hidden_units == 0`` means plain logistic regression. ``arch_id`` is the
    canonical parseable identifier produced by :func:`make_arch`, so a weight
    vector tagged with it is self-describing.
    """

    arch_id: str
    n_features: int
    n_classes: int
    hidden_units: int = 0

    def __post_init__(self):
        if self.n_features < 1 or self.n_classes < 1 or self.hidden_units < 0:
            raise ConfigError(f"invalid model dimensions: {self}")
        if self.arch_id != _canonical_arch_id(self.n_features, self.n_classes, self.hidden_units):
            raise ConfigError(f"arch_id {self.arch_id!r} does not match dimensions")

    @property
    def param_count(self) -> int:
        f, c, h = self.n_features, self.n_classes, self.hidden_units
        if h == 0:
            return f * c + c
        return (f * h + h) + (h * c + c)


def _canonical_arch_id(n_features: int, n_classes: int, hidden_units: int) -> str:
    if hidden_units == 0:
        return f"logreg:{n_features}x{n_classes}"
    return f"mlp:{n_features}x{hidden_units}x{n_classes}"


def make_arch(n_features: int, n_classes: int, hidden_units: int = 0) -> ModelArch:
    """Build a ModelArch with its canonical ``arch_id``."""
    return ModelArch(
        arch_id=_canonical_arch_id(n_features, n_classes, hidden_units),
        n_features=n_features,
        n_classes=n_classes,
        hidden_units=hidden_units,
    )


# bounded: a hostile peer may send any number of distinct ids, and only
# successful parses are cached; ModelArch is frozen, so sharing one is safe
@functools.lru_cache(maxsize=64)
def arch_from_id(arch_id: str) -> ModelArch:
    """Recover the full architecture from its canonical identifier string.

    Any other spelling of the same dimensions (``logreg:+2x2``,
    ``logreg:02x2``) is refused, so that an architecture has one id and two
    weight vectors of one architecture always carry equal ids.
    """
    try:
        family, dims = arch_id.split(":", 1)
        parts = [int(p) for p in dims.split("x")]
        if family == "logreg" and len(parts) == 2:
            arch = make_arch(parts[0], parts[1], 0)
        elif family == "mlp" and len(parts) == 3:
            arch = make_arch(parts[0], parts[2], parts[1])
        else:
            raise ValueError(f"unknown family {family!r} or dimension count")
    except (ValueError, ConfigError) as exc:
        raise ShapeError(f"unparseable arch_id {arch_id!r}") from exc
    if arch.arch_id != arch_id:
        raise ShapeError(f"arch_id {arch_id!r} is not canonical, expected {arch.arch_id!r}")
    return arch


@dataclass(eq=False)
class WeightVector:
    """Flat float64 parameter vector tagged with its architecture id.

    Values must be finite; ``check_finite=False`` is reserved for the wire
    decode path, where hostile non-finite updates must be representable so
    the transfer guard can flag them instead of the decoder crashing. The
    values are read-only, so :meth:`is_finite` scans them at most once.
    """

    values: np.ndarray
    arch_id: str
    check_finite: InitVar[bool] = True
    _arch: ModelArch = field(init=False, repr=False)
    _finite: bool | None = field(init=False, repr=False, default=None)

    def __post_init__(self, check_finite: bool):
        # own a copy so freezing it never flips flags on a caller's array
        values = np.array(self.values, dtype=np.float64, order="C")
        if values.ndim != 1:
            raise ShapeError(f"weights must be 1-D, got shape {values.shape}")
        if check_finite:
            if not np.all(np.isfinite(values)):
                raise ShapeError("weights contain non-finite values")
            self._finite = True
        arch = arch_from_id(self.arch_id)
        if values.size != arch.param_count:
            raise ShapeError(
                f"{self.arch_id} expects {arch.param_count} parameters, got {values.size}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        self._arch = arch

    @property
    def arch(self) -> ModelArch:
        return self._arch

    def is_finite(self) -> bool:
        if self._finite is None:
            self._finite = bool(np.all(np.isfinite(self.values)))
        return self._finite


@dataclass(eq=False)
class Dataset:
    """Local supervised data: feature matrix plus integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64, order="C")
        labels = np.array(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ShapeError("labels must be 1-D and aligned with features")
        if features.shape[0] < 1:
            raise ShapeError("dataset must contain at least one sample")
        if not np.all(np.isfinite(features)):
            raise ShapeError("features contain non-finite values")
        if self.n_classes < 1:
            raise ShapeError("n_classes must be positive")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ShapeError("labels out of range [0, n_classes)")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def rows(self, index: np.ndarray | slice) -> Dataset:
        """The rows at the integer positions ``index``, in that order, or in
        the slice ``index``, as a new read-only dataset: the dataset the
        constructor builds from ``features[index]`` and ``labels[index]``,
        bit for bit.

        Rows of a checked dataset pass the constructor's checks again, so they
        are taken without it: one copy of each array (a slice's view is
        copied too), and no second pass over the values. An empty selection is
        refused as the constructor refuses an empty dataset."""
        if isinstance(index, slice):
            features, labels = self.features[index].copy(), self.labels[index].copy()
        else:
            features, labels = self.features.take(index, 0), self.labels.take(index)
        if labels.shape[0] == 0:
            raise ShapeError("dataset must contain at least one sample")
        features.setflags(write=False)
        labels.setflags(write=False)
        subset = object.__new__(Dataset)
        subset.features, subset.labels, subset.n_classes = features, labels, self.n_classes
        return subset

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class HyperParams:
    """Mini-batch SGD settings for one local training call."""

    epochs: int
    batch_size: int
    learning_rate: float
    shuffle_seed: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass(frozen=True)
class EvalMetrics:
    loss: float
    accuracy: float
    n_samples: int


def _unpack(values: np.ndarray, arch: ModelArch):
    f, c, h = arch.n_features, arch.n_classes, arch.hidden_units
    if h == 0:
        w = values[: f * c].reshape(f, c)
        b = values[f * c :]
        return (w, b)
    o1 = f * h
    o2 = o1 + h
    o3 = o2 + h * c
    return (
        values[:o1].reshape(f, h),
        values[o1:o2],
        values[o2:o3].reshape(h, c),
        values[o3:],
    )


def _forward(params: tuple, x: np.ndarray, logits: np.ndarray, hidden: np.ndarray | None):
    """Write the logits of ``_unpack``'s params on the rows ``x`` into
    ``logits``, and an MLP's hidden activations into ``hidden`` (None for
    logistic regression): ``x @ w + b``, and ``tanh`` of it for the hidden
    layer, one ufunc at a time into arrays of the result's shape."""
    if len(params) == 2:
        w, b = params
        np.matmul(x, w, logits)
    else:
        w1, b1, w, b = params
        np.matmul(x, w1, hidden)
        hidden += b1
        np.tanh(hidden, hidden)
        np.matmul(hidden, w, logits)
    logits += b
    return logits


def _log_softmax(logits: np.ndarray, exps: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Turn ``logits`` into log-probabilities in place: subtract each row's
    maximum, then the log of the row's sum of exponentials. ``exps`` (the
    shape of ``logits``) and ``column`` (one column) are scratch."""
    # positional outputs: out= costs more to parse than the small ufuncs take
    np.maximum.reduce(logits, 1, None, column, True)
    logits -= column
    np.exp(logits, exps)
    np.add.reduce(exps, 1, None, column, True)
    np.log(column, column)
    logits -= column
    return logits


def _check_shapes(w: WeightVector, data: Dataset) -> ModelArch:
    arch = w.arch
    if data.n_features != arch.n_features or data.n_classes != arch.n_classes:
        raise ShapeError(
            f"data ({data.n_features} features, {data.n_classes} classes) does not "
            f"match {w.arch_id}"
        )
    return arch


def init_weights(arch: ModelArch, seed: int) -> WeightVector:
    """Deterministic initialization: uniform(-0.05, 0.05) weights, zero biases."""
    rng = np.random.default_rng(seed)
    f, c, h = arch.n_features, arch.n_classes, arch.hidden_units
    values = np.zeros(arch.param_count, dtype=np.float64)
    if h == 0:
        values[: f * c] = rng.uniform(-INIT_SCALE, INIT_SCALE, f * c)
    else:
        o1 = f * h
        o2 = o1 + h
        values[:o1] = rng.uniform(-INIT_SCALE, INIT_SCALE, o1)
        values[o2 : o2 + h * c] = rng.uniform(-INIT_SCALE, INIT_SCALE, h * c)
    return WeightVector(values=values, arch_id=arch.arch_id)


def loss_and_gradient(w: WeightVector, data: Dataset) -> tuple[float, np.ndarray]:
    """Full-batch mean cross-entropy loss and its analytic gradient.

    The loss uses the log-sum-exp form, so it is finite for any finite inputs
    and smooth enough for finite-difference checks.
    """
    arch = _check_shapes(w, data)
    targets = _one_hot(data.labels, arch.n_classes)
    scratch = _Scratch(arch, data.n_samples)
    return _loss_grad(_unpack(w.values, arch), data.features, targets, True, scratch)


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    # take copies whole rows, as indexing with ``[labels]`` does, at a
    # fraction of its cost on a few dozen rows
    return _identity(n_classes).take(labels, 0)


@functools.lru_cache(maxsize=16)
def _identity(n_classes: int) -> np.ndarray:
    identity = np.eye(n_classes)
    identity.setflags(write=False)
    return identity


class _Scratch:
    """Work arrays for kernel calls on ``rows`` rows of one architecture:
    logits, their exponentials and one column, an MLP's hidden activations
    and their delta, and the flat gradient with ``_unpack``'s views of its
    parts. :meth:`head` gives the same arrays' first rows for a shorter
    batch; those are C-contiguous, as a new array of their shape is."""

    __slots__ = ("logits", "exps", "column", "hidden", "delta", "grad", "grad_parts")

    def __init__(self, arch: ModelArch, rows: int):
        c, h = arch.n_classes, arch.hidden_units
        self.logits = np.empty((rows, c))
        self.exps = np.empty((rows, c))
        self.column = np.empty((rows, 1))
        self.hidden = np.empty((rows, h)) if h else None
        self.delta = np.empty((rows, h)) if h else None
        self.grad = np.empty(arch.param_count)
        self.grad_parts = _unpack(self.grad, arch)

    def head(self, rows: int) -> _Scratch:
        head = object.__new__(_Scratch)
        head.logits, head.exps = self.logits[:rows], self.exps[:rows]
        head.column = self.column[:rows]
        if self.hidden is None:
            head.hidden = head.delta = None
        else:
            head.hidden, head.delta = self.hidden[:rows], self.delta[:rows]
        head.grad, head.grad_parts = self.grad, self.grad_parts
        return head


def _loss_grad(
    params: tuple, x: np.ndarray, targets: np.ndarray, with_loss: bool, scratch: _Scratch
) -> tuple[float | None, np.ndarray]:
    """The kernel of :func:`loss_and_gradient` and of each :func:`train_local`
    step, on ``_unpack``'s params, a feature batch and its one-hot targets,
    whose shapes the caller has checked, with ``scratch`` of the batch's row
    count. The loss is None unless ``with_loss``; the gradient never depends
    on it. The gradient is ``scratch.grad``, which the next call on
    ``scratch`` overwrites."""
    m = x.shape[0]
    hidden = scratch.hidden
    exps = scratch.exps
    log_probs = _log_softmax(_forward(params, x, scratch.logits, hidden), exps, scratch.column)
    loss = None
    if with_loss:
        # one pick per row, in row order, as ``log_probs[arange(m), y]``
        loss = float(-(np.add.reduce(log_probs[targets == 1.0]) / m))

    # subtracting 0.0 leaves an entry as it is, so this is the per-row
    # "probability minus one at the label"
    dlogits = np.exp(log_probs, exps)
    dlogits -= targets
    dlogits /= m

    parts = scratch.grad_parts
    if hidden is None:
        np.matmul(x.T, dlogits, parts[0])
        np.add.reduce(dlogits, 0, None, parts[1])
        return loss, scratch.grad
    np.matmul(hidden.T, dlogits, parts[2])
    np.add.reduce(dlogits, 0, None, parts[3])
    # (dlogits @ w2.T) * (1.0 - hidden**2); hidden is not read again
    dhidden = np.matmul(dlogits, params[2].T, scratch.delta)
    np.square(hidden, hidden)
    np.subtract(1.0, hidden, hidden)
    dhidden *= hidden
    np.matmul(x.T, dhidden, parts[0])
    np.add.reduce(dhidden, 0, None, parts[1])
    return loss, scratch.grad


def train_local(w: WeightVector, data: Dataset, hp: HyperParams) -> WeightVector:
    """Mini-batch SGD on cross-entropy; deterministic given ``hp.shuffle_seed``.

    ``data`` is already validated, so the loop runs on raw arrays: each epoch
    permutes the rows once and its batches are consecutive slices of that
    copy, and each step writes into one set of work arrays (a shorter last
    batch into their first rows) and updates one weight buffer in place
    through the gradient-only kernel. Non-finite weights, incoming or from
    an overflowing step, stay non-finite, and the final ``WeightVector``
    refuses them.
    """
    arch = _check_shapes(w, data)
    rng = np.random.default_rng(hp.shuffle_seed)
    n, batch = data.n_samples, hp.batch_size
    targets = _one_hot(data.labels, arch.n_classes)
    values = w.values.copy()
    params = _unpack(values, arch)  # views: they follow the in-place updates
    full = _Scratch(arch, min(batch, n))
    last = full.head(n % batch) if n > batch and n % batch else full
    lr = hp.learning_rate
    for _ in range(hp.epochs):
        order = rng.permutation(n)
        x, t = data.features.take(order, 0), targets.take(order, 0)
        for start in range(0, n, batch):
            stop = start + batch
            scratch = full if stop <= n else last
            _, grad = _loss_grad(params, x[start:stop], t[start:stop], False, scratch)
            grad *= lr
            values -= grad
    return WeightVector(values=values, arch_id=arch.arch_id)


def grouped_hits(
    w: WeightVector, features: np.ndarray, labels: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Top-1 hit count of each group of rows in one forward pass.

    ``features``/``labels`` stack the groups; ``offsets`` holds the row where
    each group starts (ascending, first 0, every group non-empty). ``hits[g] /
    n_g`` equals :func:`evaluate`'s accuracy on group ``g`` alone.
    """
    arch = w.arch
    if features.ndim != 2 or features.shape[1] != arch.n_features:
        raise ShapeError(f"features of shape {features.shape} do not match {w.arch_id}")
    rows = features.shape[0]
    hidden = np.empty((rows, arch.hidden_units)) if arch.hidden_units else None
    logits = _forward(_unpack(w.values, arch), features, np.empty((rows, arch.n_classes)), hidden)
    return np.add.reduceat(logits.argmax(axis=1) == labels, offsets, dtype=np.int64)


def evaluate(w: WeightVector, data: Dataset) -> EvalMetrics:
    """Mean cross-entropy and top-1 accuracy; pure function of its inputs.

    The hits are counted on the logits before they turn into
    log-probabilities in place."""
    arch = _check_shapes(w, data)
    x, y = data.features, data.labels
    n, c = data.n_samples, arch.n_classes
    hidden = np.empty((n, arch.hidden_units)) if arch.hidden_units else None
    logits = _forward(_unpack(w.values, arch), x, np.empty((n, c)), hidden)
    hits = np.count_nonzero(logits.argmax(axis=1) == y)
    log_probs = _log_softmax(logits, np.empty((n, c)), np.empty((n, 1)))
    # the sums ``ndarray.mean`` takes, divided by n as it divides them
    loss = float(-(np.add.reduce(log_probs[np.arange(n), y]) / n))
    return EvalMetrics(loss=loss, accuracy=float(hits / n), n_samples=n)
