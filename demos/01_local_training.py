"""Local training demo: the minimal learning core behind every round.

Builds a logistic-regression architecture, trains it on a toy blob dataset,
and shows the two properties the federated layers rely on: determinism for a
fixed seed, and analytic gradients that agree with finite differences.
"""

import numpy as np

from communityfl import (
    Dataset,
    HyperParams,
    WeightVector,
    evaluate,
    init_weights,
    make_arch,
    train_local,
)
from communityfl.tinylearn import loss_and_gradient

rng = np.random.default_rng(0)

# two Gaussian blobs, 4 sigma apart: trivially separable
n = 200
labels = rng.integers(0, 2, n)
centers = np.array([[0.0, 0.0], [4.0, 0.0]])
features = centers[labels] + rng.normal(0, 1, (n, 2))
data = Dataset(features=features, labels=labels, n_classes=2)

arch = make_arch(n_features=2, n_classes=2)
print(f"architecture {arch.arch_id}: {arch.param_count} parameters")

w0 = init_weights(arch, seed=7)
print(f"initial holdout metrics: {evaluate(w0, data)}")

hp = HyperParams(epochs=10, batch_size=16, learning_rate=0.5, shuffle_seed=3)
trained = train_local(w0, data, hp)
metrics = evaluate(trained, data)
print(f"after {hp.epochs} epochs: loss={metrics.loss:.4f} accuracy={metrics.accuracy:.3f}")

# determinism: the same inputs reproduce the same weights, bit for bit
again = train_local(w0, data, hp)
print("bit-identical retrain:", bool(np.array_equal(trained.values, again.values)))

# gradient sanity: central finite differences agree with the analytic form
w = WeightVector(rng.normal(0, 0.5, arch.param_count), arch.arch_id)
_, analytic = loss_and_gradient(w, data)
h = 1e-6
numeric = np.zeros_like(analytic)
for i in range(w.values.size):
    bumped = w.values.copy()
    bumped[i] += h
    hi, _ = loss_and_gradient(WeightVector(bumped, arch.arch_id), data)
    bumped[i] -= 2 * h
    lo, _ = loss_and_gradient(WeightVector(bumped, arch.arch_id), data)
    numeric[i] = (hi - lo) / (2 * h)
rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
print(f"gradient vs finite differences: relative error {rel:.2e}")
