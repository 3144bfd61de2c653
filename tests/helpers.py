"""Shared data builders and random generators for the test suite.

The seeds and parameter ranges in here are frozen: several acceptance
tests assert numeric bounds that were measured against exactly these
generators. Changing a range or a call order changes the streams, so
treat edits here as invalidating those measurements.
"""

from __future__ import annotations

import math
import re

import numpy as np

from evidnet import (
    EvidentialModel,
    FeatureDataset,
    ModelConfig,
    TrainConfig,
    forward_batch,
    init_model,
    mass_new,
    train,
)
from evidnet.training import Batch, _loss_and_grads, _require_finite

def exactly(message: str) -> str:
    """A pytest.raises match= pattern for exactly this message."""
    return f"^{re.escape(message)}$"


EMBED_SEED = 1234
GRAD_SEED_BASE = 0
N_GRAD_SEEDS = 20


def embedding(d_in: int = 16) -> np.ndarray:
    """Fixed random 2 -> d_in linear embedding shared by every split."""
    return np.random.default_rng(EMBED_SEED).standard_normal((2, d_in))


def blob_split(seed: int, split: int, n_per_class: int, means,
               labeled_fraction: float = 1.0, d_in: int = 16) -> FeatureDataset:
    """One Gaussian blob per mean in 2-d, pushed through the fixed embedding.

    split: 0 = train, 1 = val, 2 = test; each gets an independent stream.
    Two blobs are named ("positive", "negative"), more are class0, class1...
    """
    rng = np.random.default_rng([seed, split])
    pts = [rng.standard_normal((n_per_class, 2)) + np.asarray(m, dtype=float)
           for m in means]
    x2 = np.vstack(pts)
    y = np.repeat(np.arange(len(means)), n_per_class)
    order = rng.permutation(len(y))
    x2 = x2[order]
    y = y[order]
    labels: list = [int(v) for v in y]
    if labeled_fraction < 1.0:
        keep = int(round(labeled_fraction * len(y)))
        chosen = set(rng.choice(len(y), size=keep, replace=False).tolist())
        labels = [int(v) if i in chosen else None for i, v in enumerate(y)]
    return FeatureDataset(features=x2 @ embedding(d_in), labels=labels,
                          class_names=class_names(len(means)))


def class_names(k: int) -> tuple[str, ...]:
    return ("positive", "negative") if k == 2 else tuple(f"class{j}" for j in range(k))


def labeled_subset(ds: FeatureDataset):
    idx = [i for i, lab in enumerate(ds.labels) if lab is not None]
    return ds.features[idx], [ds.labels[i] for i in idx]


def train_on_blobs(seed: int, means, labeled_fraction: float, cfg: TrainConfig,
                   h: int = 8, r: int = 4):
    """Train one model on a blob split and score it on the held-out test split.

    Returns (test accuracy, test auc, history).
    """
    from evidnet import accuracy, auc

    train_set = blob_split(seed, 0, 100, means, labeled_fraction)
    val_set = blob_split(seed, 1, 50, means)
    test_set = blob_split(seed, 2, 50, means)
    feats, labs = labeled_subset(train_set)
    model = init_model(ModelConfig(d_in=16, r=r, h=h, k=2), feats, labs,
                       seed=seed, class_names=train_set.class_names)
    best, history = train(model, train_set, val_set, cfg)
    _, _, pl = forward_batch(best, test_set.features)
    preds = [int(i) for i in np.argmax(pl, axis=1)]
    truth = [int(v) for v in test_set.labels]
    acc = accuracy(preds, truth)
    area = auc([float(v) for v in pl[:, 0]], truth, positive=0)
    return acc, area, history


def random_model(rng, d_in: int = 5, h: int = 4, r: int = 3,
                 k: int = 2) -> EvidentialModel:
    # ranges keep every parameter numerically "alive": eta away from 0,
    # beta away from the floor, xi inside the responsive band of sigmoid
    return EvidentialModel(
        config=ModelConfig(d_in=d_in, r=r, h=h, k=k),
        class_names=class_names(k),
        w=rng.uniform(-0.8, 0.8, size=(h, d_in)),
        b=rng.uniform(-0.3, 0.3, size=h),
        centers=rng.uniform(-1.0, 1.0, size=(r, h)),
        beta=rng.uniform(0.2, 1.5, size=(r, k)),
        xi=rng.uniform(-2.0, 2.0, size=r),
        eta=rng.uniform(0.4, 1.2, size=r),
    )


# Rounding grad_check grants each probed loss: four ulps of its magnitude.
GRAD_CHECK_ROUNDING = 4.0 * float(np.finfo(float).eps)


def grad_check(model: EvidentialModel, x: np.ndarray, y: np.ndarray, n_unl: int,
               cfg: TrainConfig, step: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    x, y and n_unl are the stacked arrays train feeds
    training._loss_and_grads (training._stack_batch builds them from a
    Batch). Central differences with the given step, compared as
    max(0, |analytic - numeric| - slack) / max(1e-8, |analytic| + |numeric|),
    where slack = GRAD_CHECK_ROUNDING * (|up| + |down|) / (2 * step) is the
    numeric derivative's own rounding. Each probe is a model bound to a
    perturbed copy of model.theta, so the model is left untouched.
    """
    if not 0 < step < math.inf:
        raise ValueError("step must be > 0")
    analytic = _require_finite(model, _loss_and_grads(model, x, y, n_unl, cfg, want_grads=True)[1])
    theta = model.theta

    def probe_loss(j: int, value: float) -> float:
        probe = theta.copy()
        probe[j] = value
        return _loss_and_grads(model._with_vector(probe), x, y, n_unl, cfg, want_grads=False)[0]

    worst = 0.0
    for j, a in enumerate(analytic.tolist()):
        up, down = probe_loss(j, theta[j] + step), probe_loss(j, theta[j] - step)
        numeric = (up - down) / (2.0 * step)
        slack = GRAD_CHECK_ROUNDING * (abs(up) + abs(down)) / (2.0 * step)
        err = max(0.0, abs(a - numeric) - slack)
        worst = max(worst, err / max(1e-8, abs(a) + abs(numeric)))
    return worst


def check_labels(n: int, k: int) -> list[int]:
    """Class indices 1, 0, k-1, k-2, ...: for k = 2 the frozen 1, 0, 1, 0..."""
    return [(1 - i) % k for i in range(n)]


def mse_check_pair(seed: int, k: int = 2, r: int = 3):
    """k-class model with r prototypes + batch for finite-difference checks
    in squared-error mode."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, r=r, k=k)
    xs = rng.uniform(-1.5, 1.5, size=(6, 5))
    batch = Batch(labeled=list(zip(xs, check_labels(6, k))), unlabeled=[])
    cfg = TrainConfig(loss_mode="mse_pl", lam=0.01, seed=0)
    return model, batch, cfg


def ce_check_pair(seed: int, k: int = 2, r: int = 3):
    """k-class model with r prototypes + batch for finite-difference checks
    in cross-entropy mode, with unlabeled instances so the consistency path
    is exercised too."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, r=r, k=k)
    xs = rng.uniform(-1.5, 1.5, size=(4, 5))
    labeled = list(zip(xs, check_labels(4, k)))
    unlabeled = []
    for _ in range(3):
        base = rng.uniform(-1.5, 1.5, size=5)
        copies = [base + 0.1 * rng.standard_normal(5) for _ in range(2)]
        unlabeled.append((base, copies))
    batch = Batch(labeled=labeled, unlabeled=unlabeled)
    cfg = TrainConfig(loss_mode="evidential_ce", lam=0.01,
                      consistency_weight=1.0, seed=0)
    return model, batch, cfg


def random_wide_model(rng) -> EvidentialModel:
    """Unconditioned model for fuzzing: wide parameter ranges, random sizes."""
    d_in = int(rng.integers(1, 9))
    h = int(rng.integers(1, 9))
    r = int(rng.integers(1, 7))
    return EvidentialModel(
        config=ModelConfig(d_in=d_in, r=r, h=h, k=2),
        class_names=("positive", "negative"),
        w=rng.uniform(-2.0, 2.0, size=(h, d_in)),
        b=rng.uniform(-1.0, 1.0, size=h),
        centers=rng.uniform(-3.0, 3.0, size=(r, h)),
        beta=rng.uniform(0.05, 3.0, size=(r, 2)) * rng.choice([-1.0, 1.0], size=(r, 2)),
        xi=rng.uniform(-10.0, 10.0, size=r),
        eta=rng.uniform(-3.0, 3.0, size=r),
    )


def random_mass(rng, frame, omega_floor: float = 0.05):
    """Random mass function that always keeps some weight on the full frame,
    so any pair built this way is combinable (conflict stays below 1)."""
    n_focal = int(rng.integers(1, 6))
    masks = [int(m) for m in rng.integers(1, frame.full_mask + 1, size=n_focal)]
    weights = rng.random(n_focal + 1) + 1e-3
    weights = weights / weights.sum() * (1.0 - omega_floor)
    pairs = list(zip(masks, (float(w) for w in weights[:n_focal])))
    pairs.append((frame.full_mask, float(weights[n_focal]) + omega_floor))
    return mass_new(frame, pairs)


def random_prototype_model(rng, k: int, r: int):
    """Random k-class model with r prototypes, plus an input at which the
    prototypes' activations are uniform on [0, 0.995] and each membership
    vector is uniform on [0.05, 1] per class before normalizing.

    The distance scale eta is solved from the drawn activation, so the
    reduction, the distances and the reliabilities all take part.
    """
    d_in, h = (int(v) for v in rng.integers(1, 5, size=2))
    x = rng.uniform(-1.0, 1.0, d_in)
    w = rng.uniform(-1.0, 1.0, (h, d_in))
    b = rng.uniform(-1.0, 1.0, h)
    centers = rng.uniform(-1.0, 1.0, (r, h))
    s = rng.uniform(0.0, 0.995, r)
    alpha = rng.uniform(s, 0.995)
    d2 = ((w @ x + b - centers) ** 2).sum(axis=1)
    model = EvidentialModel(
        config=ModelConfig(d_in=d_in, r=r, h=h, k=k),
        class_names=tuple(f"c{j}" for j in range(k)),
        w=w,
        b=b,
        centers=centers,
        beta=np.sqrt(rng.uniform(0.05, 1.0, (r, k))),
        xi=np.log(alpha / (1.0 - alpha)),
        eta=np.sqrt(np.log(alpha / s) / d2),
    )
    return model, x
