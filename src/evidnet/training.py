"""Losses, analytic gradients, and the semi-supervised training loop.

Two supervised losses are available on labeled instances: an evidential
cross-entropy on the unnormalized singleton masses (loss_mode
"evidential_ce") and a squared error on plausibilities against one-hot
targets ("mse_pl"). Unlabeled instances contribute a consistency term:
the squared difference between the singleton masses of an input and of
its Gaussian-perturbed copies. The total objective is

    mean_labeled(supervised) + consistency_weight * mean_unlabeled(consistency)
    + lam * sum_i alpha_i

where the last term discourages prototypes from claiming reliability.
Gradients are hand-derived for every parameter block. The forward pass
forms the K class products and the ignorance product of the fusion as one
product over prototypes of an (r, K+1, n) factor array whose row K is 1 - s_i;
the loss terms read the masses in the same class-major order and write
their pull on them into one (K+1, n) array. The backward pass takes one
leave-one-out product of the factors rather than dividing by one, so
saturated activations (s_i = 1, zero factors) stay exact, and pulls it
back to s_i with the model constant 1 - u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Optional

import numpy as np

from .dataio import FeatureDataset
from .errors import DimensionMismatchError, EvidnetError
from .metrics import accuracy
from .model import (
    EvidentialModel,
    _as_feature_matrix,
    _blocks,
    _class_indices,
    _exclusive_prod,
    _forward_arrays,
    _require_finite_features,
    _require_ints,
    decide,
    forward_batch,
)

LOSS_MODES = ("mse_pl", "evidential_ce")

# Floor on the singleton mass inside the cross-entropy's logarithm.
LOG_EPS = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# train adds the unlabeled rows to their perturbed copies, and checks the
# sums are finite, this many rows at a time, so that no gather of all the
# rows and no finiteness mask of all the copies is made
_BASE_ROWS = 256


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults are sane for small feature sets.

    lam is the reliability regularization weight. noise_sigma and
    t_perturb control the Gaussian perturbations behind the consistency
    loss. Parameters are updated by Adam at learning_rate.
    """

    loss_mode: str = "evidential_ce"
    lam: float = 0.01
    consistency_weight: float = 1.0
    noise_sigma: float = 0.1
    t_perturb: int = 2
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        _require_ints(self, ("t_perturb", "batch_size", "max_epochs", "patience", "seed"))
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        for name in ("lam", "consistency_weight", "noise_sigma", "learning_rate"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} is {value!r}, not a real number")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        for name, low in (("lam", 0), ("consistency_weight", 0), ("noise_sigma", 0),
                          ("t_perturb", 1), ("batch_size", 1), ("max_epochs", 1),
                          ("patience", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


@dataclass
class Batch:
    """One optimization step's data.

    labeled: (x, y) pairs with y the class index, 0 <= y < K. unlabeled:
    (x, perturbed copies of x) pairs. At least one list must be
    non-empty.
    """

    labeled: list = field(default_factory=list)
    unlabeled: list = field(default_factory=list)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int  # 1-based
    train_loss: float
    val_accuracy: float


@dataclass
class TrainHistory:
    records: list[EpochRecord]
    best_epoch: int
    stopped_early: bool

    @property
    def best_val_accuracy(self) -> float:
        return max(rec.val_accuracy for rec in self.records)


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators, laid out like model.theta; step counts
    completed updates."""

    step: int
    m: np.ndarray
    v: np.ndarray


# ---------------------------------------------------------------------------
# batched objective and analytic gradients


def _stack_batch(batch: Batch, model: EvidentialModel):
    """Flatten a batch into the arrays _loss_and_grads takes: one matrix of
    labeled rows, then unlabeled bases, then all perturbed copies in
    (instance, copy) order, checked against the model's input width and
    for finiteness; the labeled rows' class indices; and the unlabeled
    count."""
    k = model.config.k
    n_unl = len(batch.unlabeled)
    if not batch.labeled and n_unl == 0:
        raise EvidnetError("batch has neither labeled nor unlabeled instances")
    y = _class_indices([yi for _, yi in batch.labeled], k)
    rows = [np.atleast_1d(np.asarray(x, dtype=float)) for x, _ in batch.labeled]
    t_per = 0
    for x, copies in batch.unlabeled:
        if len(copies) == 0:
            raise EvidnetError("unlabeled instance without perturbed copies")
        if t_per == 0:
            t_per = len(copies)
        elif len(copies) != t_per:
            raise DimensionMismatchError("unlabeled instances disagree on copy count")
        rows.append(np.atleast_1d(np.asarray(x, dtype=float)))
    for x, copies in batch.unlabeled:
        for xt in copies:
            rows.append(np.atleast_1d(np.asarray(xt, dtype=float)))
    try:
        stacked = np.stack(rows)
    except ValueError as exc:
        raise DimensionMismatchError(f"batch rows disagree in dimension: {exc}") from exc
    return _as_feature_matrix(stacked, model.config.d_in), y, n_unl


def _loss_and_grads(
    model: EvidentialModel,
    x: np.ndarray,
    y: np.ndarray,
    n_unl: int,
    cfg: TrainConfig,
    want_grads: bool,
):
    """Objective, and its gradient when wanted, over one stacked batch.

    x, a float matrix of the model's input width with finite entries only
    (callers check it), holds the len(y) labeled rows, then n_unl
    unlabeled rows, then the unlabeled rows' perturbed copies in
    (instance, copy) order; y holds the labeled rows' class indices.
    """
    k = model.config.k
    cache = _forward_arrays(model, x)
    m = cache["m"]  # (K, n), as pl
    n_lab = y.shape[0]
    labeled = y, np.arange(n_lab)  # (class, row) cell of each target
    # dLoss/d(mass): rows gm (singleton masses) and gmo (ignorance mass)
    gmass = np.zeros((k + 1, x.shape[0]))
    gm, gmo = gmass[:k], gmass[k]

    sup = 0.0
    if n_lab:
        if cfg.loss_mode == "evidential_ce":
            picked = m[labeled]
            clamped = np.maximum(picked, LOG_EPS)
            # np.add.reduce skips .mean()'s and .sum()'s Python wrappers, and
            # gives their bits
            sup = float(-np.add.reduce(np.log(clamped)) / n_lab)
            if want_grads:  # clamped masses get no pull
                gm[labeled] = np.where(picked > LOG_EPS, (-1.0 / n_lab) / clamped, 0.0)
        else:
            resid = cache["pl"][:, :n_lab].copy()
            resid[labeled] -= 1.0
            sup = float(np.vecdot(resid.ravel(), resid.ravel())) / n_lab
            if want_grads:
                gpl = np.multiply(resid, 2.0 / n_lab, out=gm[:, :n_lab])
                np.add.reduce(gpl, out=gmo[:n_lab])

    cons = 0.0
    if n_unl:
        base = m[:, n_lab : n_lab + n_unl]
        dif = m[:, n_lab + n_unl :].reshape(k, n_unl, -1) - base[:, :, None]
        cons = float(np.vecdot(dif.ravel(), dif.ravel())) / n_unl
        if want_grads and cfg.consistency_weight:
            dif *= 2.0 * cfg.consistency_weight / n_unl
            gm[:, n_lab + n_unl :] = dif.reshape(k, -1)
            np.negative(np.add.reduce(dif, axis=2), out=gm[:, n_lab : n_lab + n_unl])

    loss = sup + cfg.consistency_weight * cons + cfg.lam * float(np.add.reduce(model.alpha))
    if not want_grads:
        return loss, None
    return loss, _backward_arrays(model, cache, gmass, cfg.lam)


def _backward_arrays(
    model: EvidentialModel, cache: dict, gmass: np.ndarray, lam: float
) -> np.ndarray:
    """Chain rule from upstream mass gradients down to every parameter.

    gmass (K+1, n) is dLoss/d(mass) per batch row, singleton masses then
    ignorance. The quotient rule through mass = prod / n folds into one
    shared scalar per row; one leave-one-out product over the (r, K+1, n)
    factor array replaces division through the fused products, so zero
    factors cannot poison the result. Returns the gradient as one vector
    laid out like model.theta.
    """
    k = model.config.k
    mass, norm, cf = cache["mass"], cache["n"], cache["cf"]
    s, e, d2 = cache["s"], cache["e"], cache["d2"]
    alpha, z, x = model.alpha, cache["z"], cache["x"]
    grad = np.empty_like(model.theta)
    out = _blocks(model.config, grad)

    # the pull on each row of prod, (a_k - b; b), then on each product:
    # b also enters every a_k - b, so row K takes minus the class rows' sum
    g = gmass - np.add.reduce(gmass * mass)
    g /= norm
    g[k] -= np.add.reduce(g[:k])

    # the pull on each factor, row K being the pull on 1 - s, in a new
    # C-contiguous array, so each contraction's summation order is fixed
    # and so are the gradient's last bits and the bytes of trained models
    gcf = _exclusive_prod(cf)
    gcf *= g
    gu = np.vecdot(gcf[:, :k], s[:, None, :])
    # a factor u s + (1 - s) has slope -(1 - u) in s: p is minus the pull on s
    p = np.matmul(model.omu[:, None, :], gcf)[:, 0]

    out["xi"][:] = (lam - np.vecdot(p, e)) * alpha * (1.0 - alpha)
    p *= s  # minus the pull on ln s = ln alpha - gamma d2
    out["eta"][:] = 2.0 * model.eta * np.vecdot(p, d2)
    # the pull on d2, gamma p, doubled: d2 = |z|^2 - 2 z c^T + |c|^2, so its
    # pull on z and on each center is two matrix products, never an
    # (n, r, h) tensor
    gd2 = np.multiply(p, 2.0 * model.gamma[:, None], out=p)
    gz = np.add.reduce(gd2)[:, None] * z - gd2.T @ model.centers
    out["centers"][:] = np.add.reduce(gd2, axis=1)[:, None] * model.centers - gd2 @ z
    np.matmul(gz.T, x, out=out["w"])
    np.add.reduce(gz, out=out["b"])

    out["beta"][:] = 2.0 * model.beta / model.beta_sq_sum[:, None] * (
        gu - np.vecdot(gu, model.u[:, :k])[:, None])
    return grad


def _require_finite(model: EvidentialModel, grad: np.ndarray) -> np.ndarray:
    """Return grad, a vector laid out like model.theta, unchanged; raise,
    naming the block, if it holds a non-finite value."""
    if not np.isfinite(grad).all():
        blocks = _blocks(model.config, grad).items()
        name = next(n for n, block in blocks if not np.isfinite(block).all())
        raise EvidnetError(f"non-finite gradient in {name}")
    return grad


def total_loss(model: EvidentialModel, batch: Batch, cfg: TrainConfig) -> float:
    """The scalar objective a training step descends."""
    arrays = _stack_batch(batch, model)
    loss, _ = _loss_and_grads(model, *arrays, cfg, want_grads=False)
    return loss


def gradients(
    model: EvidentialModel, batch: Batch, cfg: TrainConfig
) -> np.ndarray:
    """Analytic gradient of total_loss as one vector laid out like
    model.theta (model.config.shapes gives its blocks' order and shapes);
    raises EvidnetError, naming the block, on a non-finite entry."""
    arrays = _stack_batch(batch, model)
    _, grad = _loss_and_grads(model, *arrays, cfg, want_grads=True)
    return _require_finite(model, grad)


# ---------------------------------------------------------------------------
# optimizer


def init_optimizer(model: EvidentialModel) -> OptimizerState:
    return OptimizerState(step=0, m=np.zeros_like(model.theta), v=np.zeros_like(model.theta))


def optimizer_step(
    model: EvidentialModel,
    grads: np.ndarray,
    cfg: TrainConfig,
    state: OptimizerState,
) -> tuple[EvidentialModel, OptimizerState]:
    """One Adam update; returns a new model and a new advanced state.

    grads is the gradient as one vector laid out like model.theta, as
    gradients returns it; another shape raises DimensionMismatchError. Adam
    keeps exponential first/second moment averages (decay 0.9 / 0.999,
    epsilon 1e-8) with bias correction. Raises at the step that makes a
    parameter non-finite or a prototype's beta row zero.

    The inputs are never written: the new model and state own fresh
    arrays. Each operation of theta - lr * m_hat / (sqrt(v_hat) + eps)
    and of the moment updates runs in the textbook expression's order, so
    the result has its bits; one scratch vector and the new parameter
    vector hold the intermediates.
    """
    if grads.shape != model.theta.shape:
        raise DimensionMismatchError(
            f"gradient shape {grads.shape}, parameters {model.theta.shape}"
        )
    step = state.step + 1
    scratch = np.multiply(grads, 1.0 - ADAM_BETA1)
    m1 = np.multiply(state.m, ADAM_BETA1)
    m1 += scratch
    np.multiply(grads, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grads
    v1 = np.multiply(state.v, ADAM_BETA2)
    v1 += scratch
    np.divide(m1, 1.0 - ADAM_BETA1**step, out=scratch)
    scratch *= cfg.learning_rate
    # the denominator is built in the new parameters' own vector
    theta = np.divide(v1, 1.0 - ADAM_BETA2**step)
    np.sqrt(theta, out=theta)
    theta += ADAM_EPS
    np.divide(scratch, theta, out=theta)
    np.subtract(model.theta, theta, out=theta)
    return model._with_vector(theta), OptimizerState(step=step, m=m1, v=v1)


# ---------------------------------------------------------------------------
# training loop


def _validation_accuracy(model: EvidentialModel, val_set: FeatureDataset) -> float:
    _, _, pl = forward_batch(model, val_set.features)
    return accuracy(decide(pl), val_set.labels)


def train(
    model: EvidentialModel,
    train_set: FeatureDataset,
    val_set: FeatureDataset,
    cfg: TrainConfig,
    *,
    on_epoch: Optional[Callable[[EpochRecord], None]] = None,
) -> tuple[EvidentialModel, TrainHistory]:
    """Mini-batch training with early stopping on validation accuracy.

    Epochs shuffle the labeled and unlabeled streams independently and
    slice both into the same number of mini-batches. Fresh perturbations
    are drawn every epoch into one (n_unl, T, d) buffer reused by every
    epoch, and checked for finiteness there before the epoch's first step.
    Beyond the datasets, training holds only that buffer, one step's rows,
    gathered straight from the training matrix into one buffer reused for
    every step, and the per-epoch validation forward. The training
    features are checked once per call, the validation features before
    the first step too.
    Training stops once validation accuracy has not strictly improved for
    cfg.patience consecutive epochs (or at max_epochs), and the best-epoch
    parameters are returned. Both datasets must name the model's classes
    in its order. Fully deterministic given (datasets, config). The model
    and datasets passed in are never written. on_epoch observes each
    record as it is appended.
    """
    feats = _as_feature_matrix(train_set.features, model.config.d_in)
    labels = train_set.labels
    labeled_idx = np.asarray(
        [i for i, lab in enumerate(labels) if lab is not None], dtype=int
    )
    unlabeled_idx = np.asarray(
        [i for i, lab in enumerate(labels) if lab is None], dtype=int
    )
    if labeled_idx.size == 0:
        raise EvidnetError("training set has no labeled instances")
    if val_set.n == 0:
        raise EvidnetError("validation set is empty")
    if not val_set.fully_labeled():
        raise EvidnetError("validation set must be fully labeled")
    _class_indices(val_set.labels, model.config.k)
    _as_feature_matrix(val_set.features, model.config.d_in)
    y_lab = _class_indices([labels[i] for i in labeled_idx], model.config.k)
    # labels index the model's class order, so both sets must name it
    for name, ds in (("training", train_set), ("validation", val_set)):
        if ds.class_names != model.class_names:
            raise EvidnetError(
                f"{name} set classes {ds.class_names} differ from the model's {model.class_names}"
            )

    n_lab, n_unl = labeled_idx.size, unlabeled_idx.size
    d = feats.shape[1]

    n_batches = max(math.ceil(n_lab / cfg.batch_size), math.ceil(n_unl / cfg.batch_size))
    t = cfg.t_perturb
    # one step's rows: labeled rows, unlabeled bases, then the bases'
    # copies; array_split makes no chunk longer than the ceiling
    rows = np.empty((math.ceil(n_lab / n_batches) + math.ceil(n_unl / n_batches) * (1 + t), d))
    copies = np.empty((n_unl, t, d))

    rng = np.random.default_rng(cfg.seed)
    # models are immutable, so the current and best models are shared,
    # never copied
    current = model
    state = init_optimizer(current)
    records: list[EpochRecord] = []
    best_acc = -math.inf
    best_epoch = 0
    best_model = current
    streak = 0
    stopped_early = False

    for epoch in range(1, cfg.max_epochs + 1):
        perm_lab = rng.permutation(n_lab)
        perm_unl = rng.permutation(n_unl)
        # each copy is x + sigma * noise: both operations commute, so
        # building it in the noise's buffer gives that expression's bits;
        # the bases are added a block of rows at a time
        rng.standard_normal(out=copies)  # the draws of standard_normal(copies.shape)
        copies *= cfg.noise_sigma
        for start in range(0, n_unl, _BASE_ROWS):
            block = copies[start : start + _BASE_ROWS]
            block += feats[unlabeled_idx[start : start + _BASE_ROWS], None]
            _require_finite_features(block)
        batch_losses = []
        for chunk_l, chunk_u, at_l, at_u in zip(
            np.array_split(perm_lab, n_batches), np.array_split(perm_unl, n_batches),
            np.array_split(labeled_idx[perm_lab], n_batches),
            np.array_split(unlabeled_idx[perm_unl], n_batches),
        ):
            n_l, n_u = len(chunk_l), len(chunk_u)
            stop = n_l + n_u * (1 + t)
            # every index is in range, so "clip" never clips; it lets take
            # write straight into the buffer
            np.take(feats, at_l, axis=0, out=rows[:n_l], mode="clip")
            np.take(feats, at_u, axis=0, out=rows[n_l : n_l + n_u], mode="clip")
            np.take(copies, chunk_u, axis=0, out=rows[n_l + n_u : stop].reshape(n_u, t, d),
                    mode="clip")
            loss, grads = _loss_and_grads(
                current, rows[:stop], y_lab[chunk_l], n_u, cfg, want_grads=True
            )
            _require_finite(current, grads)
            current, state = optimizer_step(current, grads, cfg, state)
            batch_losses.append(loss)
        train_loss = float(np.mean(batch_losses))
        val_acc = _validation_accuracy(current, val_set)
        record = EpochRecord(epoch=epoch, train_loss=train_loss, val_accuracy=val_acc)
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_model = current
            streak = 0
        else:
            streak += 1
            if streak >= cfg.patience:
                stopped_early = True
                break

    history = TrainHistory(
        records=records, best_epoch=best_epoch, stopped_early=stopped_early
    )
    return best_model, history
