from __future__ import annotations

import math
import re
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import evidnet.training
from evidnet import (
    Batch,
    DimensionMismatchError,
    EvidentialModel,
    EvidnetError,
    FeatureDataset,
    ModelConfig,
    NonFiniteInputError,
    TotalConflictError,
    TrainConfig,
    forward,
    forward_batch,
    grad_check,
    gradients,
    init_model,
    load_model,
    optimizer_step,
    save_model,
    total_loss,
    train,
)
from evidnet.model import PARAM_FIELDS, _blocks, _forward_arrays, _sigmoid
from evidnet.training import LOG_EPS, LOSS_MODES, init_optimizer

import oracles
from helpers import (
    blob_split,
    ce_check_pair,
    check_labels,
    exactly,
    labeled_subset,
    mse_check_pair,
    random_model,
)
from test_model import three_class_model, tiny_model


# config validation

def test_train_config_defaults_are_valid():
    cfg = TrainConfig()
    assert cfg.loss_mode == "evidential_ce"


@pytest.mark.parametrize(
    "bad",
    [
        dict(loss_mode="hinge"),
        dict(lam=-0.1),
        dict(consistency_weight=-1.0),
        dict(noise_sigma=-0.5),
        dict(t_perturb=0),
        dict(learning_rate=0.0),
        dict(batch_size=0),
        dict(max_epochs=0),
        dict(patience=0),
        dict(lam=math.nan),
        dict(lam=math.inf),
        dict(consistency_weight=math.nan),
        dict(consistency_weight=math.inf),
        dict(noise_sigma=math.nan),
        dict(noise_sigma=math.inf),
        dict(learning_rate=math.nan),
        dict(learning_rate=math.inf),
        # counts and the seed are ints: not floats, booleans or strings
        dict(max_epochs=2.5),
        dict(batch_size=2.5),
        dict(t_perturb=True),
        dict(patience="2"),
        dict(seed=True),
        dict(seed=-1),
        # the float fields are real numbers: not strings, None or booleans
        dict(lam="0.1"),
        dict(noise_sigma=None),
        dict(learning_rate=True),
        dict(consistency_weight=False),
    ],
)
def test_train_config_validation(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


# loss terms on worked examples

X0 = np.zeros(2)
CE = TrainConfig(loss_mode="evidential_ce", lam=0.0)
MSE = TrainConfig(loss_mode="mse_pl", lam=0.0)


def test_supervised_ce_values():
    # all mass on the first class: a confident correct call costs nothing
    certain = tiny_model(beta=((1.0, 0.0),), xi=(40.0,))
    assert total_loss(certain, Batch(labeled=[(X0, 0)]), CE) == 0.0
    # the (0.3, 0.2, 0.5) output costs -log of the picked singleton mass
    model = tiny_model()
    assert total_loss(model, Batch(labeled=[(X0, 0)]), CE) == pytest.approx(
        -math.log(0.3), abs=1e-12
    )
    assert total_loss(model, Batch(labeled=[(X0, 1)]), CE) == pytest.approx(
        -math.log(0.2), abs=1e-12
    )


def test_supervised_ce_clamps_vanishing_mass():
    model = tiny_model(xi=(-40.0,))
    assert forward(model, X0).singleton_masses[0] < 1e-12
    batch = Batch(labeled=[(X0, 0)])
    assert total_loss(model, batch, CE) == pytest.approx(-math.log(1e-12), abs=1e-9)
    # a clamped row pulls on nothing
    for name, block in _blocks(model.config, gradients(model, batch, CE)).items():
        assert np.all(block == 0.0), name


def test_supervised_ce_validation():
    # a label is a class index of the model: an integer in [0, K)
    for bad in (2, -1, 1.0, "0", None):
        for fn in (total_loss, gradients):
            with pytest.raises(ValueError):
                fn(tiny_model(), Batch(labeled=[(X0, bad)]), CE)
    # K = 3: the third class is a target like any other
    model = three_class_model()
    m, _ = oracles.fused_output(model, X0)
    assert total_loss(model, Batch(labeled=[(X0, 2)]), CE) == pytest.approx(
        -math.log(m[2]), abs=1e-12
    )


def test_consistency_loss():
    model = tiny_model(beta=((0.6, 0.4),))
    far = np.full(2, 100.0)  # no evidence there: masses (0, 0)
    assert total_loss(model, Batch(unlabeled=[(X0, [X0.copy()])]), CE) == 0.0
    # masses (0.3, 0.2) vs (0, 0): squared difference 0.09 + 0.04 per copy
    one = Batch(unlabeled=[(X0, [far])])
    assert total_loss(model, one, CE) == pytest.approx(0.13, abs=1e-12)
    two = Batch(unlabeled=[(X0, [far, far])])
    assert total_loss(model, two, CE) == pytest.approx(0.26, abs=1e-12)
    # instances are averaged, and the term is scaled by its weight
    mixed = Batch(unlabeled=[(X0, [far]), (X0, [X0.copy()])])
    assert total_loss(model, mixed, CE) == pytest.approx(0.065, abs=1e-12)
    half = TrainConfig(loss_mode="evidential_ce", lam=0.0, consistency_weight=0.5)
    assert total_loss(model, one, half) == pytest.approx(0.065, abs=1e-12)


def test_cost_mse_pl():
    model = tiny_model()  # one prototype, alpha = 0.5; pl = (0.8, 0.7) at 0
    cfg = TrainConfig(loss_mode="mse_pl", lam=0.01)
    want = (0.8 - 1.0) ** 2 + 0.7**2 + 0.01 * 0.5
    assert total_loss(model, Batch(labeled=[(X0, 0)]), cfg) == pytest.approx(
        want, abs=1e-12
    )
    # two instances are averaged, not summed
    two = Batch(labeled=[(X0, 0), (X0, 0)])
    assert total_loss(model, two, MSE) == pytest.approx(
        (0.8 - 1.0) ** 2 + 0.7**2, abs=1e-12
    )


# batched objective

def test_total_loss_composes_from_instance_losses():
    model, batch, cfg = ce_check_pair(3)
    sup = np.mean(
        [
            oracles.ce_row(oracles.fused_output(model, x)[0], y, LOG_EPS)
            for x, y in batch.labeled
        ]
    )
    cons = np.mean(
        [
            oracles.consistency_row(
                oracles.fused_output(model, x)[0],
                [oracles.fused_output(model, xt)[0] for xt in copies],
            )
            for x, copies in batch.unlabeled
        ]
    )
    reg = cfg.lam * sum(oracles.sigmoid(v) for v in model.xi)
    want = sup + cfg.consistency_weight * cons + reg
    assert total_loss(model, batch, cfg) == pytest.approx(want, rel=1e-9)


def test_total_loss_mse_mode_matches_cost_helper():
    model, batch, cfg = mse_check_pair(3)
    sup = np.mean(
        [oracles.mse_row(oracles.fused_output(model, x)[1], y) for x, y in batch.labeled]
    )
    reg = cfg.lam * sum(oracles.sigmoid(v) for v in model.xi)
    assert total_loss(model, batch, cfg) == pytest.approx(sup + reg, rel=1e-9)


def test_batch_validation():
    model, _, cfg = mse_check_pair(0)
    with pytest.raises(EvidnetError, match="^batch has neither labeled nor unlabeled instances$"):
        total_loss(model, Batch(), cfg)
    with pytest.raises(ValueError):
        total_loss(model, Batch(labeled=[(np.zeros(5), 3)]), cfg)
    with pytest.raises(DimensionMismatchError):
        total_loss(model, Batch(labeled=[(np.zeros(4), 1)]), cfg)
    with pytest.raises(EvidnetError, match="^unlabeled instance without perturbed copies$"):
        total_loss(model, Batch(unlabeled=[(np.zeros(5), [])]), cfg)
    ragged = Batch(
        unlabeled=[
            (np.zeros(5), [np.zeros(5), np.zeros(5)]),
            (np.zeros(5), [np.zeros(5)]),
        ]
    )
    with pytest.raises(DimensionMismatchError):
        total_loss(model, ragged, cfg)
    # each x is one row: a two-row x is refused, not spread over two rows
    # that would shift the unlabeled offset
    two_rows = Batch(labeled=[(np.zeros(5), 0)], unlabeled=[(np.zeros((2, 5)), [np.zeros(5)])])
    with pytest.raises(DimensionMismatchError, match="^batch rows disagree in dimension: "):
        total_loss(model, two_rows, cfg)
    with pytest.raises(DimensionMismatchError,
                       match=r"^feature matrix has shape \(1, 2, 5\), expected \(n, 5\)$"):
        total_loss(model, Batch(labeled=[(np.zeros((2, 5)), 0)]), cfg)
    # at d = 1 a scalar is a row
    line = init_model(ModelConfig(d_in=1, r=1, h=1, k=2), np.array([[0.0], [1.0]]), [0, 1],
                      seed=0)
    scalars = Batch(labeled=[(0.5, 0), (np.float64(1.0), 1)], unlabeled=[(0.2, [0.3])])
    rows = Batch(labeled=[([0.5], 0), ([1.0], 1)], unlabeled=[([0.2], [[0.3]])])
    assert total_loss(line, scalars, cfg) == total_loss(line, rows, cfg)


def test_batch_api_refuses_a_non_finite_row():
    # the stacked batch is checked once, before the kernel, by every entry point
    model, batch, cfg = mse_check_pair(0)
    x = np.full(5, np.nan)
    for bad in (Batch(labeled=batch.labeled + [(x, 0)], unlabeled=batch.unlabeled),
                Batch(labeled=batch.labeled, unlabeled=[(np.zeros(5), [x])])):
        for call in (total_loss, gradients, grad_check):
            with pytest.raises(NonFiniteInputError, match="^non-finite feature values$"):
                call(model, bad, cfg)


# analytic gradients

def test_gradients_zero_at_flat_consistency_minimum():
    model, _, _ = ce_check_pair(1)
    x = np.linspace(-1, 1, 5)
    batch = Batch(unlabeled=[(x, [x.copy(), x.copy()])])
    cfg = TrainConfig(loss_mode="evidential_ce", lam=0.0, consistency_weight=1.0)
    assert total_loss(model, batch, cfg) == 0.0
    for name, block in _blocks(model.config, gradients(model, batch, cfg)).items():
        assert np.all(block == 0.0), name


def test_gradients_regularizer_only():
    model, _, _ = ce_check_pair(1)
    x = np.linspace(-1, 1, 5)
    batch = Batch(unlabeled=[(x, [x.copy(), x.copy()])])
    cfg = TrainConfig(loss_mode="evidential_ce", lam=0.01, consistency_weight=1.0)
    grads = _blocks(model.config, gradients(model, batch, cfg))
    alpha = np.array([oracles.sigmoid(v) for v in model.xi])
    assert np.allclose(grads["xi"], 0.01 * alpha * (1 - alpha), atol=1e-15)
    for name in ("w", "b", "centers", "beta", "eta"):
        assert np.all(grads[name] == 0.0), name


def test_overflowing_row_gives_non_finite_gradient():
    # d^2 overflows to inf: the clamped loss stays finite, its gradient does not
    model = tiny_model()
    far = np.array([1e308, 1e308])
    cfg = TrainConfig(lam=0.0, max_epochs=1)
    data = FeatureDataset(np.array([far, [0.0, 0.0]]), [0, 1], ("positive", "negative"))
    with np.errstate(all="ignore"):
        assert total_loss(model, Batch(labeled=[(far, 0)]), cfg) == pytest.approx(
            -math.log(LOG_EPS)
        )
        with pytest.raises(EvidnetError, match="^non-finite gradient in eta$"):
            gradients(model, Batch(labeled=[(far, 0)]), cfg)
        with pytest.raises(EvidnetError, match="^non-finite gradient in eta$"):
            train(model, data, data, cfg)


def test_gradient_blocks_match_parameter_shapes():
    model, batch, cfg = ce_check_pair(2)
    grad = gradients(model, batch, cfg)
    assert grad.shape == model.theta.shape
    blocks = _blocks(model.config, grad)
    assert list(blocks) == list(PARAM_FIELDS) == ["w", "b", "centers", "beta", "xi", "eta"]
    for name, block in blocks.items():
        assert block.shape == getattr(model, name).shape


def test_grad_check_agrees_on_sample_pairs():
    model, batch, cfg = mse_check_pair(0)
    assert grad_check(model, batch, cfg, step=1e-5) < 1e-6
    model, batch, cfg = ce_check_pair(0)
    assert grad_check(model, batch, cfg, step=1e-5) < 1e-4


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("k", [3, 5])
def test_grad_check_agrees_on_multiclass_pairs(k, r):
    # At r = 1 every leave-one-out product is empty, so it is 1. Seeds 0-9
    # measured worst (mse, ce): K=3 r=1 3.1e-11, 2.6e-5; r=2 1.9e-10, 5.2e-6;
    # r=3 8e-11, 2e-7; K=5 r=1 5.5e-11, 1.7e-6; r=2 2.8e-11, 6.5e-5; r=3
    # 1.8e-10, 9.7e-8.
    for seed in range(10):
        assert grad_check(*mse_check_pair(seed, k=k, r=r), step=1e-5) < 1e-6, seed
        assert grad_check(*ce_check_pair(seed, k=k, r=r), step=1e-5) < 1e-4, seed


@pytest.mark.parametrize("pair, bound", [(mse_check_pair, 1e-6), (ce_check_pair, 1e-4)])
def test_grad_check_with_labeled_rows_on_centers(pair, bound):
    # W = [I | 0] and b = 0 make z the first h features exactly, so the first
    # r labeled rows sit on the centers, where |z|^2 - 2 z c^T + |c|^2 cancels.
    # Center gradients there come near 1e-6, where the loss's rounding over
    # the step is what a comparison without grad_check's slack would read
    # (mse seed 4: 5.5e-6). Seeds 0-9 measured worst: mse 4.1e-10, ce 2.5e-10.
    for seed in range(10):
        model, batch, cfg = pair(seed)
        rows = np.array([x for x, _ in batch.labeled[: model.config.r]])
        w = np.eye(model.config.h, model.config.d_in)
        model = replace(model, w=w, b=np.zeros(model.config.h), centers=rows @ w.T)
        assert np.array_equal(forward(model, rows[0]).activations[0], _sigmoid(model.xi[0]))
        assert grad_check(model, batch, cfg, step=1e-5) < bound, seed


@pytest.mark.parametrize("pair", [mse_check_pair, ce_check_pair])
def test_grad_check_catches_one_wrong_entry(pair):
    # each block's largest analytic entry, off by a relative 1e-5, reads
    # about 5e-6: above the 1e-6 bound the agreement tests use
    model, batch, cfg = pair(0)
    backward = evidnet.training._backward_arrays
    start = 0
    for name, block in _blocks(model.config, gradients(model, batch, cfg)).items():
        j = start + int(np.argmax(np.abs(block)))
        start += block.size

        def scaled(*args):
            grad = backward(*args)
            grad[j] *= 1.0 + 1e-5
            return grad

        with mock.patch.object(evidnet.training, "_backward_arrays", scaled):
            assert grad_check(model, batch, cfg, step=1e-5) > 1e-6, name


# Kernel cases: K up to 16 classes, r up to 19 prototypes, either loss, up
# to 4 labeled and 3 unlabeled rows with 1 or 2 copies each; optionally rows
# on prototypes, a saturated alpha, a zero beta entry, an eta whose square
# overflows.
KERNEL_CASES = st.tuples(
    st.integers(2, 16), st.integers(1, 19), st.sampled_from(LOSS_MODES),
    st.integers(0, 4), st.integers(0, 3), st.integers(1, 2), st.integers(0, 2**32 - 1),
    st.booleans(), st.booleans(), st.booleans(), st.booleans(),
)


def kernel_case(k, r, loss_mode, n_lab, n_unl, t, seed, on_center, saturated, zero_beta,
                huge_eta):
    """(model, stacked rows, labels, unlabeled count, TrainConfig) of one
    kernel case, or None for an empty batch."""
    if n_lab + n_unl == 0:
        return None
    rng = np.random.default_rng(seed)
    d_in, h = 4, 3
    x = rng.standard_normal((n_lab + n_unl * (1 + t), d_in))
    w = rng.uniform(-0.6, 0.6, (h, d_in))
    b = rng.uniform(-0.1, 0.1, h)
    centers = rng.standard_normal((r, h)) * 0.7
    if on_center:  # rows on prototypes, where the distance cancels to ~0
        on = min(r, x.shape[0])
        centers[:on] = (x @ w.T + b)[:on]
    beta = rng.uniform(0.05, 1.5, (r, k))
    if zero_beta:
        beta[0, rng.integers(k)] = 0.0
    xi = rng.uniform(-3.0, 3.0, r)
    if saturated:
        xi[0] = 40.0  # sigmoid(40) rounds to 1, so s = 1 on a center
    eta = rng.uniform(0.3, 1.5, r)
    if huge_eta:
        eta[-1] = rng.choice([-1e200, 1e200])  # eta^2 overflows to inf
    with np.errstate(all="ignore"):
        model = EvidentialModel(
            config=ModelConfig(d_in=d_in, r=r, h=h, k=k),
            class_names=tuple(f"c{j}" for j in range(k)),
            w=w, b=b, centers=centers, beta=beta, xi=xi, eta=eta,
        )
    y = rng.integers(0, k, n_lab)
    return model, x, y, n_unl, TrainConfig(loss_mode=loss_mode, lam=0.01)


def kernel_step(model, x, y, n_unl, cfg):
    """The training step's objective, forward cache, upstream gradient
    (K+1, n) on the masses and gradient, read through the name the step
    calls."""
    seen = {}
    backward = evidnet.training._backward_arrays

    def spy(model, cache, gmass, lam):
        seen.update(cache=cache, gmass=gmass)
        return backward(model, cache, gmass, lam)

    with mock.patch.object(evidnet.training, "_backward_arrays", spy):
        loss, grad = evidnet.training._loss_and_grads(model, x, y, n_unl, cfg, want_grads=True)
    return loss, seen["cache"], seen["gmass"], grad


@settings(deadline=None, max_examples=200)
@given(KERNEL_CASES)
def test_kernel_matches_reference_kernel_bit_for_bit(args):
    # every forward intermediate, the model's constants and the gradient
    # against the kernel that derives its constants per call
    case = kernel_case(*args)
    assume(case is not None)
    model, x, y, n_unl, cfg = case
    k = model.config.k
    with np.errstate(all="ignore"):
        try:
            want = oracles.reference_forward_arrays(model, x)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                _forward_arrays(model, x)
            return
        got = _forward_arrays(model, x)
        assert set(want) == set(got) | {"alpha", "gamma", "u", "omu"}
        for key, value in got.items():
            assert value.tobytes() == want[key].tobytes(), key
        assert model.alpha.tobytes() == want["alpha"].tobytes()
        assert model.gamma.tobytes() == want["gamma"].tobytes()
        assert model.u[:, :k].tobytes() == want["u"].tobytes()
        assert model.omu.tobytes() == want["omu"].tobytes()
        _, _, gmass, grad = kernel_step(model, x, y, n_unl, cfg)
        ref = oracles.reference_backward_arrays(model, want, gmass, cfg.lam)
    assert grad.tobytes() == ref.tobytes()


# The kernel against the previous kernel kept in oracles (contractions by
# einsum, the normalizer as sum_k a_k - (K - 1) b), layer by layer on the
# same inputs: the forward pass on the same rows, the backward pass on the
# same forward arrays and upstream gradients. Each forward array agrees
# within PREVIOUS_KERNEL_ULPS units of eps times its largest |value|, or
# times 1 for the arrays valued in [0, 1] (UNIT_BLOCKS), whose last bits are
# absolute rounding however small the values, or, for each entry of d2,
# times the squared norms |c_i|^2 + |z_n|^2 it is expanded from, whose
# rounding the two kernels' different norm sums leave in it however much
# the expansion cancels; each gradient block within as many units of eps
# times the largest |value| of the gradient and of the upstream gradients,
# since the backward pass is linear in them and a block such as the
# centers' is a difference of terms of their size. Worst readings seen over
# 69000 cases: 59.5 (e: exp turns the last bit of d2 into up to
# gamma (|z|^2 + |c|^2) ulps), 43.5 (s, cf, m_omega), 33 (pl), 32 (m),
# 30.4 (eta), 25.5 (n, whose previous form loses about K ulps to
# cancellation), 23 (w), 3.2 (d2).
PREVIOUS_KERNEL_ULPS = 256.0
UNIT_BLOCKS = {"e", "s", "cf", "n", "m", "m_omega", "pl"}


def ulp_reading(got, want, scale=None, rows=None) -> float:
    """max |got - want| over the entries finite in both, in units of eps
    times scale (an array that broadcasts against them, by default want's
    largest |value| there). Asserts that the two have the same shape and
    the same non-finite entries, except that an entry may be finite in one
    and not the other on the batch rows marked in rows (a mask over the
    last axis)."""
    assert got.shape == want.shape
    finite, got_finite = np.isfinite(want), np.isfinite(got)
    odd = finite != got_finite
    assert not (odd if rows is None else odd & ~rows).any()
    both, neither = finite & got_finite, ~finite & ~got_finite
    assert np.array_equal(got[neither], want[neither], equal_nan=True)
    if not both.any():
        return 0.0
    diff = np.abs(got[both] - want[both])
    scale = np.broadcast_to(np.abs(want[both]).max() if scale is None else scale,
                            want.shape)[both]
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(diff == 0.0, 0.0, diff / (np.finfo(float).eps * scale)).max())


def gamma_overflow_rows(model, old, new):
    """Mask of the batch rows on which the two kernels' forward arrays may
    differ as NaN against a number: at a prototype whose gamma overflowed
    to inf, e = exp(-inf * d2) is NaN where d2 rounds to exactly 0 and 0
    where it rounds to a tiny positive value, so which one a row on that
    prototype gets rests on d2's last bit, which the two kernels round
    differently. Asserts that every entry of e whose NaN-ness differs is
    such an entry: an infinite gamma, 0 in one kernel, d2 = 0 in one."""
    nan_old, nan_new = np.isnan(old["e"]), np.isnan(new["e"])
    differ = nan_old != nan_new
    assert np.isinf(model.gamma[np.nonzero(differ)[0]]).all()
    assert (np.where(nan_old, new["e"], old["e"])[differ] == 0.0).all()
    assert ((old["d2"][differ] == 0.0) | (new["d2"][differ] == 0.0)).all()
    return differ.any(axis=0)


def ulps_from_previous_kernel(model, x, y, n_unl, cfg) -> float:
    """Worst reading (ulp_reading) of the kernel's forward arrays and
    gradient blocks against the previous kernel's. Asserts that both raise
    TotalConflictError or neither does, reading 0 when both do."""
    with np.errstate(all="ignore"):
        try:
            old = oracles.previous_forward_arrays(model, x)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                evidnet.training._loss_and_grads(model, x, y, n_unl, cfg, want_grads=True)
            return 0.0
        _, new, gmass, grad = kernel_step(model, x, y, n_unl, cfg)
        k = model.config.k
        old_grad = oracles.previous_backward_arrays(
            model, {**old, **new}, gmass[:k], gmass[k], cfg.lam)
        norms = model.c_sq_col + np.vecdot(new["z"], new["z"])
    rows = gamma_overflow_rows(model, old, new)
    readings = [ulp_reading(value, old[key], 1.0 if key in UNIT_BLOCKS else
                            norms if key == "d2" else None,
                            None if key in ("x", "z") else rows)
                for key, value in new.items() if key in old]
    finite = [v[np.isfinite(v)] for v in (old_grad, gmass)]
    scale = max(np.abs(v).max(initial=0.0) for v in finite)
    blocks, old_blocks = _blocks(model.config, grad), _blocks(model.config, old_grad)
    readings += [ulp_reading(blocks[name], old_blocks[name], scale) for name in PARAM_FIELDS]
    return max(readings)


@settings(deadline=None, max_examples=300)
@given(KERNEL_CASES)
def test_kernel_within_ulps_of_previous_kernel(args):
    case = kernel_case(*args)
    assume(case is not None)
    assert ulps_from_previous_kernel(*case) <= PREVIOUS_KERNEL_ULPS


# one ordinary case: 3 classes, 4 prototypes, 3 labeled and 2 unlabeled rows
SENSITIVITY_CASE = (3, 4, "evidential_ce", 3, 2, 2, 0, False, False, False, False)


@pytest.mark.parametrize("key", ["d2", "cf", "m"])
def test_previous_kernel_bound_catches_one_scaled_entry(key):
    # the largest entry of one forward intermediate, off by a relative 1e-9,
    # reads millions of ulps: far above the bound
    case = kernel_case(*SENSITIVITY_CASE)
    assert ulps_from_previous_kernel(*case) <= PREVIOUS_KERNEL_ULPS
    forward = evidnet.training._forward_arrays

    def scaled(model, x):
        cache = forward(model, x)
        block = cache[key]
        block[np.unravel_index(np.argmax(np.abs(block)), block.shape)] *= 1.0 + 1e-9
        return cache

    with mock.patch.object(evidnet.training, "_forward_arrays", scaled):
        assert ulps_from_previous_kernel(*case) > PREVIOUS_KERNEL_ULPS


@pytest.mark.parametrize("name", PARAM_FIELDS)
def test_previous_kernel_bound_catches_one_scaled_gradient_block(name):
    case = kernel_case(*SENSITIVITY_CASE)
    backward = evidnet.training._backward_arrays

    def scaled(model, *args):
        grad = backward(model, *args)
        _blocks(model.config, grad)[name][...] *= 1.0 + 1e-9
        return grad

    with mock.patch.object(evidnet.training, "_backward_arrays", scaled):
        assert ulps_from_previous_kernel(*case) > PREVIOUS_KERNEL_ULPS


def test_previous_kernel_bound_catches_a_wrong_distance_at_a_prototype():
    # row 0 sits on prototype 0, where d2 cancels to about 0: that entry,
    # off by 1e-12 of the squared norms it is expanded from, reads about
    # 4500 ulps
    case = kernel_case(*SENSITIVITY_CASE[:7], True, *SENSITIVITY_CASE[8:])
    assert ulps_from_previous_kernel(*case) <= PREVIOUS_KERNEL_ULPS
    forward = evidnet.training._forward_arrays

    def shifted(model, x):
        cache = forward(model, x)
        z = cache["z"][0]
        cache["d2"][0, 0] += 1e-12 * (model.c_sq_col[0, 0] + np.vecdot(z, z))
        return cache

    with mock.patch.object(evidnet.training, "_forward_arrays", shifted):
        assert ulps_from_previous_kernel(*case) > PREVIOUS_KERNEL_ULPS


def test_previous_kernel_comparison_excuses_no_other_nan():
    # a NaN in e at a prototype whose gamma is finite is no overflow
    case = kernel_case(*SENSITIVITY_CASE)
    forward = evidnet.training._forward_arrays

    def poisoned(model, x):
        cache = forward(model, x)
        cache["e"][0, 0] = np.nan
        return cache

    with mock.patch.object(evidnet.training, "_forward_arrays", poisoned), \
            pytest.raises(AssertionError):
        ulps_from_previous_kernel(*case)


def test_grad_check_error_grows_with_step():
    model, batch, cfg = mse_check_pair(0)
    fine = grad_check(model, batch, cfg, step=1e-5)
    coarse = grad_check(model, batch, cfg, step=1e-2)
    assert coarse > fine
    # a step that is not a positive finite number is refused up front,
    # not left to fail as a non-finite probe
    for step in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(ValueError, match="^step must be > 0$"):
            grad_check(model, batch, cfg, step=step)


# perturbations

def test_perturb_zero_sigma_copies_exactly():
    # with sigma 0 each copy is its own base row, so the consistency term
    # and its pull vanish: training matches a run with the term switched off
    train_set = blob_split(0, 0, 30, [(0.0, 0.0), (2.0, 2.0)], labeled_fraction=0.3)
    val_set = blob_split(0, 1, 15, [(0.0, 0.0), (2.0, 2.0)])
    model = fit_model(train_set)
    runs = [
        train(model, train_set, val_set,
              TrainConfig(max_epochs=3, patience=5, seed=0, batch_size=8,
                          noise_sigma=0.0, consistency_weight=weight))
        for weight in (1.0, 0.0)
    ]
    (best_on, hist_on), (best_off, hist_off) = runs
    for on, off in zip(hist_on.records, hist_off.records):
        assert on.train_loss == pytest.approx(off.train_loss, rel=0, abs=1e-12)
    assert np.allclose(best_on.theta, best_off.theta, rtol=0, atol=1e-9)


# optimizer

def zero_grads(model):
    """A zero gradient vector laid out like model.theta, and its blocks,
    which are writable views into it."""
    grads = np.zeros_like(model.theta)
    return grads, _blocks(model.config, grads)


def test_optimizer_zero_gradient_is_a_fixpoint():
    model, _, _ = mse_check_pair(1)
    cfg = TrainConfig(learning_rate=0.5)
    stepped, state = optimizer_step(model, zero_grads(model)[0], cfg, init_optimizer(model))
    assert state.step == 1
    assert np.array_equal(stepped.theta, model.theta)


def test_adam_first_step_moves_by_learning_rate():
    # bias corrections cancel on step one: update = lr * g / (|g| + eps)
    model, _, _ = mse_check_pair(1)
    grads, blocks = zero_grads(model)
    blocks["w"][:] = 2.0
    cfg = TrainConfig(learning_rate=0.1)
    stepped, state = optimizer_step(model, grads, cfg, init_optimizer(model))
    assert np.allclose(stepped.w, model.w - 0.1, atol=1e-8)
    assert state.step == 1
    # accumulators carry the expected moments, laid out like model.theta
    m, v = _blocks(model.config, state.m), _blocks(model.config, state.v)
    assert np.allclose(m["w"], 0.1 * 2.0, atol=1e-15)
    assert np.allclose(v["w"], 0.001 * 4.0, atol=1e-15)


def test_flat_adam_matches_per_block_reference():
    model, _, _ = mse_check_pair(3)
    rng = np.random.default_rng(7)
    cfg = TrainConfig(learning_rate=0.01)
    current, state = model, init_optimizer(model)
    ref = _blocks(model.config, model.theta), zero_grads(model)[1], zero_grads(model)[1]
    for step in range(1, 21):
        grads = rng.standard_normal(model.theta.shape)
        current, state = optimizer_step(current, grads, cfg, state)
        ref = oracles.reference_adam(*ref, _blocks(model.config, grads), step,
                                     cfg.learning_rate)
        got = [_blocks(model.config, v) for v in (current.theta, state.m, state.v)]
        for name in PARAM_FIELDS:
            assert got[0][name].tobytes() == ref[0][name].tobytes(), (step, name)
            assert got[1][name].tobytes() == ref[1][name].tobytes(), (step, name)
            assert got[2][name].tobytes() == ref[2][name].tobytes(), (step, name)
    assert state.step == 20


def test_optimizer_raises_at_the_step_that_breaks_the_model():
    model, _, _ = mse_check_pair(1)
    state = init_optimizer(model)
    grads, blocks = zero_grads(model)
    blocks["eta"][:] = 1.0
    huge = TrainConfig(learning_rate=1e308)
    # each step moves eta by about 1e308: the first stays finite, the second overflows
    stepped, state = optimizer_step(model, grads, huge, state)
    assert np.all(np.isfinite(stepped.eta))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteInputError, match="eta"):
        optimizer_step(stepped, grads, huge, state)
    # a first step moves each entry by lr * g / (|g| + eps), which is lr
    # for a large g: it lands a whole beta row on zero, and is refused
    model = replace(model, beta=np.full((model.config.r, 2), 0.5))
    grads, blocks = zero_grads(model)
    blocks["beta"][0] = 2.0**40
    with pytest.raises(EvidnetError, match="^a prototype's beta squares sum to zero$"):
        optimizer_step(model, grads, TrainConfig(learning_rate=0.5), init_optimizer(model))


def test_optimizer_shape_mismatch():
    model, _, _ = mse_check_pair(1)
    size = model.theta.size
    for grads in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size))):
        want = f"^{re.escape(f'gradient shape {grads.shape}, parameters ({size},)')}$"
        with pytest.raises(DimensionMismatchError, match=want):
            optimizer_step(model, grads, TrainConfig(), init_optimizer(model))


def test_optimizer_step_never_writes_its_inputs():
    model, _, _ = mse_check_pair(3)
    rng = np.random.default_rng(5)
    cfg = TrainConfig(learning_rate=0.01)
    state = init_optimizer(model)
    for _ in range(3):  # moments away from zero
        model, state = optimizer_step(model, rng.standard_normal(model.theta.shape), cfg, state)
    grads = rng.standard_normal(model.theta.shape)
    names = ("theta", *fresh_constants(model))
    before = {name: getattr(model, name).tobytes() for name in names}
    moments = state.m.tobytes(), state.v.tobytes(), grads.tobytes()
    stepped, new_state = optimizer_step(model, grads, cfg, state)
    assert {name: getattr(model, name).tobytes() for name in names} == before
    assert (state.m.tobytes(), state.v.tobytes(), grads.tobytes()) == moments
    assert state.step == 3 and new_state.step == 4
    for new in (stepped.theta, new_state.m, new_state.v):
        for old in (model.theta, state.m, state.v, grads):
            assert not np.shares_memory(new, old)


def test_optimizer_minimizes_quadratic():
    model, _, _ = mse_check_pair(2)
    cfg = TrainConfig(learning_rate=0.05)
    state = init_optimizer(model)
    current = model
    for _ in range(2000):
        grads, blocks = zero_grads(current)
        blocks["w"][:] = 2.0 * (current.w - 3.0)
        current, state = optimizer_step(current, grads, cfg, state)
    assert np.all(np.abs(current.w - 3.0) < 1e-3)
    # untouched blocks never move
    assert np.array_equal(current.b, model.b)


# every way to a model gives read-only parameters and fresh constants

def fresh_constants(model) -> dict[str, np.ndarray]:
    """Every constant a model binds, derived afresh from its parameters."""
    bsq = model.beta**2
    fresh = {
        "alpha": oracles.masked_sigmoid(model.xi),
        "gamma": model.eta**2,
        "u": np.hstack([bsq / bsq.sum(axis=1)[:, None], np.zeros((model.config.r, 1))]),
        "beta_sq_sum": bsq.sum(axis=1),
        "neg2_centers": -2.0 * model.centers,
        "b_row": model.b[None, :],
        "c_sq_col": np.vecdot(model.centers, model.centers)[:, None],
    }
    fresh["omu"] = 1.0 - fresh["u"]
    fresh["alpha_col"] = fresh["alpha"][:, None]
    fresh["neg_gamma_col"] = -fresh["gamma"][:, None]
    fresh["u_col"] = fresh["u"][:, :, None]
    return fresh


def assert_frozen_with_fresh_constants(model):
    for name in ("theta", *PARAM_FIELDS):
        block = getattr(model, name)
        with pytest.raises(ValueError, match="read-only"):
            block[(0,) * block.ndim] = 5.0
    for name, want in fresh_constants(model).items():
        got = getattr(model, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            got[(0,) * got.ndim] = 5.0


def test_fresh_constants_cover_every_bound_array():
    # a constant bound in _bind but left out of fresh_constants would go
    # unchecked by every test above
    model = three_class_model()
    bound = {f.name for f in fields(EvidentialModel)
             if not f.init and isinstance(getattr(model, f.name), np.ndarray)}
    assert bound - {"theta"} == set(fresh_constants(model))


def test_every_constructor_path_freezes_parameters_and_derives_constants(tmp_path):
    model = three_class_model()
    assert_frozen_with_fresh_constants(model)
    assert_frozen_with_fresh_constants(replace(model, xi=model.xi + 1.0, eta=model.eta * 3))
    grads = np.full(model.theta.shape, 0.5)
    stepped, _ = optimizer_step(model, grads, TrainConfig(learning_rate=0.1),
                                init_optimizer(model))
    assert_frozen_with_fresh_constants(stepped)
    save_model(stepped, tmp_path / "m.json")
    assert_frozen_with_fresh_constants(load_model(tmp_path / "m.json"))

    train_set, val_set = easy_sets()
    fitted = fit_model(train_set)
    assert_frozen_with_fresh_constants(fitted)
    best, _ = train(fitted, train_set, val_set, TrainConfig(max_epochs=3, seed=0))
    assert_frozen_with_fresh_constants(best)


# training loop

def easy_sets(seed=0):
    train_set = blob_split(seed, 0, 40, [(0.0, 0.0), (4.0, 4.0)])
    val_set = blob_split(seed, 1, 20, [(0.0, 0.0), (4.0, 4.0)])
    return train_set, val_set


def fit_model(train_set, seed=0, r=2, h=4):
    feats, labs = labeled_subset(train_set)
    return init_model(ModelConfig(d_in=16, r=r, h=h, k=2), feats, labs, seed=seed)


def test_train_returns_best_epoch_parameters(monkeypatch):
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    script = iter([0.5, 0.9, 0.7, 0.7])
    snapshots = []

    def scripted_accuracy(current, _val_set):
        snapshots.append(current)  # models are immutable: a reference is a snapshot
        return next(script)

    monkeypatch.setattr(evidnet.training, "_validation_accuracy", scripted_accuracy)
    cfg = TrainConfig(max_epochs=10, patience=2, seed=0)
    best, history = train(model, train_set, val_set, cfg)
    assert [r.epoch for r in history.records] == [1, 2, 3, 4]
    assert history.best_epoch == 2
    assert history.stopped_early
    assert history.best_val_accuracy == 0.9
    assert best.theta.tobytes() == snapshots[1].theta.tobytes()


def test_train_runs_to_max_epochs_without_improvement_stall(monkeypatch):
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    values = iter(i / 100.0 for i in range(1, 100))  # strictly improving
    monkeypatch.setattr(evidnet.training, "_validation_accuracy", lambda m, v: next(values))
    cfg = TrainConfig(max_epochs=6, patience=2, seed=0)
    _, history = train(model, train_set, val_set, cfg)
    assert len(history.records) == 6
    assert not history.stopped_early
    assert history.best_epoch == 6


def test_train_is_deterministic():
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    cfg = TrainConfig(max_epochs=4, patience=10, seed=3, learning_rate=0.01)
    best1, hist1 = train(model, train_set, val_set, cfg)
    best2, hist2 = train(model, train_set, val_set, cfg)
    assert hist1.records == hist2.records
    assert best1.theta.tobytes() == best2.theta.tobytes()


def test_train_improves_or_holds_on_separable_data():
    train_set, val_set = easy_sets(seed=1)
    model = fit_model(train_set, seed=1)
    cfg = TrainConfig(max_epochs=20, patience=5, seed=1)
    best, history = train(model, train_set, val_set, cfg)
    assert history.records[-1].val_accuracy >= history.records[0].val_accuracy
    assert history.best_val_accuracy >= 0.9


def test_train_semi_supervised_runs():
    train_set = blob_split(0, 0, 30, [(0.0, 0.0), (2.0, 2.0)], labeled_fraction=0.3)
    val_set = blob_split(0, 1, 15, [(0.0, 0.0), (2.0, 2.0)])
    model = fit_model(train_set)
    cfg = TrainConfig(max_epochs=5, patience=5, seed=0, consistency_weight=1.0)
    best, history = train(model, train_set, val_set, cfg)
    assert all(math.isfinite(r.train_loss) for r in history.records)
    assert len(history.records) >= 1


def test_train_epoch_callback_sees_every_record():
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    seen = []
    cfg = TrainConfig(max_epochs=3, patience=10, seed=0)
    _, history = train(model, train_set, val_set, cfg, on_epoch=seen.append)
    assert seen == history.records


def test_train_three_classes():
    # three separated blobs: training lowers the loss and keeps every class
    means = [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)]
    for seed in range(5):
        train_set = blob_split(seed, 0, 40, means)
        val_set = blob_split(seed, 1, 20, means)
        test_set = blob_split(seed, 2, 20, means)
        feats, labs = labeled_subset(train_set)
        model = init_model(ModelConfig(d_in=16, r=6, h=8, k=3), feats, labs, seed=seed)
        cfg = TrainConfig(max_epochs=30, patience=5, seed=seed, learning_rate=0.01)
        best, history = train(model, train_set, val_set, cfg)
        assert history.records[-1].train_loss < history.records[0].train_loss
        preds = forward_batch(best, test_set.features)[2].argmax(axis=1)
        assert set(preds) == {0, 1, 2}
        assert np.mean(preds == np.asarray(test_set.labels)) >= 0.95, seed


@pytest.mark.parametrize("loss_mode, t, batch_size, k, labeled_fraction", [
    ("evidential_ce", 1, 7, 2, 0.3),  # more unlabeled rows than labeled, uneven batches
    ("mse_pl", 3, 7, 2, 0.3),
    ("evidential_ce", 3, 8, 2, 1.0),  # no unlabeled rows
    ("mse_pl", 1, 7, 3, 0.7),  # fewer unlabeled rows than labeled
    ("evidential_ce", 2, 16, 3, 0.3),
])
def test_train_matches_reference_loop(loss_mode, t, batch_size, k, labeled_fraction):
    means = [(0.0, 0.0), (2.0, 2.0), (0.0, 3.0)][:k]
    train_set = blob_split(0, 0, 30, means, labeled_fraction=labeled_fraction)
    val_set = blob_split(0, 1, 15, means)
    feats, labs = labeled_subset(train_set)
    model = init_model(ModelConfig(d_in=16, r=3, h=4, k=k), feats, labs, seed=0)
    cfg = TrainConfig(loss_mode=loss_mode, t_perturb=t, batch_size=batch_size, max_epochs=4,
                      patience=2, seed=1, learning_rate=0.01)
    features = train_set.features.tobytes()
    best, history = train(model, train_set, val_set, cfg)
    want, want_history = oracles.reference_train(model, train_set, val_set, cfg)
    assert history == want_history
    assert best.theta.tobytes() == want.theta.tobytes()
    assert train_set.features.tobytes() == features


def test_train_memory_grows_with_the_perturbed_copies_alone():
    # beyond its inputs, train holds one (n_unl, T, d) buffer of copies,
    # reused every epoch, and buffers that do not grow with the rows:
    # doubling the training set grows the traced peak by little more than
    # the copies' bytes
    means = [(0.0, 0.0), (2.0, 2.0)]
    val_set = blob_split(0, 1, 50, means, d_in=64)
    cfg = TrainConfig(t_perturb=2, max_epochs=2, patience=2, seed=0)
    peaks, copy_bytes = [], []
    for n in (2000, 4000):
        train_set = blob_split(0, 0, n // 2, means, labeled_fraction=0.5, d_in=64)
        feats, labs = labeled_subset(train_set)
        model = init_model(ModelConfig(d_in=64, r=4, h=8, k=2), feats, labs, seed=0)
        features = train_set.features.tobytes()
        tracemalloc.start()
        try:
            train(model, train_set, val_set, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert train_set.features.tobytes() == features
        copy_bytes.append(train_set.labels.count(None) * cfg.t_perturb * 64 * 8)
    # private copies of the rows, and each epoch's copies drawn into a new
    # array while the last epoch's are alive, read 3.05x; one reused buffer
    # read 1.13x with the whole buffer's finiteness mask, and 1.07x with
    # one block's
    assert peaks[1] - peaks[0] <= 1.25 * (copy_bytes[1] - copy_bytes[0])


def test_train_refuses_an_overflowing_perturbed_copy():
    # the row is finite, but x + sigma * noise rounds past the float range
    train_set, val_set = easy_sets()
    far = np.full((1, 16), np.finfo(float).max)
    data = FeatureDataset(np.vstack([train_set.features, far]),
                          list(train_set.labels) + [None], train_set.class_names)
    model = fit_model(train_set)
    cfg = TrainConfig(max_epochs=2, noise_sigma=1e300)
    for run in (train, oracles.reference_train):
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteInputError, match="^non-finite feature values$"):
            run(model, data, val_set, cfg)


def test_train_refuses_a_training_set_of_the_wrong_width():
    # the training matrix is checked as a whole, and named by its own shape
    train_set, val_set = easy_sets()
    narrow = replace(train_set, features=train_set.features[:, :15])
    model = fit_model(train_set)
    with pytest.raises(DimensionMismatchError,
                       match=r"^feature matrix has shape \(80, 15\), expected \(n, 16\)$"):
        train(model, narrow, val_set, TrainConfig(max_epochs=2))


def test_train_checks_the_validation_matrix_before_any_step():
    # a validation matrix that forward_batch would refuse is refused before
    # the first optimizer step, with forward_batch's message
    train_set, val_set = easy_sets()
    narrow = replace(val_set, features=val_set.features[:, :15])
    model = fit_model(train_set)
    with mock.patch.object(evidnet.training, "optimizer_step", wraps=optimizer_step) as step, \
            pytest.raises(DimensionMismatchError,
                          match=r"^feature matrix has shape \(40, 15\), expected \(n, 16\)$"):
        train(model, train_set, narrow, TrainConfig(max_epochs=2))
    assert step.call_count == 0


def test_train_refuses_class_names_other_than_the_models():
    # labels index the model's class order: the validation rows with their
    # two names swapped and their labels flipped would score 0.0, not 1.0
    train_set, val_set = easy_sets()
    swapped = FeatureDataset(features=val_set.features,
                             labels=[1 - lab for lab in val_set.labels],
                             class_names=val_set.class_names[::-1])
    model = fit_model(train_set)
    cases = (
        (train_set, swapped, "validation set classes ('negative', 'positive')"),
        (replace(train_set, class_names=("pos", "neg")), val_set,
         "training set classes ('pos', 'neg')"),
    )
    for train_on, val_on, named in cases:
        want = f"{named} differ from the model's ('positive', 'negative')"
        with mock.patch.object(evidnet.training, "optimizer_step", wraps=optimizer_step) as step, \
                pytest.raises(EvidnetError, match=exactly(want)):
            train(model, train_on, val_on, TrainConfig(max_epochs=2))
        assert step.call_count == 0


def test_train_validation_requirements():
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    cfg = TrainConfig(max_epochs=2)
    unlabeled = FeatureDataset(
        features=train_set.features,
        labels=[None] * train_set.n,
        class_names=train_set.class_names,
    )
    with pytest.raises(EvidnetError, match="^training set has no labeled instances$"):
        train(model, unlabeled, val_set, cfg)
    empty = FeatureDataset(
        features=np.zeros((0, 16)), labels=[], class_names=train_set.class_names
    )
    with pytest.raises(EvidnetError, match="^validation set is empty$"):
        train(model, train_set, empty, cfg)
    half = FeatureDataset(
        features=val_set.features,
        labels=[None] + list(val_set.labels[1:]),
        class_names=val_set.class_names,
    )
    with pytest.raises(EvidnetError, match="^validation set must be fully labeled$"):
        train(model, train_set, half, cfg)
    three = FeatureDataset(
        features=train_set.features,
        labels=[2] + list(train_set.labels[1:]),
        class_names=train_set.class_names + ("third",),
    )
    with pytest.raises(ValueError):
        train(model, three, val_set, cfg)
    # validation labels obey the same rule: a K=2 model has no class 2
    three_val = replace(val_set, labels=[2] + list(val_set.labels[1:]),
                        class_names=val_set.class_names + ("third",))
    with pytest.raises(ValueError, match=r"label 2 is not a class index in \[0, 2\)"):
        train(model, train_set, three_val, cfg)
