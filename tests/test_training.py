from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import evidnet.training
from evidnet import (
    Batch,
    DimensionMismatchError,
    EmptyBatchError,
    EmptyListError,
    EmptyValidationError,
    EvidentialModel,
    FeatureDataset,
    ModelConfig,
    NoLabeledDataError,
    NonFiniteGradientError,
    NonFiniteInputError,
    ShapeMismatchError,
    TotalConflictError,
    TrainConfig,
    ZeroBetaError,
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
    with pytest.raises(EmptyBatchError):
        total_loss(model, Batch(), cfg)
    with pytest.raises(ValueError):
        total_loss(model, Batch(labeled=[(np.zeros(5), 3)]), cfg)
    with pytest.raises(DimensionMismatchError):
        total_loss(model, Batch(labeled=[(np.zeros(4), 1)]), cfg)
    with pytest.raises(EmptyListError):
        total_loss(model, Batch(unlabeled=[(np.zeros(5), [])]), cfg)
    ragged = Batch(
        unlabeled=[
            (np.zeros(5), [np.zeros(5), np.zeros(5)]),
            (np.zeros(5), [np.zeros(5)]),
        ]
    )
    with pytest.raises(DimensionMismatchError):
        total_loss(model, ragged, cfg)


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
        with pytest.raises(NonFiniteGradientError):
            gradients(model, Batch(labeled=[(far, 0)]), cfg)
        with pytest.raises(NonFiniteGradientError):
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


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 16), st.integers(1, 19), st.sampled_from(LOSS_MODES),
       st.integers(0, 4), st.integers(0, 3), st.integers(1, 2), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_kernel_matches_reference_kernel_bit_for_bit(
    k, r, loss_mode, n_lab, n_unl, t, seed, on_center, saturated, zero_beta, huge_eta
):
    # every forward intermediate, the model's constants and the gradient
    # against the kernel that derived its constants per call
    assume(n_lab + n_unl > 0)
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
        try:
            want = oracles.reference_forward_arrays(model, x)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                _forward_arrays(model, x)
            return
        got = _forward_arrays(model, x)
        assert set(want) == set(got) | {"alpha", "gamma", "u"}
        for key, value in got.items():
            assert value.tobytes() == want[key].tobytes(), key
        assert model.alpha.tobytes() == want["alpha"].tobytes()
        assert model.gamma.tobytes() == want["gamma"].tobytes()
        assert model.u[:, :k].tobytes() == want["u"].tobytes()

        upstream = {}
        backward = evidnet.training._backward_arrays

        def spy(model, cache, gm, gmo, lam):
            upstream.update(gm=gm, gmo=gmo)
            return backward(model, cache, gm, gmo, lam)

        cfg = TrainConfig(loss_mode=loss_mode, lam=0.01)
        with mock.patch.object(evidnet.training, "_backward_arrays", spy):
            _, grad = evidnet.training._loss_and_grads(
                model, x, rng.integers(0, k, n_lab), n_unl, cfg, want_grads=True
            )
        ref = oracles.reference_backward_arrays(
            model, want, upstream["gm"], upstream["gmo"], cfg.lam
        )
    assert grad.tobytes() == ref.tobytes()


def test_grad_check_error_grows_with_step():
    model, batch, cfg = mse_check_pair(0)
    fine = grad_check(model, batch, cfg, step=1e-5)
    coarse = grad_check(model, batch, cfg, step=1e-2)
    assert coarse > fine
    with pytest.raises(ValueError):
        grad_check(model, batch, cfg, step=0.0)


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
    with pytest.raises(ZeroBetaError):
        optimizer_step(model, grads, TrainConfig(learning_rate=0.5), init_optimizer(model))


def test_optimizer_shape_mismatch():
    model, _, _ = mse_check_pair(1)
    size = model.theta.size
    for grads in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((1, size))):
        with pytest.raises(ShapeMismatchError):
            optimizer_step(model, grads, TrainConfig(), init_optimizer(model))


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

def assert_frozen_with_fresh_constants(model):
    for name in ("theta", *PARAM_FIELDS):
        block = getattr(model, name)
        with pytest.raises(ValueError, match="read-only"):
            block[(0,) * block.ndim] = 5.0
    bsq = model.beta**2
    fresh = {
        "alpha": oracles.masked_sigmoid(model.xi),
        "gamma": model.eta**2,
        "u": np.hstack([bsq / bsq.sum(axis=1)[:, None], np.zeros((model.config.r, 1))]),
        "c_sq": np.einsum("ih,ih->i", model.centers, model.centers),
        "beta_sq_sum": bsq.sum(axis=1),
    }
    for name, want in fresh.items():
        got = getattr(model, name)
        assert got.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError, match="read-only"):
            got[(0,) * got.ndim] = 5.0


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


def test_train_validation_requirements():
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    cfg = TrainConfig(max_epochs=2)
    unlabeled = FeatureDataset(
        features=train_set.features,
        labels=[None] * train_set.n,
        class_names=train_set.class_names,
    )
    with pytest.raises(NoLabeledDataError):
        train(model, unlabeled, val_set, cfg)
    empty = FeatureDataset(
        features=np.zeros((0, 16)), labels=[], class_names=train_set.class_names
    )
    with pytest.raises(EmptyValidationError):
        train(model, train_set, empty, cfg)
    half = FeatureDataset(
        features=val_set.features,
        labels=[None] + list(val_set.labels[1:]),
        class_names=val_set.class_names,
    )
    with pytest.raises(EmptyValidationError):
        train(model, train_set, half, cfg)
    three = FeatureDataset(
        features=train_set.features,
        labels=[2] + list(train_set.labels[1:]),
        class_names=train_set.class_names + ("third",),
    )
    with pytest.raises(ValueError):
        train(model, three, val_set, cfg)
