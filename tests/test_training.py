from __future__ import annotations

import math

import numpy as np
import pytest

from evidnet import (
    Batch,
    DimensionMismatchError,
    EmptyBatchError,
    EmptyListError,
    EmptyValidationError,
    FeatureDataset,
    GradientVector,
    ModelConfig,
    NoLabeledDataError,
    ShapeMismatchError,
    TrainConfig,
    forward,
    grad_check,
    gradients,
    init_model,
    init_optimizer,
    optimizer_step,
    total_loss,
    train,
)

import oracles
from helpers import blob_split, ce_check_pair, labeled_subset, mse_check_pair
from test_model import three_class_model, tiny_model


# config validation

def test_train_config_defaults_are_valid():
    cfg = TrainConfig()
    assert cfg.loss_mode == "evidential_ce"
    assert cfg.optimizer == "adam"


@pytest.mark.parametrize(
    "bad",
    [
        dict(loss_mode="hinge"),
        dict(optimizer="rmsprop"),
        dict(lam=-0.1),
        dict(consistency_weight=-1.0),
        dict(noise_sigma=-0.5),
        dict(t_perturb=0),
        dict(learning_rate=0.0),
        dict(batch_size=0),
        dict(max_epochs=0),
        dict(patience=0),
        dict(log_eps=0.0),
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
    assert total_loss(certain, Batch(labeled=[(X0, 1)]), CE) == 0.0
    # the (0.3, 0.2, 0.5) output costs -log of the picked singleton mass
    model = tiny_model()
    assert total_loss(model, Batch(labeled=[(X0, 1)]), CE) == pytest.approx(
        -math.log(0.3), abs=1e-12
    )
    assert total_loss(model, Batch(labeled=[(X0, 0)]), CE) == pytest.approx(
        -math.log(0.2), abs=1e-12
    )


def test_supervised_ce_clamps_vanishing_mass():
    model = tiny_model(xi=(-40.0,))
    assert forward(model, X0).singleton_masses[0] < 1e-12
    batch = Batch(labeled=[(X0, 1)])
    assert total_loss(model, batch, CE) == pytest.approx(-math.log(1e-12), abs=1e-9)
    cfg = TrainConfig(loss_mode="evidential_ce", lam=0.0, log_eps=1e-6)
    assert total_loss(model, batch, cfg) == pytest.approx(-math.log(1e-6), abs=1e-9)
    # a clamped row pulls on nothing
    for name, block in gradients(model, batch, CE).blocks().items():
        assert np.all(block == 0.0), name


def test_supervised_ce_validation():
    with pytest.raises(ValueError):
        total_loss(tiny_model(), Batch(labeled=[(X0, 2)]), CE)
    # the losses are binary: a three-class model is refused, not misread
    for fn in (total_loss, gradients):
        with pytest.raises(ValueError):
            fn(three_class_model(), Batch(labeled=[(X0, 1)]), CE)


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
    assert total_loss(model, Batch(labeled=[(X0, 1)]), cfg) == pytest.approx(
        want, abs=1e-12
    )
    # two instances are averaged, not summed
    two = Batch(labeled=[(X0, 1), (X0, 1)])
    assert total_loss(model, two, MSE) == pytest.approx(
        (0.8 - 1.0) ** 2 + 0.7**2, abs=1e-12
    )


# batched objective

def test_total_loss_composes_from_instance_losses():
    model, batch, cfg = ce_check_pair(3)
    sup = np.mean(
        [
            oracles.ce_row(oracles.fused_output(model, x)[0], 1 - y, cfg.log_eps)
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
        [oracles.mse_row(oracles.fused_output(model, x)[1], 1 - y) for x, y in batch.labeled]
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
    grads = gradients(model, batch, cfg)
    for name, block in grads.blocks().items():
        assert np.all(block == 0.0), name


def test_gradients_regularizer_only():
    model, _, _ = ce_check_pair(1)
    x = np.linspace(-1, 1, 5)
    batch = Batch(unlabeled=[(x, [x.copy(), x.copy()])])
    cfg = TrainConfig(loss_mode="evidential_ce", lam=0.01, consistency_weight=1.0)
    grads = gradients(model, batch, cfg)
    alpha = np.array([oracles.sigmoid(v) for v in model.xi])
    assert np.allclose(grads.dxi, 0.01 * alpha * (1 - alpha), atol=1e-15)
    for name in ("w", "b", "centers", "beta", "eta"):
        assert np.all(grads.blocks()[name] == 0.0), name


def test_gradient_blocks_match_parameter_shapes():
    model, batch, cfg = ce_check_pair(2)
    grads = gradients(model, batch, cfg)
    for name, block in grads.blocks().items():
        assert block.shape == model.params()[name].shape


def test_grad_check_agrees_on_sample_pairs():
    model, batch, cfg = mse_check_pair(0)
    assert grad_check(model, batch, cfg, step=1e-5) < 1e-6
    model, batch, cfg = ce_check_pair(0)
    assert grad_check(model, batch, cfg, step=1e-5) < 1e-4


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
    for name, arr in best_on.params().items():
        assert np.allclose(arr, best_off.params()[name], rtol=0, atol=1e-9), name


# optimizer

def zero_grads(model):
    return GradientVector(
        dw=np.zeros_like(model.w),
        db=np.zeros_like(model.b),
        dcenters=np.zeros_like(model.centers),
        dbeta=np.zeros_like(model.beta),
        dxi=np.zeros_like(model.xi),
        deta=np.zeros_like(model.eta),
    )


def test_optimizer_zero_gradient_is_a_fixpoint():
    model, _, _ = mse_check_pair(1)
    for opt in ("sgd", "adam"):
        cfg = TrainConfig(optimizer=opt, learning_rate=0.5)
        stepped, state = optimizer_step(model, zero_grads(model), cfg, init_optimizer(model))
        assert state.step == 1
        for name, arr in stepped.params().items():
            assert np.array_equal(arr, model.params()[name]), (opt, name)


def test_sgd_step_is_exact():
    model, _, _ = mse_check_pair(1)
    grads = zero_grads(model)
    grads.dw = np.ones_like(model.w)
    cfg = TrainConfig(optimizer="sgd", learning_rate=0.25)
    stepped, _ = optimizer_step(model, grads, cfg, init_optimizer(model))
    assert np.array_equal(stepped.w, model.w - 0.25)
    assert np.array_equal(stepped.b, model.b)


def test_adam_first_step_moves_by_learning_rate():
    # bias corrections cancel on step one: update = lr * g / (|g| + eps)
    model, _, _ = mse_check_pair(1)
    grads = zero_grads(model)
    grads.dw = np.full_like(model.w, 2.0)
    cfg = TrainConfig(optimizer="adam", learning_rate=0.1)
    stepped, state = optimizer_step(model, grads, cfg, init_optimizer(model))
    assert np.allclose(stepped.w, model.w - 0.1, atol=1e-8)
    assert state.step == 1
    # accumulators carry the expected moments
    assert np.allclose(state.m["w"], 0.1 * 2.0, atol=1e-15)
    assert np.allclose(state.v["w"], 0.001 * 4.0, atol=1e-15)


def test_optimizer_shape_mismatch():
    model, _, _ = mse_check_pair(1)
    grads = zero_grads(model)
    grads.db = np.zeros(model.b.size + 1)
    with pytest.raises(ShapeMismatchError):
        optimizer_step(model, grads, TrainConfig(), init_optimizer(model))


@pytest.mark.parametrize("opt,lr,steps", [("sgd", 0.1, 200), ("adam", 0.05, 2000)])
def test_optimizer_minimizes_quadratic(opt, lr, steps):
    model, _, _ = mse_check_pair(2)
    cfg = TrainConfig(optimizer=opt, learning_rate=lr)
    state = init_optimizer(model)
    current = model
    for _ in range(steps):
        grads = zero_grads(current)
        grads.dw = 2.0 * (current.w - 3.0)
        current, state = optimizer_step(current, grads, cfg, state)
    assert np.all(np.abs(current.w - 3.0) < 1e-3)
    # untouched blocks never move
    assert np.array_equal(current.b, model.b)


# training loop

def easy_sets(seed=0):
    train_set = blob_split(seed, 0, 40, [(0.0, 0.0), (4.0, 4.0)])
    val_set = blob_split(seed, 1, 20, [(0.0, 0.0), (4.0, 4.0)])
    return train_set, val_set


def fit_model(train_set, seed=0, r=2, h=4):
    feats, labs = labeled_subset(train_set)
    return init_model(ModelConfig(d_in=16, r=r, h=h, k=2), feats, labs, seed=seed)


def test_train_returns_best_epoch_parameters():
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    script = iter([0.5, 0.9, 0.7, 0.7])
    snapshots = []

    def metric(current):
        snapshots.append(current.copy())
        return next(script)

    cfg = TrainConfig(max_epochs=10, patience=2, seed=0)
    best, history = train(model, train_set, val_set, cfg, val_metric=metric)
    assert [r.epoch for r in history.records] == [1, 2, 3, 4]
    assert history.best_epoch == 2
    assert history.stopped_early
    assert history.best_val_accuracy == 0.9
    for name, arr in best.params().items():
        assert np.array_equal(arr, snapshots[1].params()[name]), name


def test_train_runs_to_max_epochs_without_improvement_stall():
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    values = iter(i / 100.0 for i in range(1, 100))  # strictly improving
    cfg = TrainConfig(max_epochs=6, patience=2, seed=0)
    _, history = train(model, train_set, val_set, cfg, val_metric=lambda m: next(values))
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
    for name, arr in best1.params().items():
        assert np.array_equal(arr, best2.params()[name])


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
    # a custom metric lifts the labeled-validation requirement
    _, history = train(model, train_set, empty, cfg, val_metric=lambda m: 1.0)
    assert len(history.records) >= 1
