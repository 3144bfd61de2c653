"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints a `criterion NN: PASS (...)` line with its measured
numbers (visible with -s, or in the captured output on failure); the
pytest verdict per test is the pass/fail record. Tolerances and seeds
are frozen; see the test bodies for the exact bounds.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import evidnet.training
from evidnet import (
    Frame,
    TrainConfig,
    auc,
    combine_all,
    conflict,
    dempster_combine,
    forward,
    forward_batch,
    grad_check,
    load_model,
    mass_new,
    save_model,
    train,
)

import oracles
from helpers import (
    GRAD_SEED_BASE,
    N_GRAD_SEEDS,
    blob_split,
    ce_check_pair,
    mse_check_pair,
    random_mass,
    random_prototype_model,
    random_wide_model,
    train_on_blobs,
)
from test_cli import EASY, run_cli
from test_training import easy_sets, fit_model


def _report(n: int, detail: str) -> None:
    print(f"criterion {n:02d}: PASS ({detail})")


def test_criterion_01_dempster_matches_bruteforce():
    """1000 random pairs on frames of 2-4 labels vs full double-sum tables."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(1000):
        k = 2 + trial % 3
        frame = Frame(tuple(f"c{i}" for i in range(k)))
        m1 = random_mass(rng, frame)
        m2 = random_mass(rng, frame)
        kappa = conflict(m1, m2)
        assert abs(kappa - oracles.brute_conflict(m1, m2)) <= 1e-12
        out = dempster_combine(m1, m2)
        table = oracles.brute_combine(m1, m2)
        for mask, want in table.items():
            worst = max(worst, abs(out.mass(mask) - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(1, f"1000 pairs, worst abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_fusion_equals_dempster_fold():
    """1000 random models (r <= 6): forward vs the pairwise rule over
    per-prototype masses built independently from the parameters."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(43)
    worst = 0.0
    for trial in range(1000):
        model, x = random_prototype_model(rng, 2 + trial % 2, 1 + trial % 6)
        fused = forward(model, x).mass
        folded = combine_all(oracles.prototype_masses(model, x))
        for mask in range(model.frame.full_mask + 1):
            worst = max(worst, abs(fused.mass(mask) - folded.mass(mask)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report(2, f"1000 models, worst abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_combination_worked_example():
    """Two partially conflicting sources: conflict 0.3, fused (3/7, 2/7, 2/7)."""
    frame = Frame(("a", "b", "c"))
    m1 = mass_new(frame, {0b001: 0.6, 0b111: 0.4})
    m2 = mass_new(frame, {0b010: 0.5, 0b111: 0.5})
    assert conflict(m1, m2) == pytest.approx(0.3, abs=1e-12)
    out = dempster_combine(m1, m2)
    assert out.mass(0b001) == pytest.approx(3 / 7, abs=1e-12)
    assert out.mass(0b010) == pytest.approx(2 / 7, abs=1e-12)
    assert out.mass(0b111) == pytest.approx(2 / 7, abs=1e-12)
    _report(3, "conflict 0.3, combined (3/7, 2/7, 2/7) within 1e-12")


def test_criterion_04_analytic_gradients_match_finite_differences():
    """20 random model/batch pairs per loss mode, central differences at 1e-5."""
    t0 = time.perf_counter()
    worst_mse = 0.0
    worst_ce = 0.0
    for seed in range(GRAD_SEED_BASE, GRAD_SEED_BASE + N_GRAD_SEEDS):
        model, batch, cfg = mse_check_pair(seed)
        worst_mse = max(worst_mse, grad_check(model, batch, cfg, step=1e-5))
        model, batch, cfg = ce_check_pair(seed)
        worst_ce = max(worst_ce, grad_check(model, batch, cfg, step=1e-5))
    elapsed = time.perf_counter() - t0
    assert worst_mse < 1e-6
    assert worst_ce < 1e-4
    assert elapsed < 60.0
    _report(
        4,
        f"20 pairs/mode, worst rel err mse {worst_mse:.2e} (< 1e-6), "
        f"ce {worst_ce:.2e} (< 1e-4), {elapsed:.2f}s",
    )


def test_criterion_05_supervised_toy_problem():
    """Well-separated blobs, 10 seeds: median accuracy and AUC on held-out data."""
    t0 = time.perf_counter()
    cfg = TrainConfig(loss_mode="evidential_ce", seed=0)
    accs, aucs = [], []
    for seed in range(10):
        acc, area, _ = train_on_blobs(seed, [(0.0, 0.0), (4.0, 4.0)], 1.0, cfg)
        accs.append(acc)
        aucs.append(area)
    elapsed = time.perf_counter() - t0
    med_acc = float(np.median(accs))
    med_auc = float(np.median(aucs))
    assert med_acc >= 0.95
    assert med_auc >= 0.98
    assert elapsed < 60.0
    _report(5, f"median acc {med_acc:.3f} (>= 0.95), median auc {med_auc:.4f} "
               f"(>= 0.98), {elapsed:.1f}s")


def test_criterion_06_consistency_term_does_not_hurt():
    """Overlapping blobs, 30% labeled: median accuracy with the consistency
    term on (weight 1) at least matches the term switched off (weight 0)."""
    t0 = time.perf_counter()
    on, off = [], []
    for seed in range(10):
        shared = dict(
            loss_mode="evidential_ce",
            learning_rate=0.02,
            noise_sigma=0.5,
            patience=5,
            batch_size=32,
            t_perturb=2,
            seed=seed,
        )
        acc1, _, _ = train_on_blobs(
            seed, [(0.0, 0.0), (2.0, 2.0)], 0.3,
            TrainConfig(consistency_weight=1.0, **shared),
        )
        acc0, _, _ = train_on_blobs(
            seed, [(0.0, 0.0), (2.0, 2.0)], 0.3,
            TrainConfig(consistency_weight=0.0, **shared),
        )
        on.append(acc1)
        off.append(acc0)
    elapsed = time.perf_counter() - t0
    med_on = float(np.median(on))
    med_off = float(np.median(off))
    assert med_on >= med_off
    assert elapsed < 300.0
    _report(6, f"median acc {med_on:.3f} with consistency vs {med_off:.3f} "
               f"without, 10 seeds, {elapsed:.1f}s")


def test_criterion_07_early_stopping_restores_best_epoch(monkeypatch):
    """Scripted plateau 0.6, then six 0.7s: patience 5 stops after epoch 7
    and hands back the epoch-2 parameters."""
    train_set, val_set = easy_sets()
    model = fit_model(train_set)
    script = iter([0.6, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.9, 0.9, 0.9])
    snapshots = []

    def scripted_accuracy(current, _val_set):
        snapshots.append(current.copy())
        return next(script)

    monkeypatch.setattr(evidnet.training, "_validation_accuracy", scripted_accuracy)
    cfg = TrainConfig(max_epochs=50, patience=5, seed=0)
    best, history = train(model, train_set, val_set, cfg)
    assert len(history.records) == 7  # the 0.9 epochs are never reached
    assert history.stopped_early
    assert history.best_epoch == 2
    assert history.best_val_accuracy == 0.7
    for name, arr in best.params().items():
        assert np.array_equal(arr, snapshots[1].params()[name]), name
    _report(7, "stopped after epoch 7, best_epoch 2, parameters restored bit-exact")


def test_criterion_08_auc_equals_pairwise_statistic():
    """500 random score sets (n <= 50, tie-heavy included) vs the direct
    pairwise comparison count."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 51))
        scores = rng.random(n)
        if trial % 2:
            scores = np.round(scores, 1)
        elif trial % 4 == 0:
            scores = np.round(scores, 2)
        truth = rng.integers(0, 2, n)
        truth[:2] = [0, 1]
        got = auc(scores, truth, positive=1)
        want = oracles.pairwise_auc(scores, truth, positive=1)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    _report(8, f"500 score sets, worst abs err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_09_forward_fuzz_invariants():
    """10,000 random model/input forwards: normalized, finite, and
    pl equal to singleton mass plus ignorance bit-exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(45)
    rows = 0
    for _ in range(500):
        model = random_wide_model(rng)
        X = rng.uniform(-5.0, 5.0, size=(20, model.config.d_in))
        m, m_omega, pl = forward_batch(model, X)
        assert np.all(np.isfinite(m)) and np.all(np.isfinite(m_omega))
        assert np.all(np.isfinite(pl))
        assert np.all(m >= 0.0) and np.all(m_omega >= 0.0)
        total = m.sum(axis=1) + m_omega
        assert np.all(np.abs(total - 1.0) <= 1e-9)
        assert np.array_equal(pl, m + m_omega[:, None])
        rows += X.shape[0]
        # the single-vector path builds a validated mass function
        out = forward(model, X[0])
        assert np.array_equal(out.pl, out.singleton_masses + out.ignorance)
    elapsed = time.perf_counter() - t0
    assert rows == 10000
    _report(9, f"10000 forwards, all normalized within 1e-9, pl exact, "
               f"{elapsed:.1f}s")


def test_criterion_10_determinism_and_round_trip(tmp_path):
    """Identical CLI train invocations yield byte-identical model files;
    save/load reproduces every parameter bit-exactly."""
    from evidnet import write_csv

    write_csv(blob_split(7, 0, 20, EASY), tmp_path / "train.csv")
    write_csv(blob_split(7, 1, 10, EASY), tmp_path / "val.csv")
    args = [
        "train",
        "--train", str(tmp_path / "train.csv"),
        "--val", str(tmp_path / "val.csv"),
        "--prototypes", "2",
        "--hidden", "8",
        "--max-epochs", "3",
        "--seed", "7",
    ]
    r1 = run_cli(*args, "--out", str(tmp_path / "m1.json"))
    r2 = run_cli(*args, "--out", str(tmp_path / "m2.json"))
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    b1 = (tmp_path / "m1.json").read_bytes()
    assert b1 == (tmp_path / "m2.json").read_bytes()
    assert r1.stdout == r2.stdout

    rng = np.random.default_rng(46)
    for i in range(5):
        model = random_wide_model(rng)
        save_model(model, tmp_path / "rt.json")
        back = load_model(tmp_path / "rt.json")
        for name, arr in model.params().items():
            assert np.array_equal(back.params()[name], arr), name
    _report(10, "byte-identical CLI reruns, bit-exact save/load round trips")
