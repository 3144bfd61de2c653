"""Measure whether the consistency loss helps on partially labeled blobs.

For each seed, trains the same model twice on overlapping two-class
blobs where only a fraction of the training labels survive: once with
the perturbation-consistency term active and once with its weight set
to zero. Reports held-out accuracy per seed and the medians.

Usage:
    python3 scripts/semisup_compare.py --seeds 10 --labeled-fraction 0.3
"""

from __future__ import annotations

import argparse

import numpy as np

from evidnet import (
    ModelConfig,
    TrainConfig,
    accuracy,
    decide,
    forward_batch,
    init_model,
    train,
)

from make_blobs import make_split  # sibling script in this directory


def run_once(seed, args, consistency_weight):
    embedding = np.random.default_rng(1234).standard_normal((2, args.d_in))
    rng = np.random.default_rng(seed)
    train_set = make_split(rng, args.n_train, args.separation, embedding,
                           args.labeled_fraction)
    val_set = make_split(rng, args.n_val, args.separation, embedding)
    test_set = make_split(rng, args.n_test, args.separation, embedding)

    idx = [i for i, lab in enumerate(train_set.labels) if lab is not None]
    feats = train_set.features[idx]
    labs = [train_set.labels[i] for i in idx]
    model = init_model(
        ModelConfig(d_in=args.d_in, r=args.prototypes, h=args.hidden, k=2),
        feats, labs, seed=seed,
    )
    cfg = TrainConfig(
        loss_mode="evidential_ce",
        consistency_weight=consistency_weight,
        learning_rate=args.learning_rate,
        noise_sigma=args.noise_sigma,
        patience=args.patience,
        batch_size=args.batch_size,
        t_perturb=args.t_perturb,
        seed=seed,
    )
    best, _ = train(model, train_set, val_set, cfg)
    _, _, pl = forward_batch(best, test_set.features)
    return accuracy(decide(pl), test_set.labels)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--labeled-fraction", type=float, default=0.3)
    ap.add_argument("--separation", type=float, default=2.0)
    ap.add_argument("--n-train", type=int, default=100)
    ap.add_argument("--n-val", type=int, default=50)
    ap.add_argument("--n-test", type=int, default=50)
    ap.add_argument("--d-in", type=int, default=16)
    ap.add_argument("--prototypes", type=int, default=4)
    ap.add_argument("--hidden", type=int, default=8)
    ap.add_argument("--learning-rate", type=float, default=0.02)
    ap.add_argument("--noise-sigma", type=float, default=0.5)
    ap.add_argument("--patience", type=int, default=5)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--t-perturb", type=int, default=2)
    args = ap.parse_args()

    with_term, without_term = [], []
    for seed in range(args.seeds):
        acc_on = run_once(seed, args, consistency_weight=1.0)
        acc_off = run_once(seed, args, consistency_weight=0.0)
        with_term.append(acc_on)
        without_term.append(acc_off)
        print(f"seed={seed} with={acc_on:.4f} without={acc_off:.4f}")
    print(f"median with={np.median(with_term):.4f} "
          f"without={np.median(without_term):.4f} "
          f"(labeled_fraction={args.labeled_fraction}, "
          f"separation={args.separation}, seeds={args.seeds})")


if __name__ == "__main__":
    main()
