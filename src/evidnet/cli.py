"""Command-line front end: train, evaluate, predict, and ROC export.

stdout carries machine-parseable key=value pairs; diagnostics go to
stderr. Exit codes: 0 success, 1 data or runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .belief import Frame
from .dataio import _float_rows, _opened, export_predictions, load_csv, load_model, save_model
from .errors import DimensionMismatchError, EvidnetError, MalformedCsvError
from .metrics import metrics_report, roc_points
from .model import ModelConfig, decide, forward_batch, init_model
from .training import EpochRecord, TrainConfig, train

# External loss-selector tokens, mapped onto the internal mode names.
LOSS_FLAGS = {"eq8": "mse_pl", "eq9": "evidential_ce"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidnet",
        description="Evidential prototype classifier over CSV feature files.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    t = sub.add_parser(
        "train",
        help="fit a model on a feature CSV and save it",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    t.add_argument("--train", required=True, metavar="CSV",
                   help="training features; label column may contain '?'")
    t.add_argument("--val", required=True, metavar="CSV",
                   help="fully labeled validation features")
    t.add_argument("--out", required=True, metavar="PATH", help="model output path")
    t.add_argument("--prototypes", type=int, default=4, metavar="R",
                   help="number of prototypes")
    t.add_argument("--hidden", type=int, default=64, metavar="H",
                   help="reduced feature dimension")
    cfg = TrainConfig()  # the flag defaults are the config defaults
    loss = next(flag for flag, mode in LOSS_FLAGS.items() if mode == cfg.loss_mode)
    t.add_argument("--loss", choices=sorted(LOSS_FLAGS), default=loss,
                   help="supervised loss: eq8 = plausibility MSE, eq9 = evidential CE")
    t.add_argument("--consistency-weight", type=float, default=cfg.consistency_weight,
                   metavar="W", help="weight of the unlabeled consistency term")
    t.add_argument("--noise-sigma", type=float, default=cfg.noise_sigma, metavar="S",
                   help="std of Gaussian feature perturbations")
    t.add_argument("--t-perturb", type=int, default=cfg.t_perturb, metavar="T",
                   help="perturbed copies per unlabeled instance")
    t.add_argument("--lr", type=float, default=cfg.learning_rate, help="learning rate")
    t.add_argument("--batch", type=int, default=cfg.batch_size, help="mini-batch size")
    t.add_argument("--max-epochs", type=int, default=cfg.max_epochs, help="epoch cap")
    t.add_argument("--patience", type=int, default=cfg.patience,
                   help="early-stop window (epochs without improvement)")
    t.add_argument("--lambda", dest="lam", type=float, default=cfg.lam,
                   help="reliability regularization weight")
    t.add_argument("--seed", type=int, default=cfg.seed, help="RNG seed")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="accuracy, F1 and AUC on labeled data")
    e.add_argument("--model", required=True, metavar="PATH")
    e.add_argument("--data", required=True, metavar="CSV")
    e.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="export per-row masses and decisions")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=cmd_predict)

    r = sub.add_parser("roc", help="export the ROC curve as CSV")
    r.add_argument("--model", required=True, metavar="PATH")
    r.add_argument("--data", required=True, metavar="CSV")
    r.add_argument("--out", required=True, metavar="CSV")
    r.set_defaults(func=cmd_roc)

    return parser


def _emit_epoch(record: EpochRecord) -> None:
    print(
        f"epoch={record.epoch} loss={record.train_loss:.6f} "
        f"val_acc={record.val_accuracy:.4f}",
        flush=True,
    )


def _load_width(path, d_in: int, class_names):
    """The feature file at path, refused unless its rows hold d_in features."""
    ds = load_csv(path, class_names=class_names)
    if ds.d_in != d_in:
        raise DimensionMismatchError(f"{path}: {ds.d_in} features, expected {d_in}")
    return ds


def cmd_train(args, parser) -> int:
    if args.prototypes < 1:
        parser.error("--prototypes must be >= 1")
    if args.hidden < 1:
        parser.error("--hidden must be >= 1")
    try:
        cfg = TrainConfig(
            loss_mode=LOSS_FLAGS[args.loss],
            lam=args.lam,
            consistency_weight=args.consistency_weight,
            noise_sigma=args.noise_sigma,
            t_perturb=args.t_perturb,
            learning_rate=args.lr,
            batch_size=args.batch,
            max_epochs=args.max_epochs,
            patience=args.patience,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    train_ds = load_csv(args.train)
    try:
        Frame(train_ds.class_names)
    except ValueError as exc:  # an empty label cell, say
        raise MalformedCsvError(f"{args.train}: bad class names: {exc}") from None
    if len(train_ds.class_names) != 2:
        raise EvidnetError(
            f"{args.train}: found {len(train_ds.class_names)} class labels, need 2"
        )
    val_ds = _load_width(args.val, train_ds.d_in, train_ds.class_names)
    labeled_rows = [i for i, lab in enumerate(train_ds.labels) if lab is not None]
    if not labeled_rows:
        raise EvidnetError(f"{args.train}: no labeled rows")
    model_cfg = ModelConfig(
        d_in=train_ds.d_in, r=args.prototypes, h=args.hidden, k=2
    )
    model = init_model(
        model_cfg,
        train_ds.features[labeled_rows],
        [train_ds.labels[i] for i in labeled_rows],
        seed=cfg.seed,
        class_names=train_ds.class_names,
    )
    best, history = train(model, train_ds, val_ds, cfg, on_epoch=_emit_epoch)
    meta = {
        "seed": cfg.seed,
        "config": asdict(cfg),
        "best_val_accuracy": history.best_val_accuracy,
    }
    save_model(best, args.out, training_meta=meta)
    print(
        f"best_epoch={history.best_epoch} "
        f"best_val_acc={history.best_val_accuracy:.4f} "
        f"epochs={len(history.records)} "
        f"stopped_early={'true' if history.stopped_early else 'false'}"
    )
    return 0


def _binary_data(args, commands: str):
    """The model at args.model, refused unless it is binary before any data
    file is read (commands names what needs a binary model), and the
    feature file at args.data, read with the model's class names."""
    model = load_model(args.model)
    if model.config.k != 2:
        raise EvidnetError(f"{args.model}: {commands} defined for binary models, "
                           f"got {model.config.k} classes")
    return model, _load_width(args.data, model.config.d_in, model.class_names)


def _score_labeled(args):
    """Plausibilities and class indices of a fully labeled feature file,
    scored by a binary model."""
    model, ds = _binary_data(args, "evaluate and roc are")
    for i, lab in enumerate(ds.labels):
        if lab is None:
            raise MalformedCsvError(f"{args.data}: row {i + 1} is unlabeled")
    if ds.n == 0:
        raise EvidnetError(f"{args.data}: no data rows")
    _, _, pl = forward_batch(model, ds.features)
    return pl, ds.labels


def cmd_evaluate(args, parser) -> int:
    pl, labels = _score_labeled(args)
    report = metrics_report(decide(pl), labels, pl[:, 0], positive=0)
    print(
        f"accuracy={report.accuracy:.4f} f1={report.f1:.4f} "
        f"auc={report.auc:.4f} n={report.n}"
    )
    return 0


def cmd_predict(args, parser) -> int:
    model, ds = _binary_data(args, "prediction export is")
    n = export_predictions(model, ds, args.out)
    print(f"rows={n}")
    return 0


def cmd_roc(args, parser) -> int:
    pl, labels = _score_labeled(args)
    curve = roc_points(pl[:, 0], labels, positive=0)
    lines = [b"fpr,tpr,threshold"]
    for rows in _float_rows(curve.points):
        lines += rows
    lines.append(f"# auc={curve.area!r}".encode())
    with _opened(args.out, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    print(f"points={len(curve.points)} auc={curve.area!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A NaN or an overflow is the commands' own to report (evaluate and
        # roc refuse non-finite scores, predict exports them), so numpy's
        # floating-point warnings stay off stderr.
        with np.errstate(all="ignore"):
            return args.func(args, parser)
    except (EvidnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
