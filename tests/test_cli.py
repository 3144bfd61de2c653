from __future__ import annotations

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import evidnet
from evidnet import TrainConfig, forward_batch, load_model, metrics_report, write_csv
from evidnet.dataio import PREDICTIONS_HEADER

from helpers import blob_split

EASY = [(0.0, 0.0), (4.0, 4.0)]


# The child imports the same evidnet as the tests, installed or not.
SRC_DIR = str(Path(evidnet.__file__).resolve().parent.parent)
SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def run_python(*args):
    pythonpath = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_cli(*args):
    return run_python("-m", "evidnet", *args)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small separable datasets plus one trained model, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    write_csv(blob_split(0, 0, 20, EASY), root / "train.csv")
    write_csv(blob_split(0, 1, 10, EASY), root / "val.csv")
    write_csv(blob_split(0, 2, 10, EASY), root / "test.csv")
    res = run_cli(
        "train",
        "--train", str(root / "train.csv"),
        "--val", str(root / "val.csv"),
        "--out", str(root / "model.json"),
        "--prototypes", "2",
        "--hidden", "8",
        "--max-epochs", "3",
        "--seed", "0",
    )
    assert res.returncode == 0, res.stderr
    (root / "train_stdout.txt").write_text(res.stdout)
    return root


# usage errors (exit code 2)

def test_no_arguments_is_usage_error():
    res = run_cli()
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()


def test_unknown_command_is_usage_error():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_missing_required_flag_is_usage_error(workdir):
    res = run_cli("train", "--train", str(workdir / "train.csv"),
                  "--val", str(workdir / "val.csv"))
    assert res.returncode == 2
    assert "--out" in res.stderr


def test_invalid_flag_values_are_usage_errors(workdir):
    base = [
        "train",
        "--train", str(workdir / "train.csv"),
        "--val", str(workdir / "val.csv"),
        "--out", str(workdir / "ignored.json"),
    ]
    assert run_cli(*base, "--patience", "0").returncode == 2
    assert run_cli(*base, "--prototypes", "0").returncode == 2
    assert run_cli(*base, "--loss", "eq7").returncode == 2
    assert run_cli(*base, "--lr", "-1").returncode == 2
    assert run_cli(*base, "--lr", "nan").returncode == 2
    assert run_cli(*base, "--consistency-weight", "inf").returncode == 2


# train

def test_train_output_grammar(workdir):
    lines = (workdir / "train_stdout.txt").read_text().splitlines()
    epoch_re = re.compile(r"epoch=(\d+) loss=-?\d+\.\d{6} val_acc=[01]\.\d{4}")
    summary_re = re.compile(
        r"best_epoch=(\d+) best_val_acc=[01]\.\d{4} epochs=(\d+) "
        r"stopped_early=(true|false)"
    )
    assert epoch_re.fullmatch(lines[0])
    summary = summary_re.fullmatch(lines[-1])
    assert summary
    n_epochs = int(summary.group(2))
    assert [int(epoch_re.fullmatch(l).group(1)) for l in lines[:-1]] == list(
        range(1, n_epochs + 1)
    )
    assert int(summary.group(1)) <= n_epochs


def test_train_writes_loadable_model(workdir):
    model = load_model(workdir / "model.json")
    assert model.config.r == 2
    assert model.config.h == 8
    # class index 0 is the first label that appears in the training file
    first_label = (workdir / "train.csv").read_text().splitlines()[1].split(",")[-1]
    assert model.class_names[0] == first_label
    assert set(model.class_names) == {"positive", "negative"}


def test_train_is_reproducible(workdir, tmp_path):
    args = [
        "train",
        "--train", str(workdir / "train.csv"),
        "--val", str(workdir / "val.csv"),
        "--prototypes", "2",
        "--hidden", "8",
        "--max-epochs", "2",
        "--seed", "11",
    ]
    r1 = run_cli(*args, "--out", str(tmp_path / "m1.json"))
    r2 = run_cli(*args, "--out", str(tmp_path / "m2.json"))
    assert r1.returncode == 0 and r2.returncode == 0
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    assert r1.stdout == r2.stdout


def test_train_defaults_are_the_config_defaults(workdir, tmp_path):
    res = run_cli(
        "train",
        "--train", str(workdir / "train.csv"),
        "--val", str(workdir / "val.csv"),
        "--out", str(tmp_path / "m.json"),
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["training_meta"]["config"] == asdict(TrainConfig())


def test_train_rejects_single_class_data(workdir, tmp_path):
    ds = blob_split(0, 0, 10, EASY)
    ds.labels = [0] * ds.n
    write_csv(ds, tmp_path / "one.csv")
    res = run_cli(
        "train",
        "--train", str(tmp_path / "one.csv"),
        "--val", str(workdir / "val.csv"),
        "--out", str(tmp_path / "m.json"),
    )
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


# evaluate

def test_evaluate_matches_direct_computation(workdir):
    res = run_cli("evaluate", "--model", str(workdir / "model.json"),
                  "--data", str(workdir / "test.csv"))
    assert res.returncode == 0
    model = load_model(workdir / "model.json")
    from evidnet import load_csv

    ds = load_csv(workdir / "test.csv", class_names=model.class_names)
    _, _, pl = forward_batch(model, ds.features)
    preds = [int(j) for j in pl.argmax(axis=1)]
    truth = [int(lab) for lab in ds.labels]
    rep = metrics_report(preds, truth, pl[:, 0], positive=0)
    want = (
        f"accuracy={rep.accuracy:.4f} f1={rep.f1:.4f} "
        f"auc={rep.auc:.4f} n={rep.n}"
    )
    assert res.stdout.strip() == want
    assert rep.accuracy >= 0.9  # blobs are far apart


def test_evaluate_rejects_unlabeled_rows(workdir, tmp_path):
    ds = blob_split(0, 2, 5, EASY)
    ds.labels[1] = None
    write_csv(ds, tmp_path / "holes.csv")
    res = run_cli("evaluate", "--model", str(workdir / "model.json"),
                  "--data", str(tmp_path / "holes.csv"))
    assert res.returncode == 1
    assert "row 2" in res.stderr


def test_evaluate_missing_file_is_runtime_error(workdir):
    res = run_cli("evaluate", "--model", str(workdir / "model.json"),
                  "--data", str(workdir / "nope.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


# predict

def test_predict_writes_mass_table(workdir, tmp_path):
    out = tmp_path / "pred.csv"
    res = run_cli("predict", "--model", str(workdir / "model.json"),
                  "--data", str(workdir / "test.csv"), "--out", str(out))
    assert res.returncode == 0
    assert res.stdout.strip() == "rows=20"
    lines = out.read_text().splitlines()
    assert lines[0] == PREDICTIONS_HEADER
    assert len(lines) == 21
    for line in lines[1:]:
        cells = line.split(",")
        total = sum(float(c) for c in cells[1:4])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert cells[6] in ("positive", "negative")


def test_predict_accepts_unlabeled_and_empty_data(workdir, tmp_path):
    ds = blob_split(0, 2, 5, EASY)
    ds.labels = [None] * ds.n
    write_csv(ds, tmp_path / "unlabeled.csv")
    res = run_cli("predict", "--model", str(workdir / "model.json"),
                  "--data", str(tmp_path / "unlabeled.csv"),
                  "--out", str(tmp_path / "p.csv"))
    assert res.returncode == 0
    assert res.stdout.strip() == "rows=10"
    (tmp_path / "empty.csv").write_text(
        ",".join([f"f{j}" for j in range(16)] + ["label"]) + "\n"
    )
    res = run_cli("predict", "--model", str(workdir / "model.json"),
                  "--data", str(tmp_path / "empty.csv"),
                  "--out", str(tmp_path / "p0.csv"))
    assert res.returncode == 0
    assert res.stdout.strip() == "rows=0"
    assert (tmp_path / "p0.csv").read_text() == PREDICTIONS_HEADER + "\n"


# roc

def test_roc_export(workdir, tmp_path):
    out = tmp_path / "roc.csv"
    res = run_cli("roc", "--model", str(workdir / "model.json"),
                  "--data", str(workdir / "test.csv"), "--out", str(out))
    assert res.returncode == 0
    m = re.fullmatch(r"points=(\d+) auc=([0-9.e+-]+)", res.stdout.strip())
    assert m
    lines = out.read_text().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert lines[-1] == f"# auc={m.group(2)}"
    points = [tuple(float(c) for c in line.split(",")) for line in lines[1:-1]]
    assert len(points) == int(m.group(1))
    assert points[0] == (0.0, 0.0, float("inf"))
    assert points[-1][:2] == (1.0, 1.0)
    fpr = [p[0] for p in points]
    tpr = [p[1] for p in points]
    assert fpr == sorted(fpr) and tpr == sorted(tpr)
    # separable data: the curve passes through the perfect corner
    assert (0.0, 1.0) in {(p[0], p[1]) for p in points}
    assert float(m.group(2)) == 1.0


def test_roc_single_class_is_runtime_error(workdir, tmp_path):
    ds = blob_split(0, 2, 5, EASY)
    ds.labels = [0] * ds.n
    write_csv(ds, tmp_path / "single.csv")
    res = run_cli("roc", "--model", str(workdir / "model.json"),
                  "--data", str(tmp_path / "single.csv"),
                  "--out", str(tmp_path / "r.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


def test_scripts_run_at_tiny_sizes(tmp_path):
    sizes = ("--n-train", "20", "--n-val", "10", "--n-test", "10")
    res = run_python(str(SCRIPTS_DIR / "make_blobs.py"), "--out-dir", str(tmp_path), *sizes)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("wrote 80 rows")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.csv", "train.csv", "val.csv"]
    res = run_python(str(SCRIPTS_DIR / "semisup_compare.py"), "--seeds", "1", *sizes)
    assert res.returncode == 0, res.stderr
    assert re.match(r"seed=0 with=[0-9.]+ without=[0-9.]+\nmedian with=", res.stdout)


def test_benchmark_trace_points_resolve():
    # The traced benchmark run rebinds these module-level names; a renamed or
    # deleted one would otherwise surface only in the benchmark's own suite.
    path = SCRIPTS_DIR.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACE_POINTS
    for module, name, _ in tracing.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
