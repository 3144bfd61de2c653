from __future__ import annotations

import ast
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
import evidnet.errors
from evidnet import (
    EvidentialModel,
    FeatureDataset,
    ModelConfig,
    TrainConfig,
    forward_batch,
    load_csv,
    load_model,
    metrics_report,
    roc_points,
    save_model,
    write_csv,
)
from evidnet.dataio import PREDICTIONS_HEADER

from helpers import blob_split
from oracles import reference_roc_text
from test_model import three_class_model

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
    assert run_cli(*base, "--seed", "-1").returncode == 2


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


def test_train_rejects_empty_label_cell(tmp_path):
    bad = tmp_path / "blank.csv"
    bad.write_text("f0,f1,label\n0,0,positive\n4,4,\n0,1,positive\n4,5,\n")
    res = run_cli(
        "train",
        "--train", str(bad),
        "--val", str(bad),
        "--out", str(tmp_path / "m.json"),
        "--prototypes", "1",
    )
    assert res.returncode == 1
    assert res.stderr == f"error: {bad}: bad class names: frame labels must be non-empty strings\n"
    assert not (tmp_path / "m.json").exists()


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
    assert res.stderr.startswith(f"error: {workdir / 'nope.csv'}: ")


@pytest.mark.parametrize("which, content", [
    ("data", b"f0,label\n1,\xff\n"),
    ("data", b'f0,label\n1,"' + b"y" * 200_000 + b'"\n'),
    ("model", b'{"format_version": "\xff"}'),
], ids=["csv-not-utf8", "csv-quoted-cell-too-long", "model-not-utf8"])
def test_unreadable_input_is_runtime_error(workdir, tmp_path, which, content):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    paths = {"model": workdir / "model.json", "data": workdir / "test.csv", which: bad}
    res = run_cli("evaluate", "--model", str(paths["model"]), "--data", str(paths["data"]))
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: {bad}: ")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--data"), ("evaluate", "--model"), ("predict", "--data"),
    ("roc", "--model"), ("train", "--train"), ("train", "--val"),
])
def test_unopenable_input_is_runtime_error(workdir, tmp_path, command, flag):
    scoring = {"--model": workdir / "model.json", "--data": workdir / "test.csv"}
    paths = {
        "evaluate": scoring,
        "predict": {**scoring, "--out": tmp_path / "pred.csv"},
        "roc": {**scoring, "--out": tmp_path / "roc.csv"},
        "train": {"--train": workdir / "train.csv", "--val": workdir / "val.csv",
                  "--out": tmp_path / "model.json", "--max-epochs": 1},
    }[command]
    for bad in (tmp_path / "missing.csv", tmp_path):  # absent, and a directory
        args = [str(v) for item in {**paths, flag: bad}.items() for v in item]
        res = run_cli(command, *args)
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: {bad}: ")
        assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["train", "evaluate", "predict", "roc"])
def test_feature_width_mismatch_names_the_data_file(workdir, tmp_path, command):
    narrow = tmp_path / "narrow.csv"
    write_csv(blob_split(0, 2, 3, EASY, d_in=3), narrow)  # the model and train.csv have 16
    if command == "train":
        args = ["--train", workdir / "train.csv", "--val", narrow, "--max-epochs", 1]
    else:
        args = ["--model", workdir / "model.json", "--data", narrow]
    if command != "evaluate":
        args += ["--out", tmp_path / "out"]
    res = run_cli(command, *map(str, args))
    assert res.returncode == 1
    assert res.stderr == f"error: {narrow}: 3 features, expected 16\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "predict", "roc"])
def test_unwritable_output_is_runtime_error(workdir, tmp_path, command):
    inputs = {
        "train": ["--train", str(workdir / "train.csv"), "--val", str(workdir / "val.csv"),
                  "--prototypes", "2", "--hidden", "8", "--max-epochs", "1"],
        "predict": ["--model", str(workdir / "model.json"), "--data", str(workdir / "test.csv")],
        "roc": ["--model", str(workdir / "model.json"), "--data", str(workdir / "test.csv")],
    }[command]
    for out in (tmp_path, tmp_path / "missing" / "out.csv"):
        res = run_cli(command, *inputs, "--out", str(out))
        assert res.returncode == 1
        assert res.stderr.startswith(f"error: {out}: ")
        assert "Traceback" not in res.stderr


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


def test_predict_on_three_class_model_is_runtime_error(tmp_path):
    # the model is refused, named, before the data file is read, so a
    # missing data file gives the same error
    model = tmp_path / "m3.json"
    save_model(three_class_model(), model)
    write_csv(FeatureDataset(np.zeros((2, 2)), [None, 2], ("a", "b", "c")), tmp_path / "d.csv")
    for data in ("d.csv", "missing.csv"):
        res = run_cli("predict", "--model", str(model),
                      "--data", str(tmp_path / data), "--out", str(tmp_path / "p.csv"))
        assert res.returncode == 1
        assert res.stderr == (
            f"error: {model}: prediction export is defined for binary models, got 3 classes\n"
        )
        assert res.stdout == ""
        assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "roc"])
def test_scoring_a_three_class_model_is_runtime_error(tmp_path, command):
    # f1, auc and the ROC curve are binary; the model is refused before the
    # data file is read, so a missing data file gives the same error
    model = tmp_path / "m3.json"
    save_model(three_class_model(), model)
    write_csv(FeatureDataset(np.zeros((3, 2)), [0, 1, 2], ("a", "b", "c")), tmp_path / "d.csv")
    out = ["--out", str(tmp_path / "roc.csv")] if command == "roc" else []
    for data in ("d.csv", "missing.csv"):
        res = run_cli(command, "--model", str(model), "--data", str(tmp_path / data), *out)
        assert res.returncode == 1
        assert res.stderr == (
            f"error: {model}: evaluate and roc are defined for binary models, got 3 classes\n"
        )
        assert res.stdout == ""
        assert not (tmp_path / "roc.csv").exists()


def test_non_finite_plausibility_is_runtime_error_for_evaluate_and_roc(tmp_path):
    # gamma = eta^2 = inf and d^2 = 0 on the center: -inf * 0 gives a NaN plausibility
    model = EvidentialModel(
        config=ModelConfig(d_in=2, r=1, h=2, k=2), class_names=("pos", "neg"),
        w=np.eye(2), b=np.zeros(2), centers=np.zeros((1, 2)),
        beta=np.array([[1.0, 0.5]]), xi=np.array([0.0]), eta=np.array([1e200]),
    )
    save_model(model, tmp_path / "m.json")
    ds = FeatureDataset(np.array([[0.0, 0.0], [3.0, 3.0]]), [0, 1], ("pos", "neg"))
    write_csv(ds, tmp_path / "d.csv")
    files = ("--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "d.csv"))
    for cmd in (["evaluate"], ["roc", "--out", str(tmp_path / "r.csv")]):
        res = run_cli(*cmd, *files)
        assert res.returncode == 1, cmd
        # the one error line, and no numpy warning before it
        assert res.stderr == "error: scores must be finite\n", cmd
    # predict exports what the arithmetic gives, and warns of nothing
    res = run_cli("predict", *files, "--out", str(tmp_path / "p.csv"))
    assert res.returncode == 0 and res.stdout == "rows=2\n"
    assert res.stderr == ""
    assert (tmp_path / "p.csv").read_text().splitlines()[1].startswith("0,nan,nan,nan,")


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


def test_roc_export_matches_reference_writer(workdir, tmp_path):
    out = tmp_path / "roc.csv"
    res = run_cli("roc", "--model", str(workdir / "model.json"),
                  "--data", str(workdir / "test.csv"), "--out", str(out))
    assert res.returncode == 0
    model = load_model(workdir / "model.json")
    ds = load_csv(workdir / "test.csv", class_names=model.class_names)
    _, _, pl = forward_batch(model, ds.features)
    curve = roc_points(pl[:, 0], ds.labels, positive=0)
    assert curve.points[0][2] == float("inf")
    assert out.read_bytes() == reference_roc_text(curve).encode()


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


def test_readme_tour_runs(tmp_path, monkeypatch):
    # every python block of the README, in order and in one namespace, with
    # data/ holding a tiny make_blobs.py set
    sizes = ("--n-train", "10", "--n-val", "5", "--n-test", "5")
    res = run_python(str(SCRIPTS_DIR / "make_blobs.py"), "--out-dir", str(tmp_path / "data"),
                     *sizes)
    assert res.returncode == 0, res.stderr
    readme = (SCRIPTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


PUBLIC_NAMES = """
    CorruptFieldError DimensionMismatchError EvidentialModel EvidnetError
    FeatureDataset Frame InvalidMassError MalformedCsvError MassFunction ModelConfig
    NonFiniteInputError TotalConflictError TrainConfig accuracy auc bel combine_all
    conflict decide dempster_combine export_predictions f1 forward forward_batch
    init_model load_csv load_model mass_new metrics_report pl roc_points save_model
    train write_csv
""".split()


def test_public_names_are_pinned():
    # a name added to or dropped from evidnet/__init__.py changes this list too
    public = {name for name, value in vars(evidnet).items()
              if not name.startswith("_") and not isinstance(value, type(evidnet))}
    assert public == set(PUBLIC_NAMES)


def test_every_error_class_is_raised():
    # a class that no raise in the package names would be API with no fault
    # behind it: a change that removes its last raise removes the class too
    raised = set()
    for path in Path(evidnet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.add(getattr(node.exc.func, "id", None))
    defined = {name for name, value in vars(evidnet.errors).items()
               if isinstance(value, type) and value.__module__ == evidnet.errors.__name__}
    assert defined and defined <= raised, defined - raised


def _package_names():
    """The top-level statements of every module in the package, and every
    name the package reads, as a Name load or as an attribute."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(evidnet.__file__).parent.glob("*.py")]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return [node for tree in trees for node in tree.body], read


def test_every_module_constant_is_read():
    # a module-level constant that no code in the package reads is a rule
    # nothing applies: a change that removes its last reader removes it too
    body, read = _package_names()
    defined = set()
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)
                           and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id))
    assert defined and defined <= read, defined - read


def test_every_private_helper_is_read():
    # a module-level function or class named with a leading underscore is
    # the package's own; one that nothing in the package reads is dead code
    body, read = _package_names()
    defined = {node.name for node in body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    assert defined and defined <= read, defined - read


def test_files_are_opened_only_through_one_helper():
    # dataio._opened names the path in every OSError of a file; a builtin
    # open() anywhere else would let such a fault out without the path
    openers = [(path.stem, getattr(top, "name", None))
               for path in Path(evidnet.__file__).parent.glob("*.py")
               for top in ast.parse(path.read_text(encoding="utf-8")).body
               for node in ast.walk(top)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"]
    assert openers == [("dataio", "_opened")]


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
