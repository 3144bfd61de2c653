"""Tests of the benchmark itself: tiny runs of every workload, and checks
that corrupted outputs are counted as failures.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_evidnet()

import checks  # noqa: E402  (needs the package path set up above)
import workloads  # noqa: E402
from evidnet.belief import MassFunction  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("training.steps", "dataio.csv_rows_read", "belief.dempster_combine_calls",
          "belief.focal_pairs")


def tiny(name, trace=False, seed=3):
    return run.run(name, seed=seed, seconds=0.05, trace=trace, size="tiny")


def test_workload_registry_matches_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(name, trace):
    result = tiny(name, trace)
    kind = "per_layer" if trace else "end_to_end"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    values = {k: v["value"] for k, v in result["metrics"].items()}
    explains = name == "explain-online"
    assert (values["belief.dempster_combine_calls"] > 0) == explains
    assert (values["belief.focal_pairs"] > 0) == explains
    assert (values["training.steps"] > 0) == name.startswith("train-")
    assert (values["dataio.csv_rows_read"] > 0) == (name in ("train-minibatch", "score-csv"))


@pytest.mark.parametrize("name", ["train-minibatch", "explain-online"])
def test_counts_repeat_exactly(name):
    first, second = tiny(name, trace=True), tiny(name, trace=True)
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key]


def test_model_hash_repeats_across_runs(capsys):
    hashes = []
    for _ in range(2):
        tiny("train-minibatch")
        out = capsys.readouterr().out
        hashes += [ln for ln in out.splitlines() if ln.startswith("model_sha256=")]
    assert len(hashes) == 2 and hashes[0] == hashes[1]


def test_corrupted_fused_mass_counts_as_failure(monkeypatch):
    work = workloads.WORKLOADS["explain-online"]
    honest = work.op

    def corrupt(state, i):
        masses, fused, pls, clash = honest(state, i)
        shifted = dict(fused.masses)
        donor = max(shifted, key=shifted.get)
        taker = next(mask for mask in shifted if mask != donor)
        shifted[donor] -= 1e-6
        shifted[taker] += 1e-6
        return masses, MassFunction(fused.frame, shifted), pls, clash

    monkeypatch.setattr(work, "op", corrupt)
    result = tiny("explain-online")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def _explanation():
    work = workloads.WORKLOADS["explain-online"]
    shape = work.shapes["tiny"]
    workdir = run.WORK / "test-explain"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = work.setup(shape, 5, workdir)
    finally:
        shutil.rmtree(workdir)
    return work.op(state, 0), shape["k"]


def test_explanation_check_catches_wrong_pl_and_conflict():
    (masses, fused, pls, clash), k = _explanation()
    assert checks.check_explanation(masses, fused, pls, clash, k) == []
    wrong_pl = [pls[0] + 1e-6] + pls[1:]
    assert checks.check_explanation(masses, fused, wrong_pl, clash, k)
    assert checks.check_explanation(masses, fused, pls, clash + 1e-6, k)


@pytest.fixture
def scored(tmp_path):
    """A real `predict` file and `evaluate` output for a tiny model."""
    work = workloads.WORKLOADS["score-csv"]
    state = work.setup(work.shapes["tiny"], 7, tmp_path)
    (rc_e, out_e), (rc_p, _), _ = work.op(state, 0)
    assert rc_e == rc_p == 0
    return state, tmp_path / "preds.csv", out_e


def _rewrite(path, row, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("column, value", [
    (1, "0.75"),          # m_pos: masses no longer sum to 1
    (4, "0.999"),         # pl_pos != m_pos + m_omega
    (3, "-0.0"),          # m_omega dropped (sum and pl both break)
])
def test_corrupted_predictions_file_fails_the_check(scored, column, value):
    state, preds, _ = scored
    names = ["positive", "negative"]
    n = state["shape"]["n_test"]
    assert checks.check_predictions(preds, names, n)[0] == []
    _rewrite(preds, 1, column, value)
    assert checks.check_predictions(preds, names, n)[0]


def test_flipped_decision_fails_predictions_and_evaluate_checks(scored):
    state, preds, out_e = scored
    names = ["positive", "negative"]
    n = state["shape"]["n_test"]
    errors, decisions = checks.check_predictions(preds, names, n)
    assert errors == [] and checks.check_evaluate_output(0, out_e, decisions, state["y_test"]) == []
    row = preds.read_text().splitlines()[1].split(",")
    _rewrite(preds, 1, 6, names[1 - names.index(row[6])])
    errors, decisions = checks.check_predictions(preds, names, n)
    assert errors
    assert checks.check_evaluate_output(0, out_e, decisions, state["y_test"])


def test_wrong_epoch_count_fails_the_train_check():
    stdout = "epoch=1 loss=0.5 val_acc=1.0\nbest_epoch=1 best_val_acc=1.0000 epochs=1 stopped_early=false\n"
    assert checks.check_train_output(0, stdout, 1) == []
    assert checks.check_train_output(0, stdout, 2)
    assert checks.check_train_output(1, stdout, 1)


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explain-online", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path / ".bench_build").exists()
