"""Correctness checks on the outputs of each benchmark operation.

Every check returns a list of error strings; an operation with any error
counts as failed. The checks recompute what they verify from first
principles (closed-form fusion, direct accuracy counts) rather than by
calling the code under test again.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re

import numpy as np

# Bound at import, before the traced run rebinds module names, so the
# checks themselves never produce spans.
from evidnet.dataio import load_model
from evidnet.model import forward_batch

MASS_SUM_TOL = 1e-9
PL_TOL = 1e-12
FUSION_TOL = 1e-9

PREDICTIONS_HEADER = ["row", "m_pos", "m_neg", "m_omega", "pl_pos", "pl_neg", "decision"]


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_train_output(rc: int, stdout: str, epochs: int) -> list[str]:
    """`evidnet train` exited 0 and ran exactly the fixed epoch count."""
    errors = []
    if rc != 0:
        errors.append(f"train exited {rc}")
    lines = [ln for ln in stdout.splitlines() if ln.startswith("epoch=")]
    if len(lines) != epochs:
        errors.append(f"{len(lines)} epoch lines, expected {epochs}")
    if f"epochs={epochs} " not in stdout:
        errors.append(f"summary does not report epochs={epochs}")
    return errors


def check_model_file(path, features, label_names, floor: float) -> list[str]:
    """The saved model reloads and clears an accuracy floor on held-out rows.

    Labels are compared by name: the CLI numbers classes in order of first
    appearance in the training file.
    """
    model = load_model(path)
    _, _, pl = forward_batch(model, features)
    predicted = np.asarray(model.class_names)[pl.argmax(axis=1)]
    acc = float((predicted == np.asarray(label_names)).mean())
    if acc < floor:
        return [f"held-out accuracy {acc:.4f} below floor {floor}"]
    return []


def check_predictions(path, class_names, n_rows: int):
    """Validate a `predict` output file; returns (errors, decision indices)."""
    errors = []
    decisions = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != PREDICTIONS_HEADER:
        return [f"bad predictions header {rows[:1]}"], decisions
    if len(rows) - 1 != n_rows:
        errors.append(f"{len(rows) - 1} prediction rows, expected {n_rows}")
    for i, row in enumerate(rows[1:]):
        try:
            idx = int(row[0])
            m_pos, m_neg, m_omega, pl_pos, pl_neg = (float(c) for c in row[1:6])
            decision = row[6]
        except (ValueError, IndexError):
            errors.append(f"row {i}: unparsable {row!r}")
            continue
        if idx != i:
            errors.append(f"row {i}: index {idx}")
        if min(m_pos, m_neg, m_omega) < 0.0:
            errors.append(f"row {i}: negative mass")
        if abs(m_pos + m_neg + m_omega - 1.0) > MASS_SUM_TOL:
            errors.append(f"row {i}: masses sum to {m_pos + m_neg + m_omega!r}")
        if abs(pl_pos - (m_pos + m_omega)) > PL_TOL or abs(pl_neg - (m_neg + m_omega)) > PL_TOL:
            errors.append(f"row {i}: pl differs from m + m_omega")
        winner = 0 if pl_pos >= pl_neg else 1
        if decision != class_names[winner]:
            errors.append(f"row {i}: decision {decision!r}, max pl says {class_names[winner]!r}")
        decisions.append(class_names.index(decision) if decision in class_names else -1)
    return errors, decisions


_ACCURACY = re.compile(r"accuracy=([0-9.]+) .* n=(\d+)")


def check_evaluate_output(rc: int, stdout: str, decisions, truth) -> list[str]:
    """`evaluate` accuracy equals the accuracy of the `predict` decisions."""
    if rc != 0:
        return [f"evaluate exited {rc}"]
    match = _ACCURACY.search(stdout)
    if match is None:
        return [f"no accuracy in evaluate output {stdout!r}"]
    n = len(truth)
    recomputed = sum(1 for p, t in zip(decisions, truth) if p == t) / n
    errors = []
    if int(match.group(2)) != n:
        errors.append(f"evaluate scored n={match.group(2)}, expected {n}")
    if match.group(1) != f"{recomputed:.4f}":
        errors.append(f"evaluate accuracy {match.group(1)} vs {recomputed:.4f} from predict")
    return errors


def check_explanation(masses, fused, pls, conflict_value, k: int) -> list[str]:
    """Compare a fused explanation with the closed form for its sources.

    Every source is a singleton-plus-ignorance mass function, so
    Dempster's rule has the closed form q_j = prod_i (m_i(j) + w_i) -
    prod_i w_i, q_omega = prod_i w_i, normalized by their sum.
    """
    full = (1 << k) - 1
    ignorance = [m.mass(full) for m in masses]
    singles = [[m.mass(1 << j) for j in range(k)] for m in masses]
    w_all = math.prod(ignorance)
    q = [math.prod(s[j] + w for s, w in zip(singles, ignorance)) - w_all for j in range(k)]
    norm = math.fsum(q) + w_all
    expected = {1 << j: q[j] / norm for j in range(k)}
    expected[full] = w_all / norm
    errors = []
    for mask in fused.masses:
        if mask not in expected:
            errors.append(f"fused mass on non-singleton subset {mask:#b}")
    for mask, value in expected.items():
        got = fused.masses.get(mask, 0.0)
        if abs(got - value) > FUSION_TOL:
            errors.append(f"fused m({mask:#b}) = {got!r}, closed form {value!r}")
        if mask != full and abs(pls[mask.bit_length() - 1] - (value + expected[full])) > FUSION_TOL:
            errors.append(f"pl of {mask:#b} = {pls[mask.bit_length() - 1]!r}")
    clash = math.fsum(
        singles[0][j] * singles[1][l] for j in range(k) for l in range(k) if j != l
    )
    if abs(conflict_value - clash) > FUSION_TOL:
        errors.append(f"conflict {conflict_value!r}, closed form {clash!r}")
    return errors
