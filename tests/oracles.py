"""Independent brute-force reference implementations used by the tests.

Everything here enumerates full subset tables, all instance pairs, or
one prototype and one row at a time in scalar arithmetic, on purpose:
these are slow, obviously-correct baselines that the library's
optimized code is checked against. A few keep an earlier array form of
a rewritten kernel (the masked sigmoid, distances through the
difference tensor, Adam block by block) as the reference the new form
must match. They share no code with the package beyond building and
reading mass values through mass_new(), combine_all() (itself checked
against brute_combine) and MassFunction.mass(), raising the package's
error classes, and the Adam constants.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from evidnet.belief import combine_all, mass_new
from evidnet.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from evidnet.errors import (
    EmptyFileError,
    MissingHeaderError,
    NonNumericFeatureError,
    RaggedRowError,
    UnknownLabelError,
)


def all_masks(k: int):
    return range(0, 1 << k)


def brute_bel(m, a: int) -> float:
    """Belief as a full enumeration over every subset of the frame."""
    total = 0.0
    for b in all_masks(m.frame.k):
        if b != 0 and (b & ~a) == 0:
            total += m.mass(b)
    return total


def brute_pl(m, a: int) -> float:
    total = 0.0
    for b in all_masks(m.frame.k):
        if b & a:
            total += m.mass(b)
    return total


def brute_conflict(m1, m2) -> float:
    """Conflict via the full 2^K x 2^K double sum."""
    total = 0.0
    for b in all_masks(m1.frame.k):
        for c in all_masks(m2.frame.k):
            if b & c == 0:
                total += m1.mass(b) * m2.mass(c)
    return total


def brute_combine(m1, m2) -> dict[int, float]:
    """Dempster combination via the full double sum; returns a dense table."""
    k = m1.frame.k
    acc = {mask: 0.0 for mask in all_masks(k)}
    for b in all_masks(k):
        for c in all_masks(k):
            acc[b & c] += m1.mass(b) * m2.mass(c)
    kappa = acc.pop(0)
    scale = 1.0 / (1.0 - kappa)
    return {mask: v * scale for mask, v in acc.items()}


def brute_combine3(m1, m2, m3) -> dict[int, float]:
    """Three-way combination as one triple sum (not a pairwise fold)."""
    k = m1.frame.k
    acc = {mask: 0.0 for mask in all_masks(k)}
    for b in all_masks(k):
        for c in all_masks(k):
            for d in all_masks(k):
                acc[b & c & d] += m1.mass(b) * m2.mass(c) * m3.mass(d)
    kappa = acc.pop(0)
    scale = 1.0 / (1.0 - kappa)
    return {mask: v * scale for mask, v in acc.items()}


def sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function as two boolean-mask scatters, one per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tensor_sq_dists(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(n, r) squared distances through the (n, r, h) difference tensor."""
    diff = z[:, None, :] - c[None, :, :]
    return np.einsum("nih,nih->ni", diff, diff)


def reference_adam(params: dict, m: dict, v: dict, grads: dict, step: int, lr: float):
    """One Adam update block by block; returns new (params, m, v) dicts."""
    out = ({}, {}, {})
    for name, p in params.items():
        g = grads[name]
        m1 = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        v1 = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = m1 / (1.0 - ADAM_BETA1**step)
        v_hat = v1 / (1.0 - ADAM_BETA2**step)
        out[0][name] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        out[1][name], out[2][name] = m1, v1
    return out


def prototype_masses(model, x) -> list:
    """One mass function per prototype at input x, from scalar arithmetic
    on the model's parameters: m({class k}) = u_k s and m(frame) = 1 - s,
    with s = sigmoid(xi) exp(-eta^2 ||Wx + b - center||^2) and
    u_k = beta_k^2 / sum_l beta_l^2."""
    frame = model.frame
    z = [sum(wj * xj for wj, xj in zip(row, x)) + bj for row, bj in zip(model.w, model.b)]
    masses = []
    for center, beta, xi, eta in zip(model.centers, model.beta, model.xi, model.eta):
        d2 = sum((zj - cj) ** 2 for zj, cj in zip(z, center))
        s = sigmoid(xi) * math.exp(-(eta**2) * d2)
        sq = [bk * bk for bk in beta]
        table = {frame.singleton(k): sq[k] / sum(sq) * s for k in range(frame.k)}
        table[frame.full_mask] = 1.0 - s
        masses.append(mass_new(frame, table))
    return masses


def fused_mass(model, x):
    """Pairwise Dempster fold of prototype_masses."""
    return combine_all(prototype_masses(model, x))


def fused_output(model, x):
    """(singleton masses, pl) of fused_mass, as lists in class order."""
    fused = fused_mass(model, x)
    m = [fused.mass(fused.frame.singleton(k)) for k in range(fused.frame.k)]
    return m, [mk + fused.mass(fused.frame.full_mask) for mk in m]


def ce_row(m, cls: int, log_eps: float) -> float:
    """Evidential cross-entropy of one row: -log of its class's mass, floored."""
    return -math.log(max(m[cls], log_eps))


def mse_row(pl, cls: int) -> float:
    """Squared plausibility error of one row against the one-hot target."""
    return sum((p - (1.0 if k == cls else 0.0)) ** 2 for k, p in enumerate(pl))


def consistency_row(m, copies) -> float:
    """Summed squared singleton-mass differences to each perturbed copy."""
    return sum((a - b) ** 2 for mc in copies for a, b in zip(m, mc))


def pairwise_auc(scores, truth, positive=1) -> float:
    """Rank statistic over every (positive, negative) pair; ties count 0.5."""
    scores = np.asarray(scores, dtype=float)
    pos = [s for s, t in zip(scores, truth) if t == positive]
    neg = [s for s, t in zip(scores, truth) if t != positive]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_roc(scores, truth, positive=1):
    """ROC points and trapezoidal area from a row-by-row threshold sweep.

    Sorts by descending score (stable), walks each group of tied scores,
    and sums the trapezoids one at a time in curve order.
    """
    order = sorted(range(len(scores)), key=lambda i: -float(scores[i]))
    n_pos = sum(1 for t in truth if t == positive)
    n_neg = len(truth) - n_pos
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    while i < len(order):
        thr = float(scores[order[i]])
        while i < len(order) and float(scores[order[i]]) == thr:
            if truth[order[i]] == positive:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos, thr))
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points[:-1], points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return tuple(points), area


def reference_load_csv(path, class_names=None):
    """Feature CSV parsed cell by cell after reading every row into memory.

    Returns (features, labels, class_names) and raises the same errors,
    with the same messages, as evidnet.load_csv.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)]
    if not rows:
        raise EmptyFileError(f"{path}: no content")
    header = rows[0]
    d = len(header) - 1
    if d < 1 or header != [f"f{j}" for j in range(d)] + ["label"]:
        raise MissingHeaderError(
            f"{path}: header must be f0,...,f{{d-1}},label, got {','.join(header)}"
        )
    fixed_names = tuple(class_names) if class_names is not None else None
    seen = list(fixed_names) if fixed_names is not None else []
    features = np.empty((len(rows) - 1, d))
    labels = []
    for rownum, row in enumerate(rows[1:], start=1):
        if len(row) != d + 1:
            raise RaggedRowError(f"{path}: row {rownum} has {len(row)} cells, expected {d + 1}")
        for j, cell in enumerate(row[:d]):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericFeatureError(
                    f"{path}: row {rownum}, column f{j}: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise NonNumericFeatureError(
                    f"{path}: row {rownum}, column f{j}: non-finite value {cell!r}"
                )
            features[rownum - 1, j] = value
        cell = row[d]
        if cell == "?":
            labels.append(None)
        elif cell in seen:
            labels.append(seen.index(cell))
        elif fixed_names is None:
            seen.append(cell)
            labels.append(len(seen) - 1)
        else:
            raise UnknownLabelError(
                f"{path}: row {rownum}: label {cell!r} not among {fixed_names}"
            )
    return features, labels, tuple(seen)
