"""Independent brute-force reference implementations used by the tests.

Everything here enumerates full subset tables, all instance pairs, or
one prototype and one row at a time in scalar arithmetic, on purpose:
these are slow, obviously-correct baselines that the library's
optimized code is checked against. A few keep an earlier array form of
a rewritten kernel (the masked sigmoid, distances through the
difference tensor, the fusion's two separate products and its
leave-one-out product through moveaxis, Adam block by block, k-means
with its per-cluster loops) as the
reference the new form must match, as does the feature-CSV writer
that went through csv.writer, the training loop that concatenated
and checked each step's rows and ran Adam as one expression, and the
decimal reader's division that found midpoints by arithmetic.
Dempster's rule is also kept in exact rational arithmetic, the measure
of the float rule's error. The belief layer's mask check, mass
validation, Dempster's rule, bel, pl and conflict are kept as they were
before the frame stored its size and full mask, so their output bits and
their errors stay pinned; the mass validation refuses a mass that is a
bool or not a real number, as the package does. The forward and backward kernels are kept
whole with their constants derived on every call, so the bits of every
intermediate and of the gradient stay pinned, and so is the kernel that
preceded them (contractions by einsum, the normalizer as
sum_k a_k - (K - 1) b), which the kernel must agree with to within a
stated number of ulps. They share no code with the package beyond
building and reading mass values through mass_new(), combine_all()
(itself checked against brute_combine) and MassFunction.mass(), raising
the package's error classes, the model's block layout (_blocks), and the
Adam, k-means round limit, sum-tolerance and total-conflict constants,
and the decimal pass's wide type, scale limit and powers of ten;
the training-loop oracle also steps through the package's kernel
(_loss_and_grads, whose bits the kernel oracles pin), its gradient and
feature checks, its label check, forward_batch and the model's rebind.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from fractions import Fraction

import numpy as np

from evidnet import dataio
from evidnet.belief import (
    SUM_TOLERANCE,
    TOTAL_CONFLICT_FLOOR,
    combine_all,
    mass_new,
)
from evidnet.metrics import accuracy
from evidnet.model import (
    KMEANS_MAX_ITER,
    _as_feature_matrix,
    _blocks,
    _class_indices,
    decide,
    forward_batch,
)
from evidnet.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EpochRecord,
    TrainHistory,
    _loss_and_grads,
    _require_finite,
)
from evidnet.errors import (
    EvidnetError,
    InvalidMassError,
    MalformedCsvError,
    NonFiniteInputError,
    TotalConflictError,
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


def reference_check_mask(frame, mask) -> int:
    """Frame.check_mask with the frame's size and full mask derived from
    its labels on every call."""
    k = len(frame.labels)
    full_mask = (1 << k) - 1
    if not isinstance(mask, int) or isinstance(mask, bool):
        raise InvalidMassError(f"subset mask must be an int, got {type(mask).__name__}")
    if not 0 <= mask <= full_mask:
        raise InvalidMassError(f"mask {mask!r} out of range for frame of size {k}")
    return mask


def reference_clean_masses(frame, masses) -> dict[int, float]:
    """The focal sets MassFunction(frame, masses) keeps, validated and
    accumulated one assignment at a time."""
    clean: dict[int, float] = {}
    for mask, value in masses.items():
        reference_check_mask(frame, mask)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise NonFiniteInputError(f"mass {value!r} for subset {mask:#b} is not a real number")
        value = float(value)
        if not value >= 0.0:  # also true for NaN, which compares false
            if value != value:
                raise NonFiniteInputError(f"mass {value} for subset {mask:#b}")
            raise InvalidMassError(f"mass {value} for subset {mask:#b}")
        if mask == 0 and value > 0.0:
            raise InvalidMassError(f"empty set carries mass {value}")
        if value > 0.0:
            clean[mask] = clean.get(mask, 0.0) + value
    total = sum(clean.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise InvalidMassError(f"masses sum to {total!r}, expected 1")
    return clean


def reference_bel(m, a: int) -> float:
    reference_check_mask(m.frame, a)
    return sum(v for b, v in m.masses.items() if b & ~a == 0)


def reference_pl(m, a: int) -> float:
    reference_check_mask(m.frame, a)
    return sum(v for b, v in m.masses.items() if b & a)


def _reference_shared_frame(m1, m2) -> None:
    if m1.frame != m2.frame:
        raise InvalidMassError(
            f"frames differ: {m1.frame.labels} vs {m2.frame.labels}"
        )


def reference_conflict(m1, m2) -> float:
    _reference_shared_frame(m1, m2)
    return sum(
        v1 * v2 for b, v1 in m1.masses.items() for c, v2 in m2.masses.items()
        if b & c == 0
    )


def reference_dempster_combine(m1, m2) -> dict[int, float]:
    """The focal sets of dempster_combine(m1, m2), summed pair by pair in
    the same order and renormalized by the fsum of what was kept."""
    _reference_shared_frame(m1, m2)
    acc: dict[int, float] = {}
    for b, v1 in m1.masses.items():
        for c, v2 in m2.masses.items():
            inter = b & c
            acc[inter] = acc.get(inter, 0.0) + v1 * v2
    kappa = acc.pop(0, 0.0)
    remaining = math.fsum(acc.values())
    if remaining <= TOTAL_CONFLICT_FLOOR:
        raise TotalConflictError(f"conflict {kappa!r} leaves nothing to renormalize")
    scale = 1.0 / remaining
    return reference_clean_masses(m1.frame, {mask: v * scale for mask, v in acc.items()})


def exact_dempster_combine(*sources) -> tuple[dict[int, Fraction], Fraction]:
    """Dempster's rule over two or more sources (MassFunctions or
    {mask: mass} dicts) in exact rational arithmetic on their masses: every
    product of one focal set per source kept on a non-empty set, summed
    exactly. Returns ({mask: product sum / normalizer}, normalizer), the
    normalizer being the sum of all kept products, so that it is the
    product of a fold's step normalizers; zero-mass sets are omitted, and
    total conflict returns ({}, 0)."""
    acc = {mask: Fraction(v) for mask, v in getattr(sources[0], "masses", sources[0]).items()}
    for source in sources[1:]:
        step: dict[int, Fraction] = {}
        for b, v1 in acc.items():
            for c, v2 in getattr(source, "masses", source).items():
                if b & c and v1 and v2:
                    step[b & c] = step.get(b & c, 0) + v1 * Fraction(v2)
        acc = step
    total = sum(acc.values(), Fraction(0))
    return {mask: v / total for mask, v in acc.items()}, total


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


def moveaxis_exclusive_prod(a: np.ndarray, axis: int) -> np.ndarray:
    """Leave-one-out product along an axis: the axis moved last, prefix and
    reversed suffix running products concatenated with ones, moved back."""
    a = np.moveaxis(a, axis, -1)
    ones = np.ones_like(a[..., :1])
    prefix = np.concatenate([ones, np.cumprod(a[..., :-1], axis=-1)], axis=-1)
    rev = np.cumprod(a[..., ::-1], axis=-1)[..., ::-1]
    suffix = np.concatenate([rev[..., 1:], ones], axis=-1)
    return np.moveaxis(prefix * suffix, -1, axis)


def separate_products(s: np.ndarray, u: np.ndarray):
    """(a, b_prod) of the fusion as two products over prototypes: one over
    the (n, r, K) class factors u s + (1 - s), one over the (n, r) 1 - s."""
    one_minus_s = 1.0 - s
    cf = u[None, :, :] * s[:, :, None] + one_minus_s[:, :, None]
    return cf.prod(axis=1), one_minus_s.prod(axis=1)


def gemm_sq_dists(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(n, r) squared distances by the GEMM expansion, both norms computed
    here, floored at 0."""
    d2 = z @ c.T
    d2 *= -2.0
    d2 += np.vecdot(z, z)[:, None]
    d2 += np.vecdot(c, c)
    return np.maximum(d2, 0.0, out=d2)


def reference_kmeans_init(X: np.ndarray, r: int, seed: int) -> np.ndarray:
    """kmeans_init on valid input with its per-cluster loops: each
    cluster's emptiness found by comparing the whole assignment with its
    index, in index order, and its mean taken over a boolean-mask gather."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=r, replace=False)].copy()
    assign = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = gemm_sq_dists(X, centers)
        new_assign = d2.argmin(axis=1)
        for j in range(r):
            if not np.any(new_assign == j):
                far = int(d2[:, j].argmax())
                centers[j] = X[far]
                d2[:, j] = gemm_sq_dists(X, centers[j : j + 1])[:, 0]
                new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = np.stack([X[assign == j].mean(axis=0) if np.any(assign == j) else centers[j]
                            for j in range(r)])
    return centers


def reference_forward_arrays(model, X: np.ndarray) -> dict:
    """The batched forward kernel with alpha, gamma, u and 1 - u derived
    from the parameters on every call; same keys and layouts as the
    package's, plus alpha, gamma, u (r, K) and omu (r, K+1)."""
    k = model.config.k
    z = X @ model.w.T + model.b
    c = model.centers
    d2 = c @ z.T
    d2 *= -2.0
    d2 += np.vecdot(c, c)[:, None]
    d2 += np.vecdot(z, z)
    np.maximum(d2, 0.0, out=d2)
    alpha = masked_sigmoid(model.xi)
    gamma = model.eta**2
    e = np.exp(d2 * -gamma[:, None])
    s = alpha[:, None] * e
    u = np.zeros((model.config.r, k + 1))
    bsq = model.beta**2
    np.divide(bsq, bsq.sum(axis=1)[:, None], out=u[:, :k])
    omu = 1.0 - u
    cf = u[:, :, None] * s[:, None, :] + (1.0 - s)[:, None, :]
    prod = cf.prod(axis=0)
    prod[:k] = prod[:k] - prod[k]
    n_norm = prod.sum(axis=0)
    if (n_norm <= TOTAL_CONFLICT_FLOOR).any():
        raise TotalConflictError("fused normalizer vanished; sources fully conflict")
    mass = prod / n_norm
    return {
        "x": X,
        "z": z,
        "d2": d2,
        "alpha": alpha,
        "gamma": gamma,
        "e": e,
        "s": s,
        "u": u[:, :k],
        "omu": omu,
        "cf": cf,
        "prod": prod,
        "n": n_norm,
        "mass": mass,
        "m": mass[:k],
        "m_omega": mass[k],
        "pl": mass[:k] + mass[k],
    }


def reference_backward_arrays(model, cache: dict, gmass, lam: float) -> np.ndarray:
    """The backward kernel over a reference_forward_arrays cache, with
    gmass (K+1, n), the leave-one-out product through moveaxis and the
    beta row sums derived here; returns the gradient laid out like
    model.theta."""
    k = model.config.k
    mass, norm, cf = cache["mass"], cache["n"], cache["cf"]
    u, omu, s, e, d2 = cache["u"], cache["omu"], cache["s"], cache["e"], cache["d2"]
    alpha, gamma = cache["alpha"], cache["gamma"]
    z, x = cache["z"], cache["x"]
    grad = np.empty_like(model.theta)
    out = _blocks(model.config, grad)

    g = (gmass - (gmass * mass).sum(axis=0)) / norm
    g[k] = g[k] - g[:k].sum(axis=0)

    gcf = np.multiply(moveaxis_exclusive_prod(cf, 0), g, out=np.empty(cf.shape))
    gu = np.vecdot(gcf[:, :k], s[:, None, :])
    p = np.matmul(omu[:, None, :], gcf)[:, 0]

    out["xi"][:] = (lam - np.vecdot(p, e)) * alpha * (1.0 - alpha)
    p = p * s
    out["eta"][:] = 2.0 * model.eta * np.vecdot(p, d2)
    gd2 = p * (2.0 * gamma[:, None])
    gz = gd2.sum(axis=0)[:, None] * z - gd2.T @ model.centers
    out["centers"][:] = gd2.sum(axis=1)[:, None] * model.centers - gd2 @ z
    np.matmul(gz.T, x, out=out["w"])
    gz.sum(axis=0, out=out["b"])

    ssum = (model.beta**2).sum(axis=1)
    out["beta"][:] = 2.0 * model.beta / ssum[:, None] * (gu - np.vecdot(gu, u)[:, None])
    return grad


def previous_forward_arrays(model, X: np.ndarray) -> dict:
    """The batched forward kernel as it was before its contractions left
    einsum and its normalizer became a sum of non-negative terms, with
    alpha, gamma, u and 1 - u derived from the parameters on every call:
    the keys x, z, d2, e, s, cf, a, b_prod, n, m, m_omega and pl, in the
    package's layouts, plus alpha, gamma, u (r, K) and omu (r, K+1)."""
    k = model.config.k
    z = X @ model.w.T + model.b
    c = model.centers
    d2 = c @ z.T
    d2 *= -2.0
    d2 += np.einsum("ih,ih->i", c, c)[:, None]
    d2 += np.einsum("nh,nh->n", z, z)
    np.maximum(d2, 0.0, out=d2)
    alpha = masked_sigmoid(model.xi)
    gamma = model.eta**2
    e = np.exp(d2 * -gamma[:, None])
    s = alpha[:, None] * e
    u = np.zeros((model.config.r, k + 1))
    bsq = model.beta**2
    np.divide(bsq, bsq.sum(axis=1)[:, None], out=u[:, :k])
    omu = 1.0 - u
    cf = u[:, :, None] * s[:, None, :] + (1.0 - s)[:, None, :]
    prod = cf.prod(axis=0)
    a, b_prod = prod[:k], prod[k]
    n_norm = a.sum(axis=0) - (k - 1) * b_prod
    if (n_norm <= TOTAL_CONFLICT_FLOOR).any():
        raise TotalConflictError("fused normalizer vanished; sources fully conflict")
    m = (a - b_prod) / n_norm
    m_omega = b_prod / n_norm
    return {
        "x": X,
        "z": z,
        "d2": d2,
        "alpha": alpha,
        "gamma": gamma,
        "e": e,
        "s": s,
        "u": u[:, :k],
        "omu": omu,
        "cf": cf,
        "a": a,
        "b_prod": b_prod,
        "n": n_norm,
        "m": m,
        "m_omega": m_omega,
        "pl": m + m_omega,
    }


def previous_backward_arrays(model, cache: dict, gm, gmo, lam: float) -> np.ndarray:
    """The backward kernel as it was before its contractions left einsum,
    over a previous_forward_arrays cache, with gm (K, n), gmo (n,), the
    leave-one-out product through moveaxis and the beta row sums derived
    here; returns the gradient laid out like model.theta."""
    k = model.config.k
    m, mo, norm, cf = cache["m"], cache["m_omega"], cache["n"], cache["cf"]
    u, omu, s, e, d2 = cache["u"], cache["omu"], cache["s"], cache["e"], cache["d2"]
    alpha, gamma = cache["alpha"], cache["gamma"]
    z, x = cache["z"], cache["x"]
    grad = np.empty_like(model.theta)
    out = _blocks(model.config, grad)

    g = np.empty((k + 1, x.shape[0]))
    shared = np.einsum("kn,kn->n", gm, m) + gmo * mo
    np.divide(gm - shared, norm, out=g[:k])
    g[k] = (gmo - gm.sum(axis=0) + (k - 1) * shared) / norm

    gcf = np.multiply(moveaxis_exclusive_prod(cf, 0), g, out=np.empty(cf.shape))
    gu = np.einsum("ikn,in->ik", gcf[:, :k], s)
    p = np.einsum("ikn,ik->in", gcf, omu)

    out["xi"][:] = (lam - np.einsum("in,in->i", p, e)) * alpha * (1.0 - alpha)
    p = p * s
    out["eta"][:] = 2.0 * model.eta * np.einsum("in,in->i", p, d2)
    gd2 = p * (2.0 * gamma[:, None])
    gz = gd2.sum(axis=0)[:, None] * z - gd2.T @ model.centers
    out["centers"][:] = gd2.sum(axis=1)[:, None] * model.centers - gd2 @ z
    np.matmul(gz.T, x, out=out["w"])
    gz.sum(axis=0, out=out["b"])

    ssum = (model.beta**2).sum(axis=1)
    out["beta"][:] = 2.0 * model.beta / ssum[:, None] * (
        gu - np.einsum("ik,ik->i", gu, u)[:, None])
    return grad


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


def reference_train(model, train_set, val_set, cfg):
    """The training loop as it was before each epoch's perturbed copies
    were built once: per step, the copies of the step's unlabeled rows,
    one np.concatenate of its rows, a check of that matrix, and Adam as
    one expression into fresh arrays. Returns (best model, TrainHistory)."""
    feats = train_set.features
    labels = train_set.labels
    labeled_idx = np.asarray([i for i, lab in enumerate(labels) if lab is not None], dtype=int)
    unlabeled_idx = np.asarray([i for i, lab in enumerate(labels) if lab is None], dtype=int)
    if labeled_idx.size == 0:
        raise EvidnetError("training set has no labeled instances")
    if val_set.n == 0:
        raise EvidnetError("validation set is empty")
    if not val_set.fully_labeled():
        raise EvidnetError("validation set must be fully labeled")
    _class_indices(val_set.labels, model.config.k)

    x_lab = feats[labeled_idx]
    y_lab = _class_indices([labels[i] for i in labeled_idx], model.config.k)
    x_unl = feats[unlabeled_idx]
    n_lab, n_unl = x_lab.shape[0], x_unl.shape[0]
    d = feats.shape[1]
    n_batches = max(math.ceil(n_lab / cfg.batch_size), math.ceil(n_unl / cfg.batch_size))

    rng = np.random.default_rng(cfg.seed)
    current = model
    step, m, v = 0, np.zeros_like(model.theta), np.zeros_like(model.theta)
    records = []
    best_acc, best_epoch, best_model = -math.inf, 0, current
    streak, stopped_early = 0, False
    for epoch in range(1, cfg.max_epochs + 1):
        perm_lab = rng.permutation(n_lab)
        perm_unl = rng.permutation(n_unl)
        noise = rng.standard_normal((n_unl, cfg.t_perturb, d))
        batch_losses = []
        for chunk_l, chunk_u in zip(
            np.array_split(perm_lab, n_batches), np.array_split(perm_unl, n_batches)
        ):
            base = x_unl[chunk_u]
            copies = base[:, None] + cfg.noise_sigma * noise[chunk_u]
            x = np.concatenate([x_lab[chunk_l], base, copies.reshape(-1, d)])
            x = _as_feature_matrix(x, model.config.d_in)
            loss, grads = _loss_and_grads(current, x, y_lab[chunk_l], len(chunk_u), cfg,
                                          want_grads=True)
            _require_finite(current, grads)
            step += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads * grads
            m_hat = m / (1.0 - ADAM_BETA1**step)
            v_hat = v / (1.0 - ADAM_BETA2**step)
            theta = current.theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            current = current._with_vector(theta)
            batch_losses.append(loss)
        _, _, pl = forward_batch(current, val_set.features)
        val_acc = accuracy(decide(pl), val_set.labels)
        records.append(EpochRecord(epoch=epoch, train_loss=float(np.mean(batch_losses)),
                                   val_accuracy=val_acc))
        if val_acc > best_acc:
            best_acc, best_epoch, best_model, streak = val_acc, epoch, current, 0
        else:
            streak += 1
            if streak >= cfg.patience:
                stopped_early = True
                break
    return best_model, TrainHistory(records=records, best_epoch=best_epoch,
                                    stopped_early=stopped_early)


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
        table = {frame.singletons[k]: sq[k] / sum(sq) * s for k in range(frame.k)}
        table[frame.full_mask] = 1.0 - s
        masses.append(mass_new(frame, table))
    return masses


def fused_mass(model, x):
    """Pairwise Dempster fold of prototype_masses."""
    return combine_all(prototype_masses(model, x))


def fused_output(model, x):
    """(singleton masses, pl) of fused_mass, as lists in class order."""
    fused = fused_mass(model, x)
    m = [fused.mass(fused.frame.singletons[k]) for k in range(fused.frame.k)]
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


def _reference_require_utf8(path, cells, where) -> None:
    if any("\udc80" <= ch <= "\udcff" for cell in cells for ch in cell):
        raise MalformedCsvError(f"{path}: not valid UTF-8 in {where}")


def _reference_records(path, fh):
    """The records of an open CSV file, in order; a csv.Error is raised as
    MalformedCsvError when the reader meets it."""
    reader = csv.reader(fh)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise MalformedCsvError(f"{path}: {exc}") from None
        yield row


def reference_load_csv(path, class_names=None):
    """Feature CSV parsed cell by cell, each row checked as csv.reader
    yields it, so that a faulty row is reported before a csv.Error further
    down; bytes that are not UTF-8 are decoded as lone surrogates and
    refused row by row, before any other check of the row.

    Returns (features, labels, class_names) and raises the same errors,
    with the same messages, as evidnet.load_csv.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    records = _reference_records(path, io.StringIO(text, newline=""))
    header = next(records, None)
    if header is None:
        raise MalformedCsvError(f"{path}: no content")
    _reference_require_utf8(path, header, "the header")
    d = len(header) - 1
    if d < 1 or header != [f"f{j}" for j in range(d)] + ["label"]:
        raise MalformedCsvError(
            f"{path}: header must be f0,...,f{{d-1}},label, got {','.join(header)}"
        )
    fixed_names = tuple(class_names) if class_names is not None else None
    seen = list(fixed_names) if fixed_names is not None else []
    features = []
    labels = []
    for rownum, row in enumerate(records, start=1):
        _reference_require_utf8(path, row, f"row {rownum}")
        if len(row) != d + 1:
            raise MalformedCsvError(f"{path}: row {rownum} has {len(row)} cells, expected {d + 1}")
        values = []
        for j, cell in enumerate(row[:d]):
            try:
                value = float(cell)
            except ValueError:
                raise MalformedCsvError(
                    f"{path}: row {rownum}, column f{j}: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise MalformedCsvError(
                    f"{path}: row {rownum}, column f{j}: non-finite value {cell!r}"
                )
            values.append(value)
        features.append(values)
        cell = row[d]
        if cell == "?":
            labels.append(None)
        elif cell in seen:
            labels.append(seen.index(cell))
        elif fixed_names is None:
            seen.append(cell)
            labels.append(len(seen) - 1)
        else:
            raise MalformedCsvError(
                f"{path}: row {rownum}: label {cell!r} not among {fixed_names}"
            )
    return np.array(features, dtype=float).reshape(-1, d), labels, tuple(seen)


def previous_quotients(mantissa, scale, ok):
    """dataio._quotients as it was when it found midpoints by arithmetic:
    the wide quotient minus its double x, doubled in doubles, is a whole
    gap between two doubles exactly when x plus it, the next double, is
    exact. Reads the wide type's constants from dataio when called."""
    size = np.abs(scale)
    ok &= size <= dataio._MAX_SCALE
    size[~ok] = 0
    up = scale < 0
    quotient = mantissa.astype(dataio._WIDE)
    product = quotient[up] * dataio._POW10[size[up]]
    quotient /= dataio._POW10[size]
    quotient[up] = product
    x = quotient.astype(np.float64)
    quotient -= x
    twice = quotient.astype(np.float64)
    twice += twice
    ok &= ((x + twice) - x != twice) | (twice == 0)
    return x


def reference_write_csv(dataset, path) -> None:
    """Feature CSV written through csv.writer, one numpy scalar at a time;
    evidnet.write_csv must write the same bytes. Each row is formatted
    with a CRLF terminator, so that a cell holding a CR is quoted as well
    as one holding an LF, and written ending in LF."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")

    def line(cells) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        return buf.getvalue()[:-2] + "\n"

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(line([f"f{j}" for j in range(dataset.d_in)] + ["label"]))
        for i in range(dataset.n):
            lab = dataset.labels[i]
            name = "?" if lab is None else dataset.class_names[lab]
            fh.write(line([repr(float(v)) for v in dataset.features[i]] + [name]))


def reference_predictions_text(model, features) -> str:
    """The prediction export of features, one repr per value;
    evidnet.export_predictions must write the same text."""
    lines = ["row,m_pos,m_neg,m_omega,pl_pos,pl_neg,decision"]
    if len(features):
        m, m_omega, pl = forward_batch(model, features)
        names = []
        for name in model.class_names:  # as csv.writer writes it after another cell
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(("", name))
            names.append(buf.getvalue()[1:-2])
        rows = zip(m.tolist(), m_omega.tolist(), pl.tolist(), decide(pl).tolist())
        for i, ((m_pos, m_neg), m_om, (pl_pos, pl_neg), win) in enumerate(rows):
            lines.append(f"{i},{m_pos!r},{m_neg!r},{m_om!r},{pl_pos!r},{pl_neg!r},{names[win]}")
    return "\n".join(lines) + "\n"


def reference_roc_text(curve) -> str:
    """The ROC export of a RocCurve, one repr per value; evidnet roc must
    write the same text."""
    lines = ["fpr,tpr,threshold"]
    lines += [f"{fpr!r},{tpr!r},{thr!r}" for fpr, tpr, thr in curve.points]
    return "\n".join(lines + [f"# auc={curve.area!r}"]) + "\n"
