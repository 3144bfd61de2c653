"""Prototype-based evidential classifier over precomputed feature vectors.

The network is an affine reduction z = Wx + b followed by r prototypes in
the reduced space. Each prototype is a piece of evidence about the class
of z: it emits a mass function whose singleton masses are u_ik * s_i and
whose ignorance mass is 1 - s_i, where the activation
s_i = alpha_i * exp(-gamma_i * d_i^2) decays with the squared distance
d_i^2 = ||z - p_i||^2. The r mass functions are fused by Dempster's rule,
computed in closed form for this singleton-plus-ignorance family, and the
decision picks the class of maximum plausibility.

Constrained quantities are re-expressed through unconstrained parameters
so the optimizer never projects: alpha_i = sigmoid(xi_i), gamma_i =
eta_i^2, u_ik = beta_ik^2 / sum_l beta_il^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .belief import MAX_FRAME_SIZE, Frame, MassFunction
from .errors import (
    DimensionMismatchError,
    NonFiniteInputError,
    TooFewPointsError,
    TotalConflictError,
    ZeroBetaError,
)

# Fused normalizer at or below this is treated as total conflict.
TOTAL_CONFLICT_FLOOR = 1e-300

KMEANS_MAX_ITER = 100

PARAM_FIELDS = ("w", "b", "centers", "beta", "xi", "eta")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise over an array."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _exclusive_prod(a: np.ndarray, axis: int) -> np.ndarray:
    """Leave-one-out product along an axis, without division.

    out[..., i, ...] is the product of a over the axis with element i
    removed. Division-free so zero factors are handled exactly.
    """
    a = np.moveaxis(a, axis, -1)
    ones = np.ones_like(a[..., :1])
    prefix = np.concatenate([ones, np.cumprod(a[..., :-1], axis=-1)], axis=-1)
    rev = np.cumprod(a[..., ::-1], axis=-1)[..., ::-1]
    suffix = np.concatenate([rev[..., 1:], ones], axis=-1)
    return np.moveaxis(prefix * suffix, -1, axis)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes: input dim, prototype count, reduced dim, classes."""

    d_in: int
    r: int
    h: int = 64
    k: int = 2

    def __post_init__(self) -> None:
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if self.h < 1:
            raise ValueError("h must be >= 1")
        if self.r < 1:
            raise ValueError("need at least one prototype")
        if self.k < 2:
            raise ValueError("need at least two classes")
        if self.k > MAX_FRAME_SIZE:
            raise ValueError(f"at most {MAX_FRAME_SIZE} classes are supported")


@dataclass
class EvidentialModel:
    """Full parameter set: affine reduction plus r stacked prototypes.

    Prototype parameters are stored as stacked arrays (centers (r,h),
    beta (r,k), xi (r,), eta (r,)) so training touches contiguous
    blocks.
    """

    config: ModelConfig
    class_names: tuple[str, ...]
    w: np.ndarray
    b: np.ndarray
    centers: np.ndarray
    beta: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self) -> None:
        self.class_names = Frame(self.class_names).labels
        if len(self.class_names) != self.config.k:
            raise DimensionMismatchError(
                f"{len(self.class_names)} class names for k={self.config.k}"
            )
        c = self.config
        shapes = {
            "w": (c.h, c.d_in),
            "b": (c.h,),
            "centers": (c.r, c.h),
            "beta": (c.r, c.k),
            "xi": (c.r,),
            "eta": (c.r,),
        }
        for name, want in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise DimensionMismatchError(
                    f"{name} has shape {arr.shape}, expected {want}"
                )
            if not np.all(np.isfinite(arr)):
                raise NonFiniteInputError(f"non-finite entries in {name}")
            setattr(self, name, arr)
        if np.any((self.beta**2).sum(axis=1) == 0.0):
            raise ZeroBetaError("a prototype's beta squares sum to zero")

    @property
    def frame(self) -> Frame:
        return Frame(self.class_names)

    def params(self) -> dict[str, np.ndarray]:
        """Trainable blocks in a fixed, documented order."""
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def copy(self) -> "EvidentialModel":
        return replace(self, **{f: getattr(self, f).copy() for f in PARAM_FIELDS})


@dataclass
class OutputMass:
    """Classifier output: fused mass function plus per-class plausibility.

    pl[k] = mass({class k}) + mass(whole frame). The raw prototype
    activations s_i are kept for diagnostics and gradient work.
    """

    mass: MassFunction
    pl: np.ndarray
    activations: np.ndarray

    @property
    def frame(self) -> Frame:
        return self.mass.frame

    @property
    def singleton_masses(self) -> np.ndarray:
        """Masses of the K singletons in class order."""
        f = self.frame
        return np.asarray([self.mass.mass(f.singleton(k)) for k in range(f.k)])

    @property
    def ignorance(self) -> float:
        return self.mass.mass(self.frame.full_mask)


def _as_feature_matrix(x, d_in: int) -> np.ndarray:
    X = np.asarray(x, dtype=float)
    if X.ndim != 2 or X.shape[1] != d_in:
        raise DimensionMismatchError(
            f"feature matrix has shape {X.shape}, expected (n, {d_in})"
        )
    if not np.all(np.isfinite(X)):
        raise NonFiniteInputError("non-finite feature values")
    return X


def _forward_arrays(model: EvidentialModel, X: np.ndarray) -> dict:
    """Vectorized forward pass over a batch; returns all intermediates.

    Keys: z, diff, d2, alpha, gamma, e, s, one_minus_s, u, cf, a,
    b_prod, n, m, m_omega, pl. Shapes are (n, ...), prototype axis 1.
    """
    k = model.config.k
    z = X @ model.w.T + model.b
    diff = z[:, None, :] - model.centers[None, :, :]
    d2 = np.einsum("nih,nih->ni", diff, diff)
    alpha = _sigmoid(model.xi)
    gamma = model.eta**2
    e = np.exp(-gamma[None, :] * d2)
    s = alpha[None, :] * e
    one_minus_s = 1.0 - s
    bsq = model.beta**2
    u = bsq / bsq.sum(axis=1)[:, None]
    # cf[n,i,k] is prototype i's contribution factor for class k
    cf = u[None, :, :] * s[:, :, None] + one_minus_s[:, :, None]
    a = cf.prod(axis=1)
    b_prod = one_minus_s.prod(axis=1)
    n_norm = a.sum(axis=1) - (k - 1) * b_prod
    if np.any(n_norm <= TOTAL_CONFLICT_FLOOR):
        raise TotalConflictError("fused normalizer vanished; sources fully conflict")
    m = (a - b_prod[:, None]) / n_norm[:, None]
    m_omega = b_prod / n_norm
    pl = m + m_omega[:, None]
    return {
        "x": X,
        "z": z,
        "diff": diff,
        "d2": d2,
        "alpha": alpha,
        "gamma": gamma,
        "e": e,
        "s": s,
        "one_minus_s": one_minus_s,
        "u": u,
        "cf": cf,
        "a": a,
        "b_prod": b_prod,
        "n": n_norm,
        "m": m,
        "m_omega": m_omega,
        "pl": pl,
    }


def forward_batch(model: EvidentialModel, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward a feature matrix; returns (singleton masses, ignorance, pl)."""
    X = _as_feature_matrix(X, model.config.d_in)
    cache = _forward_arrays(model, X)
    return cache["m"], cache["m_omega"], cache["pl"]


def _mass_from_rows(frame: Frame, m_row: np.ndarray, m_omega: float) -> MassFunction:
    masses = {frame.singleton(j): float(m_row[j]) for j in range(frame.k)}
    masses[frame.full_mask] = float(m_omega)
    return MassFunction(frame, masses)


def forward(model: EvidentialModel, x) -> OutputMass:
    """Full forward pass for one input vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError(f"expected a single vector, got shape {x.shape}")
    X = _as_feature_matrix(x[None, :], model.config.d_in)
    cache = _forward_arrays(model, X)
    mass = _mass_from_rows(model.frame, cache["m"][0], float(cache["m_omega"][0]))
    return OutputMass(mass=mass, pl=cache["pl"][0], activations=cache["s"][0])


def decide(out: OutputMass) -> int:
    """Class of maximum plausibility; ties go to the lowest index."""
    return int(np.argmax(out.pl))


def kmeans_init(features, r: int, seed: int) -> np.ndarray:
    """Lloyd's K-means with seeded distinct-row initialization.

    Iterates to an assignment fixpoint or 100 rounds. An emptied cluster
    is re-seeded to the point farthest from its current center.
    Deterministic given (features, seed). Returns an (r, h) array.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"features must be a matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInputError("non-finite feature values")
    if r < 1:
        raise ValueError("need at least one cluster")
    n = X.shape[0]
    if n < r:
        raise TooFewPointsError(f"{n} points cannot seed {r} distinct clusters")
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=r, replace=False)].copy()
    assign = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        for j in range(r):
            if not np.any(new_assign == j):
                far = int(d2[:, j].argmax())
                centers[j] = X[far]
                d2[:, j] = ((X - centers[j]) ** 2).sum(axis=1)
                new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = np.stack(
            [
                X[assign == j].mean(axis=0) if np.any(assign == j) else centers[j]
                for j in range(r)
            ]
        )
    return centers


def init_model(
    config: ModelConfig,
    labeled_features,
    labels,
    seed: int,
    class_names: Sequence[str] | None = None,
) -> EvidentialModel:
    """Data-driven initialization.

    W is uniform in +-1/sqrt(d_in) and b zero; prototype centers come
    from K-means on the reduced features; beta_ik is the square root of
    class k's proportion in cluster i floored at 0.05; xi = 0 so every
    alpha starts at 0.5; eta_i matches the cluster's distance scale
    (gamma_i = 1 / mean squared member distance, or 1 if degenerate).
    """
    X = _as_feature_matrix(labeled_features, config.d_in)
    y = np.asarray(labels, dtype=int)
    n = X.shape[0]
    if y.shape != (n,):
        raise DimensionMismatchError(f"{y.shape[0] if y.ndim else 0} labels for {n} rows")
    if n < config.r:
        raise TooFewPointsError(f"{n} labeled points for r={config.r} prototypes")
    if n and (y.min() < 0 or y.max() >= config.k):
        raise ValueError(f"labels must be class indices in [0, {config.k})")
    if class_names is None:
        if config.k == 2:
            class_names = ("positive", "negative")
        else:
            class_names = tuple(f"class{j}" for j in range(config.k))
    rng = np.random.default_rng(seed)
    limit = 1.0 / np.sqrt(config.d_in)
    w = rng.uniform(-limit, limit, size=(config.h, config.d_in))
    b = np.zeros(config.h)
    z = X @ w.T + b
    centers = kmeans_init(z, config.r, int(rng.integers(2**32)))
    d2 = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    beta = np.empty((config.r, config.k))
    eta = np.empty(config.r)
    for i in range(config.r):
        members = assign == i
        count = int(members.sum())
        if count:
            props = np.bincount(y[members], minlength=config.k) / count
            msd = float(d2[members, i].mean())
        else:
            props = np.zeros(config.k)
            msd = 0.0
        beta[i] = np.maximum(0.05, np.sqrt(props))
        eta[i] = np.sqrt(1.0 / msd) if msd > 0.0 else 1.0
    xi = np.zeros(config.r)
    return EvidentialModel(
        config=config,
        class_names=tuple(class_names),
        w=w,
        b=b,
        centers=centers,
        beta=beta,
        xi=xi,
        eta=eta,
    )
