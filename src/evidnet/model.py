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

A model's parameters never change in place: they are read-only, and a
new parameter set is a new model (dataclasses.replace, or the
optimizer's step). So the quantities that depend on the parameters
alone (alpha, gamma, u, the squared center norms and the beta row sums)
are derived once, when the model is built, and every forward and
backward pass reads them from the model.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from numbers import Integral
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
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a matrix."""
    return np.einsum("ih,ih->i", a, a)


def _sq_dists(z: np.ndarray, c: np.ndarray, c_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared distances ||z_n - c_i||^2 as an (n, r) matrix, by the GEMM
    expansion ||z||^2 - 2 z c^T + ||c||^2, floored at 0 where it cancels.
    c_sq is _sq_norms(c), computed here when not given."""
    d2 = z @ c.T
    d2 *= -2.0
    d2 += _sq_norms(z)[:, None]
    d2 += _sq_norms(c) if c_sq is None else c_sq
    return np.maximum(d2, 0.0, out=d2)


def _exclusive_prod(a: np.ndarray) -> np.ndarray:
    """Leave-one-out product along axis 1 of an (n, r, c) array.

    out[:, i] is the product of a[:, j] over every j != i, as prefix
    times suffix running products, so zero factors are handled exactly
    and no division is made. For r = 1 the product is empty: all ones.
    The running products take one multiply per prototype over its whole
    (c, n) block, in cumprod's order, in the (r, c, n) memory order the
    forward pass stores; an input in another order is copied into it.
    """
    blocks = np.ascontiguousarray(a.transpose(1, 2, 0))
    prefix = np.empty_like(blocks)
    suffix = np.empty_like(blocks)
    prefix[0] = 1.0
    suffix[-1] = 1.0
    factor, pre, suf = list(blocks), list(prefix), list(suffix)
    for i in range(1, len(factor)):
        np.multiply(pre[i - 1], factor[i - 1], out=pre[i])
        np.multiply(suf[-i], factor[-i], out=suf[-i - 1])
    prefix *= suffix
    return prefix.transpose(2, 0, 1)


def _require_ints(config, names: Sequence[str]) -> None:
    """Raise ValueError unless each named field of config is an int."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int:  # a bool is an int subclass, and is refused too
            raise ValueError(f"{name} is {value!r}, not an integer")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes: input dim, prototype count, reduced dim, classes."""

    d_in: int
    r: int
    h: int = 64
    k: int = 2

    def __post_init__(self) -> None:
        _require_ints(self, ("d_in", "r", "h", "k"))
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

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each parameter block, in PARAM_FIELDS order."""
        r, h, k = self.r, self.h, self.k
        return dict(zip(PARAM_FIELDS, ((h, self.d_in), (h,), (r, h), (r, k), (r,), (r,))))


def _blocks(config: ModelConfig, vector: np.ndarray) -> dict[str, np.ndarray]:
    """Views of a vector laid out like a model's parameters, keyed by block."""
    out, start = {}, 0
    for name, shape in config.shapes.items():
        size = math.prod(shape)
        out[name] = vector[start : start + size].reshape(shape)
        start += size
    return out


@dataclass
class EvidentialModel:
    """Full parameter set: affine reduction plus r stacked prototypes.

    Prototype parameters are stacked arrays (centers (r,h), beta (r,k),
    xi (r,), eta (r,)). All six blocks are views into one contiguous
    float64 vector, theta, in PARAM_FIELDS order, so training updates
    the model with whole-vector operations.

    theta and its blocks are read-only: an in-place write raises
    ValueError. Parameters change only by building a new model, through
    dataclasses.replace or the optimizer's step, because binding a
    vector also derives, read-only, the constants the kernel reads:
    alpha = sigmoid(xi) (r,), gamma = eta^2 (r,), u (r, K+1) whose
    first K columns are beta_ik^2 / beta_sq_sum_i and whose column K is
    0, c_sq = ||centers_i||^2 (r,) and beta_sq_sum = sum_k beta_ik^2 (r,).
    """

    config: ModelConfig
    class_names: tuple[str, ...]
    w: np.ndarray
    b: np.ndarray
    centers: np.ndarray
    beta: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    frame: Frame = field(init=False, repr=False, compare=False)
    alpha: np.ndarray = field(init=False, repr=False, compare=False)
    gamma: np.ndarray = field(init=False, repr=False, compare=False)
    u: np.ndarray = field(init=False, repr=False, compare=False)
    c_sq: np.ndarray = field(init=False, repr=False, compare=False)
    beta_sq_sum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.frame = Frame(self.class_names)
        self.class_names = self.frame.labels
        if len(self.class_names) != self.config.k:
            raise DimensionMismatchError(
                f"{len(self.class_names)} class names for k={self.config.k}"
            )
        parts = []
        for name, want in self.config.shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise DimensionMismatchError(
                    f"{name} has shape {arr.shape}, expected {want}"
                )
            parts.append(arr.reshape(-1))
        self._bind(np.concatenate(parts))

    def _bind(self, theta: np.ndarray) -> None:
        """Make theta, now read-only, the parameter vector and derive the
        model's constants from it; raise unless every entry is finite and
        every prototype's beta squares have a non-zero sum."""
        theta.setflags(write=False)
        self.theta = theta
        self.__dict__.update(_blocks(self.config, theta))
        if not np.isfinite(theta).all():
            name = next(n for n in PARAM_FIELDS if not np.isfinite(getattr(self, n)).all())
            raise NonFiniteInputError(f"non-finite entries in {name}")
        # a finite parameter may still square past the float range: the
        # constant is then inf (NaN in u) and the forward pass yields what
        # that arithmetic gives, but building the model does not warn
        with np.errstate(over="ignore", invalid="ignore"):
            bsq = self.beta**2
            ssum = bsq.sum(axis=1)
            if (ssum == 0.0).any():
                raise ZeroBetaError("a prototype's beta squares sum to zero")
            k = self.config.k
            u = np.zeros((self.config.r, k + 1))
            np.divide(bsq, ssum[:, None], out=u[:, :k])
            constants = {
                "alpha": _sigmoid(self.xi),
                "gamma": self.eta**2,
                "u": u,
                "c_sq": _sq_norms(self.centers),
                "beta_sq_sum": ssum,
            }
        for value in constants.values():
            value.setflags(write=False)
        self.__dict__.update(constants)

    def _with_vector(self, theta: np.ndarray) -> "EvidentialModel":
        """The same architecture and classes over parameter vector theta."""
        new = copy.copy(self)
        new._bind(theta)
        return new


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
    if not np.isfinite(X).all():
        raise NonFiniteInputError("non-finite feature values")
    return X


def _forward_arrays(model: EvidentialModel, X: np.ndarray) -> dict:
    """Vectorized forward pass over a batch; returns all intermediates.

    Keys: x, z, d2, e, s, cf, a, b_prod, n, m, m_omega, pl. Shapes are
    (n, ...), prototype axis 1. cf is (n, r, K+1): cf[:, i, k] = u_ik s_i
    + (1 - s_i) is prototype i's factor for class k, and column K, the
    same rule with u = 0, is its ignorance factor 1 - s_i. One product
    over prototypes gives a (its first K columns) and b_prod (column K).
    alpha, gamma and u are the model's own constants.
    """
    k = model.config.k
    z = X @ model.w.T + model.b
    d2 = _sq_dists(z, model.centers, model.c_sq)
    e = np.exp(-model.gamma * d2)
    s = model.alpha * e
    # stored (r, K+1, n) so that every product over prototypes runs over
    # whole contiguous rows; cf is the (n, r, K+1) view of that array
    s_t = s.T.copy()
    cf = model.u[:, :, None] * s_t[:, None, :]
    cf += (1.0 - s_t)[:, None, :]
    # written row-major (n, K+1), so a.sum(axis=1) below adds a row in the
    # same order whatever K
    prod = np.empty((X.shape[0], k + 1))
    cf.prod(axis=0, out=prod.T)
    cf = cf.transpose(2, 0, 1)
    a, b_prod = prod[:, :k], prod[:, k]
    n_norm = a.sum(axis=1) - (k - 1) * b_prod
    if (n_norm <= TOTAL_CONFLICT_FLOOR).any():
        raise TotalConflictError("fused normalizer vanished; sources fully conflict")
    m = (a - b_prod[:, None]) / n_norm[:, None]
    m_omega = b_prod / n_norm
    pl = m + m_omega[:, None]
    return {
        "x": X,
        "z": z,
        "d2": d2,
        "e": e,
        "s": s,
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
    masses = {1 << j: value for j, value in enumerate(m_row.tolist())}
    masses[frame.full_mask] = m_omega
    return MassFunction(frame, masses)


def forward(model: EvidentialModel, x) -> OutputMass:
    """Full forward pass for one input vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatchError(f"expected a single vector, got shape {x.shape}")
    X = _as_feature_matrix(x[None, :], model.config.d_in)
    cache = _forward_arrays(model, X)
    mass = _mass_from_rows(model.frame, cache["m"][0], cache["m_omega"].item())
    return OutputMass(mass=mass, pl=cache["pl"][0], activations=cache["s"][0])


def decide(pl):
    """Class of maximum plausibility along the last axis; ties go to the
    lowest index. Takes one pl vector or a matrix with one row per input.
    """
    return np.argmax(pl, axis=-1)


def _class_indices(labels, k: int) -> np.ndarray:
    """Labels as an int array; raise unless each is an integer in [0, k)."""
    for lab in labels:
        # an exact int skips the slower ABC check; a bool is an int subclass
        if (type(lab) is not int and (isinstance(lab, bool) or not isinstance(lab, Integral))
                or not 0 <= lab < k):
            raise ValueError(f"label {lab!r} is not a class index in [0, {k})")
    return np.asarray(labels, dtype=int)


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
        d2 = _sq_dists(X, centers)
        new_assign = d2.argmin(axis=1)
        for j in range(r):
            if not np.any(new_assign == j):
                far = int(d2[:, j].argmax())
                centers[j] = X[far]
                d2[:, j] = _sq_dists(X, centers[j : j + 1])[:, 0]
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
    n = X.shape[0]
    shape = np.shape(labels)
    if shape != (n,):
        raise DimensionMismatchError(f"{shape[0] if shape else 0} labels for {n} rows")
    if n < config.r:
        raise TooFewPointsError(f"{n} labeled points for r={config.r} prototypes")
    y = _class_indices(labels, config.k)
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
    d2 = _sq_dists(z, centers)
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
    return EvidentialModel(config=config, class_names=tuple(class_names), w=w, b=b,
                           centers=centers, beta=beta, xi=np.zeros(config.r), eta=eta)
