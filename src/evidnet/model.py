"""Prototype-based evidential classifier over precomputed feature vectors.

The network is an affine reduction z = Wx + b followed by r prototypes in
the reduced space. Each prototype is a piece of evidence about the class
of z: it emits a mass function whose singleton masses are u_ik * s_i and
whose ignorance mass is 1 - s_i, where the activation
s_i = alpha_i * exp(-gamma_i * d_i^2) decays with the squared distance
d_i^2 = ||z - p_i||^2. The r mass functions are fused by Dempster's rule,
computed in closed form for this singleton-plus-ignorance family, and the
decision picks the class of maximum plausibility.

The batched kernel keeps its arrays prototype-major with the batch axis
last: every product over prototypes multiplies whole contiguous blocks of
one (r, K+1, n) array of per-class and ignorance factors, and the fused
masses are one (K+1, n) array, normalized by one division.

Constrained quantities are re-expressed through unconstrained parameters
so the optimizer never projects: alpha_i = sigmoid(xi_i), gamma_i =
eta_i^2, u_ik = beta_ik^2 / sum_l beta_il^2.

A model's parameters never change in place: they are read-only, and a
new parameter set is a new model (dataclasses.replace, or the
optimizer's step). So the quantities that depend on the parameters
alone (alpha, gamma, u, the squared center norms, the beta row sums
and -2 * centers) are derived once, when the model is built, and every
forward and backward pass reads them from the model, some also in the
shapes the forward pass uses them in (EvidentialModel lists them all).
The kernel forms d_i^2 as (-2 p_i).z + ||p_i||^2 + ||z||^2: scaling by
-2 is exact, so it has the bits of scaling p_i.z, unless a product or
partial sum of the GEMM is subnormal or overflows. One such overflow
changes a value: a center entry of magnitude 2^1023 or more (about
9e307) is finite, but -2 times it is inf, so a row whose z is 0 or of
that entry's sign in that coordinate gets NaN masses (inf * 0, or
inf - inf against ||p_i||^2 = inf), where scaling p_i.z gave d_i^2 =
inf, which ignores the prototype.

The kernel's masses satisfy a mass function's invariants by their
arithmetic, so forward builds its MassFunction without checking them
again (see belief._derived_mass); a NaN mass still raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Sequence

import numpy as np

from .belief import MAX_FRAME_SIZE, TOTAL_CONFLICT_FLOOR, Frame, MassFunction, _derived_mass
from .errors import DimensionMismatchError, EvidnetError, NonFiniteInputError, TotalConflictError

KMEANS_MAX_ITER = 100

PARAM_FIELDS = ("w", "b", "centers", "beta", "xi", "eta")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise over an array."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances ||a_i - b_j||^2 as a (len(a), len(b)) matrix, by
    the GEMM expansion ||a||^2 - 2 a b^T + ||b||^2, floored at 0 where it
    cancels."""
    d2 = a @ b.T
    d2 *= -2.0
    d2 += np.vecdot(a, a)[:, None]
    d2 += np.vecdot(b, b)
    return np.maximum(d2, 0.0, out=d2)


def _exclusive_prod(a: np.ndarray) -> np.ndarray:
    """Leave-one-out product along axis 0 of an (r, c, n) array.

    out[i] is the product of a[j] over every j != i, as prefix times
    suffix running products, so zero factors are handled exactly and no
    division is made. For r = 1 the product is empty: all ones. The
    prefix and the reversed suffix run side by side in one (r, 2, c, n)
    array: row i first holds the pair of factors a[i - 1], a[r - i] and is
    then multiplied in place by row i - 1, one multiply per prototype, in
    cumprod's order. The result is a new C-contiguous array.
    """
    run = np.empty((len(a), 2) + a.shape[1:])
    run[0] = 1.0
    run[1:, 0] = a[:-1]
    run[1:, 1] = a[:0:-1]
    out = list(run)
    for i in range(1, len(out)):
        np.multiply(out[i - 1], out[i], out=out[i])
    return run[:, 0] * run[::-1, 1]


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

    @cached_property
    def layout(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """(name, start, stop, shape) of each parameter block in a vector
        laid out like a model's parameters, in PARAM_FIELDS order; built
        once per config."""
        out, start = [], 0
        for name, shape in self.shapes.items():
            stop = start + math.prod(shape)
            out.append((name, start, stop, shape))
            start = stop
        return tuple(out)


def _blocks(config: ModelConfig, vector: np.ndarray) -> dict[str, np.ndarray]:
    """Views of a vector laid out like a model's parameters, keyed by block."""
    return {name: vector[start:stop].reshape(shape)
            for name, start, stop, shape in config.layout}


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
    0, omu = 1 - u (r, K+1), whose column K is 1, beta_sq_sum = sum_k
    beta_ik^2 (r,) and neg2_centers = -2 * centers (r, h). It binds the
    rest in the shape the kernel uses them in, so that no forward pass
    rebuilds them: c_sq_col = ||centers_i||^2 as an (r, 1) column, b_row
    = b[None, :] (1, h), alpha_col = alpha[:, None] (r, 1),
    neg_gamma_col = -gamma[:, None] (r, 1) and u_col = u[:, :, None]
    (r, K+1, 1).
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
    omu: np.ndarray = field(init=False, repr=False, compare=False)
    beta_sq_sum: np.ndarray = field(init=False, repr=False, compare=False)
    neg2_centers: np.ndarray = field(init=False, repr=False, compare=False)
    b_row: np.ndarray = field(init=False, repr=False, compare=False)
    c_sq_col: np.ndarray = field(init=False, repr=False, compare=False)
    alpha_col: np.ndarray = field(init=False, repr=False, compare=False)
    neg_gamma_col: np.ndarray = field(init=False, repr=False, compare=False)
    u_col: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.frame = Frame(self.class_names)
        self.class_names = self.frame.labels
        if len(self.class_names) != self.config.k:
            raise DimensionMismatchError(
                f"{len(self.class_names)} class names for k={self.config.k}"
            )
        parts = []
        for name, _, _, want in self.config.layout:
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
        every prototype's beta squares have a non-zero sum.

        The optimizer rebinds at every training step, so this calls the
        ufuncs themselves, not the ndarray methods and operators that wrap
        them; each constant has the bits the operator form gives."""
        theta.setflags(write=False)
        blocks = _blocks(self.config, theta)
        self.theta = theta
        self.__dict__.update(blocks)
        if not np.logical_and.reduce(np.isfinite(theta)):
            name = next(n for n in PARAM_FIELDS if not np.isfinite(blocks[n]).all())
            raise NonFiniteInputError(f"non-finite entries in {name}")
        # a finite parameter may still square past the float range: the
        # constant is then inf (NaN in u) and the forward pass yields what
        # that arithmetic gives, but building the model does not warn
        with np.errstate(over="ignore", invalid="ignore"):
            bsq = np.square(blocks["beta"])
            ssum = np.add.reduce(bsq, axis=1)
            if np.logical_or.reduce(ssum == 0.0):
                raise EvidnetError("a prototype's beta squares sum to zero")
            k = self.config.k
            u = np.zeros((self.config.r, k + 1))
            np.divide(bsq, ssum[:, None], out=u[:, :k])
            alpha, gamma = _sigmoid(blocks["xi"]), np.square(blocks["eta"])
            centers = blocks["centers"]
            constants = {
                "alpha": alpha,
                "gamma": gamma,
                "u": u,
                "omu": np.subtract(1.0, u),
                "beta_sq_sum": ssum,
                "neg2_centers": np.multiply(centers, -2.0),
                "b_row": blocks["b"][None, :],
                "c_sq_col": np.vecdot(centers, centers)[:, None],
                "alpha_col": alpha[:, None],
                "neg_gamma_col": np.negative(gamma[:, None]),
                "u_col": u[:, :, None],
            }
        for value in constants.values():
            value.setflags(write=False)
        self.__dict__.update(constants)

    def _with_vector(self, theta: np.ndarray) -> "EvidentialModel":
        """The same architecture and classes over parameter vector theta.

        The new model starts as a shallow copy of this one's fields; _bind
        then replaces every field that depends on theta."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
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
        return np.asarray([self.mass.mass(mask) for mask in self.frame.singletons])

    @property
    def ignorance(self) -> float:
        return self.mass.mass(self.frame.full_mask)


def _require_finite_features(X: np.ndarray) -> None:
    # the ufunc reduction skips ndarray.all()'s Python wrapper
    if not np.logical_and.reduce(np.isfinite(X), axis=None):
        raise NonFiniteInputError("non-finite feature values")


def _as_feature_matrix(x, d_in: int) -> np.ndarray:
    X = np.asarray(x, dtype=float)
    if X.ndim != 2 or X.shape[1] != d_in:
        raise DimensionMismatchError(
            f"feature matrix has shape {X.shape}, expected (n, {d_in})"
        )
    _require_finite_features(X)
    return X


def _forward_arrays(model: EvidentialModel, X: np.ndarray) -> dict:
    """Vectorized forward pass over a batch; returns all intermediates.

    Keys: x, z, d2, e, s, cf, prod, n, mass, m, m_omega, pl. x and z are
    (n, ...); every other array has the batch axis last: d2, e and s are
    (r, n), prod and mass (K+1, n), m and pl (K, n), n and m_omega (n,).
    cf is (r, K+1, n): cf[i, k] = u_ik s_i + (1 - s_i) is prototype i's
    factor for class k, and row K, the same rule with u = 0, is its
    ignorance factor 1 - s_i. One product over prototypes, over whole
    contiguous (K+1, n) blocks, gives the class products a_k and the
    ignorance product b, stored in prod as a_k - b (first K rows) and b
    (row K): non-negative terms whose sum is the normalizer n, so no term
    cancels another. mass = prod / n stacks the singleton masses m on the
    ignorance mass m_omega. d2 is _sq_dists' expansion with the -2 folded
    into the centers, floored at 0 likewise; it and alpha, gamma and u
    are formed from the model's constants, bound in the shapes they are
    used in.
    """
    k = model.config.k
    z = X @ model.w.T
    z += model.b_row
    d2 = model.neg2_centers @ z.T
    d2 += model.c_sq_col
    d2 += np.vecdot(z, z)
    np.maximum(d2, 0.0, out=d2)
    e = np.multiply(d2, model.neg_gamma_col)
    np.exp(e, out=e)
    s = model.alpha_col * e
    cf = model.u_col * s[:, None, :]
    cf += (1.0 - s)[:, None, :]
    # ufunc reductions along axis 0 skip ndarray.prod()'s and .sum()'s
    # Python wrappers, and give their bits
    prod = np.multiply.reduce(cf)
    prod[:k] -= prod[k]
    n_norm = np.add.reduce(prod)
    # fmin skips NaN rows; the initial inf lets an empty batch through
    if np.fmin.reduce(n_norm, axis=None, initial=np.inf) <= TOTAL_CONFLICT_FLOOR:
        raise TotalConflictError("fused normalizer vanished; sources fully conflict")
    mass = prod / n_norm
    m, m_omega = mass[:k], mass[k]
    return {
        "x": X,
        "z": z,
        "d2": d2,
        "e": e,
        "s": s,
        "cf": cf,
        "prod": prod,
        "n": n_norm,
        "mass": mass,
        "m": m,
        "m_omega": m_omega,
        "pl": m + m_omega,
    }


def forward_batch(model: EvidentialModel, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward a feature matrix; returns (singleton masses, ignorance, pl),
    with one row per input."""
    X = _as_feature_matrix(X, model.config.d_in)
    cache = _forward_arrays(model, X)
    return cache["m"].T, cache["m_omega"], cache["pl"].T


def forward(model: EvidentialModel, x) -> OutputMass:
    """Full forward pass for one input vector."""
    x = np.asarray(x, dtype=float)
    d_in = model.config.d_in
    if x.shape != (d_in,):
        if x.ndim != 1:
            raise DimensionMismatchError(f"expected a single vector, got shape {x.shape}")
        raise DimensionMismatchError(f"expected a vector of {d_in} features, got shape {x.shape}")
    _require_finite_features(x)
    cache = _forward_arrays(model, x[None, :])
    frame = model.frame
    masses = dict(zip(frame.singletons + (frame.full_mask,), cache["mass"].ravel().tolist()))
    return OutputMass(mass=_derived_mass(frame, masses), pl=cache["pl"].ravel(),
                      activations=cache["s"].ravel())


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
    _require_finite_features(X)
    if r < 1:
        raise ValueError("need at least one cluster")
    n = X.shape[0]
    if n < r:
        raise EvidnetError(f"{n} points cannot seed {r} distinct clusters")
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=r, replace=False)].copy()
    assign = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = _sq_dists(X, centers)
        new_assign = d2.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=r).tolist()
        for j in range(r):
            if not counts[j]:  # in index order, against the current assignment
                far = int(d2[:, j].argmax())
                centers[j] = X[far]
                d2[:, j] = _sq_dists(X, centers[j : j + 1])[:, 0]
                new_assign = d2.argmin(axis=1)
                counts = np.bincount(new_assign, minlength=r).tolist()
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # each cluster's rows, in row order, are one slice of a stable sort
        grouped = X[np.argsort(assign, kind="stable")]
        stops = np.cumsum(counts).tolist()
        centers = np.stack([grouped[stop - count:stop].mean(axis=0) if count else centers[j]
                            for j, (count, stop) in enumerate(zip(counts, stops))])
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
    if len(shape) != 1:
        raise DimensionMismatchError(f"labels have shape {shape}, expected ({n},)")
    if shape != (n,):
        raise DimensionMismatchError(f"{shape[0]} labels for {n} rows")
    if n < config.r:
        raise EvidnetError(f"{n} labeled points for r={config.r} prototypes")
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
