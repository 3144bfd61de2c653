from __future__ import annotations

import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evidnet import (
    DimensionMismatchError,
    EvidentialModel,
    EvidnetError,
    MassFunction,
    ModelConfig,
    NonFiniteInputError,
    TotalConflictError,
    combine_all,
    decide,
    forward,
    forward_batch,
    init_model,
)

import evidnet.model
from evidnet.model import _exclusive_prod, _forward_arrays, _sigmoid, _sq_dists, kmeans_init

import oracles
from helpers import random_prototype_model, random_wide_model


def tiny_model(beta=((0.6, 0.4),), xi=(0.0,), eta=(1.0,), center=((0.0, 0.0),)):
    """d_in = h = 2, W = I, b = 0: the reduction is the identity.

    `beta` is given as target memberships; the stored value is its sqrt.
    """
    return EvidentialModel(
        config=ModelConfig(d_in=2, r=len(xi), h=2, k=2),
        class_names=("positive", "negative"),
        w=np.eye(2),
        b=np.zeros(2),
        centers=np.asarray(center, dtype=float),
        beta=np.sqrt(np.asarray(beta, dtype=float)),
        xi=np.asarray(xi, dtype=float),
        eta=np.asarray(eta, dtype=float),
    )


def three_class_model():
    return EvidentialModel(
        config=ModelConfig(d_in=2, r=2, h=2, k=3),
        class_names=("a", "b", "c"),
        w=np.eye(2),
        b=np.zeros(2),
        centers=np.array([[0.0, 0.0], [1.0, 1.0]]),
        beta=np.array([[1.0, 0.5, 0.2], [0.3, 1.0, 0.4]]),
        xi=np.array([0.5, -0.5]),
        eta=np.array([1.0, 0.8]),
    )


def assert_matches_oracle(model, x, tol):
    """forward equals the pairwise Dempster fold of the oracle's per-prototype
    masses on every subset, within tol."""
    out = forward(model, x)
    folded = oracles.fused_mass(model, x)
    for mask in range(model.frame.full_mask + 1):
        assert abs(out.mass.mass(mask) - folded.mass(mask)) <= tol


# configs and containers

def test_model_config_validation():
    ModelConfig(d_in=1, r=1, h=1, k=2)
    for bad in (
        dict(d_in=0, r=1, h=1, k=2),
        dict(d_in=1, r=0, h=1, k=2),
        dict(d_in=1, r=1, h=0, k=2),
        dict(d_in=1, r=1, h=1, k=1),
        dict(d_in=1, r=1, h=1, k=17),
        # sizes are ints: not floats, booleans or strings, checked before range
        dict(d_in=3, r=2.0, h=2, k=2),
        dict(d_in=1, r=1, h=1, k=2.0),
        dict(d_in=True, r=1, h=1, k=2),
        dict(d_in=1, r=1, h="2", k=2),
    ):
        with pytest.raises(ValueError):
            ModelConfig(**bad)


def test_prototype_derived_quantities():
    # alpha = sigmoid(xi), gamma = eta^2, u = beta^2 / sum(beta^2): one
    # prototype with xi 0, eta 3 and beta (2, 1), at d^2 = 0.01
    m = tiny_model(beta=((4.0, 1.0),), eta=(3.0,))
    out = forward(m, np.array([0.1, 0.0]))
    s = 0.5 * np.exp(-0.09)
    assert out.activations == pytest.approx([s], abs=1e-15)
    assert out.singleton_masses == pytest.approx([0.8 * s, 0.2 * s], abs=1e-15)
    assert out.ignorance == pytest.approx(1.0 - s, abs=1e-15)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=4),
    st.floats(-20, 20, allow_nan=False),
    st.floats(-4, 4, allow_nan=False),
)
def test_prototype_ranges(beta, xi, eta):
    beta = np.asarray(beta)
    if float(np.sum(beta**2)) == 0.0:
        beta[0] = 1.0
    k = beta.size
    model = EvidentialModel(
        config=ModelConfig(d_in=2, r=1, h=2, k=k),
        class_names=tuple(f"c{j}" for j in range(k)),
        w=np.eye(2),
        b=np.zeros(2),
        centers=np.zeros((1, 2)),
        beta=beta[None, :],
        xi=np.array([xi]),
        eta=np.array([eta]),
    )
    # at the center s = alpha, and a single source's masses are u * s
    out = forward(model, np.zeros(2))
    (s,) = out.activations
    assert 0.0 < s < 1.0
    assert np.all(out.singleton_masses >= 0.0)
    assert out.singleton_masses.sum() == pytest.approx(s, abs=1e-14)
    assert out.ignorance == pytest.approx(1.0 - s, abs=1e-15)


ZERO_BETA = "^a prototype's beta squares sum to zero$"


def test_prototype_validation():
    # each prototype's memberships must be defined, not just the total
    m = tiny_model(beta=((0.5, 0.5), (0.5, 0.5)), xi=(0.0, 0.0), eta=(1.0, 1.0),
                   center=((0.0, 0.0), (1.0, 1.0)))
    for bad_row in ([0.0, 0.0], [0.0, 1e-200]):
        with pytest.raises(EvidnetError, match=ZERO_BETA):
            replace(m, beta=np.array([[1.0, 1.0], bad_row]))


def test_model_validation():
    cfg = ModelConfig(d_in=2, r=1, h=2, k=2)
    ok = dict(
        config=cfg,
        class_names=("positive", "negative"),
        w=np.eye(2),
        b=np.zeros(2),
        centers=np.zeros((1, 2)),
        beta=np.ones((1, 2)),
        xi=np.zeros(1),
        eta=np.ones(1),
    )
    EvidentialModel(**ok)
    with pytest.raises(DimensionMismatchError):
        EvidentialModel(**{**ok, "w": np.eye(3)})
    with pytest.raises(DimensionMismatchError):
        EvidentialModel(**{**ok, "class_names": ("positive",)})
    # names go through Frame: strings, non-empty, distinct
    for names in ((0, 1), (1, 2), (None, None), ("positive", ""), ("a", "a")):
        with pytest.raises(ValueError):
            EvidentialModel(**{**ok, "class_names": names})
    with pytest.raises(NonFiniteInputError):
        EvidentialModel(**{**ok, "b": np.array([0.0, np.nan])})
    with pytest.raises(EvidnetError, match=ZERO_BETA):
        EvidentialModel(**{**ok, "beta": np.zeros((1, 2))})
    with pytest.raises(EvidnetError, match=ZERO_BETA):
        # squares underflow to zero, which is just as undefined
        EvidentialModel(**{**ok, "beta": np.array([[0.0, 1e-200]])})


# single-prototype evidence

def test_prototype_activation_worked_example():
    # activations are each prototype's own s_i, before fusion
    m = tiny_model(beta=((0.6, 0.4), (0.5, 0.5)), xi=(0.0, 0.0), eta=(1.0, 1.0),
                   center=((0.0, 0.0), (1.0, 0.0)))
    out = forward(m, np.zeros(2))
    assert out.activations == pytest.approx([0.5, 0.5 * np.exp(-1.0)], abs=1e-15)


def test_prototype_activation_limits():
    m = tiny_model(beta=((0.5, 0.5),), xi=(-40.0,))
    assert forward(m, np.zeros(2)).activations[0] == pytest.approx(0.0, abs=1e-15)
    # far away, exp underflows: exactly full ignorance regardless of reliability
    m = tiny_model(beta=((0.5, 0.5),), xi=(10.0,))
    out = forward(m, np.full(2, 100.0))
    assert out.activations[0] == 0.0
    assert out.ignorance == 1.0
    assert np.array_equal(out.singleton_masses, [0.0, 0.0])


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.floats(-6, 6, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
def test_prototype_activation_always_valid(seed, xi, eta):
    rng = np.random.default_rng(seed)
    model = tiny_model(
        beta=(rng.uniform(0.05, 2.0, 2) ** 2,), xi=(xi,), eta=(eta,),
        center=(rng.uniform(-3, 3, 2),),
    )
    x = rng.uniform(-3, 3, 2)
    (s,) = forward(model, x).activations
    assert 0.0 <= s < 1.0
    assert_matches_oracle(model, x, 1e-12)


# fusion of the prototype masses

def test_fusion_worked_example():
    # two half-reliable prototypes at the input, one per class
    m = tiny_model(beta=((1.0, 0.0), (0.0, 1.0)), xi=(0.0, 0.0), eta=(1.0, 1.0),
                   center=((0.0, 0.0), (0.0, 0.0)))
    out = forward(m, np.zeros(2))
    third = 1.0 / 3.0
    assert out.singleton_masses == pytest.approx([third, third], abs=1e-12)
    assert out.ignorance == pytest.approx(third, abs=1e-12)


def test_fusion_single_source_is_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model, x = random_prototype_model(rng, 2 + int(rng.integers(2)), 1)
        out = forward(model, x)
        (source,) = oracles.prototype_masses(model, x)
        for mask in range(model.frame.full_mask + 1):
            assert out.mass.mass(mask) == pytest.approx(source.mass(mask), abs=1e-12)


def test_fusion_matches_pairwise_fold():
    rng = np.random.default_rng(31)
    for _ in range(100):
        model, x = random_prototype_model(rng, int(rng.integers(2, 4)), int(rng.integers(1, 6)))
        assert_matches_oracle(model, x, 1e-10)


def saturated_model(rng):
    """A K-class model (K 2-5) of r prototypes (r 2-6), plus an input on
    which every center sits, with xi in [15, 36]: each prototype backs one
    class with beta 1 and the others with betas in [1e-8, 1e-2], so
    prototypes backing different classes nearly fully conflict."""
    k, r = int(rng.integers(2, 6)), int(rng.integers(2, 7))
    d_in, h = (int(v) for v in rng.integers(1, 5, size=2))
    x = rng.uniform(-1.0, 1.0, d_in)
    w = rng.uniform(-1.0, 1.0, (h, d_in))
    b = rng.uniform(-1.0, 1.0, h)
    beta = 10.0 ** rng.uniform(-8.0, -2.0, (r, k))
    beta[np.arange(r), rng.integers(0, k, r)] = 1.0
    model = EvidentialModel(
        config=ModelConfig(d_in=d_in, r=r, h=h, k=k),
        class_names=tuple(f"c{j}" for j in range(k)),
        w=w,
        b=b,
        centers=np.tile(w @ x + b, (r, 1)),
        beta=beta,
        xi=rng.uniform(15.0, 36.0, r),
        eta=rng.uniform(0.5, 2.0, r),
    )
    return model, x


def test_near_total_conflict_fold_returns_wherever_forward_does():
    # Both sides start from forward's own activations s and the model's u.
    # e^-36 <= 1 - s, so the ignorance product, and with it the normalizer
    # of the whole combination, is at least e^-216, far above the floor:
    # forward and the fold both return on every model. To first order in
    # u = 2^-53, the kernel's masses are within (6rK + 12r + K + 2)u of
    # the exact fusion of the same sources (2u per factor, 3ru per r-way
    # product, and a_k, b at most the normalizer). The fold's are within
    # 10(2^(r-1) - 1)u: test_belief's fold_error_bound with at most three
    # pairs meeting in one set, over r - 1 steps.
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(1000):
        model, x = saturated_model(rng)
        out = forward(model, x)
        frame, k, r = model.frame, model.config.k, model.config.r
        sources = [
            MassFunction(frame, {**dict(zip(frame.singletons, (u[:k] * s).tolist())),
                                 frame.full_mask: 1.0 - s})
            for s, u in zip(out.activations.tolist(), model.u)
        ]
        folded = combine_all(sources)
        for mask in range(frame.full_mask + 1):
            err = abs(folded.mass(mask) - out.mass.mass(mask))
            assert err <= (6 * r * k + 12 * r + k + 2 + 10 * (2 ** (r - 1) - 1)) * 2.0**-53
            worst = max(worst, err)
    assert worst > 0.0  # the comparison is not vacuous


# full forward pass

def test_forward_worked_example():
    m = tiny_model(beta=((0.6, 0.4),))
    out = forward(m, np.zeros(2))
    assert out.singleton_masses == pytest.approx([0.3, 0.2], abs=1e-12)
    assert out.ignorance == pytest.approx(0.5, abs=1e-12)
    assert out.pl == pytest.approx([0.8, 0.7], abs=1e-12)
    assert out.activations == pytest.approx([0.5], abs=1e-15)
    assert decide(out.pl) == 0
    assert out.frame.labels == ("positive", "negative")


def test_forward_unreliable_prototypes_give_ignorance():
    m = tiny_model(xi=(-40.0,))
    out = forward(m, np.array([0.1, 0.2]))
    assert out.ignorance == pytest.approx(1.0, abs=1e-12)
    assert out.pl == pytest.approx([1.0, 1.0], abs=1e-12)
    assert decide(out.pl) == 0  # full tie goes to the lowest class index


def test_forward_certain_prototype():
    # s rounds to exactly 1, all mass lands on the favored class
    m = tiny_model(beta=((1.0, 0.0),), xi=(40.0,))
    out = forward(m, np.zeros(2))
    assert out.singleton_masses[0] == 1.0
    assert out.singleton_masses[1] == 0.0
    assert out.ignorance == 0.0
    assert decide(out.pl) == 0
    # two saturated prototypes that fully disagree leave nothing to normalize
    m = tiny_model(beta=((1.0, 0.0), (0.0, 1.0)), xi=(40.0, 40.0), eta=(1.0, 1.0),
                   center=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(TotalConflictError):
        forward(m, np.zeros(2))


def conflict_edge_model():
    """Two saturated prototypes at the origin that fully back different
    classes, so the origin is in total conflict, and one whose gamma
    overflows to inf at (2, 1), where d2 is exactly 0 and e = exp(-inf * 0)
    is NaN, so that row's normalizer is NaN."""
    with np.errstate(over="ignore"):
        return tiny_model(beta=((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)), xi=(40.0, 40.0, 0.0),
                          eta=(1.0, 1.0, 1e200), center=((0.0, 0.0), (0.0, 0.0), (2.0, 1.0)))


def test_forward_batch_takes_an_empty_batch():
    m, m_omega, pl = forward_batch(three_class_model(), np.empty((0, 2)))
    assert m.shape == (0, 3) and m_omega.shape == (0,) and pl.shape == (0, 3)


def test_nan_normalizer_row_does_not_raise():
    model = conflict_edge_model()
    with np.errstate(invalid="ignore"):
        m, m_omega, pl = forward_batch(model, [[1.0, -1.0], [2.0, 1.0], [1.0, -1.0]])
    assert np.isnan(m_omega[1]) and np.isnan(m[1]).all()
    assert np.isfinite(np.delete(m, 1, axis=0)).all() and np.isfinite(m_omega[[0, 2]]).all()


@pytest.mark.parametrize("rows", [[[2.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 1.0]]])
def test_total_conflict_raises_beside_a_nan_normalizer_row(rows):
    with np.errstate(invalid="ignore"), pytest.raises(TotalConflictError):
        forward_batch(conflict_edge_model(), rows)


def test_decide_prefers_higher_plausibility():
    m = tiny_model(beta=((0.1, 0.9),))
    out = forward(m, np.zeros(2))
    assert out.pl[1] > out.pl[0]
    assert decide(out.pl) == 1
    # one decision per row of a pl matrix, ties to the lowest index
    assert decide(np.array([[0.2, 0.7], [0.5, 0.5], [0.9, 0.1]])).tolist() == [1, 0, 0]


def test_forward_batch_matches_single_rows():
    rng = np.random.default_rng(41)
    for _ in range(10):
        model = random_wide_model(rng)
        X = rng.uniform(-3, 3, size=(6, model.config.d_in))
        m, m_omega, pl = forward_batch(model, X)
        assert m.shape == (6, 2) and m_omega.shape == (6,) and pl.shape == (6, 2)
        # BLAS may pick different kernels for (1, d) and (6, d) products,
        # so agreement is to tight tolerance rather than bitwise
        for i in range(6):
            out = forward(model, X[i])
            assert np.allclose(out.singleton_masses, m[i], rtol=0, atol=1e-12)
            assert abs(out.ignorance - m_omega[i]) <= 1e-12
            assert np.allclose(out.pl, pl[i], rtol=0, atol=1e-12)


def test_forward_output_is_normalized_mass():
    rng = np.random.default_rng(43)
    for _ in range(30):
        model = random_wide_model(rng)
        x = rng.uniform(-4, 4, model.config.d_in)
        out = forward(model, x)
        total = out.singleton_masses.sum() + out.ignorance
        assert total == pytest.approx(1.0, abs=1e-9)
        assert np.all(out.singleton_masses >= 0.0)
        assert np.all((out.activations >= 0.0) & (out.activations < 1.0))
        # plausibility is exactly singleton mass plus ignorance
        assert np.array_equal(out.pl, out.singleton_masses + out.ignorance)


def test_forward_input_validation():
    m = tiny_model()
    with pytest.raises(DimensionMismatchError,
                       match=r"^expected a vector of 2 features, got shape \(5,\)$"):
        forward(m, np.zeros(5))
    with pytest.raises(DimensionMismatchError,
                       match=r"^expected a single vector, got shape \(2, 2\)$"):
        forward(m, np.zeros((2, 2)))
    with pytest.raises(NonFiniteInputError, match="^non-finite feature values$"):
        forward(m, np.array([np.nan, 0.0]))
    with pytest.raises(DimensionMismatchError,
                       match=r"^feature matrix has shape \(3, 5\), expected \(n, 2\)$"):
        forward_batch(m, np.zeros((3, 5)))


def test_forward_reads_one_kernel_column():
    rng = np.random.default_rng(44)
    for _ in range(30):
        model = random_wide_model(rng)
        x = rng.uniform(-4, 4, model.config.d_in)
        out = forward(model, x)
        cache = _forward_arrays(model, x[None, :])
        masks = [1 << j for j in range(model.config.k)] + [(1 << model.config.k) - 1]
        values = cache["m"][:, 0].tolist() + [cache["m_omega"][0].item()]
        # masses keep the kernel's bits, singletons first in class order
        assert list(out.mass.masses.items()) == [(q, v) for q, v in zip(masks, values) if v > 0]
        assert out.pl.tobytes() == cache["pl"][:, 0].tobytes()
        assert out.activations.tobytes() == cache["s"][:, 0].tobytes()


# forward builds its mass function without MassFunction's checks; it must
# give what the checked constructor gives for the same masses, zeros dropped
# in the same key order

@settings(max_examples=300, deadline=None)
@given(st.integers(2, 16), st.integers(1, 19), st.integers(0, 2**32 - 1),
       st.sampled_from(["plain", "zero_beta", "far", "saturated"]))
def test_forward_mass_equals_checked_construction(k, r, seed, kind):
    rng = np.random.default_rng(seed)
    h = 3
    beta = rng.uniform(0.05, 1.5, (r, k))
    xi = rng.uniform(-3.0, 3.0, r)
    centers = rng.integers(-4, 5, (r, h)) * 0.25  # quarters: d2 is exact on a center
    x = rng.standard_normal(h)
    zero_class = int(rng.integers(k))
    if kind == "zero_beta":
        beta[:, zero_class] = 0.0  # a_k = b: that class's mass is exactly 0
    elif kind == "far":
        x += 1e3  # every s underflows to 0: all mass on the whole frame
    elif kind == "saturated":
        xi[0] = 40.0  # sigmoid(40) rounds to 1: on its center, s = 1 and b = 0
        x = centers[0].copy()
    model = EvidentialModel(
        config=ModelConfig(d_in=h, r=r, h=h, k=k),
        class_names=tuple(f"c{j}" for j in range(k)),
        w=np.eye(h),
        b=np.zeros(h),
        centers=centers,
        beta=beta,
        xi=xi,
        eta=rng.uniform(0.2, 1.5, r),
    )
    out = forward(model, x)
    frame = model.frame
    values = _forward_arrays(model, x[None, :])["mass"][:, 0].tolist()
    checked = MassFunction(frame, dict(zip(frame.singletons + (frame.full_mask,), values)))
    assert out.mass == checked
    assert list(out.mass.masses.items()) == list(checked.masses.items())
    assert all(type(v) is float for v in out.mass.masses.values())
    if kind == "zero_beta":
        assert frame.singletons[zero_class] not in out.mass.masses
    elif kind == "far":
        assert out.mass.masses == {frame.full_mask: 1.0}
    elif kind == "saturated":
        assert out.activations[0] == 1.0 and frame.full_mask not in out.mass.masses


def test_forward_nan_mass_raises_the_checked_error():
    # gamma = eta^2 overflows to inf, and on the center d2 = 0, so e =
    # exp(-inf * 0) is NaN and so is every mass
    with np.errstate(over="ignore"):
        model = tiny_model(eta=(1e200,))
    with np.errstate(invalid="ignore"), pytest.raises(
            NonFiniteInputError, match="^mass nan for subset 0b1$"):
        forward(model, np.zeros(2))


def test_forward_three_classes():
    out = forward(three_class_model(), np.array([0.4, 0.6]))
    assert out.frame.k == 3
    total = out.singleton_masses.sum() + out.ignorance
    assert total == pytest.approx(1.0, abs=1e-9)


# k-means and data-driven init

def test_kmeans_exact_fit_cases():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (4, 2))
    centers = kmeans_init(pts, 4, 9)
    assert sorted(map(tuple, centers)) == sorted(map(tuple, pts))
    assert np.allclose(kmeans_init(pts, 1, 3)[0], pts.mean(axis=0))


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 0.1, (50, 3)), rng.normal(3, 0.1, (50, 3))])
    centers = kmeans_init(X, 2, 1)
    got = np.asarray(sorted(map(tuple, centers)))
    assert np.allclose(got[0], [0, 0, 0], atol=0.1)
    assert np.allclose(got[1], [3, 3, 3], atol=0.1)


def test_kmeans_repairs_empty_cluster():
    # both initial picks land on the duplicated point with this seed,
    # so one cluster empties and must be re-seeded to the far outlier
    X = np.vstack([np.zeros((10, 2)), [[5.0, 5.0]]])
    centers = kmeans_init(X, 2, 0)
    rows = sorted(map(tuple, centers))
    assert rows == [(0.0, 0.0), (5.0, 5.0)]


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(8)
    X = rng.uniform(-2, 2, (30, 4))
    assert np.array_equal(kmeans_init(X, 3, 7), kmeans_init(X, 3, 7))


def test_kmeans_validation():
    X = np.zeros((2, 2))
    with pytest.raises(EvidnetError, match="^2 points cannot seed 3 distinct clusters$"):
        kmeans_init(X, 3, 0)
    with pytest.raises(ValueError):
        kmeans_init(X, 0, 0)
    with pytest.raises(DimensionMismatchError):
        kmeans_init(np.zeros(4), 1, 0)
    with pytest.raises(NonFiniteInputError):
        kmeans_init(np.array([[np.nan, 0.0]]), 1, 0)


def kmeans_rows(rng, n, h, kind):
    """n rows of h features: spread, drawn from a few distinct rows (so
    clusters empty and are re-seeded), or half of their entries -0.0."""
    if kind == "spread":
        return rng.standard_normal((n, h))
    if kind == "duplicates":
        pool = rng.integers(-2, 3, (int(rng.integers(1, 4)), h)) * 0.5
        return pool[rng.integers(0, len(pool), n)]
    return np.where(rng.random((n, h)) < 0.5, -0.0, rng.standard_normal((n, h)))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 8), st.one_of(st.just(0), st.integers(1, 60)), st.integers(1, 5),
       st.integers(0, 2**32 - 1), st.sampled_from(["spread", "duplicates", "signed_zeros"]))
@example(2, 9, 2, 0, "duplicates")
@example(4, 0, 3, 1, "duplicates")
def test_kmeans_matches_loop_form(r, extra, h, seed, kind):
    X = kmeans_rows(np.random.default_rng(seed), r + extra, h, kind)
    want = oracles.reference_kmeans_init(X, r, seed)
    assert kmeans_init(X, r, seed).tobytes() == want.tobytes()


def separated_labeled_blobs(n=40, seed=2):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0, 0.2, (n // 2, 3))
    x1 = rng.normal(4, 0.2, (n // 2, 3))
    X = np.vstack([x0, x1])
    y = [0] * (n // 2) + [1] * (n // 2)
    return X, y


def test_init_model_shapes_and_defaults():
    X, y = separated_labeled_blobs()
    cfg = ModelConfig(d_in=3, r=2, h=4, k=2)
    model = init_model(cfg, X, y, seed=0)
    assert model.class_names == ("positive", "negative")
    assert model.w.shape == (4, 3)
    assert np.all(np.abs(model.w) <= 1.0 / np.sqrt(3))
    assert np.array_equal(model.b, np.zeros(4))
    assert np.array_equal(model.xi, np.zeros(2))
    assert np.all(model.eta > 0.0)


def test_init_model_betas_reflect_cluster_purity():
    X, y = separated_labeled_blobs()
    cfg = ModelConfig(d_in=3, r=2, h=4, k=2)
    model = init_model(cfg, X, y, seed=0)
    # far-apart pure clusters: each beta row is sqrt((1, 0)) floored at 0.05
    rows = sorted(tuple(np.round(r, 6)) for r in model.beta)
    assert rows == [(0.05, 1.0), (1.0, 0.05)]


def test_init_model_determinism_and_seeding():
    X, y = separated_labeled_blobs()
    cfg = ModelConfig(d_in=3, r=2, h=4, k=2)
    a = init_model(cfg, X, y, seed=5)
    b = init_model(cfg, X, y, seed=5)
    c = init_model(cfg, X, y, seed=6)
    assert a.theta.tobytes() == b.theta.tobytes()
    assert not np.array_equal(a.w, c.w)


def test_init_model_validation():
    X, y = separated_labeled_blobs()
    cfg = ModelConfig(d_in=3, r=2, h=4, k=2)
    with pytest.raises(ValueError):
        init_model(cfg, X, [5] * len(y), seed=0)
    # fractional or float labels are not truncated; a bool is not a class index
    for bad in (0.5, 1.7, 1.0, -1, True, False):
        with pytest.raises(ValueError):
            init_model(cfg, X, [bad] + y[1:], seed=0)
    n = len(y)
    with pytest.raises(DimensionMismatchError, match=f"^{n - 1} labels for {n} rows$"):
        init_model(cfg, X, y[:-1], seed=0)
    # n labels in a 2-D array: the shape is wrong, not the count
    for bad, shape in ((np.zeros((n, 1), int), (n, 1)), ([[0, 1]] * n, (n, 2))):
        with pytest.raises(DimensionMismatchError,
                           match="^" + re.escape(f"labels have shape {shape}, expected ({n},)") + "$"):
            init_model(cfg, X, bad, seed=0)
    with pytest.raises(EvidnetError, match=f"^{len(y)} labeled points for r=41 prototypes$"):
        init_model(ModelConfig(d_in=3, r=41, h=4, k=2), X, y, seed=0)
    with pytest.raises(DimensionMismatchError):
        init_model(ModelConfig(d_in=5, r=2, h=4, k=2), X, y, seed=0)


def test_init_model_custom_names():
    X, y = separated_labeled_blobs()
    cfg = ModelConfig(d_in=3, r=2, h=4, k=2)
    model = init_model(cfg, X, y, seed=0, class_names=("sick", "healthy"))
    assert model.class_names == ("sick", "healthy")
    assert model.frame.labels == ("sick", "healthy")


# kernels against their earlier array forms

EDGE_FLOATS = (0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 800.0, -800.0)


@settings(max_examples=300)
@given(arrays(np.float64, st.integers(0, 40), elements=st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(-800.0, 800.0), st.floats(allow_nan=False)
)))
def test_sigmoid_matches_masked_form_bit_for_bit(x):
    assert _sigmoid(x).tobytes() == oracles.masked_sigmoid(x).tobytes()


@settings(max_examples=300)
@given(
    st.integers(1, 6), st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 1e3]), st.sampled_from([0.0, 1.0, -1e3, 1e6]),
)
def test_sq_dists_matches_difference_tensor(n, r, h, seed, spread, shift):
    rng = np.random.default_rng(seed)
    c = spread * rng.standard_normal((r, h)) + shift
    z = spread * rng.standard_normal((n, h)) + shift
    on = min(n, r)
    z[:on] = c[:on]  # rows on a center: the expansion cancels to rounding error there
    got = _sq_dists(z, c)
    want = oracles.tensor_sq_dists(z, c)
    # each of |z|^2, 2 z c^T and |c|^2 is off by at most about h ulps of
    # |z|^2 + |c|^2, and the oracle by at most about h ulps of d2 <= 2 (|z|^2 + |c|^2)
    scale = (z * z).sum(axis=1)[:, None] + (c * c).sum(axis=1)
    assert np.all(got >= 0.0)
    assert np.all(np.abs(got - want) <= 2 * (h + 2) * np.finfo(float).eps * scale)


@settings(max_examples=300)
@given(
    st.integers(1, 20), st.integers(1, 70), st.integers(2, 9), st.integers(0, 2**32 - 1),
    st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.booleans(),
)
@example(16, 16, 2, 0, 0.0, 0.0, False)  # explain-online's prototype count and width
def test_minus_two_commutes_with_the_center_gemm(r, h, n, seed, exp_c, exp_z, spread):
    """(-2 C) z^T has the bits of (C z^T) * -2, for one row and for many.

    -2 is a power of two, so scaling a product or a partial sum by it is
    exact and commutes with each rounding and each fused multiply-add, as
    long as nothing overflows and no product or partial sum of the GEMM is
    subnormal: there the rounding quantum is fixed and stops scaling (see
    the next test). Entries here lie within about 1e-110 to 1e106 in
    magnitude, so every product is normal. A row of zeros makes exact zeros, whose sign can
    differ between the sides; adding 0.0 gives both signs one bit pattern,
    as the kernel's next addition, of ||c||^2 >= +0.0, does.
    """
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((r, h)) * 10.0**exp_c
    z = rng.standard_normal((n, h)) * 10.0**exp_z
    if spread:  # entries spread over ten decades within each array
        c *= 10.0 ** rng.uniform(-5.0, 5.0, c.shape)
        z *= 10.0 ** rng.uniform(-5.0, 5.0, z.shape)
    z[-1] = 0.0
    for rows in (z[:1], z):
        got = np.multiply(c, -2.0) @ rows.T
        want = (c @ rows.T) * -2.0
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def test_minus_two_does_not_commute_below_the_normal_range():
    # c z is 1.5 quanta of 2^-1074 and rounds to 2 (ties to even), so
    # (c z) * -2 is -4 quanta, where (-2 c) z is exactly -3
    c, z = np.array([[1.5 * 2.0**-537]]), np.array([[2.0**-537]])
    assert (np.multiply(c, -2.0) @ z.T)[0, 0] == -3 * 2.0**-1074
    assert ((c @ z.T) * -2.0)[0, 0] == -4 * 2.0**-1074


def test_a_center_entry_of_2_to_the_1023_gives_nan_where_the_reference_ignores_it():
    # -2 * 2^1023 overflows to -inf and meets z = 0, so (-2c).z is NaN;
    # the reference scales c.z = 0 after the GEMM, and ||c||^2 = inf makes
    # d2 = inf and s = 0: all mass on the frame
    model = tiny_model(center=((2.0**1023, 0.0),))
    x = np.zeros((1, 2))
    with np.errstate(all="ignore"):
        want = oracles.reference_forward_arrays(model, x)
        got = _forward_arrays(model, x)
    assert want["s"][0, 0] == 0.0 and want["m_omega"][0] == 1.0
    assert np.isnan(got["d2"]).all() and np.isnan(got["mass"]).all()
    assert np.isnan(got["pl"]).all()


@settings(max_examples=300)
@given(
    st.integers(1, 5), st.integers(1, 8), st.integers(3, 6), st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.5]), st.booleans(),
)
@example(3, 1, 3, 0, 0.5, True)
@example(3, 2, 3, 1, 0.5, False)
def test_exclusive_prod_matches_moveaxis_form(n, r, c, seed, zero_rate, contiguous):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.5, (r, c, n))
    a[rng.random((r, c, n)) < zero_rate] = 0.0
    if not contiguous:  # a batch-major array seen in prototype-major order
        a = np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)
    got = _exclusive_prod(a)
    assert got.flags.c_contiguous
    assert got.tobytes() == oracles.moveaxis_exclusive_prod(a, axis=0).tobytes()


@settings(max_examples=200)
@given(st.integers(2, 10), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.booleans())
def test_fused_products_match_separate_products(k, r, n, seed, saturated):
    rng = np.random.default_rng(seed)
    h = 3
    centers = rng.integers(-4, 5, (r, h)) * 0.25  # quarters: the GEMM distances are exact
    xi = rng.uniform(-3.0, 3.0, r)
    if saturated:
        xi[0] = 40.0  # sigmoid(40) rounds to 1
    model = EvidentialModel(
        config=ModelConfig(d_in=h, r=r, h=h, k=k),
        class_names=tuple(f"c{j}" for j in range(k)),
        w=np.eye(h),
        b=np.zeros(h),
        centers=centers,
        beta=rng.uniform(0.2, 1.5, (r, k)),
        xi=xi,
        eta=rng.uniform(0.4, 1.2, r),
    )
    X = rng.uniform(-1.0, 1.0, (n, h))
    X[0] = centers[0]
    cache = _forward_arrays(model, X)
    prod = cache["prod"]
    if saturated:
        assert cache["s"][0, 0] == 1.0 and prod[k, 0] == 0.0
    a, b_prod = oracles.separate_products(cache["s"].T, model.u[:, :k])
    # the stacked rows a_k - b and b, and the normalizer as their sum down
    # the class axis of the kernel's (K+1, n) order
    stacked = np.ascontiguousarray(np.vstack([(a - b_prod[:, None]).T, b_prod]))
    assert prod.tobytes() == stacked.tobytes()
    assert cache["n"].tobytes() == stacked.sum(axis=0).tobytes()


def normalizer_case(k, r, seed):
    """A k-class model with r prototypes whose reliabilities alpha run from
    1e-8 to 1, so that rows range from nearly ignorant to certain, and
    three rows in its reduced space (W = I, b = 0)."""
    rng = np.random.default_rng(seed)
    h = 3
    alpha = 10.0 ** rng.uniform(-8.0, 0.0, r)
    with np.errstate(divide="ignore"):
        xi = np.minimum(np.log(alpha) - np.log1p(-alpha), 40.0)  # sigmoid(40) rounds to 1
    model = EvidentialModel(
        config=ModelConfig(d_in=h, r=r, h=h, k=k),
        class_names=tuple(f"c{j}" for j in range(k)),
        w=np.eye(h),
        b=np.zeros(h),
        centers=rng.standard_normal((r, h)),
        beta=rng.uniform(0.05, 1.5, (r, k)),
        xi=xi,
        eta=rng.uniform(0.0, 0.5, r) * rng.integers(0, 2),  # eta = 0: s = alpha on every row
    )
    return model, rng.standard_normal((3, h))


def normalizer_errors(prod, n_norm, m_omega):
    """Worst relative errors, in units of eps, of the normalizers n_norm and
    ignorance masses m_omega against the exact sum_k a_k - (K - 1) b and
    b / that sum of the rounded products prod (K+1, n): the class products
    a_k in its first K rows and the ignorance product b in its last."""
    k = prod.shape[0] - 1
    worst = [0.0, 0.0]
    for *col, b, got_n, got_mo in zip(*prod.tolist(), n_norm.tolist(), m_omega.tolist()):
        b = Fraction(b)
        exact = sum(map(Fraction, col)) - (k - 1) * b
        for i, (got, want) in enumerate(((got_n, exact), (got_mo, b / exact))):
            err = abs(Fraction(got) - want) / (want or 1) / Fraction(np.finfo(float).eps)
            worst[i] = max(worst[i], float(err))
    return worst


# The normalizer is a sum of K + 1 non-negative terms a_k - b and b, each
# difference rounded once, so its relative error is at most (K + 1) / 2 eps,
# and m_omega = b / n adds one more rounding. Worst readings over 9000
# cases: 1.52 eps (n) and 1.69 eps (m_omega), at any K from 2 to 16.
@settings(max_examples=300, deadline=None)
@given(st.integers(2, 16), st.integers(1, 19), st.integers(0, 2**32 - 1))
def test_normalizer_within_its_rounding_of_exact(k, r, seed):
    model, X = normalizer_case(k, r, seed)
    cache = _forward_arrays(model, X)
    prod = np.multiply.reduce(cache["cf"])  # the kernel's own rounded products
    err_n, err_mo = normalizer_errors(prod, cache["n"], cache["m_omega"])
    assert err_n <= (k + 1) / 2 and err_mo <= (k + 2) / 2


def test_forward_batch_builds_no_distance_tensor():
    # an (n, r, h) float64 temporary would take n * r * h * 8 = 32.8 MB here
    n, r, h, d_in = 2000, 32, 64, 16
    rng = np.random.default_rng(0)
    model = EvidentialModel(
        config=ModelConfig(d_in=d_in, r=r, h=h, k=2),
        class_names=("positive", "negative"),
        w=rng.uniform(-0.25, 0.25, (h, d_in)),
        b=np.zeros(h),
        centers=rng.standard_normal((r, h)),
        beta=rng.uniform(0.2, 1.0, (r, 2)),
        xi=np.zeros(r),
        eta=np.full(r, 0.1),
    )
    X = rng.standard_normal((n, d_in))
    tracemalloc.start()
    try:
        forward_batch(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * r * h * 8 / 4


def test_forward_reads_the_models_constants(monkeypatch):
    # alpha, gamma, u and the center norms depend on the parameters alone:
    # binding a parameter vector derives them, and no forward pass does
    model = three_class_model()
    X = np.random.default_rng(0).standard_normal((100, 2))
    calls = []
    real = evidnet.model._sigmoid
    monkeypatch.setattr(evidnet.model, "_sigmoid", lambda x: calls.append(x) or real(x))
    for row in X:
        forward(model, row)
    forward_batch(model, X)
    assert calls == []
    model._with_vector(model.theta.copy())  # a new parameter vector: the counter counts
    assert len(calls) == 1
