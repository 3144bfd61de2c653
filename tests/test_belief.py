from __future__ import annotations

import dataclasses
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evidnet import (
    EvidnetError,
    Frame,
    InvalidMassError,
    MassFunction,
    NonFiniteInputError,
    TotalConflictError,
    bel,
    combine_all,
    conflict,
    dempster_combine,
    mass_new,
    pl,
)
from evidnet.belief import TOTAL_CONFLICT_FLOOR

import oracles
from helpers import random_mass

ABC = Frame(("a", "b", "c"))


def vacuous(frame):
    """Total ignorance: all mass on the full frame."""
    return MassFunction(frame, {frame.full_mask: 1.0})


def masses_close(m1, m2, tol=1e-12):
    for mask in range(0, m1.frame.full_mask + 1):
        if abs(m1.mass(mask) - m2.mass(mask)) > tol:
            return False
    return True


# frame basics

def test_frame_size_and_masks():
    f = Frame(("x", "y"))
    assert f.k == 2
    assert f.full_mask == 0b11
    assert f.singletons[0] == 0b01
    assert f.singletons[1] == 0b10
    assert f.full_mask & ~0b01 == 0b10
    assert f.singletons[0] | f.singletons[1] == 0b11
    assert f.singletons[f.labels.index("y")] == 0b10
    assert f.check_mask(0) == 0


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(())
    with pytest.raises(ValueError):
        Frame(tuple(f"c{i}" for i in range(17)))
    with pytest.raises(ValueError):
        Frame(("a", "a"))
    with pytest.raises(ValueError):
        Frame(("a", ""))
    with pytest.raises(ValueError):
        Frame((1, 2))  # labels are strings
    Frame(tuple(f"c{i}" for i in range(16)))  # boundary is allowed


def test_frame_equality_and_hash_read_the_labels_alone():
    f, g = Frame(("x", "y")), Frame(["x", "y"])
    assert f == g and hash(f) == hash(g) and {f: 1}[g] == 1
    assert f != Frame(("y", "x"))
    assert repr(f) == "Frame(labels=('x', 'y'))"
    assert [fl.name for fl in dataclasses.fields(Frame) if fl.compare] == ["labels"]
    h = dataclasses.replace(f, labels=("x", "y", "z"))
    assert (h.k, h.full_mask) == (3, 0b111)
    assert (f.k, f.full_mask) == (2, 0b11)
    with pytest.raises(ValueError):
        dataclasses.replace(f, k=3)  # derived, never given
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.full_mask = 0b111  # type: ignore[misc]


def test_mask_validation():
    with pytest.raises(InvalidMassError, match="^mask -1 out of range for frame of size 3$"):
        ABC.check_mask(-1)
    with pytest.raises(InvalidMassError, match="^mask 8 out of range for frame of size 3$"):
        ABC.check_mask(0b1000)
    with pytest.raises(InvalidMassError, match="^subset mask must be an int, got bool$"):
        ABC.check_mask(True)
    with pytest.raises(InvalidMassError, match="^subset mask must be an int, got float$"):
        ABC.check_mask(1.0)  # type: ignore[arg-type]


# mass function construction

def test_mass_new_accumulates_and_drops_zeros():
    m = mass_new(ABC, [(0b001, 0.25), (0b001, 0.25), (0b111, 0.5), (0b010, 0.0)])
    assert m.mass(0b001) == 0.5
    assert m.mass(0b111) == 0.5
    assert m.masses == {0b001: 0.5, 0b111: 0.5}
    assert m.mass(0b010) == 0.0


def test_mass_new_validation():
    with pytest.raises(InvalidMassError, match="^mass -0.1 for subset 0b1$"):
        mass_new(ABC, {0b001: -0.1, 0b111: 1.1})
    with pytest.raises(InvalidMassError, match="^empty set carries mass 0.2$"):
        mass_new(ABC, {0b000: 0.2, 0b111: 0.8})
    with pytest.raises(InvalidMassError, match="^masses sum to 0.9, expected 1$"):
        mass_new(ABC, {0b111: 0.9})
    with pytest.raises(InvalidMassError, match="^masses sum to 1.000000002, expected 1$"):
        mass_new(ABC, {0b111: 1.0 + 2e-9})
    with pytest.raises(InvalidMassError, match="^mask 8 out of range for frame of size 3$"):
        mass_new(ABC, {0b1000: 1.0})
    # inside tolerance passes
    mass_new(ABC, {0b111: 1.0 + 5e-10})
    # zero-mass empty set is fine, it just gets dropped
    m = mass_new(ABC, {0b000: 0.0, 0b111: 1.0})
    assert m.masses == {ABC.full_mask: 1.0}
    # mass_new checks each pair before accumulating: a negative pair is
    # refused even where the accumulated mass of its subset is positive
    with pytest.raises(InvalidMassError, match="^mass -0.1 for subset 0b1$"):
        mass_new(ABC, [(0b001, -0.1), (0b001, 0.2), (0b111, 0.9)])
    for value in NON_NUMBERS:
        with pytest.raises(NonFiniteInputError,
                           match=f"^mass {re.escape(repr(value))} for subset 0b1 "
                                 "is not a real number$"):
            mass_new(ABC, [(0b111, 1.0), (0b001, value)])
    m = mass_new(ABC, [(0b001, Fraction(1, 4)), (0b111, 0), (0b111, np.float32(0.75))])
    assert m.masses == {0b001: 0.25, 0b111: 0.75}


def test_vacuous():
    m = MassFunction(ABC, {ABC.full_mask: 1.0})
    assert m.masses == {ABC.full_mask: 1.0}
    assert m.mass(ABC.full_mask) == 1.0
    assert mass_new(ABC, {0b001: 1.0}).masses != {ABC.full_mask: 1.0}


def test_mass_function_is_read_only_and_hashes_as_it_compares():
    m = mass_new(ABC, {0b111: 1.0})
    with pytest.raises(TypeError):
        m.masses[0] = 0.5  # would put mass on the empty set
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.masses = {0: 1.0}
    assert bel(m, 0b111) == 1.0 and m.mass(0) == 0.0
    # a source dict changed later does not reach the mass function
    table = {0b001: 0.25, 0b111: 0.75}
    built = MassFunction(ABC, table)
    table[0b001] = 0.5
    assert built.masses == {0b001: 0.25, 0b111: 0.75}
    # equal mass functions hash alike, whatever the order or the zero entries
    same = MassFunction(ABC, {0b111: 0.75, 0b010: 0.0, 0b001: 0.25})
    assert same == built and hash(same) == hash(built) and {built: 1}[same] == 1
    assert len({built, same, m, MassFunction(Frame(("x", "y", "z")), {0b111: 1.0})}) == 3
    assert built != mass_new(ABC, {0b001: 0.5, 0b111: 0.5})


# a mass that is a bool or not a real number, each refused naming its subset
NON_NUMBERS = [True, False, "1.0", None, Decimal("1.0"), 1j, np.bool_(True)]


def test_mass_function_direct_construction_validates():
    with pytest.raises(InvalidMassError, match="^masses sum to 0.4, expected 1$"):
        MassFunction(ABC, {0b001: 0.4})
    with pytest.raises(InvalidMassError, match="^mass -0.5 for subset 0b1$"):
        MassFunction(ABC, {0b001: -0.5, 0b111: 1.5})
    for value in NON_NUMBERS:
        with pytest.raises(NonFiniteInputError,
                           match=f"^mass {re.escape(repr(value))} for subset 0b111 "
                                 "is not a real number$"):
            MassFunction(ABC, {0b001: 0.0, 0b111: value})
    # ints, numpy numbers and fractions are real numbers, stored as floats
    for one in (1, np.int64(1), np.float32(1.0), Fraction(1)):
        m = MassFunction(ABC, {0b111: one})
        assert m.masses == {0b111: 1.0} and type(m.masses[0b111]) is float
    m = MassFunction(ABC, {0b001: Fraction(1, 4), 0b111: Fraction(3, 4)})
    assert m.masses == {0b001: 0.25, 0b111: 0.75}


@settings(max_examples=100)
@given(st.integers(1, 6), st.data())
def test_nan_mass_is_refused_naming_its_subset(k, data):
    # NaN compares false both ways, so it is neither negative nor kept:
    # without its own check it would drop out and leave the rest
    frame = Frame(tuple(f"c{j}" for j in range(k)))
    nan_mask = data.draw(st.integers(0, frame.full_mask))
    drawn = data.draw(st.dictionaries(st.integers(1, frame.full_mask),
                                      st.floats(0.0, 1.0), max_size=4))
    table = {mask: v / (1.0 + sum(drawn.values())) for mask, v in drawn.items()}
    table[frame.full_mask] = table.get(frame.full_mask, 0.0) + 1.0 - sum(table.values())
    table[nan_mask] = data.draw(st.sampled_from([math.nan, -math.nan]))
    for build in (mass_new, MassFunction):
        with pytest.raises(NonFiniteInputError, match=f"for subset {nan_mask:#b}$"):
            build(frame, table)


# bel / pl

def test_bel_pl_worked_example():
    m = mass_new(ABC, {0b001: 0.5, 0b011: 0.2, 0b111: 0.3})
    assert bel(m, 0b011) == 0.7
    assert pl(m, 0b100) == 0.3
    assert bel(m, 0b001) == 0.5
    assert pl(m, 0b001) == 1.0
    assert bel(m, 0) == 0.0
    assert pl(m, 0) == 0.0


def test_bel_pl_match_bruteforce_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        frame = Frame(tuple(f"c{i}" for i in range(k)))
        m = random_mass(rng, frame)
        for a in range(0, frame.full_mask + 1):
            assert abs(bel(m, a) - oracles.brute_bel(m, a)) <= 1e-12
            assert abs(pl(m, a) - oracles.brute_pl(m, a)) <= 1e-12


@st.composite
def frame_and_masses(draw, n_masses=1):
    k = draw(st.integers(2, 4))
    frame = Frame(tuple(f"c{i}" for i in range(k)))
    out = []
    for _ in range(n_masses):
        n = draw(st.integers(1, 5))
        masks = draw(st.lists(st.integers(1, frame.full_mask), min_size=n, max_size=n))
        raw = draw(
            st.lists(
                st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False),
                min_size=n + 1,
                max_size=n + 1,
            )
        )
        total = sum(raw)
        pairs = [(mask, w / total) for mask, w in zip(masks, raw)]
        pairs.append((frame.full_mask, raw[-1] / total))
        out.append(mass_new(frame, pairs))
    return frame, out


@settings(deadline=None, max_examples=60)
@given(frame_and_masses())
def test_bel_pl_duality_and_bounds(fm):
    frame, (m,) = fm
    for a in range(0, frame.full_mask + 1):
        b, p = bel(m, a), pl(m, a)
        assert -1e-12 <= b <= p + 1e-12
        assert p <= 1.0 + 1e-12
        assert abs(p - (1.0 - bel(m, frame.full_mask & ~a))) <= 1e-9
    assert abs(bel(m, frame.full_mask) - 1.0) <= 1e-9
    assert abs(pl(m, frame.full_mask) - 1.0) <= 1e-9


@settings(deadline=None, max_examples=60)
@given(frame_and_masses(), st.integers(0, 2 ** 32 - 1))
def test_bel_monotone_under_supersets(fm, seed):
    frame, (m,) = fm
    rng = np.random.default_rng(seed)
    a = int(rng.integers(0, frame.full_mask + 1))
    b = int(rng.integers(0, frame.full_mask + 1))
    assert bel(m, a) <= bel(m, a | b) + 1e-12
    assert pl(m, a) <= pl(m, a | b) + 1e-12


# conflict and combination

def test_conflict_worked_example():
    f = ABC
    m1 = mass_new(f, {0b001: 0.6, 0b111: 0.4})
    m2 = mass_new(f, {0b010: 0.5, 0b111: 0.5})
    assert conflict(m1, m2) == pytest.approx(0.3, abs=1e-15)
    assert conflict(m2, m1) == pytest.approx(0.3, abs=1e-15)
    assert conflict(m1, vacuous(f)) == 0.0


def test_dempster_worked_example():
    m1 = mass_new(ABC, {0b001: 0.6, 0b111: 0.4})
    m2 = mass_new(ABC, {0b010: 0.5, 0b111: 0.5})
    out = dempster_combine(m1, m2)
    assert out.mass(0b001) == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert out.mass(0b010) == pytest.approx(2.0 / 7.0, abs=1e-12)
    assert out.mass(0b111) == pytest.approx(2.0 / 7.0, abs=1e-12)
    assert sum(out.masses.values()) == pytest.approx(1.0, abs=1e-9)


def test_dempster_vacuous_is_neutral():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_mass(rng, ABC)
        out = dempster_combine(m, vacuous(ABC))
        assert masses_close(out, m, tol=1e-15)


def test_dempster_drops_an_underflowed_mass():
    # {b} is reached only by the pair 1e-200 * 1e-200, which rounds to 0:
    # it is dropped as the checked constructor drops it, in the same order
    m1 = mass_new(ABC, {0b011: 1e-200, 0b111: 1.0 - 1e-200})
    m2 = mass_new(ABC, {0b110: 1e-200, 0b111: 1.0 - 1e-200})
    out = dempster_combine(m1, m2)
    raw = {0b010: 0.0, 0b011: 1e-200, 0b110: 1e-200, 0b111: 1.0}
    assert list(out.masses.items()) == list(MassFunction(ABC, raw).masses.items())
    assert out == MassFunction(ABC, raw)


def test_dempster_frame_mismatch():
    other = Frame(("a", "b"))
    differ = r"^frames differ: \('a', 'b', 'c'\) vs \('a', 'b'\)$"
    with pytest.raises(InvalidMassError, match=differ):
        dempster_combine(vacuous(ABC), vacuous(other))
    with pytest.raises(InvalidMassError, match=differ):
        conflict(vacuous(ABC), vacuous(other))


def test_total_conflict_raises():
    m1 = mass_new(ABC, {0b001: 1.0})
    m2 = mass_new(ABC, {0b010: 1.0})
    with pytest.raises(TotalConflictError):
        dempster_combine(m1, m2)
    # conflict of 1 - 1e-13 leaves a normalizer of 1e-13, far above the
    # floor: all that survives is {a}
    m3 = mass_new(ABC, {0b010: 1.0 - 1e-13, 0b001: 1e-13})
    assert dict(dempster_combine(m1, m3).masses) == {0b001: 1.0}
    # the normalizer is refused at the floor and renormalized above it
    at_floor = mass_new(ABC, {0b010: 1.0, 0b001: TOTAL_CONFLICT_FLOOR})
    with pytest.raises(TotalConflictError):
        dempster_combine(m1, at_floor)
    above = mass_new(ABC, {0b010: 1.0, 0b001: 2 * TOTAL_CONFLICT_FLOOR})
    out = dempster_combine(m1, above)
    assert list(out.masses) == [0b001] and out.mass(0b001) == pytest.approx(1.0, abs=2**-52)
    # conflict clearly below 1 survives and renormalizes hard
    m4 = mass_new(ABC, {0b010: 1.0 - 1e-10, 0b001: 1e-10})
    out = dempster_combine(m1, m4)
    assert out.mass(0b001) == pytest.approx(1.0, abs=1e-12)


@st.composite
def conflicting_sources(draw, n_sources, e_max):
    """n_sources mass functions over a frame of 2-4 labels, each with mass
    1 - eps on a singleton (distinct singletons while they last) and eps
    spread over 1-3 random sets, eps = 10^-e for e in [0, e_max]."""
    k = draw(st.integers(2, 4))
    frame = Frame(tuple(f"c{j}" for j in range(k)))
    own = draw(st.permutations(frame.singletons))
    masses = []
    for i in range(draw(n_sources)):
        eps = 10.0 ** -draw(st.floats(0.0, e_max))
        masks = draw(st.lists(st.integers(1, frame.full_mask), min_size=1, max_size=3))
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(masks), max_size=len(masks)))
        rest = [(mask, eps * w / sum(raw)) for mask, w in zip(masks, raw)]
        masses.append(mass_new(frame, [(own[i % k], 1.0 - eps), *rest]))
    return masses


U = 2.0**-53
TINY = 2.0**-1074  # the subnormal spacing: underflow loses at most half of it


def fold_error_bound(sources):
    """(rel, ab) such that the left fold of dempster_combine over sources
    puts each mass m of the exact rule within rel * m + ab.

    To first order in u = 2^-53, with inputs within E relative: a kept set
    reached by p pairs is summed within E + pu, the fsum normalizer within
    E + (P + 1)u (P the most pairs any set has), and the reciprocal and the
    product add u each: 2E + (2P + 3)u, one more u covering the higher
    orders. Underflow loses under TINY per product and per quotient, and
    absolute input errors a move the normalized step by at most 2a / N, N
    its normalizer; 3 in place of 2 covers the 1e-9 slack in the input sums.
    """
    rel = ab = 0.0
    acc = sources[0].masses
    for m in sources[1:]:
        pairs = [b & c for b in acc for c in m.masses]
        acc, normalizer = oracles.exact_dempster_combine(acc, m)
        rel = 2 * rel + (2 * max(map(pairs.count, acc)) + 4) * U
        ab = 3 * (ab + len(pairs) * TINY) / float(normalizer) + len(acc) * TINY
    return rel, ab


def assert_matches_exact(out, exact, sources):
    rel, ab = fold_error_bound(sources)
    for mask in range(1, out.frame.full_mask + 1):
        want = exact.get(mask, Fraction(0))
        assert abs(Fraction(out.mass(mask)) - want) <= Fraction(rel) * want + Fraction(ab)


@settings(deadline=None, max_examples=300)
@given(conflicting_sources(st.just(2), 75.0))
def test_dempster_combine_matches_exact_rule(sources):
    # from moderate conflict down to normalizers near 1e-150, far above the
    # floor, with every kept product a normal float
    exact, normalizer = oracles.exact_dempster_combine(*sources)
    if not normalizer:
        with pytest.raises(TotalConflictError):
            dempster_combine(*sources)
        return
    assert_matches_exact(dempster_combine(*sources), exact, sources)


@settings(deadline=None, max_examples=150)
@given(conflicting_sources(st.integers(3, 4), 200.0))
def test_combine_all_matches_exact_rule_in_every_order(sources):
    # Masses down to 1e-200 make products underflow inside a step. The
    # fold refuses exactly when the whole combination's normalizer is at
    # or below the floor, which bounds how far later steps magnify that
    # loss, so every order of the sources stays within the bound.
    exact, normalizer = oracles.exact_dempster_combine(*sources)
    assume(not 1 - 1e-6 < normalizer / Fraction(TOTAL_CONFLICT_FLOOR) < 1 + 1e-6)
    for order in itertools.permutations(sources):
        if normalizer <= TOTAL_CONFLICT_FLOOR:
            with pytest.raises(TotalConflictError):
                combine_all(order)
        else:
            assert_matches_exact(combine_all(order), exact, order)


def test_fold_refuses_a_joint_normalizer_at_the_floor():
    # The exact rule spreads these three sources' mass evenly. The first
    # step's normalizer is 2 eps^2, but its c-c product eps^4 underflows at
    # eps = 1e-200: a floor on each step alone would return a and b at 1/2.
    # The joint normalizer, 3 eps^4 + ..., is what the floor must see.
    for eps, refused in ((1e-200, True), (1e-150, False)):
        m1 = mass_new(ABC, {0b001: 1.0, 0b010: eps, 0b100: eps})
        m2 = mass_new(ABC, {0b010: 1.0, 0b001: eps, 0b100: eps})
        m3 = mass_new(ABC, {0b100: 1.0, 0b001: eps, 0b010: eps})
        exact, _ = oracles.exact_dempster_combine(m1, m2, m3)
        for order in itertools.permutations((m1, m2, m3)):
            if refused:
                with pytest.raises(TotalConflictError, match=r"^joint normalizer 0\.0 leaves"):
                    combine_all(order)
            else:
                assert_matches_exact(combine_all(order), exact, order)


def test_combine_matches_bruteforce_table():
    rng = np.random.default_rng(13)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        frame = Frame(tuple(f"c{i}" for i in range(k)))
        m1 = random_mass(rng, frame)
        m2 = random_mass(rng, frame)
        assert abs(conflict(m1, m2) - oracles.brute_conflict(m1, m2)) <= 1e-12
        out = dempster_combine(m1, m2)
        table = oracles.brute_combine(m1, m2)
        for mask, want in table.items():
            assert abs(out.mass(mask) - want) <= 1e-12


def test_three_way_fold_matches_triple_sum():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(2, 4))
        frame = Frame(tuple(f"c{i}" for i in range(k)))
        ms = [random_mass(rng, frame) for _ in range(3)]
        out = combine_all(ms)
        table = oracles.brute_combine3(*ms)
        for mask, want in table.items():
            assert abs(out.mass(mask) - want) <= 1e-10


def test_combine_is_commutative():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m1 = random_mass(rng, ABC)
        m2 = random_mass(rng, ABC)
        assert masses_close(dempster_combine(m1, m2), dempster_combine(m2, m1), 1e-12)


def test_combine_all_edges():
    with pytest.raises(EvidnetError, match="^need at least one mass function to combine$"):
        combine_all([])
    m = random_mass(np.random.default_rng(23), ABC)
    assert combine_all([m]) is m
    a, b, c = (random_mass(np.random.default_rng(s), ABC) for s in (1, 2, 3))
    folded = combine_all([a, b, c])
    manual = dempster_combine(dempster_combine(a, b), c)
    assert folded.masses == manual.masses


def test_combined_mass_is_normalized():
    rng = np.random.default_rng(29)
    for _ in range(50):
        out = dempster_combine(random_mass(rng, ABC), random_mass(rng, ABC))
        total = math.fsum(out.masses.values())
        assert abs(total - 1.0) <= 1e-9
        assert all(v >= 0.0 for v in out.masses.values())


# the fast paths against the belief layer as it was before the frame kept
# its size and full mask: same output bits, same errors

def outcome(fn, *args):
    """repr of fn's result, or the type and message of the error it raised."""
    try:
        return repr(fn(*args))
    except EvidnetError as exc:
        return type(exc), str(exc)


BAD_MASKS = st.sampled_from([-1, True, False, 1.0, np.int64(1), "1"])


@st.composite
def assignments(draw, frame):
    """A {mask: mass} table over frame: normalized focal sets, then maybe one
    corruption (a bad or out-of-range mask, a NaN, negative, empty-set or
    zero mass, a mass that is not a real number, or a total off by more
    than the tolerance), its masses maybe numpy floats."""
    masks = draw(st.lists(st.integers(1, frame.full_mask), min_size=1, max_size=6,
                          unique=True))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(masks), max_size=len(masks)))
    total = sum(raw)
    table = {mask: w / total for mask, w in zip(masks, raw)}
    kind = draw(st.sampled_from(["none", "mask", "range", "nan", "negative", "empty",
                                 "zero", "unnormalized", "non-number"]))
    if kind == "mask":
        # True, 1.0 and np.int64(1) are equal to the key 1, so they go first
        # in a table of their own rather than overwrite it
        bad = draw(BAD_MASKS)
        table = {bad: 0.0, **{mask: v for mask, v in table.items() if mask != bad}}
    elif kind == "range":
        table[frame.full_mask + 1] = 0.0
    elif kind == "nan":
        table[draw(st.sampled_from(masks))] = math.nan
    elif kind == "negative":
        table[draw(st.sampled_from(masks))] = -draw(st.floats(1e-12, 1.0))
    elif kind == "empty":
        table[0] = draw(st.floats(1e-12, 1.0))
    elif kind == "zero":
        table[draw(st.integers(0, frame.full_mask))] = 0.0
    elif kind == "non-number":
        table[draw(st.sampled_from(masks))] = draw(st.sampled_from(NON_NUMBERS))
    elif kind == "unnormalized":
        table = {mask: v * draw(st.sampled_from([0.5, 1.0 + 1e-6, 2.0]))
                 for mask, v in table.items()}
    # a numpy float is a float subclass, and is stored as a plain float
    if kind != "non-number" and draw(st.booleans()):
        table = {mask: np.float64(v) for mask, v in table.items()}
    return table


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 16), st.data())
def test_belief_layer_matches_reference_bits_and_errors(k, data):
    frame = Frame(tuple(f"c{j}" for j in range(k)))
    tables = [data.draw(assignments(frame)) for _ in range(2)]
    built = []
    for table in tables:
        got = outcome(lambda t: dict(MassFunction(frame, t).masses), table)
        assert got == outcome(oracles.reference_clean_masses, frame, table)
        if isinstance(got, str):
            built.append(MassFunction(frame, table))
    queries = [data.draw(st.integers(0, frame.full_mask)) for _ in range(4)]
    queries += [frame.full_mask + 1, data.draw(BAD_MASKS)]
    for a in queries:
        assert outcome(frame.check_mask, a) == outcome(oracles.reference_check_mask, frame, a)
        for m in built:
            assert outcome(bel, m, a) == outcome(oracles.reference_bel, m, a)
            assert outcome(pl, m, a) == outcome(oracles.reference_pl, m, a)
    if len(built) == 2:
        m1, m2 = built
        for x, y in ((m1, m2), (m2, m1), (m1, m1)):
            assert outcome(conflict, x, y) == outcome(oracles.reference_conflict, x, y)
            assert (outcome(lambda p, q: dict(dempster_combine(p, q).masses), x, y)
                    == outcome(oracles.reference_dempster_combine, x, y))
        other = vacuous(Frame(tuple(f"d{j}" for j in range(k))))
        assert outcome(conflict, m1, other) == outcome(oracles.reference_conflict, m1, other)
        assert (outcome(dempster_combine, m1, other)
                == outcome(oracles.reference_dempster_combine, m1, other))


@pytest.mark.parametrize("k", [2, 4, 16])
def test_total_conflict_errors_match_reference(k):
    frame = Frame(tuple(f"c{j}" for j in range(k)))
    m1 = MassFunction(frame, {1: 1.0})
    m2 = MassFunction(frame, {frame.full_mask & ~1: 1.0})
    for x, y in ((m1, m2), (m2, m1)):
        want = outcome(oracles.reference_dempster_combine, x, y)
        assert want[0] is TotalConflictError
        assert outcome(dempster_combine, x, y) == want
