"""Dempster-Shafer algebra over small finite frames.

A frame is an ordered tuple of class labels; subsets of it are packed into
integer bitmasks (bit k set means label k belongs to the subset), so a frame
may hold at most 16 labels. A frame fixes its size k and its full mask when
it is built. Mass functions are stored sparsely: only focal sets (subsets
with strictly positive mass) are kept, every other subset reads as zero.
Each mass function built from outside input is validated once, in one pass
over its assignments, when it is built; the outputs of Dempster's rule and
of the model's kernel, whose arithmetic guarantees the invariants, are not
validated again (see _derived_mass). All values are immutable after
construction and every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import EvidnetError, InvalidMassError, NonFiniteInputError, TotalConflictError

MAX_FRAME_SIZE = 16

# |sum - 1| above this rejects an input assignment as unnormalized.
SUM_TOLERANCE = 1e-9

# A combination whose normalizer, the sum of the products that survive
# the intersection, is at or below this is treated as total conflict.
TOTAL_CONFLICT_FLOOR = 1e-300


@dataclass(frozen=True)
class Frame:
    """Ordered set of mutually exclusive class labels.

    k, the number of labels, full_mask, the bitmask of the whole frame
    (total ignorance), and singletons, the mask of each label in order, are
    derived from the labels when the frame is built; equality and hashing
    read the labels alone.
    """

    labels: tuple[str, ...]
    k: int = field(init=False, repr=False, compare=False)
    full_mask: int = field(init=False, repr=False, compare=False)
    singletons: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("frame needs at least one label")
        if len(self.labels) > MAX_FRAME_SIZE:
            raise ValueError(f"frame supports at most {MAX_FRAME_SIZE} labels")
        if any(not isinstance(lab, str) or not lab for lab in self.labels):
            raise ValueError("frame labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("frame labels must be unique")
        object.__setattr__(self, "k", len(self.labels))
        object.__setattr__(self, "full_mask", (1 << self.k) - 1)
        object.__setattr__(self, "singletons", tuple(1 << j for j in range(self.k)))

    def check_mask(self, mask: int) -> int:
        # an exact int in range needs no more; a bool or another int subclass
        # takes the checks below
        if type(mask) is int and 0 <= mask <= self.full_mask:
            return mask
        if not isinstance(mask, int) or isinstance(mask, bool):
            raise InvalidMassError(f"subset mask must be an int, got {type(mask).__name__}")
        if not 0 <= mask <= self.full_mask:
            raise InvalidMassError(f"mask {mask!r} out of range for frame of size {self.k}")
        return mask


@dataclass(frozen=True)
class MassFunction:
    """Normalized basic belief assignment, stored by focal set.

    Construction validates everything: masks fit the frame, masses are
    real numbers (not bools or strings), non-negative and not NaN, the
    empty set carries no mass, and the total is 1 within
    ``SUM_TOLERANCE``. Exact zero assignments are dropped, and the focal
    sets are kept in a read-only mapping. Equality and hashing read the
    frame and the focal sets with their masses.
    """

    frame: Frame
    masses: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frame = self.frame
        full_mask = frame.full_mask
        # dict keys are unique, so each positive mass is stored as it is; an
        # exact int key in range and an exact float value need no call
        clean: dict[int, float] = {}
        for mask, value in self.masses.items():
            if type(mask) is not int or not 0 <= mask <= full_mask:
                frame.check_mask(mask)
            if type(value) is not float:
                value = _mass_value(mask, value)
            if value > 0.0:
                if mask == 0:
                    raise InvalidMassError(f"empty set carries mass {value}")
                clean[mask] = value
            elif not value >= 0.0:  # negative, or NaN, which compares false
                if value != value:
                    raise NonFiniteInputError(f"mass {value} for subset {mask:#b}")
                raise InvalidMassError(f"mass {value} for subset {mask:#b}")
        total = sum(clean.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidMassError(f"masses sum to {total!r}, expected 1")
        object.__setattr__(self, "masses", MappingProxyType(clean))

    def __hash__(self) -> int:
        return hash((self.frame, frozenset(self.masses.items())))

    def mass(self, mask: int) -> float:
        """Mass of an arbitrary subset; non-focal subsets read as 0."""
        self.frame.check_mask(mask)
        return self.masses.get(mask, 0.0)


def _mass_value(mask, value) -> float:
    """A mass given as a number other than a float, as a float; raise
    NonFiniteInputError, naming the subset, for a bool or a non-number."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise NonFiniteInputError(f"mass {value!r} for subset {mask:#b} is not a real number")
    return float(value)


def _derived_mass(frame: Frame, masses: dict[int, float]) -> MassFunction:
    """A mass function over masses that arithmetic guarantees valid,
    built without MassFunction's checks; it keeps masses, a dict the
    caller made for it, when no entry is dropped.

    The producers, Dempster's rule and the model's kernel, give exact
    floats on valid non-empty masks, non-negative (products of
    non-negative terms; in the kernel, u s + (1 - s) >= 1 - s under
    monotone rounding, so each class product is at least the ignorance
    product) and summing to 1 within a few eps, far inside SUM_TOLERANCE.
    Exact zeros are dropped, as MassFunction drops them. A dict holding a
    NaN (the kernel gives one when a gamma overflows on a center), or any
    other entry below 0, goes to MassFunction, which raises its usual
    error.
    """
    for value in masses.values():
        if not value > 0.0:  # an exact zero; a NaN goes to the checks
            if any(not v >= 0.0 for v in masses.values()):
                return MassFunction(frame, masses)
            masses = {mask: v for mask, v in masses.items() if v > 0.0}
            break
    out = object.__new__(MassFunction)
    out.__dict__.update(frame=frame, masses=MappingProxyType(masses))
    return out


def mass_new(
    frame: Frame,
    assignments: Iterable[tuple[int, float]] | Mapping[int, float],
) -> MassFunction:
    """Build a mass function from (subset mask, mass) pairs.

    Repeated masks accumulate. Raises ``NonFiniteInputError`` (a NaN
    mass, or a bool or other non-number) or ``InvalidMassError`` when
    the assignment is not a normalized mass function.
    """
    if isinstance(assignments, Mapping):
        assignments = assignments.items()
    masses: dict[int, float] = {}
    for mask, value in assignments:
        frame.check_mask(mask)
        if type(value) is not float:
            value = _mass_value(mask, value)
        if value < 0.0:
            raise InvalidMassError(f"mass {value} for subset {mask:#b}")
        masses[mask] = masses.get(mask, 0.0) + value
    return MassFunction(frame, masses)


def bel(m: MassFunction, a: int) -> float:
    """Belief of a subset: total mass of its non-empty subsets."""
    m.frame.check_mask(a)
    return sum([v for b, v in m.masses.items() if b & ~a == 0])


def pl(m: MassFunction, a: int) -> float:
    """Plausibility of a subset: total mass of everything intersecting it."""
    m.frame.check_mask(a)
    return sum([v for b, v in m.masses.items() if b & a])


def _check_shared_frame(m1: MassFunction, m2: MassFunction) -> None:
    # frames are equal when their labels are; comparing the labels skips
    # the dataclass __eq__
    if m1.frame.labels != m2.frame.labels:
        raise InvalidMassError(f"frames differ: {m1.frame.labels} vs {m2.frame.labels}")


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """Degree of conflict: mass the two sources place on disjoint subsets."""
    _check_shared_frame(m1, m2)
    focal2 = m2.masses.items()
    return sum([v1 * v2 for b, v1 in m1.masses.items() for c, v2 in focal2 if b & c == 0])


def dempster_combine(
    m1: MassFunction, m2: MassFunction, *, _joint: list[float] | None = None
) -> MassFunction:
    """Dempster's rule: conjunctive combination renormalized by the sum of
    the kept products.

    Products on non-empty sets are accumulated by set; those on the empty
    set add up, pair by pair in the loop's order, to the conflict, which
    is never stored as a mass. Raises ``TotalConflictError`` when the
    normalizer, the fsum of the kept products (1 - conflict would cancel
    near total conflict), is at or below ``TOTAL_CONFLICT_FLOOR``; the
    pairwise message names the conflict. ``combine_all`` passes
    ``_joint``, the product of its earlier steps' normalizers: this step
    multiplies its own in, and the floor applies to that product.
    """
    _check_shared_frame(m1, m2)
    acc: dict[int, float] = {}
    get = acc.get
    kappa = 0.0
    focal2 = m2.masses.items()
    for b, v1 in m1.masses.items():
        for c, v2 in focal2:
            inter = b & c
            if inter:
                acc[inter] = get(inter, 0.0) + v1 * v2
            else:
                kappa += v1 * v2
    remaining = math.fsum(acc.values())
    joint = remaining if _joint is None else _joint[0] * remaining
    if joint <= TOTAL_CONFLICT_FLOOR:
        what = f"conflict {kappa!r}" if _joint is None else f"joint normalizer {joint!r}"
        raise TotalConflictError(f"{what} leaves nothing to renormalize")
    if _joint is not None:
        _joint[0] = joint
    scale = 1.0 / remaining
    return _derived_mass(m1.frame, {mask: v * scale for mask, v in acc.items()})


def combine_all(masses: Sequence[MassFunction]) -> MassFunction:
    """Left fold of Dempster's rule over one or more mass functions.

    Raises ``TotalConflictError`` when the normalizer of the whole
    combination, the product of the steps' normalizers, is at or below
    ``TOTAL_CONFLICT_FLOOR``, as the kernel does for its closed form. A
    step's floor alone would not do: each step divides by its normalizer,
    so mass lost to underflow in one step is magnified by every later one,
    by up to twice the inverse of that step's normalizer.
    """
    if not masses:
        raise EvidnetError("need at least one mass function to combine")
    combined = masses[0]
    joint = [1.0]
    for m in masses[1:]:
        combined = dempster_combine(combined, m, _joint=joint)
    return combined
