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

from .errors import (
    EmptyListError,
    EmptySetMassError,
    FrameMismatchError,
    InvalidMaskError,
    NegativeMassError,
    NonFiniteInputError,
    NotNormalizedError,
    TotalConflictError,
)

MAX_FRAME_SIZE = 16

# |sum - 1| above this rejects an input assignment as unnormalized.
SUM_TOLERANCE = 1e-9

# Conflict this close to 1 makes Dempster renormalization meaningless.
TOTAL_CONFLICT_TOLERANCE = 1e-12


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
            raise InvalidMaskError(f"subset mask must be an int, got {type(mask).__name__}")
        if not 0 <= mask <= self.full_mask:
            raise InvalidMaskError(f"mask {mask!r} out of range for frame of size {self.k}")
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
                    raise EmptySetMassError(f"empty set carries mass {value}")
                clean[mask] = value
            elif not value >= 0.0:  # negative, or NaN, which compares false
                if value != value:
                    raise NonFiniteInputError(f"mass {value} for subset {mask:#b}")
                raise NegativeMassError(f"mass {value} for subset {mask:#b}")
        total = sum(clean.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise NotNormalizedError(f"masses sum to {total!r}, expected 1")
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

    Repeated masks accumulate. Raises ``NegativeMassError``,
    ``NonFiniteInputError`` (a NaN mass, or a bool or other non-number),
    ``EmptySetMassError``, ``InvalidMaskError`` or ``NotNormalizedError``
    when the assignment is not a normalized mass function.
    """
    if isinstance(assignments, Mapping):
        assignments = assignments.items()
    masses: dict[int, float] = {}
    for mask, value in assignments:
        frame.check_mask(mask)
        if type(value) is not float:
            value = _mass_value(mask, value)
        if value < 0.0:
            raise NegativeMassError(f"mass {value} for subset {mask:#b}")
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
    if m1.frame != m2.frame:
        raise FrameMismatchError(
            f"frames differ: {m1.frame.labels} vs {m2.frame.labels}"
        )


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """Degree of conflict: mass the two sources place on disjoint subsets."""
    _check_shared_frame(m1, m2)
    focal2 = m2.masses.items()
    return sum([v1 * v2 for b, v1 in m1.masses.items() for c, v2 in focal2 if b & c == 0])


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: conjunctive combination renormalized by 1 - conflict.

    Raises ``TotalConflictError`` when the conflict reaches 1 within
    ``TOTAL_CONFLICT_TOLERANCE``.
    """
    _check_shared_frame(m1, m2)
    acc: dict[int, float] = {}
    get = acc.get
    focal2 = m2.masses.items()
    for b, v1 in m1.masses.items():
        for c, v2 in focal2:
            inter = b & c
            acc[inter] = get(inter, 0.0) + v1 * v2
    kappa = acc.pop(0, 0.0)
    if kappa >= 1.0 - TOTAL_CONFLICT_TOLERANCE:
        raise TotalConflictError(f"conflict {kappa!r} leaves nothing to renormalize")
    # normalize by the sum of what was kept, not by 1 - kappa: near total
    # conflict the subtraction cancels catastrophically while the direct sum
    # of the retained (all non-negative) products stays fully accurate
    remaining = math.fsum(acc.values())
    if remaining <= 0.0:
        raise TotalConflictError(f"conflict {kappa!r} leaves nothing to renormalize")
    scale = 1.0 / remaining
    return _derived_mass(m1.frame, {mask: v * scale for mask, v in acc.items()})


def combine_all(masses: Sequence[MassFunction]) -> MassFunction:
    """Left fold of Dempster's rule over one or more mass functions."""
    if not masses:
        raise EmptyListError("need at least one mass function to combine")
    combined = masses[0]
    for m in masses[1:]:
        combined = dempster_combine(combined, m)
    return combined
