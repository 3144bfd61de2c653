"""Dempster-Shafer algebra over small finite frames.

A frame is an ordered tuple of class labels; subsets of it are packed into
integer bitmasks (bit k set means label k belongs to the subset), so a frame
may hold at most 16 labels. Mass functions are stored sparsely: only focal
sets (subsets with strictly positive mass) are kept, every other subset reads
as zero. All values are immutable after construction and every operation here
is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

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
    """Ordered set of mutually exclusive class labels."""

    labels: tuple[str, ...]

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

    @property
    def k(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        """Bitmask of the whole frame (total ignorance)."""
        return (1 << self.k) - 1

    def singleton(self, index: int) -> int:
        if not 0 <= index < self.k:
            raise InvalidMaskError(f"class index {index} outside frame of size {self.k}")
        return 1 << index

    def complement(self, mask: int) -> int:
        self.check_mask(mask)
        return self.full_mask & ~mask

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or isinstance(mask, bool):
            raise InvalidMaskError(f"subset mask must be an int, got {type(mask).__name__}")
        if not 0 <= mask <= self.full_mask:
            raise InvalidMaskError(f"mask {mask!r} out of range for frame of size {self.k}")
        return mask

    def subset_labels(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)


@dataclass(frozen=True)
class MassFunction:
    """Normalized basic belief assignment, stored by focal set.

    Construction validates everything: masks fit the frame, masses are
    non-negative and not NaN, the empty set carries no mass, and the total
    is 1 within ``SUM_TOLERANCE``. Exact zero assignments are dropped.
    """

    frame: Frame
    masses: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[int, float] = {}
        for mask, value in self.masses.items():
            self.frame.check_mask(mask)
            value = float(value)
            if not value >= 0.0:  # also true for NaN, which compares false
                if value != value:
                    raise NonFiniteInputError(f"mass {value} for subset {mask:#b}")
                raise NegativeMassError(f"mass {value} for subset {mask:#b}")
            if mask == 0 and value > 0.0:
                raise EmptySetMassError(f"empty set carries mass {value}")
            if value > 0.0:
                clean[mask] = clean.get(mask, 0.0) + value
        total = sum(clean.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise NotNormalizedError(f"masses sum to {total!r}, expected 1")
        object.__setattr__(self, "masses", clean)

    def mass(self, mask: int) -> float:
        """Mass of an arbitrary subset; non-focal subsets read as 0."""
        self.frame.check_mask(mask)
        return self.masses.get(mask, 0.0)

    def focal(self) -> Iterator[tuple[int, float]]:
        return iter(self.masses.items())

    def is_vacuous(self) -> bool:
        return set(self.masses) == {self.frame.full_mask}


def vacuous(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    return MassFunction(frame, {frame.full_mask: 1.0})


def mass_new(
    frame: Frame,
    assignments: Iterable[tuple[int, float]] | Mapping[int, float],
) -> MassFunction:
    """Build a mass function from (subset mask, mass) pairs.

    Repeated masks accumulate. Raises ``NegativeMassError``,
    ``NonFiniteInputError`` (a NaN mass), ``EmptySetMassError``,
    ``InvalidMaskError`` or ``NotNormalizedError`` when the assignment is
    not a normalized mass function.
    """
    if isinstance(assignments, Mapping):
        assignments = assignments.items()
    masses: dict[int, float] = {}
    for mask, value in assignments:
        frame.check_mask(mask)
        value = float(value)
        if value < 0.0:
            raise NegativeMassError(f"mass {value} for subset {mask:#b}")
        masses[mask] = masses.get(mask, 0.0) + value
    return MassFunction(frame, masses)


def bel(m: MassFunction, a: int) -> float:
    """Belief of a subset: total mass of its non-empty subsets."""
    m.frame.check_mask(a)
    return sum(v for b, v in m.focal() if b & ~a == 0)


def pl(m: MassFunction, a: int) -> float:
    """Plausibility of a subset: total mass of everything intersecting it."""
    m.frame.check_mask(a)
    return sum(v for b, v in m.focal() if b & a)


def _check_shared_frame(m1: MassFunction, m2: MassFunction) -> None:
    if m1.frame != m2.frame:
        raise FrameMismatchError(
            f"frames differ: {m1.frame.labels} vs {m2.frame.labels}"
        )


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """Degree of conflict: mass the two sources place on disjoint subsets."""
    _check_shared_frame(m1, m2)
    return sum(
        v1 * v2 for b, v1 in m1.focal() for c, v2 in m2.focal() if b & c == 0
    )


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: conjunctive combination renormalized by 1 - conflict.

    Raises ``TotalConflictError`` when the conflict reaches 1 within
    ``TOTAL_CONFLICT_TOLERANCE``.
    """
    _check_shared_frame(m1, m2)
    acc: dict[int, float] = {}
    for b, v1 in m1.focal():
        for c, v2 in m2.focal():
            inter = b & c
            acc[inter] = acc.get(inter, 0.0) + v1 * v2
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
    return MassFunction(m1.frame, {mask: v * scale for mask, v in acc.items()})


def combine_all(masses: Sequence[MassFunction]) -> MassFunction:
    """Left fold of Dempster's rule over one or more mass functions."""
    if not masses:
        raise EmptyListError("need at least one mass function to combine")
    combined = masses[0]
    for m in masses[1:]:
        combined = dempster_combine(combined, m)
    return combined
