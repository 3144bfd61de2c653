"""Exception types raised across the package.

All of them derive from ``EvidnetError`` (itself a ``ValueError``), so callers
can catch either one kind of fault or the whole family. Classes group faults
by what a caller does about them; within a class, the message tells the
faults apart:

- ``EvidnetError`` itself: an all-zero beta row, too few points for the
  clusters or prototypes asked for, an empty list or batch, no labeled rows,
  an empty or unlabeled validation set, other than two classes where a
  binary task needs two, a file that cannot be opened, read or written
  (named with its path), and a non-finite gradient.
- ``TotalConflictError``: Dempster combination of sources that fully
  contradict each other.
- ``NonFiniteInputError``: NaN or infinity in an input, or a mass that is
  not a real number.
- ``MalformedCsvError``: a feature file with no content, a missing or bad
  header, a ragged row, a non-numeric feature cell, an unknown or missing
  label, bad UTF-8, or a record csv.reader refuses.
- ``CorruptFieldError``: a model document with a missing field, a field of
  the wrong type, an unsupported format version, or parameters the model
  refuses.
- ``DimensionMismatchError``: vector, matrix, sequence or gradient shapes
  that do not match each other or the model.
- ``InvalidMassError``: a mass function with a negative mass, mass on the
  empty set, masses that do not sum to 1, a bad subset mask, or a frame
  other than its partner's.
"""


class EvidnetError(ValueError):
    """Base class for every error raised by this package."""


class TotalConflictError(EvidnetError):
    """Dempster combination is undefined: the sources fully contradict each other."""


class NonFiniteInputError(EvidnetError):
    """An input contains NaN or infinity, or a mass is not a real number."""


class MalformedCsvError(EvidnetError):
    """A feature CSV file is empty, lacks its header, holds a ragged row, a
    non-numeric feature or an unknown or missing label, is not UTF-8 text,
    or has a record csv.reader refuses (a field past csv's size limit, say)."""


class CorruptFieldError(EvidnetError):
    """The model document is missing a field, holds one of the wrong type
    or parameters the model refuses, or declares a format version this
    code cannot read."""


class DimensionMismatchError(EvidnetError):
    """Vector, matrix, sequence or gradient shapes do not match."""


class InvalidMassError(EvidnetError):
    """A mass function is invalid: a negative mass, mass on the empty set,
    masses not summing to 1, a bad subset mask, or mismatched frames."""
