"""Exception types raised across the package.

All of them derive from ``EvidnetError`` (itself a ``ValueError``), so callers
can catch either the specific condition or the whole family.
"""


class EvidnetError(ValueError):
    """Base class for every error raised by this package."""


# --- mass-function algebra ---------------------------------------------------

class NegativeMassError(EvidnetError):
    """A mass assignment was negative."""


class NotNormalizedError(EvidnetError):
    """Mass assignments do not sum to 1 within tolerance."""


class EmptySetMassError(EvidnetError):
    """Positive mass was assigned to the empty set."""


class InvalidMaskError(EvidnetError):
    """A subset mask is out of range for the frame, or has a disallowed shape."""


class FrameMismatchError(EvidnetError):
    """Two mass functions built on different frames were combined."""


class TotalConflictError(EvidnetError):
    """Dempster combination is undefined: the sources fully contradict each other."""


class EmptyListError(EvidnetError):
    """An operation that needs at least one element received none."""


# --- classifier --------------------------------------------------------------

class DimensionMismatchError(EvidnetError):
    """Vector or matrix dimensions do not match the model."""


class NonFiniteInputError(EvidnetError):
    """An input vector contains NaN or infinity."""


class ZeroBetaError(EvidnetError):
    """A prototype's membership parameters are all zero; memberships are undefined."""


class TooFewPointsError(EvidnetError):
    """Fewer data points than requested clusters or prototypes."""


# --- training ----------------------------------------------------------------

class LengthMismatchError(EvidnetError):
    """Paired sequences have different lengths."""


class EmptyBatchError(EvidnetError):
    """A batch contains neither labeled nor unlabeled instances."""


class NonFiniteGradientError(EvidnetError):
    """A computed gradient contains NaN or infinity."""


class ShapeMismatchError(EvidnetError):
    """A gradient vector's shape differs from the model's theta."""


class NoLabeledDataError(EvidnetError):
    """Training requires at least one labeled instance."""


class EmptyValidationError(EvidnetError):
    """The validation set is empty or not fully labeled."""


# --- metrics -----------------------------------------------------------------

class SingleClassError(EvidnetError):
    """A binary task met other than two classes: ROC/AUC need both classes
    in the truth labels, and training and prediction export need two-class
    data and models."""


# --- data io -----------------------------------------------------------------

class MissingHeaderError(EvidnetError):
    """CSV header row is absent or malformed."""


class RaggedRowError(EvidnetError):
    """A CSV row has the wrong number of cells."""


class NonNumericFeatureError(EvidnetError):
    """A feature cell could not be parsed as a finite number."""


class UnknownLabelError(EvidnetError):
    """A label cell names a class outside the known list, or is empty."""


class EmptyFileError(EvidnetError):
    """The file has no content at all."""


class MalformedCsvError(EvidnetError):
    """A CSV file is not UTF-8 text, or csv.reader refused a record (a
    field past csv's size limit, say)."""


class UnsupportedVersionError(EvidnetError):
    """The model document declares a format version this code cannot read."""


class CorruptFieldError(EvidnetError):
    """The model document is missing a field or holds one of the wrong type."""


class WriteFailureError(EvidnetError):
    """An output file could not be written."""
