"""Exception types shared across the toolkit."""


class TextBootError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatchError(TextBootError):
    """Two masks (or a mask and a dataset) disagree on shape or frame."""


class EmptyMaskError(TextBootError):
    """An operation that needs at least one set pixel got an empty mask."""


class DegenerateBoxError(TextBootError):
    """A box with zero area was passed where a real window is required."""


class ManifestError(TextBootError):
    """A manifest file is malformed.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ImageError(TextBootError):
    """An image file is missing, is not a readable 8-bit PGM, or its size
    disagrees with its dataset.  The message names the file."""


class TierError(TextBootError):
    """A record's annotation tier does not fit: geometry the tier forbids,
    or a record handed to an operation that needs another tier."""


class EmptyDatasetError(TextBootError):
    """A dataset with zero records cannot be split or consumed."""


class EmptyTrainingSetError(TextBootError):
    """Training requires at least one example."""


class NonFiniteLossError(TextBootError):
    """The training loss diverged to NaN or infinity."""


class ModelFormatError(TextBootError):
    """A model file has a bad magic, unknown version, or truncated body."""


class UnknownImageError(TextBootError):
    """Detections name image ids that the ground truth lacks."""


class DisjointnessError(TextBootError):
    """Strong, pool, and test datasets must not share image ids."""


class TooManyInstancesError(TextBootError):
    """Exhaustive matching is capped at a small instance count."""
