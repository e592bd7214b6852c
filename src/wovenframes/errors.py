"""Exception types shared across the toolkit."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ToolkitError):
    pass


class EmptyInput(ToolkitError):
    pass


class NonFinite(ToolkitError):
    pass


class NotSymmetric(ToolkitError):
    pass


class NotOrthonormal(ToolkitError):
    pass


class NotAFrame(ToolkitError):
    """Lower frame bound is numerically zero, so no dual exists."""


class PartitionLengthMismatch(ToolkitError):
    pass


class TooManyPartitions(ToolkitError):
    """Exhaustive enumeration would exceed the partition cap."""


class InvalidPartitionCap(ToolkitError):
    """WOVEN_MAX_PARTITIONS is set but is not a positive integer."""


class InvalidEps(ToolkitError, ValueError):
    """A witness threshold that is not a finite positive number."""


class InvalidSampleCount(ToolkitError, ValueError):
    """A sample count below the least the sampling routine accepts."""


class InvalidSeed(ToolkitError, ValueError):
    """A sampling seed that is not a non-negative integer."""


class WrongKind(ToolkitError):
    """Operation applies only to discrete or only to fusion families."""


class SingularOperator(ToolkitError):
    pass


class NotSelfAdjoint(ToolkitError):
    pass


class InvarianceViolated(ToolkitError):
    """E*E does not map every member subspace into itself."""


class IndexMismatch(ToolkitError):
    pass


class EmptyIntersection(ToolkitError):
    pass


class ConstantOutOfRange(ToolkitError):
    pass


class WeightMismatch(ToolkitError):
    pass


class DimensionTooSmall(ToolkitError):
    pass


class OddDimension(ToolkitError):
    pass
