"""Discrete frames: operators, optimal bounds, classification."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NonFinite
from .linalg import SpectrumReport, read_only, sym_eig
from .tolerances import CLAMP_TOL, FRAME_TOL


@dataclass(frozen=True)
class DiscreteFrame:
    """Finite family of vectors in R^dim, stored as rows of ``vectors``,
    the frame's own read-only copy of the given vectors."""

    dim: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.vectors, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionMismatch("vectors must form a 2-D array")
        if arr.shape[0] == 0:
            raise EmptyInput("a frame needs at least one vector")
        if arr.shape[1] != self.dim:
            raise DimensionMismatch(
                f"vectors have length {arr.shape[1]}, ambient dim is {self.dim}"
            )
        if not np.isfinite(arr).all():
            raise NonFinite("frame vectors contain NaN or Inf")
        object.__setattr__(self, "vectors", read_only(arr))

    @property
    def size(self) -> int:
        return int(self.vectors.shape[0])

    @cached_property
    def spectrum(self) -> SpectrumReport:
        """Spectrum of the frame operator, solved once, on first use (not a
        dataclass field, so equality and reports ignore it)."""
        return sym_eig(frame_operator(self))


@dataclass(frozen=True)
class BoundsReport:
    """Optimal lower/upper bounds with the unit vectors achieving them;
    for a fusion frame, ``is_frame`` says whether it is a fusion frame."""

    lower: float
    upper: float
    is_frame: bool
    witness_low: np.ndarray
    witness_high: np.ndarray


def frame_operator(frame: DiscreteFrame) -> np.ndarray:
    """S = sum over i of the outer product f_i f_i^T."""
    return frame.vectors.T @ frame.vectors


def _is_frame(lower, upper):
    """The frame rule lower > FRAME_TOL * max(1, upper): a bool, or a bool
    array for arrays of bounds. ``fmax`` ignores a NaN upper as ``max`` does."""
    verdict = np.asarray(lower > FRAME_TOL * np.fmax(1.0, upper))
    return verdict if verdict.ndim else bool(verdict)


def _clamp_small_negative(value: float, scale: float) -> float:
    if value < 0.0 and abs(value) <= CLAMP_TOL * max(1.0, scale):
        return 0.0
    return value


def bounds_from_spectrum(spec: SpectrumReport) -> BoundsReport:
    lower = _clamp_small_negative(spec.smallest, spec.largest)
    upper = spec.largest
    return BoundsReport(
        lower=lower,
        upper=upper,
        is_frame=_is_frame(lower, upper),
        witness_low=spec.eigenvectors[:, 0].copy(),
        witness_high=spec.eigenvectors[:, -1].copy(),
    )


def optimal_bounds(frame: DiscreteFrame) -> BoundsReport:
    """Optimal bounds: extremal eigenvalues of the frame operator.

    The witnesses are the corresponding unit eigenvectors, so
    sum_i <witness, f_i>^2 reproduces the reported bound.
    """
    return bounds_from_spectrum(frame.spectrum)


def bessel_bound(frame: DiscreteFrame) -> float:
    """Optimal upper bound, valid even for non-frames."""
    return frame.spectrum.largest


def is_riesz_basis(frame: DiscreteFrame) -> bool:
    """Exactly dim vectors forming a frame: a linearly independent spanning set."""
    return frame.size == frame.dim and optimal_bounds(frame).is_frame
