"""Fusion frames: weighted subspaces, their operators and classifications.

Members are handled as stacks grouped by rank. One validation kernel
checks an (M, dim, k) stack of bases (shape, finite entries, Gram matrix
within GRAM_TOL of the identity); a single ``Subspace`` is its M = 1
case and ``Subspace.from_bases`` builds a whole system from it.
Each ``Subspace`` holds a read-only C-ordered copy of its basis, a view
of its rank group's checked stack, so no later write by the caller
reaches it. A ``FusionFrame`` derives its state once, on first use, as
cached read-only attributes that are not dataclass fields: ``ranks``,
the member ranks, ``projectors``, the member projectors ``B_i B_i^T``
from one batched matmul per rank group over a C-ordered stack (bit for
bit the per-member product ``B_i @ B_i.T``), ``operators``, the
summands ``w_i^2 P_i`` of the fusion frame operator, and ``spectrum``,
the one eigen-solve of that operator. Every bound and classification
here reads them.
A finite system spans exactly when it is a fusion frame, so onto
synthesis and Riesz decomposition read the frame rule on the fusion
frame operator's spectrum, as ``fusion_bounds(...).is_frame`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotOrthonormal, ToolkitError
from .frames import BoundsReport, bounds_from_spectrum
from .linalg import SpectrumReport, orthonormalize, projector, read_only, size_groups, sym_eig
from .tolerances import GRAM_TOL


@dataclass(frozen=True)
class Subspace:
    """Subspace of R^dim held as a (dim, k) matrix of orthonormal columns,
    the subspace's own read-only C-ordered copy of the given basis.

    k = 0 is allowed as a degenerate marker (trivial subspace with zero
    projector); it shows up for empty intersections and for member slots
    that contribute nothing.
    """

    dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        (b,) = _checked_bases(self.dim, [self.basis])
        object.__setattr__(self, "basis", b)

    @classmethod
    def from_bases(cls, dim: int, bases) -> tuple["Subspace", ...]:
        """One subspace per basis, each checked as ``Subspace(dim, basis)``
        checks it, with one stacked check per rank group; when several are
        bad, the error is the first bad one's."""
        subs = []
        for b in _checked_bases(dim, bases):
            # built past __init__, whose __post_init__ would check each again
            sub = object.__new__(cls)
            object.__setattr__(sub, "dim", dim)
            object.__setattr__(sub, "basis", b)
            subs.append(sub)
        return tuple(subs)

    @classmethod
    def from_spanning(cls, dim: int, vectors) -> "Subspace":
        """Orthonormalize a spanning set; an empty or all-zero set gives k = 0."""
        vecs = list(vectors)
        if not vecs:
            return cls(dim, np.zeros((dim, 0)))
        basis, _ = orthonormalize(vecs)
        if basis.shape[0] != dim:
            raise DimensionMismatch(
                f"spanning vectors live in R^{basis.shape[0]}, expected R^{dim}"
            )
        return cls(dim, basis)

    @property
    def rank(self) -> int:
        return int(self.basis.shape[1])

    def projector(self) -> np.ndarray:
        return projector(self.basis)


def _checked_bases(dim: int, bases) -> list[np.ndarray]:
    """The bases as read-only, C-ordered float arrays, after checking that
    each is dim x k with k <= dim, finite, and has a Gram matrix within
    GRAM_TOL of the identity entrywise: one stacked check per rank k. Each
    basis is a view of its rank group's stack, a copy, so no caller keeps
    a writeable alias of it. When a check fails the members are checked
    again one at a time, in order, so the error is the first bad member's,
    as ``Subspace(dim, basis)`` raises it."""
    arrays = [np.asarray(b, dtype=float) for b in bases]
    try:
        return _stacked_bases(dim, arrays)
    except ToolkitError as fault:
        error = fault
    for b in arrays:
        _stacked_bases(dim, [b])
    raise error


def _stacked_bases(dim: int, arrays) -> list[np.ndarray]:
    """The checked bases in input order, or the first failed check raised:
    shapes member by member, then finite entries and the Gram matrix per
    rank group, each group copied once into a read-only C-ordered stack
    whose members are the bases returned."""
    for b in arrays:
        if b.ndim != 2 or b.shape[0] != dim:
            raise DimensionMismatch(f"basis must be {dim} x k, got shape {b.shape}")
        if b.shape[1] > dim:
            raise DimensionMismatch("subspace rank exceeds ambient dimension")
    checked = [None] * len(arrays)
    for k, members in size_groups(b.shape[1] for b in arrays).items():
        stack = read_only(np.array([arrays[i] for i in members]))
        if k:
            if not np.isfinite(stack).all():
                raise NonFinite("basis contains NaN or Inf")
            gram = np.swapaxes(stack, 1, 2) @ stack
            if float(np.abs(gram - np.eye(k)).max()) > GRAM_TOL:
                raise NotOrthonormal("basis columns are not orthonormal")
        for i, basis in zip(members, stack):
            checked[i] = basis
    return checked


@dataclass(frozen=True)
class FusionFrame:
    """Ordered family of (subspace, weight) members over a shared R^dim.

    ``weights`` is the frame's own read-only copy of the given weights.
    """

    dim: int
    subspaces: tuple[Subspace, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        subs = tuple(self.subspaces)
        w = read_only(np.array(self.weights, dtype=float).ravel())
        if len(subs) == 0:
            raise DimensionMismatch("a fusion frame needs at least one member")
        if w.size != len(subs):
            raise DimensionMismatch("one weight per subspace required")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise NonFinite("weights must be finite and strictly positive")
        for s in subs:
            if s.dim != self.dim:
                raise DimensionMismatch("all subspaces must share the ambient dim")
        object.__setattr__(self, "subspaces", subs)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.subspaces)

    @cached_property
    def ranks(self) -> np.ndarray:
        """Member ranks, a read-only int array of length size."""
        return read_only(np.array([sub.rank for sub in self.subspaces], dtype=int))

    @cached_property
    def projectors(self) -> np.ndarray:
        """Member projectors P_i, shape (size, dim, dim): one batched matmul
        per nonzero rank over a C-ordered (M, dim, k) stack of the bases (a
        Fortran-ordered stack would sum the products in another order); a
        zero-dimensional member gives zeros."""
        out = np.zeros((self.size, self.dim, self.dim))
        for k, members in size_groups(self.ranks.tolist()).items():
            if k:
                stack = np.array([self.subspaces[i].basis for i in members])
                out[members] = stack @ np.swapaxes(stack, 1, 2)
        return read_only(out)

    @cached_property
    def operators(self) -> np.ndarray:
        """The fusion frame operator's summands w_i^2 P_i, (size, dim, dim)."""
        return read_only((self.weights * self.weights)[:, None, None] * self.projectors)

    @cached_property
    def spectrum(self) -> SpectrumReport:
        """Spectrum of the fusion frame operator."""
        return sym_eig(fusion_frame_operator(self))

    def restrict(self, indices) -> "FusionFrame":
        idx = list(indices)
        return FusionFrame(
            self.dim,
            tuple(self.subspaces[i] for i in idx),
            self.weights[idx],
        )


def fusion_frame_operator(ff: FusionFrame) -> np.ndarray:
    """S = sum over i of weight_i^2 * P_i, a symmetric PSD matrix."""
    return ff.operators.sum(axis=0)


def fusion_bounds(ff: FusionFrame) -> BoundsReport:
    """Optimal bounds: extremal eigenvalues of the fusion frame operator."""
    return bounds_from_spectrum(ff.spectrum)


def synthesis_is_onto(ff: FusionFrame) -> bool:
    """Whether the synthesis map covers R^dim: the members span, that is,
    form a fusion frame."""
    return fusion_bounds(ff).is_frame


def is_riesz_decomposition(ff: FusionFrame) -> bool:
    """Every vector splits uniquely as a sum of per-member components:
    the member dimensions add up to dim and the members span."""
    return int(ff.ranks.sum()) == ff.dim and fusion_bounds(ff).is_frame


def is_orthonormal_fusion_basis(ff: FusionFrame) -> bool:
    """Riesz decomposition with mutually orthogonal members: the stacked
    bases, a dim x dim matrix, have a Gram matrix within GRAM_TOL of the
    identity."""
    if not is_riesz_decomposition(ff):
        return False
    stacked = np.hstack([sub.basis for sub in ff.subspaces])
    return float(np.abs(stacked.T @ stacked - np.eye(ff.dim)).max()) <= GRAM_TOL
