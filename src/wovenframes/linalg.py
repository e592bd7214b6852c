"""Dense real linear algebra kernels.

Orthonormalization with rank detection for one spanning set or a stack
of them, the symmetric eigensolver (LAPACK ``eigh`` with a fixed order
and sign convention) for one matrix or a stack of them, kept for callers
that read eigenvectors, its values-only counterpart (LAPACK
``eigvalsh``) for a stack, which every bound that reads no eigenvector
calls (a partition scan checks its contribution stacks with
``_symmetrized`` once and solves its chunks' exactly symmetric sums
directly), the chunk budget of every batched
pass with ``chunk_slices``, its one chunk loop, and orthogonal
projectors. Everything is pure and deterministic: identical input bytes
produce identical output bytes, which the report tooling depends on. A
``SpectrumReport`` computes its eigen-residual on first read, from the
matrix it keeps, so a solve whose residual nobody reads pays nothing for it.
Orthonormalization stays Gram-Schmidt because its basis is serialized
into family documents and their digests. ``orthonormalize_stack`` takes
spanning sets of any row counts sharing d and runs the kernel once per
distinct count, each basis bit for bit the member-by-member result;
``orthonormalize`` is its one-set case. Count groups, not zero-padding
to the largest count: the bits agree, but padding does masked work on
every member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    NonFinite,
    NotOrthonormal,
    NotSymmetric,
)
from .tolerances import GRAM_TOL, RANK_TOL, SYM_TOL

# Floats per temporary in the chunked partition and subset scans. A
# constant: results do not depend on it, budgets from 2^12 to 2^18 ran
# the op and proj checks at d = 6, n = 9 within 1.3x of each other, and
# larger chunks only hold more memory.
CHUNK_FLOATS = 1 << 14


def chunk_rows(row_floats: int) -> int:
    """Rows per chunk when each row of a temporary holds ``row_floats``
    floats: as many as fit in CHUNK_FLOATS, at least one."""
    return max(1, CHUNK_FLOATS // max(1, row_floats))


def chunk_slices(total: int, row_floats: int):
    """Consecutive slices of range(total), each chunk_rows(row_floats) rows
    long except possibly the last: the chunk loop of every batched pass."""
    step = chunk_rows(row_floats)
    return (slice(start, min(start + step, total)) for start in range(0, total, step))


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, no longer writeable: for values derived once and shared."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum of a symmetric matrix.

    eigenvalues are ascending; eigenvectors holds the matching unit
    eigenvectors as columns; matrix is the symmetrized matrix they
    solve; all three are read-only. ``residual``, max_k ||A v_k -
    lambda_k v_k|| with A = matrix, is computed on first read and cached
    (not a field).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float:
        """The largest column norm of ``A V - V diag(values)``, computed
        as the square root of the largest column sum of squares (sqrt is
        monotone, so this is ``np.linalg.norm(..., axis=0).max()`` bit for
        bit). A column's norm is up to about 2 max|lambda|, so squares can
        overflow only past |lambda| = 2^500; errors past 2^500 are scaled
        by a power of two first (exact) and their norm scaled back."""
        errors = self.matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        exponent = 0
        worst = float(np.abs(errors).max())
        if worst > 2.0**500:
            exponent = int(np.frexp(worst)[1])
            errors = np.ldexp(errors, -exponent)
        residual = np.sqrt((errors * errors).sum(axis=0).max())
        return float(np.ldexp(residual, exponent))

    @property
    def smallest(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def largest(self) -> float:
        return float(self.eigenvalues[-1])


def orthonormalize(spanning) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the span of the given vectors.

    Returns ``(basis, rank)`` where ``basis`` has shape (d, rank) with
    orthonormal columns spanning the same space as the input. A vector
    counts as dependent when its residual after projection onto the
    already accepted columns has norm at most ``RANK_TOL * (1 + N)`` with
    N the largest input norm; zero vectors are skipped, not errors.
    """
    vecs = [np.asarray(v, dtype=float).ravel() for v in spanning]
    if not vecs:
        raise EmptyInput("need at least one spanning vector")
    # vectors of different lengths raise DimensionMismatch there
    (basis,) = orthonormalize_stack([vecs])
    return basis, basis.shape[1]


def orthonormalize_stack(spans) -> list[np.ndarray]:
    """Orthonormal bases of the row spans of a sequence of (k_i, d)
    matrices sharing d, k_i = 0 included (an (M, k, d) array is one; an
    empty sequence gives ``[]``), as C-ordered (d, rank) matrices in
    input order: one kernel stack per distinct k, not one stack padded
    with zero rows to the largest k, which gives the same bits but does
    masked work on every member. Raises DimensionMismatch unless every
    member is a (k, d) matrix of one d, and NonFinite for a NaN or Inf."""
    groups = size_groups(map(len, spans))
    shape_rule = "spanning sets must be (k, d) matrices sharing d"
    try:
        stacks = [np.array([spans[i] for i in group], dtype=float) for group in groups.values()]
    except ValueError as exc:  # members of one count whose shapes differ
        raise DimensionMismatch(shape_rule) from exc
    if any(stack.ndim != 3 for stack in stacks) or len({stack.shape[2] for stack in stacks}) > 1:
        raise DimensionMismatch(shape_rule)
    bases = [None] * len(spans)
    for members, stack in zip(groups.values(), stacks):
        for i, basis in zip(members, _gram_schmidt_stack(stack)):
            bases[i] = basis
    return bases


def _gram_schmidt_stack(arr: np.ndarray) -> list[np.ndarray]:
    """Bases of every member of an (M, k, d) stack, as M C-ordered
    (d, rank) matrices.

    Each member gets ``orthonormalize``'s two-pass Gram-Schmidt and
    dependence rule, with the same floating-point operations in the same
    order, so its basis is bit for bit the member-by-member result: dots
    are BLAS ``ddot`` over contiguous rows (as 1-D ``b @ w``) and norms
    are ``sqrt(w . w)`` (as ``np.linalg.norm`` of a vector). A column
    that only some members accept is masked out for the others, not
    subtracted as a zero or residual row: subtracting a ``-0.0`` step
    would turn a ``-0.0`` entry into ``+0.0``.
    """
    if not np.isfinite(arr).all():
        raise NonFinite("spanning set contains NaN or Inf")
    # work[j] holds column j of every member as contiguous rows (BLAS ddot
    # sums a strided row in another order); each is orthogonalized and
    # normalized in place
    work = np.array(np.swapaxes(arr, 0, 1), order="C")
    members, dim = work.shape[1:]
    # sqrt is monotone, so this is the largest input norm bit for bit
    largest = np.sqrt((work * work).sum(axis=2).max(axis=0, initial=0.0))
    limit = RANK_TOL * (1.0 + largest)[:, None]
    # accepted columns with the members that accepted them (None: all)
    cols: list[tuple[np.ndarray, np.ndarray | None]] = []
    for w in work:
        # two projection passes keep the basis orthonormal to rounding level
        for _ in range(2):
            for b, keep in cols:
                step = np.vecdot(b, w, keepdims=True) * b
                if keep is None:
                    w -= step
                else:
                    np.subtract(w, step, out=w, where=keep)
        norm = np.sqrt(np.vecdot(w, w, keepdims=True))
        keep = norm > limit
        kept = np.count_nonzero(keep)
        if kept == 0:
            continue
        if kept == members:
            w /= norm
            keep = None
        else:
            np.divide(w, norm, out=w, where=keep)
        cols.append((w, keep))
    if not cols:
        return [np.zeros((dim, 0)) for _ in range(members)]
    bases = np.stack([w for w, _ in cols], axis=2)
    if all(keep is None for _, keep in cols):
        return list(bases)
    accepted = np.concatenate(
        [np.ones((members, 1), bool) if keep is None else keep for _, keep in cols],
        axis=1,
    )
    return [np.ascontiguousarray(b[:, a]) for b, a in zip(bases, accepted)]


def size_groups(sizes) -> dict[int, list[int]]:
    """Positions of equal sizes, ``{size: [positions]}``, in order of first
    appearance: the grouping behind every per-size stacked call."""
    groups: dict[int, list[int]] = {}
    for i, size in enumerate(sizes):
        groups.setdefault(size, []).append(i)
    return groups


def sym_eig(matrix) -> SpectrumReport:
    """Eigendecomposition of a symmetric matrix via LAPACK ``eigh``: the
    M = 1 case of ``stacked_spectra``.

    Output is deterministic: eigenvalues ascending, each eigenvector
    scaled so its largest-magnitude entry is positive.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    return stacked_spectra(m[None])[0]


def stacked_spectra(matrices) -> list[SpectrumReport]:
    """Spectra of each matrix in an (M, d, d) stack from one LAPACK
    ``eigh`` call, with sym_eig's checks, order and sign rule; a 0 x 0
    matrix has no spectrum and raises EmptyInput.

    Matrix k's report equals ``sym_eig(matrices[k])`` bit for bit, its
    residual included: LAPACK solves each matrix of the stack on its
    own, the sign flip runs per matrix, and each report's residual is
    computed from its own matrix, vectors and values when read.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise NotSymmetric(f"expected an (M, d, d) stack, got shape {m.shape}")
    if m.shape[1] == 0:
        raise EmptyInput("a 0 x 0 matrix has no spectrum")
    sym = _symmetrized(m)
    values, vectors = np.linalg.eigh(sym)
    count, dim = values.shape
    # each eigenvector (column) signed so its largest-magnitude entry is positive
    rows = np.argmax(np.abs(vectors), axis=1)
    peaks = vectors[np.arange(count)[:, None], rows, np.arange(dim)]
    np.negative(vectors, out=vectors, where=(peaks < 0.0)[:, None, :])
    read_only(sym)
    read_only(values)
    read_only(vectors)
    # indexed, not zipped: iterating an ndarray costs more than M views
    return [SpectrumReport(values[k], vectors[k], sym[k]) for k in range(count)]


def stacked_eigenvalues(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix in a (rows, d, d) stack, for
    callers that read no eigenvector.

    One values-only LAPACK call (``eigvalsh``: ``syevd`` with
    ``jobz='N'``) for the whole stack, with sym_eig's checks on every
    matrix. LAPACK solves each matrix on its own, so row k equals the 2-D
    ``np.linalg.eigvalsh(0.5 * (a + a.T))`` of ``a = matrices[k]`` bit for
    bit, whatever the stack's size and the row's place in it. It agrees
    with ``sym_eig(a).eigenvalues`` to rounding, not bit for bit: the
    full solve reaches its values by another LAPACK path.
    """
    return np.linalg.eigvalsh(_symmetrized(matrices))


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """0.5 * (m + m^T) over the last two axes, after checking that every
    entry is finite and m is symmetric within SYM_TOL."""
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or Inf")
    mt = np.swapaxes(m, -1, -2)
    if m.size and float(np.abs(m - mt).max()) > SYM_TOL:
        raise NotSymmetric(f"matrix is not symmetric within {SYM_TOL}")
    return 0.5 * (m + mt)


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector B @ B.T onto the column span of ``basis``.

    The columns must be orthonormal: the Gram matrix may deviate from
    the identity by at most GRAM_TOL entrywise.
    """
    b = np.asarray(basis, dtype=float)
    if b.ndim != 2:
        raise DimensionMismatch("basis must be a 2-D matrix")
    dim, k = b.shape
    if k == 0:
        return np.zeros((dim, dim))
    gram = b.T @ b
    if float(np.abs(gram - np.eye(k)).max()) > GRAM_TOL:
        raise NotOrthonormal(f"basis columns are not orthonormal within {GRAM_TOL}")
    return b @ b.T
