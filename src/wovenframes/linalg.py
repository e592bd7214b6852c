"""Dense real linear algebra kernels.

Orthonormalization with rank detection for one spanning set or a stack
of them, the symmetric eigensolver (LAPACK ``eigh`` with a fixed order
and sign convention) for one matrix or a stack of them, the chunk budget
shared by every batched scan, and orthogonal projectors. Everything is
pure and deterministic: identical input bytes produce identical output
bytes, which the report tooling depends on.
Orthonormalization stays Gram-Schmidt because its basis is serialized
into family documents and their digests. ``orthonormalize_stack`` runs
it on every member of an (M, k, d) stack at once, with each member's
basis bit for bit what a member-by-member loop gives; ``orthonormalize``
is its M = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def row_chunks(rows: np.ndarray, row_floats: int):
    """Consecutive blocks of ``rows``, each of at most chunk_rows(row_floats)."""
    step = chunk_rows(row_floats)
    return (rows[start : start + step] for start in range(0, len(rows), step))


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum of a symmetric matrix.

    eigenvalues are ascending; eigenvectors holds the matching unit
    eigenvectors as columns; residual is max_k ||A v_k - lambda_k v_k||.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

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
    dim = vecs[0].size
    for v in vecs:
        if v.size != dim:
            raise DimensionMismatch(
                f"spanning vectors mix lengths {dim} and {v.size}"
            )
    (basis,) = orthonormalize_stack(np.array(vecs, dtype=float)[None])
    return basis, basis.shape[1]


def orthonormalize_stack(stack) -> list[np.ndarray]:
    """Orthonormal bases of the row spans of every member of an
    (M, k, d) stack, as M C-ordered (d, rank) matrices.

    Each member gets ``orthonormalize``'s two-pass Gram-Schmidt and
    dependence rule, with the same floating-point operations in the same
    order, so its basis is bit for bit the member-by-member result: dots
    are BLAS ``ddot`` over contiguous rows (as 1-D ``b @ w``) and norms
    are ``sqrt(w . w)`` (as ``np.linalg.norm`` of a vector). A column
    that only some members accept is masked out for the others, not
    subtracted as a zero or residual row: subtracting a ``-0.0`` step
    would turn a ``-0.0`` entry into ``+0.0``.
    """
    arr = np.asarray(stack, dtype=float)
    if arr.ndim != 3:
        raise DimensionMismatch(f"expected an (M, k, d) stack, got shape {arr.shape}")
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


def orthonormalize_each(spans) -> list[np.ndarray]:
    """``orthonormalize_stack`` over a sequence of (k, d) spanning
    matrices with any counts k (k = 0 included): one stacked call per
    distinct k, bases returned in input order."""
    bases = [None] * len(spans)
    for members in size_groups(map(len, spans)).values():
        stack = np.array([spans[i] for i in members])
        for i, basis in zip(members, orthonormalize_stack(stack)):
            bases[i] = basis
    return bases


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
    ``eigh`` call, with sym_eig's checks, order, sign rule and residual.

    Matrix k's report equals ``sym_eig(matrices[k])`` bit for bit: LAPACK
    solves each matrix of the stack on its own, and the sign flip and
    the residual's products and sums run per matrix in the same order.
    """
    m = np.asarray(matrices, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise NotSymmetric(f"expected an (M, d, d) stack, got shape {m.shape}")
    sym = _symmetrized(m)
    values, vectors = np.linalg.eigh(sym)
    count, dim = values.shape
    # each eigenvector (column) signed so its largest-magnitude entry is positive
    rows = np.argmax(np.abs(vectors), axis=1)
    peaks = vectors[np.arange(count)[:, None], rows, np.arange(dim)]
    np.negative(vectors, out=vectors, where=(peaks < 0.0)[:, None, :])
    errors = sym @ vectors - vectors * values[:, None, :]
    # error columns have norms up to about 2 max|lambda|, so squares can
    # overflow only past |lambda| = 2^500; then a matrix whose errors pass
    # 2^500 has them scaled by a power of two (exact) and its norm back
    exponents = None
    if float(np.abs(values).max(initial=0.0)) > 2.0**500:
        worst = np.abs(errors).max(axis=(1, 2))
        exponents = np.where(worst > 2.0**500, np.frexp(worst)[1], 0)
        errors = np.ldexp(errors, -exponents[:, None, None])
    # the largest column norm; sqrt is monotone, so sqrt of the largest
    # sum of squares is np.linalg.norm(..., axis=0).max() bit for bit
    residuals = np.sqrt((errors * errors).sum(axis=1).max(axis=1))
    if exponents is not None:
        residuals = np.ldexp(residuals, exponents)
    # indexed, not zipped: iterating an ndarray costs more than M views
    return [
        SpectrumReport(values[k], vectors[k], r)
        for k, r in enumerate(residuals.tolist())
    ]


def stacked_eigenvalues(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix in a (rows, d, d) stack.

    One LAPACK ``eigh`` call for the whole stack, with sym_eig's checks
    on every matrix; row k equals ``sym_eig(matrices[k]).eigenvalues``
    bit for bit.
    """
    values, _ = np.linalg.eigh(_symmetrized(matrices))
    return values


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
