"""Dense real linear algebra kernels.

Orthonormalization with rank detection, the symmetric eigensolver (LAPACK
``eigh`` with a fixed order and sign convention) for one matrix or a
stack of them, the chunk budget shared by every batched scan, and
orthogonal projectors. Everything is pure and deterministic: identical
input bytes produce identical output bytes, which the report tooling
depends on.
``orthonormalize`` stays a Gram-Schmidt loop because its basis is
serialized into family documents and their digests.
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
    arr = np.array(vecs, dtype=float)
    if not np.isfinite(arr).all():
        raise NonFinite("spanning set contains NaN or Inf")

    scale = 1.0 + float(np.sqrt((arr * arr).sum(axis=1)).max())
    cols: list[np.ndarray] = []
    for v in arr:
        w = v.copy()
        # two projection passes keep the basis orthonormal to rounding level
        for _ in range(2):
            for b in cols:
                w -= (b @ w) * b
        norm = float(np.linalg.norm(w))
        if norm <= RANK_TOL * scale:
            continue
        cols.append(w / norm)
    if cols:
        basis = np.column_stack(cols)
    else:
        basis = np.zeros((dim, 0))
    return basis, len(cols)


def sym_eig(matrix) -> SpectrumReport:
    """Eigendecomposition of a symmetric matrix via LAPACK ``eigh``.

    Output is deterministic: eigenvalues ascending, each eigenvector
    scaled so its largest-magnitude entry is positive.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    sym = _symmetrized(m)
    values, vectors = np.linalg.eigh(sym)
    cols = np.arange(vectors.shape[1])
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), cols]
    vectors[:, peaks < 0.0] *= -1.0

    residual = 0.0
    if values.size:
        residual = float(
            np.linalg.norm(sym @ vectors - vectors * values, axis=0).max()
        )
    return SpectrumReport(values, vectors, residual)


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
