"""The numpy-backed kernels against independent oracles: the Jacobi
eigensolver in helpers, Gram-Schmidt rank detection, and numpy's 2-norm."""

import numpy as np
import pytest

from wovenframes import FusionFrame, InvertibleOperator, Subspace, orthonormalize, sym_eig
from wovenframes.errors import DimensionMismatch, SingularOperator
from wovenframes.fusion import _stacked_columns, _stacked_rank
from wovenframes.transforms import invert_matrix

from helpers import jacobi


def symmetric_with_repeats(rng, d: int) -> np.ndarray:
    """Q diag(values) Q^T with about half of the values repeated."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    distinct = rng.standard_normal(max(1, d // 2)) * 5.0
    values = rng.choice(distinct, size=d)
    return (q * values) @ q.T


def seeded_symmetric_matrices():
    rng = np.random.default_rng(31)
    out = []
    for k in range(60):
        d = int(rng.integers(1, 17))
        if k % 2:
            a = rng.standard_normal((d, d))
            out.append(a + a.T)
        else:
            out.append(symmetric_with_repeats(rng, d))
    out.append(np.zeros((5, 5)))
    out.append(2.0 * np.eye(7))
    return out


class TestSymEigAgainstJacobi:
    @pytest.mark.parametrize("a", seeded_symmetric_matrices())
    def test_eigenvalues_match_oracle(self, a):
        spec = sym_eig(a)
        oracle = np.sort(jacobi(0.5 * (a + a.T))[0])
        scale = 1.0 + float(np.abs(oracle).max())
        assert np.abs(spec.eigenvalues - oracle).max() <= 1e-10 * scale

    @pytest.mark.parametrize("a", seeded_symmetric_matrices())
    def test_sign_convention(self, a):
        vecs = sym_eig(a).eigenvectors
        for k in range(vecs.shape[1]):
            col = vecs[:, k]
            assert col[int(np.argmax(np.abs(col)))] > 0.0


def rank_deficient_fusion_frames():
    """Seeded fusion frames whose stacked bases are rank deficient: members
    confined to a random subspace of lower dimension, duplicated members,
    zero-dimensional members and members weighted down to numerically
    zero columns."""
    rng = np.random.default_rng(47)
    out = []
    for _ in range(80):
        d = int(rng.integers(2, 16))
        r = int(rng.integers(1, d))
        span, _ = np.linalg.qr(rng.standard_normal((d, r)))
        subs, weights = [], []
        for _ in range(int(rng.integers(1, 8))):
            k = int(rng.integers(1, r + 1))
            sub = Subspace.from_spanning(d, list((span @ rng.standard_normal((r, k))).T))
            subs.append(sub)
            weights.append(rng.uniform(0.5, 2.0))
            if rng.random() < 0.4:
                subs.append(sub)
                weights.append(rng.uniform(0.5, 2.0))
        if rng.random() < 0.5:
            subs.append(Subspace(d, np.zeros((d, 0))))
            weights.append(1.0)
        if rng.random() < 0.5:
            outside = Subspace.from_spanning(d, [rng.standard_normal(d)])
            subs.append(outside)
            weights.append(1e-13)
        out.append(FusionFrame(d, tuple(subs), np.array(weights)))
    return out


class TestStackedRank:
    def test_matches_gram_schmidt_rank(self):
        for ff in rank_deficient_fusion_frames():
            stacked = _stacked_columns(ff)
            expected = orthonormalize(list(stacked.T))[1] if stacked.shape[1] else 0
            assert expected < ff.dim
            assert _stacked_rank(ff) == expected


class TestInvertibleOperatorNorms:
    def test_norms_match_numpy_two_norm(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 9))
            m = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
            op = InvertibleOperator.from_matrix(m)
            for actual, expected in (
                (op.norm, np.linalg.norm(m, 2)),
                (op.inv_norm, np.linalg.norm(np.linalg.inv(m), 2)),
            ):
                assert abs(actual - expected) <= 1e-12 * (1.0 + expected)
            assert np.array_equal(invert_matrix(m), op.inv)

    def test_singular_threshold_scales_with_largest_entry(self):
        # the cut-off is pivot_tol * max|m| = 1e-10 * 1e3: 1e-6 clears it,
        # 1e-8 does not
        m = np.diag([1e3, 1e-6])
        assert np.allclose(invert_matrix(m), np.diag([1e-3, 1e6]))
        with pytest.raises(SingularOperator):
            invert_matrix(np.diag([1e3, 1e-8]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            invert_matrix(np.ones((2, 3)))
