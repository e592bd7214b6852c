import numpy as np
import pytest

from wovenframes import orthonormalize, projector, sym_eig
from wovenframes.linalg import stacked_spectra
from wovenframes.errors import (
    DimensionMismatch,
    EmptyInput,
    NonFinite,
    NotOrthonormal,
    NotSymmetric,
)

from helpers import one_matrix_spectrum


class TestOrthonormalize:
    def test_already_orthonormal(self):
        basis, rank = orthonormalize([[1.0, 0.0], [0.0, 1.0]])
        assert rank == 2
        assert np.allclose(basis, np.eye(2))

    def test_collinear_pair(self):
        basis, rank = orthonormalize([[2.0, 0.0], [4.0, 0.0]])
        assert rank == 1
        assert np.allclose(basis[:, 0], [1.0, 0.0])

    def test_gram_is_identity(self):
        # direct multiplication oracle
        basis, rank = orthonormalize([[3.0, 0.0], [3.0, 1.0]])
        assert rank == 2
        assert np.abs(basis.T @ basis - np.eye(2)).max() <= 1e-10

    def test_zero_vectors_skipped(self):
        basis, rank = orthonormalize([[0.0, 0.0], [1.0, 1.0]])
        assert rank == 1

    def test_span_preserved(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, 7))
            vecs = rng.standard_normal((n, d))
            basis, rank = orthonormalize(list(vecs))
            proj = basis @ basis.T
            for v in vecs:
                assert np.linalg.norm(v - proj @ v) <= 1e-9 * (1 + np.linalg.norm(v))

    def test_errors(self):
        with pytest.raises(EmptyInput):
            orthonormalize([])
        with pytest.raises(DimensionMismatch):
            orthonormalize([[1.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NonFinite):
            orthonormalize([[np.nan, 0.0]])


class TestSymEig:
    def test_two_by_two(self):
        # characteristic polynomial by hand: 13 +/- 6
        spec = sym_eig([[13.0, 6.0], [6.0, 13.0]])
        assert np.allclose(spec.eigenvalues, [7.0, 19.0])

    def test_identity(self):
        spec = sym_eig(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_trace_det_case(self):
        # trace 12, det 11, so roots of x^2 - 12x + 11
        spec = sym_eig([[10.0, 3.0], [3.0, 2.0]])
        assert np.allclose(spec.eigenvalues, [1.0, 11.0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            sym_eig(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            sym_eig([[np.inf, 0.0], [0.0, 1.0]])

    def test_ascending_and_orthonormal(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 17))
            a = rng.standard_normal((d, d))
            a = a + a.T
            spec = sym_eig(a)
            assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
            gram = spec.eigenvectors.T @ spec.eigenvectors
            assert np.abs(gram - np.eye(d)).max() <= 1e-9

    def test_reconstruction(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 17))
            a = rng.standard_normal((d, d))
            a = a + a.T
            spec = sym_eig(a)
            scale = 1.0 + np.abs(spec.eigenvalues).max()
            recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
            assert np.abs(recon - a).max() <= 1e-8 * scale
            assert spec.residual <= 1e-8 * scale

    def test_rayleigh_containment(self, rng):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        spec = sym_eig(a)
        probes = rng.standard_normal((1000, 6))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        quotients = np.einsum("sd,de,se->s", probes, a, probes)
        assert quotients.min() >= spec.smallest - 1e-9
        assert quotients.max() <= spec.largest + 1e-9

    def test_deterministic(self, rng):
        a = rng.standard_normal((7, 7))
        a = a + a.T
        s1 = sym_eig(a)
        s2 = sym_eig(a.copy())
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_zero_matrix(self):
        spec = sym_eig(np.zeros((4, 4)))
        assert np.allclose(spec.eigenvalues, 0.0)
        assert spec.residual == 0.0


def mixed_stack(rng, d: int) -> np.ndarray:
    """Symmetric, rank-deficient PSD, zero, repeated-eigenvalue and
    negative semidefinite d x d matrices as one stack."""
    sym = rng.standard_normal((d, d))
    low = rng.standard_normal((d, max(1, d // 2)))
    return np.array(
        [sym + sym.T, low @ low.T, np.zeros((d, d)), 2.0 * np.eye(d), -(low @ low.T)]
    )


class TestStackedSpectra:
    @pytest.mark.parametrize("d", [1, 2, 3, 6, 12])
    def test_each_matrix_matches_the_one_matrix_solve_bit_for_bit(self, rng, d):
        stack = mixed_stack(rng, d)
        specs = stacked_spectra(stack)
        assert len(specs) == len(stack)
        for matrix, spec in zip(stack, specs):
            values, vectors, residual = one_matrix_spectrum(matrix)
            for got in (spec, sym_eig(matrix)):
                assert got.eigenvalues.tobytes() == values.tobytes()
                assert got.eigenvectors.tobytes() == vectors.tobytes()
                assert got.residual == residual

    def test_huge_matrix_gets_a_finite_residual_and_leaves_the_others_alone(self, rng):
        # a column of A V - V diag(values) near 1e240 would square past the
        # float range; the other matrices of the stack keep their residuals
        stack = mixed_stack(rng, 4)
        huge = 1e240 * stack[1]
        specs = stacked_spectra(np.concatenate([stack, huge[None]]))
        for matrix, spec in zip(stack, specs):
            assert spec.residual == one_matrix_spectrum(matrix)[2]
        spec = specs[-1]
        errors = huge @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        expected = np.linalg.norm(errors * 2.0**-800, axis=0).max() * 2.0**800
        assert 0.0 < spec.residual == pytest.approx(expected, rel=1e-12)
        assert spec.residual <= 1e-12 * spec.largest
        assert sym_eig(huge).residual == spec.residual

    @pytest.mark.parametrize("shape", [(3, 4, 4), (2, 1, 1)])
    def test_zero_stack(self, shape):
        for spec in stacked_spectra(np.zeros(shape)):
            assert spec.eigenvalues.tobytes() == np.zeros(shape[1]).tobytes()
            assert np.array_equal(spec.eigenvectors, np.eye(shape[1]))
            assert spec.residual == 0.0

    def test_empty_stack(self):
        assert stacked_spectra(np.zeros((0, 3, 3))) == []

    def test_checks_every_matrix(self, rng):
        stack = mixed_stack(rng, 3)
        with pytest.raises(NotSymmetric):
            stacked_spectra(stack[0])
        with pytest.raises(NotSymmetric):
            stacked_spectra(np.zeros((2, 3, 4)))
        skewed = stack.copy()
        skewed[-1, 0, 1] += 1.0
        with pytest.raises(NotSymmetric):
            stacked_spectra(skewed)
        stack[-1, 2, 2] = np.nan
        with pytest.raises(NonFinite):
            stacked_spectra(stack)


class TestProjector:
    def test_single_axis(self):
        p = projector(np.array([[1.0], [0.0]]))
        assert np.allclose(p, [[1.0, 0.0], [0.0, 0.0]])

    def test_full_identity(self):
        assert np.allclose(projector(np.eye(3)), np.eye(3))

    def test_diagonal_direction(self):
        # outer product by hand
        s = 1.0 / np.sqrt(2.0)
        p = projector(np.array([[s], [s]]))
        assert np.abs(p - 0.5 * np.ones((2, 2))).max() <= 1e-12

    def test_idempotent_and_trace(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(1, d + 1))
            basis, rank = orthonormalize(list(rng.standard_normal((k, d))))
            p = projector(basis)
            assert np.abs(p @ p - p).max() <= 1e-9
            assert abs(np.trace(p) - rank) <= 1e-8

    def test_rejects_skewed_basis(self):
        with pytest.raises(NotOrthonormal):
            projector(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rank_zero(self):
        assert np.array_equal(projector(np.zeros((3, 0))), np.zeros((3, 3)))
