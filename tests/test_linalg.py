import dataclasses

import numpy as np
import pytest

from wovenframes import linalg, orthonormalize, projector, sym_eig
from wovenframes.linalg import (
    chunk_rows,
    chunk_slices,
    stacked_eigenvalues,
    stacked_spectra,
)
from wovenframes.errors import (
    DimensionMismatch,
    EmptyInput,
    NonFinite,
    NotOrthonormal,
    NotSymmetric,
)

from helpers import one_matrix_eigenvalues, one_matrix_spectrum


class TestChunkSlices:
    @pytest.mark.parametrize("total", [1, 2, 5, 6, 7, 40])
    @pytest.mark.parametrize("row_floats", [1, 3, 5, 12])
    def test_slices_tile_the_range_once_in_order(self, monkeypatch, total, row_floats):
        monkeypatch.setattr(linalg, "CHUNK_FLOATS", 12)
        slices = list(chunk_slices(total, row_floats))
        assert [i for s in slices for i in range(total)[s]] == list(range(total))
        assert all(s.stop - s.start == chunk_rows(row_floats) for s in slices[:-1])
        assert 0 < slices[-1].stop - slices[-1].start <= chunk_rows(row_floats)

    def test_boundaries_fall_on_multiples_of_the_chunk_rows(self, monkeypatch):
        monkeypatch.setattr(linalg, "CHUNK_FLOATS", 12)
        assert list(chunk_slices(5, 5)) == [slice(0, 2), slice(2, 4), slice(4, 5)]

    def test_an_empty_range_yields_nothing(self, monkeypatch):
        monkeypatch.setattr(linalg, "CHUNK_FLOATS", 12)
        assert list(chunk_slices(0, 1)) == []

    def test_rows_above_the_budget_get_one_row_each(self, monkeypatch):
        monkeypatch.setattr(linalg, "CHUNK_FLOATS", 12)
        assert list(chunk_slices(3, 13)) == [slice(0, 1), slice(1, 2), slice(2, 3)]


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

    def test_zero_by_zero_matrix_has_no_spectrum(self):
        with pytest.raises(EmptyInput, match="0 x 0"):
            sym_eig(np.zeros((0, 0)))

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
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_a_stack_of_zero_by_zero_matrices_has_no_spectrum(self, count):
        with pytest.raises(EmptyInput, match="0 x 0"):
            stacked_spectra(np.zeros((count, 0, 0)))

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

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("scale", [1.0, 1e-200, 2.0**600, 1e300])
    def test_residual_is_computed_when_read_bit_for_bit(self, rng, d, scale):
        # at 2^600 and 1e300 the error columns pass 2^500, so their squares
        # would overflow without the power-of-two scaling
        stack = scale * mixed_stack(rng, d)
        for matrix, spec in zip(stack, stacked_spectra(stack)):
            assert "residual" not in vars(spec)
            first = spec.residual
            assert np.float64(first).tobytes() == np.float64(one_matrix_spectrum(matrix)[2]).tobytes()
            assert np.isfinite(first)
            assert spec.residual is first and vars(spec)["residual"] is first

    def test_residual_is_not_a_field(self):
        spec = sym_eig(np.eye(2))
        assert [f.name for f in dataclasses.fields(spec)] == ["eigenvalues", "eigenvectors", "matrix"]
        assert not spec.matrix.flags.writeable
        assert spec.matrix.tobytes() == np.eye(2).tobytes()

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


class TestStackedEigenvalues:
    @pytest.mark.parametrize("d", [1, 2, 3, 6, 12])
    def test_each_row_matches_the_one_matrix_values_only_solve_bit_for_bit(self, rng, d):
        stack = mixed_stack(rng, d)
        values = stacked_eigenvalues(stack)
        assert values.shape == (len(stack), d)
        for row, matrix in zip(values, stack):
            assert row.tobytes() == one_matrix_eigenvalues(matrix).tobytes()
        # a row's bits depend neither on the stack's size nor on its place
        for k in range(len(stack)):
            assert stacked_eigenvalues(stack[k : k + 1])[0].tobytes() == values[k].tobytes()
        assert stacked_eigenvalues(stack[::-1]).tobytes() == values[::-1].tobytes()

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_agrees_with_the_full_solve_to_rounding(self, rng, d):
        stack = mixed_stack(rng, d)
        for row, spec in zip(stacked_eigenvalues(stack), stacked_spectra(stack)):
            scale = 1e-13 * max(1.0, float(np.abs(spec.eigenvalues).max()))
            assert np.abs(row - spec.eigenvalues).max() <= scale

    def test_checks_every_matrix(self, rng):
        stack = mixed_stack(rng, 3)
        skewed = stack.copy()
        skewed[-1, 0, 1] += 1.0
        with pytest.raises(NotSymmetric):
            stacked_eigenvalues(skewed)
        stack[-1, 2, 2] = np.inf
        with pytest.raises(NonFinite):
            stacked_eigenvalues(stack)


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
