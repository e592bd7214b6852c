import dataclasses
import math

import numpy as np
import pytest

from wovenframes import (
    DiscreteFrame,
    bessel_bound,
    frame_operator,
    is_riesz_basis,
    optimal_bounds,
)
from wovenframes.errors import DimensionMismatch, EmptyInput

from helpers import eig2, ex3_2_frames


def test_frame_requires_vectors():
    with pytest.raises(EmptyInput):
        DiscreteFrame(2, np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        DiscreteFrame(3, np.zeros((2, 2)))


class TestFrameOperator:
    def test_sum_of_outer_products(self):
        f, g = ex3_2_frames()
        # outer products summed by hand
        assert np.abs(frame_operator(f) - np.array([[13.0, 6.0], [6.0, 13.0]])).max() == 0.0
        assert np.abs(frame_operator(g) - np.array([[10.0, 3.0], [3.0, 2.0]])).max() == 0.0

    def test_standard_basis_parseval(self):
        basis = DiscreteFrame(3, np.eye(3))
        assert np.allclose(frame_operator(basis), np.eye(3))


class TestOptimalBounds:
    def test_first_system(self):
        f, _ = ex3_2_frames()
        rep = optimal_bounds(f)
        lo, hi = eig2([[13.0, 6.0], [6.0, 13.0]])
        assert abs(rep.lower - lo) <= 1e-9 and abs(rep.upper - hi) <= 1e-9
        assert (lo, hi) == (7.0, 19.0)
        # optimal values sit inside the coarser valid interval [4, 22]
        assert rep.lower >= 4.0 - 1e-9 and rep.upper <= 22.0 + 1e-9
        assert rep.is_frame

    def test_second_system(self):
        _, g = ex3_2_frames()
        rep = optimal_bounds(g)
        assert abs(rep.lower - 1.0) <= 1e-9 and abs(rep.upper - 11.0) <= 1e-9
        assert rep.lower >= 1.0 - 1e-9 and rep.upper <= 19.0 + 1e-9

    def test_orthonormal_basis(self):
        rep = optimal_bounds(DiscreteFrame(2, np.eye(2)))
        assert abs(rep.lower - 1.0) <= 1e-12 and abs(rep.upper - 1.0) <= 1e-12

    def test_witnesses_achieve_bounds(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d, 2 * d + 1))
            frame = DiscreteFrame(d, rng.standard_normal((n, d)))
            rep = optimal_bounds(frame)
            low_sum = float(((frame.vectors @ rep.witness_low) ** 2).sum())
            high_sum = float(((frame.vectors @ rep.witness_high) ** 2).sum())
            assert abs(low_sum - rep.lower) <= 1e-7
            assert abs(high_sum - rep.upper) <= 1e-7

    def test_bound_containment_on_random_inputs(self, rng):
        f, _ = ex3_2_frames()
        rep = optimal_bounds(f)
        probes = rng.standard_normal((1000, 2))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        sums = ((probes @ f.vectors.T) ** 2).sum(axis=1)
        assert sums.min() >= rep.lower - 1e-9
        assert sums.max() <= rep.upper + 1e-9

    def test_scaling_quadratic(self, rng):
        frame = DiscreteFrame(3, rng.standard_normal((5, 3)))
        rep = optimal_bounds(frame)
        for c in (0.5, 2.0, 7.0):
            scaled = optimal_bounds(DiscreteFrame(3, c * frame.vectors))
            assert abs(scaled.lower - c * c * rep.lower) <= 1e-9 * max(1, c * c * rep.lower)
            assert abs(scaled.upper - c * c * rep.upper) <= 1e-9 * max(1, c * c * rep.upper)


class TestAnalysisMatrix:
    # the analysis matrix U of a frame is its ``vectors``, row i being f_i
    def test_identity(self):
        assert np.array_equal(DiscreteFrame(2, np.eye(2)).vectors, np.eye(2))

    def test_rows_are_vectors(self):
        f, _ = ex3_2_frames()
        assert np.array_equal(f.vectors, np.array([[0.0, 2.0], [3.0, 0.0], [2.0, 3.0]]))

    def test_gram_identity(self, rng):
        # S = U^T U against the sum of outer products f_i f_i^T
        for _ in range(10):
            d = int(rng.integers(2, 6))
            frame = DiscreteFrame(d, rng.standard_normal((d + 2, d)))
            outer = sum(np.outer(row, row) for row in frame.vectors)
            assert np.abs(outer - frame_operator(frame)).max() <= 1e-10


class TestRieszBasis:
    def test_standard_basis(self):
        assert is_riesz_basis(DiscreteFrame(2, np.eye(2)))

    def test_overcomplete(self):
        f, _ = ex3_2_frames()
        assert not is_riesz_basis(f)

    def test_independent_pair(self):
        frame = DiscreteFrame(2, np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert is_riesz_basis(frame)
        # Gram has positive smallest eigenvalue: trace 3, det 1
        lo, _ = eig2([[1.0, 1.0], [1.0, 2.0]])
        assert lo > 0


class TestBesselBound:
    def test_with_zero_vector(self):
        frame = DiscreteFrame(2, np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert abs(bessel_bound(frame) - 1.0) <= 1e-12

    def test_first_system(self):
        f, _ = ex3_2_frames()
        assert abs(bessel_bound(f) - 19.0) <= 1e-9

    def test_union(self):
        f, g = ex3_2_frames()
        union = DiscreteFrame(2, np.vstack([f.vectors, g.vectors]))
        # sum operator [[23, 9], [9, 15]]: trace 38, det 264
        _, hi = eig2([[23.0, 9.0], [9.0, 15.0]])
        assert abs(hi - (19.0 + math.sqrt(97.0))) <= 1e-12
        assert abs(bessel_bound(union) - hi) <= 1e-9


class TestDerivedState:
    def test_cached_arrays_are_read_only(self):
        f, _ = ex3_2_frames()
        spec = f.spectrum
        for array in (f.vectors, spec.eigenvalues, spec.eigenvectors):
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_caller_vectors_are_copied_not_frozen(self):
        vectors = np.array([[0.0, 2.0], [3.0, 0.0], [2.0, 3.0]])
        f = DiscreteFrame(2, vectors)
        vectors[:] = 1.0
        assert optimal_bounds(f).upper == optimal_bounds(ex3_2_frames()[0]).upper
        assert f.vectors.tolist() == [[0.0, 2.0], [3.0, 0.0], [2.0, 3.0]]

    def test_derived_state_is_not_a_field(self):
        f, _ = ex3_2_frames()
        text = repr(f)
        assert [fld.name for fld in dataclasses.fields(f)] == ["dim", "vectors"]
        assert bessel_bound(f) == f.spectrum.largest
        assert repr(f) == text
