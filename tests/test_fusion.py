import dataclasses

import numpy as np
import pytest

from wovenframes import (
    FusionFrame,
    Subspace,
    fusion_bounds,
    fusion_frame_operator,
    is_orthonormal_fusion_basis,
    is_riesz_decomposition,
    projector,
    synthesis_is_onto,
)
from wovenframes.errors import DimensionMismatch, NonFinite, NotOrthonormal
from wovenframes.tolerances import GRAM_TOL

from helpers import (
    analysis_blocks,
    basis_vec,
    random_fusion_frame,
    rank_deficient_fusion_frame,
    onto_equivalence_instances,
)


def even_odd_split(dim: int = 4) -> FusionFrame:
    even = Subspace.from_spanning(dim, [basis_vec(dim, i) for i in range(1, dim, 2)])
    odd = Subspace.from_spanning(dim, [basis_vec(dim, i) for i in range(0, dim, 2)])
    return FusionFrame(dim, (even, odd), np.ones(2))


class TestSubspace:
    def test_from_spanning_normalizes(self):
        sub = Subspace.from_spanning(2, [[3.0, 0.0], [3.0, 1.0]])
        assert sub.rank == 2
        assert np.abs(sub.basis.T @ sub.basis - np.eye(2)).max() <= 1e-10

    def test_scaling_is_absorbed(self):
        a = Subspace.from_spanning(3, [[0.0, 5.0, 0.0]])
        b = Subspace.from_spanning(3, [[0.0, 1.0, 0.0]])
        assert np.allclose(a.projector(), b.projector())

    def test_rejects_skewed_basis(self):
        with pytest.raises(NotOrthonormal):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_zero_rank_marker(self):
        sub = Subspace(3, np.zeros((3, 0)))
        assert sub.rank == 0
        assert np.array_equal(sub.projector(), np.zeros((3, 3)))


class TestFusionFrameValidation:
    def test_weights_positive(self):
        sub = Subspace.from_spanning(2, [[1.0, 0.0]])
        with pytest.raises(NonFinite):
            FusionFrame(2, (sub,), np.array([0.0]))
        with pytest.raises(NonFinite):
            FusionFrame(2, (sub,), np.array([-1.0]))

    def test_dims_must_match(self):
        sub2 = Subspace.from_spanning(2, [[1.0, 0.0]])
        sub3 = Subspace.from_spanning(3, [[1.0, 0.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            FusionFrame(2, (sub2, sub3), np.ones(2))


class TestFusionOperator:
    def test_even_odd_identity(self):
        assert np.allclose(fusion_frame_operator(even_odd_split(4)), np.eye(4))

    def test_single_weighted_axis(self):
        sub = Subspace.from_spanning(2, [[1.0, 0.0]])
        ff = FusionFrame(2, (sub,), np.array([2.0]))
        assert np.allclose(fusion_frame_operator(ff), [[4.0, 0.0], [0.0, 0.0]])

    def test_two_full_spaces(self):
        full = Subspace(3, np.eye(3))
        ff = FusionFrame(3, (full, full), np.ones(2))
        assert np.allclose(fusion_frame_operator(ff), 2.0 * np.eye(3))

    def test_matches_projector_sum(self, rng):
        # definition-level identity against the projector oracle
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            ff = random_fusion_frame(rng, dim, [int(rng.integers(1, dim + 1)) for _ in range(3)])
            total = np.zeros((dim, dim))
            for sub, w in zip(ff.subspaces, ff.weights):
                total += w * w * projector(sub.basis)
            assert np.abs(fusion_frame_operator(ff) - total).max() <= 1e-10


class TestFusionBounds:
    def test_parseval_split(self):
        rep = fusion_bounds(even_odd_split(4))
        assert abs(rep.lower - 1.0) <= 1e-9 and abs(rep.upper - 1.0) <= 1e-9
        assert rep.is_frame

    def test_scaled_spanning_sets_stay_parseval(self):
        dim = 4
        even = Subspace.from_spanning(dim, [3.0 * basis_vec(dim, i) for i in range(1, dim, 2)])
        odd = Subspace.from_spanning(dim, [3.0 * basis_vec(dim, i) for i in range(0, dim, 2)])
        rep = fusion_bounds(FusionFrame(dim, (even, odd), np.ones(2)))
        assert abs(rep.lower - 1.0) <= 1e-9 and abs(rep.upper - 1.0) <= 1e-9

    def test_single_proper_subspace(self):
        sub = Subspace.from_spanning(3, [[1.0, 0.0, 0.0]])
        rep = fusion_bounds(FusionFrame(3, (sub,), np.ones(1)))
        assert rep.lower <= 1e-12
        assert not rep.is_frame

    def test_witnesses_and_containment(self, rng):
        ff = random_fusion_frame(rng, 4, [2, 2, 1])
        rep = fusion_bounds(ff)
        probes = rng.standard_normal((1000, 4))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        op = fusion_frame_operator(ff)
        sums = np.einsum("sd,de,se->s", probes, op, probes)
        assert sums.min() >= rep.lower - 1e-9
        assert sums.max() <= rep.upper + 1e-9
        low_sum = sum(
            float(np.linalg.norm(part) ** 2) for part in analysis_blocks(ff, rep.witness_low)
        )
        assert abs(low_sum - rep.lower) <= 1e-7


class TestAnalysisApply:
    # the analysis operator f -> (weight_i P_i f) through the block oracle
    def test_axis_vectors(self):
        e1 = Subspace.from_spanning(2, [[1.0, 0.0]])
        e2 = Subspace.from_spanning(2, [[0.0, 1.0]])
        ff = FusionFrame(2, (e1, e2), np.ones(2))
        parts = analysis_blocks(ff, [1.0, 0.0])
        assert np.allclose(parts[0], [1.0, 0.0]) and np.allclose(parts[1], [0.0, 0.0])
        parts = analysis_blocks(ff, [1.0, 1.0])
        assert np.allclose(parts[0], [1.0, 0.0]) and np.allclose(parts[1], [0.0, 1.0])

    def test_norm_identity(self, rng):
        # sum of squared block norms equals f^T S f, evaluated directly
        ff = random_fusion_frame(rng, 5, [2, 3, 1])
        op = fusion_frame_operator(ff)
        for _ in range(20):
            f = rng.standard_normal(5)
            total = sum(float(np.linalg.norm(p) ** 2) for p in analysis_blocks(ff, f))
            assert abs(total - float(f @ op @ f)) <= 1e-9 * (1 + abs(total))


class TestSynthesisOnto:
    def test_even_odd(self):
        assert synthesis_is_onto(even_odd_split(4))

    def test_single_proper_subspace(self):
        sub = Subspace.from_spanning(3, [[1.0, 0.0, 0.0]])
        assert not synthesis_is_onto(FusionFrame(3, (sub,), np.ones(1)))

    def test_agrees_with_bounds_on_seeded_instances(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            deficient = rng.uniform() < 0.4
            member_dims = [int(rng.integers(1, dim + 1)) for _ in range(int(rng.integers(1, 4)))]
            if deficient:
                ff = rank_deficient_fusion_frame(rng, dim, member_dims)
            else:
                ff = random_fusion_frame(rng, dim, member_dims)
            assert synthesis_is_onto(ff) == fusion_bounds(ff).is_frame


def test_equivalence_suite_hundred_instances():
    # onto-ness of synthesis matches the spectral fusion-frame verdict
    for ff in onto_equivalence_instances(100, 20):
        assert synthesis_is_onto(ff) == fusion_bounds(ff).is_frame


class TestRieszDecomposition:
    def test_even_odd_direct_sum(self):
        assert is_riesz_decomposition(even_odd_split(4))

    def test_oblique_pair(self):
        a = Subspace.from_spanning(2, [[1.0, 0.0]])
        b = Subspace.from_spanning(2, [[1.0, 1.0]])
        assert is_riesz_decomposition(FusionFrame(2, (a, b), np.ones(2)))

    def test_repeated_subspace(self):
        a = Subspace.from_spanning(2, [[1.0, 0.0]])
        assert not is_riesz_decomposition(FusionFrame(2, (a, a), np.ones(2)))


class TestOrthonormalFusionBasis:
    def test_even_odd(self):
        assert is_orthonormal_fusion_basis(even_odd_split(4))

    def test_oblique_pair_rejected(self):
        a = Subspace.from_spanning(2, [[1.0, 0.0]])
        b = Subspace.from_spanning(2, [[1.0, 1.0]])
        assert not is_orthonormal_fusion_basis(FusionFrame(2, (a, b), np.ones(2)))

    def test_full_space_single_member(self):
        full = Subspace(3, np.eye(3))
        assert is_orthonormal_fusion_basis(FusionFrame(3, (full,), np.ones(1)))

    def test_matches_the_pairwise_cross_gram_check(self, rng):
        # an orthonormal basis cut into members, one member tilted by 0 to
        # 1e-1; the oracle checks every pair of members' cross-Gram matrix
        verdicts = set()
        for _ in range(200):
            dim = int(rng.integers(1, 7))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            cuts = np.sort(rng.choice(np.arange(1, dim), int(rng.integers(0, dim)), replace=False))
            spans = [list(block.T) for block in np.split(q, cuts, axis=1)]
            tilt = rng.choice([0.0, 1e-12, 1e-8, 1e-1])
            spans[0][0] = spans[0][0] + tilt * rng.standard_normal(dim)
            subs = tuple(Subspace.from_spanning(dim, span) for span in spans)
            ff = FusionFrame(dim, subs, rng.uniform(0.5, 2.0, len(subs)))
            expected = is_riesz_decomposition(ff) and all(
                float(np.abs(a.basis.T @ b.basis).max()) <= GRAM_TOL
                for i, a in enumerate(subs)
                for b in subs[i + 1 :]
            )
            assert is_orthonormal_fusion_basis(ff) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_implies_riesz_decomposition(self, rng):
        # orthogonal splittings always decompose uniquely
        for dim, cut in ((4, 2), (5, 3), (6, 1)):
            first = Subspace.from_spanning(dim, [basis_vec(dim, i) for i in range(cut)])
            second = Subspace.from_spanning(dim, [basis_vec(dim, i) for i in range(cut, dim)])
            ff = FusionFrame(dim, (first, second), rng.uniform(0.5, 2.0, 2))
            if is_orthonormal_fusion_basis(ff):
                assert is_riesz_decomposition(ff)


class TestDerivedState:
    def test_cached_arrays_are_read_only(self):
        ff = random_fusion_frame(np.random.default_rng(3), 4, (1, 2, 0, 3))
        spec = ff.spectrum
        arrays = (ff.weights, ff.projectors, ff.operators, spec.eigenvalues, spec.eigenvectors)
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_caller_weights_are_copied_not_frozen(self):
        subs = even_odd_split().subspaces
        weights = np.array([1.0, 2.0])
        ff = FusionFrame(4, subs, weights)
        weights[:] = 5.0
        expected = fusion_bounds(FusionFrame(4, subs, np.array([1.0, 2.0])))
        got = fusion_bounds(ff)
        assert (got.lower, got.upper) == (expected.lower, expected.upper)
        assert ff.weights.tolist() == [1.0, 2.0]
        weights[:] = 7.0
        assert fusion_bounds(ff).upper == expected.upper

    def test_derived_state_is_not_a_field(self):
        ff = even_odd_split()
        text = repr(ff)
        assert [f.name for f in dataclasses.fields(ff)] == ["dim", "subspaces", "weights"]
        assert ff.spectrum.residual >= 0.0 and ff.operators.shape == (2, 4, 4)
        assert repr(ff) == text
