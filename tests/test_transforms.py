import math

import numpy as np
import pytest

from wovenframes import (
    FusionFrame,
    InvertibleOperator,
    LocalSystem,
    Partition,
    Subspace,
    WovenFamily,
    apply_operator_discrete,
    conjugation_check,
    flatten_local_system,
    frame_operator,
    fusion_frame_operator,
    intersect_family,
    optimal_bounds,
    remove_subset_check,
    subspace_intersection,
    sym_eig,
    local_global_equivalence_report,
    woven_bounds_exhaustive,
)
from wovenframes.errors import (
    EmptyInput,
    EmptyIntersection,
    IndexMismatch,
    InvalidSampleCount,
    InvalidSeed,
    InvarianceViolated,
    NonFinite,
    NotSelfAdjoint,
    SingularOperator,
)
from wovenframes.transforms import intersection_weaving_report, invert_matrix
from wovenframes.weaving import contribution_stacks, woven_bounds_from_contributions

from helpers import basis_vec, ex3_2_frames


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def seeded_well_conditioned_operator(rng) -> np.ndarray:
    # rotations around a diagonal keep the condition number small
    s1, s2 = rng.uniform(0.1, 10.0, 2)
    return rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([s1, s2]) @ rotation(
        rng.uniform(0, 2 * np.pi)
    )


class TestInvertibleOperator:
    def test_inverse_product(self, rng):
        for _ in range(10):
            m = seeded_well_conditioned_operator(rng)
            op = InvertibleOperator.from_matrix(m)
            assert np.abs(op.matrix @ op.inv - np.eye(2)).max() <= 1e-8

    def test_norms_match_singular_values(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            m = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
            op = InvertibleOperator.from_matrix(m)
            svals = np.linalg.svd(m, compute_uv=False)
            assert abs(op.norm - svals.max()) <= 1e-8 * (1 + svals.max())
            assert abs(op.inv_norm - 1.0 / svals.min()) <= 1e-8 * (1 + 1.0 / svals.min())

    def test_singular_rejected(self):
        with pytest.raises(SingularOperator):
            invert_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestOperatorImage:
    def test_doubling_scales_by_four(self):
        family = WovenFamily.discrete(ex3_2_frames())
        base = woven_bounds_exhaustive(family)
        op = InvertibleOperator.from_matrix(2.0 * np.eye(2))
        image, predicted = apply_operator_discrete(op, family)
        rep = woven_bounds_exhaustive(image)
        assert abs(rep.universal_lower - 4.0 * base.universal_lower) <= 1e-9
        assert abs(rep.universal_upper - 4.0 * base.universal_upper) <= 1e-9
        assert rep.universal_lower >= predicted[0] - 1e-9
        assert rep.universal_upper <= predicted[1] + 1e-9

    def test_identity_keeps_family(self):
        family = WovenFamily.discrete(ex3_2_frames())
        op = InvertibleOperator.from_matrix(np.eye(2))
        image, _ = apply_operator_discrete(op, family)
        for original, mapped in zip(family.systems, image.systems):
            assert np.allclose(original.vectors, mapped.vectors)

    def test_shear_containment(self):
        family = WovenFamily.discrete(ex3_2_frames())
        op = InvertibleOperator.from_matrix(np.array([[2.0, 1.0], [0.0, 1.0]]))
        image, predicted = apply_operator_discrete(op, family)
        rep = woven_bounds_exhaustive(image)
        assert rep.universal_lower >= predicted[0] - 1e-9
        assert rep.universal_upper <= predicted[1] + 1e-9

    def test_fifty_seeded_operators(self):
        family = WovenFamily.discrete(ex3_2_frames())
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = seeded_well_conditioned_operator(rng)
            assert np.linalg.cond(m) <= 1e3
            op = InvertibleOperator.from_matrix(m)
            image, predicted = apply_operator_discrete(op, family)
            rep = woven_bounds_exhaustive(image)
            assert rep.universal_lower >= predicted[0] - 1e-9
            assert rep.universal_upper <= predicted[1] + 1e-9


def coordinate_fusion_pair(dim: int = 4) -> WovenFamily:
    first = FusionFrame(
        dim,
        (
            Subspace.from_spanning(dim, [basis_vec(dim, 0), basis_vec(dim, 1)]),
            Subspace.from_spanning(dim, [basis_vec(dim, 2), basis_vec(dim, 3)]),
        ),
        np.ones(2),
    )
    second = FusionFrame(
        dim,
        (
            Subspace.from_spanning(dim, [basis_vec(dim, 0)]),
            Subspace.from_spanning(dim, [basis_vec(dim, 1), basis_vec(dim, 2), basis_vec(dim, 3)]),
        ),
        np.ones(2),
    )
    return WovenFamily.fusion((first, second))


class TestConjugation:
    def test_identity_operator(self):
        family = coordinate_fusion_pair()
        op = InvertibleOperator.from_matrix(np.eye(4))
        assert conjugation_check(op, family, Partition((0, 1))) <= 1e-12

    def test_diagonal_positive_on_coordinate_subspaces(self):
        family = coordinate_fusion_pair()
        op = InvertibleOperator.from_matrix(np.diag([2.0, 3.0, 1.0, 1.0]))
        for assignment in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert conjugation_check(op, family, Partition(assignment)) <= 1e-7

    def test_scalar_operator(self):
        family = coordinate_fusion_pair()
        op = InvertibleOperator.from_matrix(2.5 * np.eye(4))
        assert conjugation_check(op, family, Partition((0, 1))) <= 1e-9

    def test_not_self_adjoint(self):
        family = coordinate_fusion_pair()
        op = InvertibleOperator.from_matrix(np.array(
            [[1.0, 1.0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
        ))
        with pytest.raises(NotSelfAdjoint):
            conjugation_check(op, family, Partition((0, 1)))

    def test_invariance_violated(self):
        family = coordinate_fusion_pair()
        m = np.eye(4)
        m[0, 2] = m[2, 0] = 0.5  # mixes the two coordinate planes
        op = InvertibleOperator.from_matrix(m)
        with pytest.raises(InvarianceViolated):
            conjugation_check(op, family, Partition((0, 1)))


class TestIntersection:
    def test_full_space_is_neutral(self):
        w = Subspace.from_spanning(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        k = Subspace(3, np.eye(3))
        inter = subspace_intersection(w, k)
        assert inter.rank == 2
        assert np.abs(inter.projector() - w.projector()).max() <= 1e-9

    def test_shared_axis(self):
        w = Subspace.from_spanning(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        k = Subspace.from_spanning(3, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        inter = subspace_intersection(w, k)
        assert inter.rank == 1
        assert abs(abs(inter.basis[1, 0]) - 1.0) <= 1e-9

    def test_disjoint_lines(self):
        w = Subspace.from_spanning(2, [[1.0, 0.0]])
        k = Subspace.from_spanning(2, [[0.0, 1.0]])
        assert subspace_intersection(w, k).rank == 0

    def test_family_empty_intersection(self):
        family = coordinate_fusion_pair()
        k = Subspace.from_spanning(4, [np.array([1.0, 1.0, 1.0, 1.0]) / 2.0])
        with pytest.raises(EmptyIntersection):
            intersect_family(family, k)

    def test_coordinate_target_keeps_bounds(self):
        family = coordinate_fusion_pair()
        k = Subspace.from_spanning(4, [basis_vec(4, 0), basis_vec(4, 2)])
        intersected = intersect_family(family, k)
        base = woven_bounds_exhaustive(family)
        # restricted operator on the target for each partition
        stacked = k.basis
        import itertools

        from wovenframes.weaving import contribution_stacks

        stacks = contribution_stacks(intersected)
        for assignment in itertools.product(range(2), repeat=2):
            op = stacks[np.arange(2), list(assignment)].sum(axis=0)
            restricted = stacked.T @ op @ stacked
            spec = sym_eig(restricted)
            assert spec.smallest >= base.universal_lower - 1e-9
            assert spec.largest <= base.universal_upper + 1e-9

    def test_report_commuting_class(self):
        family = coordinate_fusion_pair()
        k = Subspace.from_spanning(4, [basis_vec(4, 0), basis_vec(4, 2)])
        report = intersection_weaving_report(family, k, samples=200, seed=0)
        assert report.projector_pattern_holds
        assert report.max_lower_violation <= 1e-9
        assert report.max_upper_violation <= 1e-9

    def test_report_noncommuting_class(self):
        family = coordinate_fusion_pair()
        oblique = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        k = Subspace.from_spanning(4, [basis_vec(4, 0), oblique])
        report = intersection_weaving_report(family, k, samples=50, seed=1)
        assert not report.projector_pattern_holds
        # mismatches are reported, not asserted: the fields exist and are finite
        assert np.isfinite(report.max_lower_violation)

    @pytest.mark.parametrize(
        "samples, seed, error",
        [(0, 0, InvalidSampleCount), (-3, 0, InvalidSampleCount), (5, -1, InvalidSeed)],
    )
    def test_report_refuses_bad_samples_and_seeds(self, samples, seed, error):
        family = coordinate_fusion_pair()
        k = Subspace.from_spanning(4, [basis_vec(4, 0), basis_vec(4, 2)])
        with pytest.raises(error):
            intersection_weaving_report(family, k, samples=samples, seed=seed)


class TestLocalSystems:
    def test_orthonormal_local_frame_flattens_to_itself(self):
        system = LocalSystem.build(2, [[basis_vec(2, 0), basis_vec(2, 1)]], [1.0])
        flat, index_map = flatten_local_system(system)
        assert np.allclose(flat.vectors, np.eye(2))
        assert index_map == ((0, 0), (0, 1))

    def test_coordinate_blocks_give_standard_basis(self):
        dim = 6
        system = LocalSystem.build(
            dim, [[basis_vec(dim, i)] for i in range(dim)], np.ones(dim)
        )
        flat, _ = flatten_local_system(system)
        rep = optimal_bounds(flat)
        assert abs(rep.lower - 1.0) <= 1e-9 and abs(rep.upper - 1.0) <= 1e-9

    def test_weight_scaling_quadruples_operator(self):
        dim = 3
        lists = [[basis_vec(dim, i)] for i in range(dim)]
        one = flatten_local_system(LocalSystem.build(dim, lists, np.ones(dim)))[0]
        two = flatten_local_system(LocalSystem.build(dim, lists, 2.0 * np.ones(dim)))[0]
        assert np.allclose(
            frame_operator(two), 4.0 * frame_operator(one)
        )

    def test_induced_operator_ignores_presentation(self, rng):
        # different spanning sets of the same plane induce the same operator
        dim = 4
        blocks_a = [[basis_vec(dim, 0), basis_vec(dim, 1)], [basis_vec(dim, 2), basis_vec(dim, 3)]]
        blocks_b = [
            [basis_vec(dim, 0) + basis_vec(dim, 1), 3.0 * basis_vec(dim, 1)],
            [7.0 * basis_vec(dim, 3), basis_vec(dim, 2) - basis_vec(dim, 3)],
        ]
        weights = rng.uniform(0.5, 2.0, 2)
        op_a = fusion_frame_operator(LocalSystem.build(dim, blocks_a, weights).fusion_frame)
        op_b = fusion_frame_operator(LocalSystem.build(dim, blocks_b, weights).fusion_frame)
        assert np.abs(op_a - op_b).max() <= 1e-9

    def test_fusion_frame_is_derived_from_bases_and_weights(self):
        system = LocalSystem.build(3, [[basis_vec(3, 0)], [basis_vec(3, 1)]], [1.0, 2.0])
        induced = system.fusion_frame
        assert system.fusion_frame is induced
        assert np.array_equal(induced.weights, [1.0, 2.0])
        for sub, basis in zip(induced.subspaces, system.bases):
            assert np.array_equal(sub.basis, basis)
        with pytest.raises(TypeError):
            LocalSystem(3, system.blocks, system.weights, system.bases, system.local_bounds, induced)

    def test_direct_construction_rejects_a_weight_that_is_not_positive(self):
        system = LocalSystem.build(2, [[basis_vec(2, 0)], [basis_vec(2, 1)]], [1.0, 1.0])
        with pytest.raises(NonFinite):
            LocalSystem(2, system.blocks, np.array([1.0, 0.0]), system.bases, system.local_bounds)

    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_build_rejects_a_weight_that_is_not_positive_and_finite(self, weight):
        with pytest.raises(NonFinite):
            LocalSystem.build(2, [[basis_vec(2, 0)], [basis_vec(2, 1)]], [1.0, weight])

    def test_local_bounds(self):
        system = LocalSystem.build(
            2, [[np.array([2.0, 0.0])], [np.array([1.0, 1.0]), np.array([1.0, -1.0])]], [1.0, 1.0]
        )
        assert system.local_bounds[0] == pytest.approx((4.0, 4.0))
        assert system.local_bounds[1] == pytest.approx((2.0, 2.0))


def shifted_pair(dim: int, drop_first: bool):
    firsts = [[basis_vec(dim, i)] for i in range(dim)]
    seconds = []
    for i in range(dim):
        block = [basis_vec(dim, i)]
        if i + 1 < dim:
            block.append(basis_vec(dim, i + 1))
        seconds.append(block)
    if drop_first:
        seconds[0] = [np.zeros(dim)]
    lf = LocalSystem.build(dim, firsts, np.ones(dim))
    lg = LocalSystem.build(dim, seconds, np.ones(dim))
    return lf, lg


class TestEquivalenceReport:
    def test_shifted_instance_all_true(self):
        lf, lg = shifted_pair(6, drop_first=False)
        report = local_global_equivalence_report(lf, lg)
        assert report.verdicts == (True, True, True)
        assert report.verdicts_agree
        assert report.chain_ok
        assert report.lower_floor == pytest.approx(1.0)
        assert report.upper_ceiling == pytest.approx(1.0)
        assert report.vector_report.universal_lower == pytest.approx(1.0)
        assert report.vector_report.universal_upper == pytest.approx(2.0)

    def test_damaged_instance_all_false(self):
        lf, lg = shifted_pair(6, drop_first=True)
        report = local_global_equivalence_report(lf, lg)
        assert report.verdicts == (False, False, False)
        assert report.verdicts_agree

    def test_chain_with_nonunit_local_bounds(self):
        # local lower/upper bounds 4 and 2 enter the chain constants
        lf = LocalSystem.build(
            2, [[np.array([2.0, 0.0])], [basis_vec(2, 1)]], [1.0, 1.0]
        )
        lg = LocalSystem.build(
            2,
            [[basis_vec(2, 0)], [np.array([1.0, 1.0]) / 2.0, np.array([1.0, -1.0]) / 2.0]],
            [1.0, 1.0],
        )
        report = local_global_equivalence_report(lf, lg)
        assert report.lower_floor == pytest.approx(0.5)
        assert report.upper_ceiling == pytest.approx(4.0)
        assert report.verdicts == (True, True, True)
        assert report.chain_ok
        l_vec = report.vector_report.universal_lower
        l_fus = report.fusion_report.universal_lower
        assert l_vec >= report.lower_floor * l_fus - 1e-9
        assert l_fus >= l_vec / report.upper_ceiling - 1e-9

    def test_orthonormal_locals_match_both_routes(self):
        dim = 4
        lists = [
            [basis_vec(dim, 0), basis_vec(dim, 1)],
            [basis_vec(dim, 2), basis_vec(dim, 3)],
        ]
        lf = LocalSystem.build(dim, lists, np.ones(2))
        lg = LocalSystem.build(dim, lists[::-1], np.ones(2))
        report = local_global_equivalence_report(lf, lg)
        assert report.vector_report.is_woven == report.fusion_report.is_woven
        assert abs(
            report.vector_report.universal_lower
            - report.fusion_report.universal_lower
        ) <= 1e-9

    def test_index_mismatch(self):
        lf, _ = shifted_pair(4, drop_first=False)
        _, lg = shifted_pair(5, drop_first=False)
        with pytest.raises(IndexMismatch):
            local_global_equivalence_report(lf, lg)


def redundant_three_member_family(dim: int = 4) -> WovenFamily:
    even = Subspace.from_spanning(dim, [basis_vec(dim, i) for i in range(1, dim, 2)])
    odd = Subspace.from_spanning(dim, [basis_vec(dim, i) for i in range(0, dim, 2)])
    extra = Subspace.from_spanning(dim, [basis_vec(dim, 0)])
    system = FusionFrame(dim, (even, odd, extra), np.array([1.0, 1.0, 0.5]))
    return WovenFamily.fusion((system, system))


class TestRemoveSubset:
    def test_empty_subset_is_neutral(self):
        family = redundant_three_member_family()
        report = remove_subset_check(family, [])
        assert report.partial_upper == 0.0
        assert report.hypothesis_met
        assert report.restricted_lower == pytest.approx(report.universal_lower)
        assert report.restricted_upper == pytest.approx(report.universal_upper)
        assert report.containment_ok

    def test_redundant_member_removal(self):
        family = redundant_three_member_family()
        report = remove_subset_check(family, [2])
        assert report.partial_upper == pytest.approx(0.25)
        assert report.hypothesis_met
        assert report.containment_ok
        assert report.restricted_members_are_fusion_frames

    def test_hypothesis_not_met(self):
        family = redundant_three_member_family()
        report = remove_subset_check(family, [0, 1])
        assert not report.hypothesis_met
        assert report.restricted_lower is None
        assert report.containment_ok is None


def test_orthonormal_route_equals_induced_fusion_stacks():
    """The equivalence report reuses the fusion scan for its orthonormal
    route; rebuild that route's stacks from the orthonormalized local
    vectors w_i * e_ij and compare them with the fusion contribution stacks."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        weights = rng.uniform(0.5, 1.5, n)
        pair = [
            LocalSystem.build(
                dim,
                [list(rng.standard_normal((int(rng.integers(0, 3)), dim))) for _ in range(n)],
                weights,
            )
            for _ in range(2)
        ]
        blocked = np.zeros((n, 2, dim, dim))
        for j, local in enumerate(pair):
            for i in range(n):
                for e in local.bases[i].T:
                    v = local.weights[i] * e
                    blocked[i, j] += np.outer(v, v)
        family = WovenFamily.fusion(tuple(local.fusion_frame for local in pair))
        assert np.abs(blocked - contribution_stacks(family)).max() <= 1e-12

        try:
            report = local_global_equivalence_report(*pair)
        except EmptyInput:
            continue
        direct = woven_bounds_from_contributions(blocked)
        assert report.fusion_report.is_woven == direct.is_woven
        assert report.fusion_report.universal_lower == pytest.approx(
            direct.universal_lower, abs=1e-9
        )
        assert report.fusion_report.universal_upper == pytest.approx(
            direct.universal_upper, abs=1e-9
        )
