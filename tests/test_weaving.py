import math

import numpy as np
import pytest

from wovenframes import (
    DiscreteFrame,
    FusionFrame,
    Partition,
    Subspace,
    WovenFamily,
    bessel_bound,
    find_nonwoven_witness,
    fusion_bounds,
    local_global_equivalence_report,
    optimal_bounds,
    weave,
    weaving_bessel_bound,
    woven_bounds_exhaustive,
    woven_bounds_sampled,
    woven_riesz_decomposition_check,
)
from wovenframes import transforms, weaving
from wovenframes.errors import (
    InvalidEps,
    InvalidPartitionCap,
    InvalidSeed,
    NonFinite,
    NotSymmetric,
    PartitionLengthMismatch,
    ToolkitError,
    TooManyPartitions,
    WrongKind,
)
from wovenframes.instances import build_ex3_2, build_ex4_1
from wovenframes.transforms import intersection_weaving_report, remove_subset_check
from wovenframes.weaving import (
    contribution_stacks,
    member_bessel_bounds,
    partition_cap,
    woven_bounds_from_contributions,
)

from helpers import basis_vec, eig2, ex3_2_frames, woven_pair_random


@pytest.fixture
def plane_family():
    return WovenFamily.discrete(ex3_2_frames())


class TestWeave:
    def test_identity_partition(self, plane_family):
        woven = weave(plane_family, Partition.pure(3, 0))
        assert np.array_equal(woven.vectors, plane_family.systems[0].vectors)

    def test_mixed_selection(self, plane_family):
        woven = weave(plane_family, Partition((0, 0, 1)))
        assert np.array_equal(
            woven.vectors, np.array([[0.0, 2.0], [3.0, 0.0], [3.0, 1.0]])
        )

    def test_partition_helpers(self):
        p = Partition.from_subset(3, [2])
        assert p.assignment == (0, 0, 1)
        assert p.blocks(2) == [[0, 1], [2]]
        assert Partition.pure(4, 1).assignment == (1, 1, 1, 1)

    def test_fusion_weights_travel(self):
        a = Subspace.from_spanning(2, [[1.0, 0.0]])
        b = Subspace.from_spanning(2, [[0.0, 1.0]])
        first = FusionFrame(2, (a, b), np.array([2.0, 3.0]))
        second = FusionFrame(2, (b, a), np.array([5.0, 7.0]))
        family = WovenFamily.fusion((first, second))
        woven = weave(family, Partition((0, 1)))
        assert woven.size == 2
        assert np.array_equal(woven.weights, [2.0, 7.0])
        assert np.allclose(woven.subspaces[1].projector(), a.projector())

    def test_length_mismatch(self, plane_family):
        with pytest.raises(PartitionLengthMismatch):
            weave(plane_family, Partition((0, 1)))
        with pytest.raises(PartitionLengthMismatch):
            weave(plane_family, Partition((0, 1, 5)))


class TestFamilyKind:
    LINES = DiscreteFrame(2, np.eye(2))
    PLANES = FusionFrame(2, (Subspace(2, np.eye(2)),) * 2, np.ones(2))

    @pytest.mark.parametrize(
        "build, systems",
        [
            (WovenFamily.fusion, (LINES, LINES)),
            (WovenFamily.discrete, (PLANES, PLANES)),
            (WovenFamily.fusion, (PLANES, LINES)),
            (WovenFamily.discrete, (LINES, PLANES)),
        ],
        ids=["discrete-as-fusion", "fusion-as-discrete", "mixed-fusion", "mixed-discrete"],
    )
    def test_systems_of_the_other_kind_are_refused(self, build, systems):
        with pytest.raises(WrongKind, match="systems only"):
            build(systems)


class TestExhaustive:
    def test_plane_family_universal_interval(self, plane_family):
        report = woven_bounds_exhaustive(plane_family)
        # worst weaving {g1, f2, g3} has operator [[19, 3], [3, 1]]
        lo, hi = eig2([[19.0, 3.0], [3.0, 1.0]])
        assert abs(report.universal_lower - lo) <= 1e-9
        assert abs(report.universal_upper - hi) <= 1e-9
        assert abs(lo - (10.0 - math.sqrt(90.0))) <= 1e-12
        assert report.is_woven
        assert report.partitions_examined == 8
        assert report.method == "exhaustive"
        assert report.seed is None

    def test_mixed_weaving_inside_stated_interval(self, plane_family):
        rep = optimal_bounds(weave(plane_family, Partition((0, 0, 1))))
        lo, hi = eig2([[18.0, 3.0], [3.0, 5.0]])
        assert abs(rep.lower - lo) <= 1e-9 and abs(rep.upper - hi) <= 1e-9
        assert abs(lo - (23.0 - math.sqrt(205.0)) / 2.0) <= 1e-12
        assert rep.lower >= 4.0 - 1e-9 and rep.upper <= 27.0 + 1e-9

    def test_identical_systems(self):
        f, _ = ex3_2_frames()
        family = WovenFamily.discrete((f, f))
        report = woven_bounds_exhaustive(family)
        base = optimal_bounds(f)
        assert abs(report.universal_lower - base.lower) <= 1e-9
        assert abs(report.universal_upper - base.upper) <= 1e-9

    def test_worst_partition_reproduces_lower(self, plane_family):
        report = woven_bounds_exhaustive(plane_family)
        again = optimal_bounds(weave(plane_family, report.worst_partition))
        assert abs(again.lower - report.universal_lower) <= 1e-9

    def test_every_partition_inside_interval(self, plane_family):
        report = woven_bounds_exhaustive(plane_family)
        for code in range(8):
            assignment = tuple((code >> (2 - k)) & 1 for k in range(3))
            rep = optimal_bounds(weave(plane_family, Partition(assignment)))
            assert rep.lower >= report.universal_lower - 1e-9
            assert rep.upper <= report.universal_upper + 1e-9

    def test_pure_partitions_contained(self, plane_family):
        report = woven_bounds_exhaustive(plane_family)
        for system in plane_family.systems:
            rep = optimal_bounds(system)
            assert rep.lower >= report.universal_lower - 1e-9
            assert rep.upper <= report.universal_upper + 1e-9

    def test_twenty_random_partitions_inside_interval(self, rng):
        family = build_ex4_1(6).payload
        report = woven_bounds_exhaustive(family)
        for _ in range(20):
            p = Partition(tuple(int(x) for x in rng.integers(0, 2, family.n)))
            bounds = fusion_bounds(weave(family, p))
            assert bounds.lower >= report.universal_lower - 1e-9
            assert bounds.upper <= report.universal_upper + 1e-9

    def test_cap(self, plane_family, monkeypatch):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", "4")
        with pytest.raises(TooManyPartitions):
            woven_bounds_exhaustive(plane_family)


class TestSampled:
    def test_full_coverage_matches_exhaustive(self, plane_family):
        exhaustive = woven_bounds_exhaustive(plane_family)
        sampled = woven_bounds_sampled(plane_family, samples=200, seed=11)
        assert sampled.method == "sampled"
        assert sampled.seed == 11
        assert sampled.partitions_examined == 202
        assert abs(sampled.universal_lower - exhaustive.universal_lower) <= 1e-12
        assert abs(sampled.universal_upper - exhaustive.universal_upper) <= 1e-12

    def test_deterministic(self, plane_family):
        a = woven_bounds_sampled(plane_family, samples=50, seed=7)
        b = woven_bounds_sampled(plane_family, samples=50, seed=7)
        assert a == b

    def test_interval_contained_in_exhaustive(self, rng):
        family = woven_pair_random(rng, 4, 5)
        exhaustive = woven_bounds_exhaustive(family)
        sampled = woven_bounds_sampled(family, samples=10, seed=3)
        assert sampled.universal_lower >= exhaustive.universal_lower - 1e-12
        assert sampled.universal_upper <= exhaustive.universal_upper + 1e-12

    def test_shifted_instance_interval(self):
        inst = build_ex4_1(8)
        report = woven_bounds_sampled(inst.payload, samples=500, seed=5)
        assert report.universal_lower >= 1.0 - 1e-9
        assert report.universal_upper <= 2.0 + 1e-9

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_rejects_negative_seed(self, plane_family, seed):
        with pytest.raises(InvalidSeed, match=f"non-negative integer, got {seed}$"):
            woven_bounds_sampled(plane_family, samples=3, seed=seed)
        with pytest.raises(ValueError):
            woven_bounds_sampled(plane_family, samples=3, seed=seed)


class TestWeavingBessel:
    def test_mixed_weaving_value(self, plane_family):
        value = weaving_bessel_bound(plane_family, Partition((0, 0, 1)))
        _, hi = eig2([[18.0, 3.0], [3.0, 5.0]])
        assert abs(value - hi) <= 1e-9
        assert value <= 19.0 + 11.0

    def test_pure_partition_gives_member_bound(self, plane_family):
        f, _ = ex3_2_frames()
        value = weaving_bessel_bound(plane_family, Partition.pure(3, 0))
        assert abs(value - bessel_bound(f)) <= 1e-9

    def test_dominated_by_member_sum(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            systems = []
            for _ in range(2):
                subs = tuple(
                    Subspace.from_spanning(dim, [rng.standard_normal(dim)])
                    for _ in range(n)
                )
                systems.append(FusionFrame(dim, subs, rng.uniform(0.5, 2.0, n)))
            family = WovenFamily.fusion(tuple(systems))
            p = Partition(tuple(int(x) for x in rng.integers(0, 2, n)))
            total = sum(member_bessel_bounds(family))
            assert weaving_bessel_bound(family, p) <= total + 1e-9


class TestNonwovenWitness:
    def test_uncovered_coordinate(self):
        first = FusionFrame(
            3,
            tuple(Subspace.from_spanning(3, [basis_vec(3, i)]) for i in range(3)),
            np.ones(3),
        )
        second = FusionFrame(
            3,
            (
                Subspace(3, np.zeros((3, 0))),
                Subspace.from_spanning(3, [basis_vec(3, 1)]),
                Subspace.from_spanning(3, [basis_vec(3, 2)]),
            ),
            np.ones(3),
        )
        family = WovenFamily.fusion((first, second))
        found = find_nonwoven_witness(family, eps=1e-8)
        assert found is not None
        partition, vector, value = found
        assert partition.assignment == (1, 0, 0)
        assert abs(value) <= 1e-12
        assert abs(vector[0]) >= 1.0 - 1e-9

    def test_plane_family_thresholds(self, plane_family):
        # smallest weaving bound is 10 - sqrt(90) ~ 0.513
        assert find_nonwoven_witness(plane_family, eps=0.5) is None
        found = find_nonwoven_witness(plane_family, eps=1.0)
        assert found is not None
        assert found[0].assignment == (1, 0, 1)

    def test_identical_parseval_systems(self):
        basis = DiscreteFrame(2, np.eye(2))
        family = WovenFamily.discrete((basis, basis))
        assert find_nonwoven_witness(family, eps=0.5) is None

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_eps_that_is_not_finite_and_positive(self, plane_family, eps):
        with pytest.raises(InvalidEps, match="finite and positive"):
            find_nonwoven_witness(plane_family, eps=eps)
        with pytest.raises(InvalidEps):
            woven_bounds_exhaustive(plane_family, eps=eps)

    def test_invalid_eps_is_a_toolkit_and_value_error(self, plane_family):
        with pytest.raises(ToolkitError):
            find_nonwoven_witness(plane_family, eps=math.nan)
        with pytest.raises(ValueError):
            find_nonwoven_witness(plane_family, eps=-1.0)


class TestRieszWeaving:
    def test_aligned_even_odd_pair(self):
        dim = 6
        even = Subspace.from_spanning(dim, [basis_vec(dim, i) for i in range(1, dim, 2)])
        odd = Subspace.from_spanning(dim, [basis_vec(dim, i) for i in range(0, dim, 2)])
        first = FusionFrame(dim, (even, odd), np.ones(2))
        family = WovenFamily.fusion((first, first))
        report = woven_riesz_decomposition_check(family)
        assert report.all_pass
        assert report.partitions_examined == 4
        assert report.failing_count == 0 and report.first_failing is None

    def test_swapped_axes_fail(self):
        e1 = Subspace.from_spanning(2, [[1.0, 0.0]])
        e2 = Subspace.from_spanning(2, [[0.0, 1.0]])
        first = FusionFrame(2, (e1, e2), np.ones(2))
        second = FusionFrame(2, (e2, e1), np.ones(2))
        family = WovenFamily.fusion((first, second))
        report = woven_riesz_decomposition_check(family)
        assert not report.all_pass
        # mixed selections repeat one axis and drop the other
        assert report.failing_count == 2
        assert report.first_failing == Partition((0, 1))

    def test_wrong_kind(self, plane_family):
        with pytest.raises(WrongKind):
            woven_riesz_decomposition_check(plane_family)


class TestSoftAndSubsetProperties:
    def test_upper_bound_strictly_below_member_sum(self, rng):
        # woven fusion pairs never reach the summed member upper bounds
        families = [
            build_ex4_1(6).payload,
            woven_pair_random(rng, 4, 3),
            woven_pair_random(rng, 5, 4),
        ]
        for family in families:
            report = woven_bounds_exhaustive(family)
            if not report.is_woven or family.n < 2:
                continue
            members = member_bessel_bounds(family)
            assert report.universal_upper < members[0] + members[1]

    def test_extension_never_lowers_universal_lower(self, rng):
        for _ in range(10):
            family = woven_pair_random(rng, 4, 4)
            sub = family.restrict([0, 1, 3])
            full_report = woven_bounds_exhaustive(family)
            sub_report = woven_bounds_exhaustive(sub)
            if sub_report.is_woven:
                assert full_report.is_woven
                assert (
                    full_report.universal_lower
                    >= sub_report.universal_lower - 1e-9
                )


def test_instance_ex3_2_partition_count():
    report = woven_bounds_exhaustive(build_ex3_2().payload)
    assert report.partitions_examined == 8
    assert report.is_woven


class TestPartitionCap:
    @staticmethod
    def _exhaustive_calls():
        plane = WovenFamily.discrete(ex3_2_frames())
        inst = build_ex4_1(4)
        target = Subspace.from_spanning(4, [basis_vec(4, 0), basis_vec(4, 2)])
        return [
            lambda: woven_bounds_exhaustive(plane),
            lambda: find_nonwoven_witness(plane, eps=1e-8),
            lambda: woven_riesz_decomposition_check(inst.payload),
            lambda: intersection_weaving_report(inst.payload, target, samples=5),
            lambda: local_global_equivalence_report(*inst.local_systems),
            lambda: remove_subset_check(inst.payload, [0]),
        ]

    def test_every_exhaustive_routine_honours_the_cap(self, monkeypatch):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", "4")
        for call in self._exhaustive_calls():
            with pytest.raises(TooManyPartitions):
                call()

    @pytest.mark.parametrize(
        "n, count",
        [(63, "2^63 = 9223372036854775808"), (64, "2^64"), (15_000, "2^15000")],
    )
    def test_huge_partition_counts_are_refused(self, n, count):
        # 2^15000 has more digits than Python converts to a string
        frame = DiscreteFrame(1, np.ones((n, 1)))
        with pytest.raises(TooManyPartitions) as refused:
            woven_bounds_exhaustive(WovenFamily.discrete((frame, frame)))
        assert str(refused.value).startswith(f"{count} partitions exceeds the cap")

    def test_cap_is_checked_before_the_stacks_are_built(self, monkeypatch):
        built = []

        def spy(family):
            built.append(family)
            return contribution_stacks(family)

        blocked = transforms._blocked_vector_stacks

        def blocked_spy(lf, lg):
            built.append((lf, lg))
            return blocked(lf, lg)

        for module in (weaving, transforms):
            monkeypatch.setattr(module, "contribution_stacks", spy)
        monkeypatch.setattr(transforms, "_blocked_vector_stacks", blocked_spy)
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", "4")
        for call in self._exhaustive_calls():
            with pytest.raises(TooManyPartitions):
                call()
        assert built == []

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5", ""])
    def test_invalid_override_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", raw)
        with pytest.raises(InvalidPartitionCap, match="WOVEN_MAX_PARTITIONS"):
            partition_cap()
        with pytest.raises(InvalidPartitionCap):
            woven_bounds_exhaustive(WovenFamily.discrete(ex3_2_frames()))

    @pytest.mark.parametrize("raw", [str(2**63), str(10**23)])
    def test_override_beyond_int64_ranks_is_invalid(self, monkeypatch, raw):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", raw)
        with pytest.raises(InvalidPartitionCap, match="WOVEN_MAX_PARTITIONS"):
            partition_cap()
        with pytest.raises(InvalidPartitionCap, match="positive integer"):
            woven_bounds_exhaustive(WovenFamily.discrete(ex3_2_frames()))

    def test_largest_int64_override_is_valid(self, monkeypatch):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", str(2**63 - 1))
        assert partition_cap() == 2**63 - 1
        report = woven_bounds_exhaustive(WovenFamily.discrete(ex3_2_frames()))
        assert report.partitions_examined == 8

    def test_valid_override(self, monkeypatch):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", "8")
        assert partition_cap() == 8
        report = woven_bounds_exhaustive(WovenFamily.discrete(ex3_2_frames()))
        assert report.partitions_examined == 8


class TestStackValidation:
    """The chunked scan keeps sym_eig's checks on every weaving operator."""

    @staticmethod
    def _stacks():
        return contribution_stacks(WovenFamily.discrete(ex3_2_frames()))

    def test_asymmetric_stack(self):
        stacks = self._stacks()
        stacks[2, 1, 0, 1] += 1e-6
        with pytest.raises(NotSymmetric):
            woven_bounds_from_contributions(stacks)

    def test_asymmetry_within_tolerance_passes(self):
        stacks = self._stacks()
        stacks[2, 1, 0, 1] += 1e-12
        report = woven_bounds_from_contributions(stacks)
        assert report.partitions_examined == 8

    def test_nan_stack(self):
        stacks = self._stacks()
        stacks[1, 0, 1, 1] = np.nan
        with pytest.raises(NonFinite):
            woven_bounds_from_contributions(stacks)
