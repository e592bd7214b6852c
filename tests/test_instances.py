import dataclasses

import numpy as np
import pytest

from wovenframes import instances, linalg, transforms

from wovenframes.cli import canonical_json, family_to_document, main, parse_family_document
from wovenframes.errors import DimensionTooSmall, OddDimension, ToolkitError
from wovenframes.instances import (
    COMPUTED,
    INSTANCE_IDS,
    REFERENCE,
    build_ex3_2,
    build_ex4_1,
    build_ex4_2,
    build_ex5_4,
    build_instance,
    verify_instance,
)
from wovenframes.transforms import flatten_local_system, local_global_equivalence_report
from wovenframes.weaving import find_nonwoven_witness, woven_bounds_exhaustive


ALL_BUILDERS = {
    "ex3_2": build_ex3_2,
    "ex4_1": lambda: build_ex4_1(6),
    "ex4_2": lambda: build_ex4_2(6),
    "ex5_4": lambda: build_ex5_4(6),
}


@pytest.mark.parametrize("instance_id", sorted(ALL_BUILDERS))
def test_all_expectations_pass(instance_id):
    outcomes = verify_instance(ALL_BUILDERS[instance_id]())
    failed = [o for o in outcomes if not o.ok]
    assert not failed, failed


@pytest.mark.parametrize(
    "instance_id, dim",
    [(i, d) for i in INSTANCE_IDS for d in ((6,) if i == "ex3_2" else (4, 6, 8))],
)
def test_every_check_is_reported_in_declared_order(instance_id, dim):
    inst = build_instance(instance_id, dim)
    assert [o.name for o in verify_instance(inst)] == list(inst.expected)


@pytest.mark.parametrize("instance_id", sorted(ALL_BUILDERS))
def test_provenance_labels(instance_id):
    inst = ALL_BUILDERS[instance_id]()
    assert inst.id == instance_id
    sources = {e.source for e in inst.expected.values()}
    assert sources <= {REFERENCE, COMPUTED}
    assert REFERENCE in sources


@pytest.mark.parametrize("instance_id", sorted(ALL_BUILDERS))
def test_document_round_trip_is_idempotent(instance_id):
    inst = ALL_BUILDERS[instance_id]()
    doc = family_to_document(inst.payload)
    first = canonical_json(doc)
    reparsed = parse_family_document(doc)
    second = canonical_json(family_to_document(reparsed))
    assert first == second


class TestEx3_2:
    def test_structure(self):
        inst = build_ex3_2()
        assert inst.payload.kind == "discrete"
        assert (inst.payload.m, inst.payload.n, inst.payload.dim) == (2, 3, 2)
        assert inst.truncation_dim is None

    def test_frame_operator_value(self):
        inst = build_ex3_2()
        op = inst.payload.systems[0].vectors.T @ inst.payload.systems[0].vectors
        assert np.array_equal(op, np.array([[13.0, 6.0], [6.0, 13.0]]))


class TestEx4_1:
    def test_flat_count_boundary(self):
        inst = build_ex4_1(6)
        lf, lg = inst.local_systems
        flat_g, _ = flatten_local_system(lg)
        assert flat_g.size == 11  # companion vector missing at the boundary

    def test_exhaustive_partition_count(self):
        report = woven_bounds_exhaustive(build_ex4_1(6).payload)
        assert report.partitions_examined == 64
        assert report.is_woven

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            build_ex4_1(2)


class TestEx4_2:
    def test_zero_contribution_keeps_slot(self):
        inst = build_ex4_2(6)
        _, lg = inst.local_systems
        assert lg.blocks[0].shape == (1, 6)
        assert np.allclose(lg.blocks[0], 0.0)
        assert lg.bases[0].shape == (6, 0)

    def test_absent_flag_drops_slot(self):
        inst = build_ex4_2(6, first_block_absent=True)
        _, lg = inst.local_systems
        assert lg.blocks[0].shape == (0, 6)
        # the verdicts do not depend on the modeling choice
        report = local_global_equivalence_report(*inst.local_systems)
        assert report.verdicts == (False, False, False)

    @pytest.mark.parametrize("dim", [-1, 0, 2])
    def test_too_small_refused_before_any_array(self, dim):
        with pytest.raises(DimensionTooSmall):
            build_ex4_2(dim)

    def test_no_witness_leaves_out_the_witness_checks(self):
        # ex4_2's checks on ex4_1's woven systems: the scan finds no witness
        woven = build_ex4_1(6)
        inst = dataclasses.replace(build_ex4_2(6), payload=woven.payload,
                                   local_systems=woven.local_systems)
        outcomes = {o.name: o for o in verify_instance(inst)}
        assert list(outcomes) == ["nonwoven", "equivalence_verdicts", "first_flat_bounds"]
        assert not outcomes["nonwoven"].ok and outcomes["nonwoven"].actual is False

    def test_first_system_untouched(self):
        inst = build_ex4_2(6)
        lf, _ = inst.local_systems
        flat_f, _ = flatten_local_system(lf)
        assert np.allclose(flat_f.vectors, np.eye(6))


class TestFusionWitness:
    @pytest.mark.parametrize("dim", range(4, 11))
    def test_ex4_2_report_witness_is_the_early_exit_search(self, dim):
        inst = build_ex4_2(dim)
        report = local_global_equivalence_report(*inst.local_systems)
        partition, vector, value = report.fusion_report.witness
        expected = find_nonwoven_witness(inst.payload)
        assert partition == expected[0]
        assert np.array_equal(vector, expected[1])
        assert value == expected[2]

    @pytest.mark.parametrize("dim", [4, 6])
    def test_ex4_1_report_has_no_witness(self, dim):
        inst = build_ex4_1(dim)
        report = local_global_equivalence_report(*inst.local_systems)
        assert report.fusion_report.witness is None

    @pytest.mark.parametrize("build", [build_ex4_1, build_ex4_2])
    def test_payload_shares_the_induced_fusion_frames(self, build):
        inst = build(6)
        lf, lg = inst.local_systems
        assert inst.payload.systems[0] is lf.fusion_frame
        assert inst.payload.systems[1] is lg.fusion_frame


class TestEx5_4:
    def test_families_coincide_after_normalization(self):
        inst = build_ex5_4(6, delta=3.0)
        first, second = inst.payload.systems
        for a, b in zip(first.subspaces, second.subspaces):
            assert np.abs(a.projector() - b.projector()).max() <= 1e-12

    def test_delta_invariance(self):
        for delta in (0.5, 1.0, 3.0):
            outcomes = verify_instance(build_ex5_4(6, delta=delta))
            assert all(o.ok for o in outcomes)

    def test_dimension_validation(self):
        with pytest.raises(OddDimension):
            build_ex5_4(5)
        with pytest.raises(DimensionTooSmall):
            build_ex5_4(2)
        with pytest.raises(ToolkitError):
            build_ex5_4(6, delta=0.0)


def test_a_reproduce_round_orthonormalizes_in_seven_kernel_stacks(monkeypatch, capsys):
    # one kernel stack per spanning count of each local system of ex4_1 and
    # ex4_2 (their second systems mix one- and two-row blocks) and one for
    # ex5_4's four subspaces; ex3_2 is discrete and orthonormalizes nothing
    calls = []
    original = linalg._gram_schmidt_stack

    def counted(stack):
        calls.append(stack.shape)
        return original(stack)

    monkeypatch.setattr(linalg, "_gram_schmidt_stack", counted)
    for instance_id in INSTANCE_IDS:
        assert main(["reproduce", "--id", instance_id, "--dim", "6"]) == 0
    capsys.readouterr()
    assert calls == [
        (6, 1, 6),
        (5, 2, 6),
        (1, 1, 6),
        (6, 1, 6),
        (2, 1, 6),
        (4, 2, 6),
        (4, 3, 6),
    ]


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_reproduce_solves_no_local_bound(monkeypatch, capsys, dim):
    # no check reads the equivalence report's bound chain, so no local
    # frame operator is solved; reading ex4_1's chain afterwards solves
    # one stack per span rank of each system
    solves, reports = [], []
    solve = transforms.stacked_eigenvalues
    equivalence = instances.local_global_equivalence_report

    def kept(lf, lg):
        reports.append(equivalence(lf, lg))
        return reports[-1]

    monkeypatch.setattr(transforms, "stacked_eigenvalues", lambda m: solves.append(m.shape) or solve(m))
    monkeypatch.setattr(instances, "local_global_equivalence_report", kept)
    for instance_id in INSTANCE_IDS:
        assert main(["reproduce", "--id", instance_id, "--dim", str(dim)]) == 0
    capsys.readouterr()
    assert solves == [] and len(reports) == 2
    assert reports[0].chain_ok
    assert solves == [(dim, 1, 1), (dim - 1, 2, 2), (1, 1, 1)]


def test_build_instance_dispatch():
    assert build_instance("ex3_2").id == "ex3_2"
    assert build_instance("ex4_1", dim=8).truncation_dim == 8
    with pytest.raises(ToolkitError):
        build_instance("nope")
