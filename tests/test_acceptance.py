"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

from wovenframes import (
    InvertibleOperator,
    Partition,
    WovenFamily,
    apply_operator_discrete,
    find_nonwoven_witness,
    frame_operator,
    fusion_bounds,
    op_perturbation_check,
    optimal_bounds,
    proj_perturbation_check,
    pw_check,
    sym_eig,
    synthesis_is_onto,
    weave,
    weaving_bessel_bound,
    woven_bounds_exhaustive,
    woven_riesz_decomposition_check,
)
from wovenframes.cli import main
from wovenframes.instances import build_ex3_2, build_ex4_1, build_ex4_2, build_ex5_4
from wovenframes.transforms import (
    flatten_local_system,
    remove_subset_check,
    local_global_equivalence_report,
)
from wovenframes.weaving import member_bessel_bounds

from helpers import (
    complement_planes,
    coordinate_planes,
    inplane_rotated_planes,
    onto_equivalence_instances,
    tilted_planes,
    woven_pair_random,
)
from test_transforms import redundant_three_member_family, seeded_well_conditioned_operator


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_plane_pair_reproduction():
    start = time.perf_counter()
    inst = build_ex3_2()
    family = inst.payload
    f, g = family.systems

    ok = np.abs(frame_operator(f) - np.array([[13.0, 6.0], [6.0, 13.0]])).max() <= 1e-12

    fb, gb = optimal_bounds(f), optimal_bounds(g)
    ok &= abs(fb.lower - 7.0) <= 1e-9 and abs(fb.upper - 19.0) <= 1e-9
    ok &= 4.0 <= fb.lower + 1e-9 and fb.upper <= 22.0 + 1e-9
    ok &= abs(gb.lower - 1.0) <= 1e-9 and abs(gb.upper - 11.0) <= 1e-9
    ok &= 1.0 <= gb.lower + 1e-9 and gb.upper <= 19.0 + 1e-9

    mixed = optimal_bounds(weave(family, Partition((0, 0, 1))))
    lo = (23.0 - math.sqrt(205.0)) / 2.0
    hi = (23.0 + math.sqrt(205.0)) / 2.0
    ok &= abs(mixed.lower - lo) <= 1e-9 and abs(mixed.upper - hi) <= 1e-9
    ok &= 4.0 - 1e-9 <= mixed.lower and mixed.upper <= 27.0 + 1e-9

    report = woven_bounds_exhaustive(family)
    ok &= report.is_woven and report.partitions_examined == 8

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, bool(ok), f"plane pair reproduction ({elapsed:.3f}s)")


def test_criterion_02_shifted_pair_at_dim_six():
    start = time.perf_counter()
    inst = build_ex4_1(6)
    lf, lg = inst.local_systems

    flat_f, _ = flatten_local_system(lf)
    flat_g, _ = flatten_local_system(lg)
    fb, gb = optimal_bounds(flat_f), optimal_bounds(flat_g)
    ok = abs(fb.lower - 1.0) <= 1e-9 and abs(fb.upper - 1.0) <= 1e-9
    ok &= 1.0 - 1e-9 <= gb.lower and gb.upper <= 2.0 + 1e-9

    report = local_global_equivalence_report(lf, lg)
    vec = report.vector_report
    ok &= vec.partitions_examined == 64 and vec.is_woven
    ok &= vec.universal_lower >= 1.0 - 1e-9 and vec.universal_upper <= 2.0 + 1e-9
    ok &= report.fusion_report.is_woven and report.verdicts_agree

    elapsed = time.perf_counter() - start
    ok &= elapsed < 2.0
    _report(2, bool(ok), f"shifted pair verdicts at dim 6 ({elapsed:.3f}s)")


def test_criterion_03_damaged_pair_witness():
    start = time.perf_counter()
    inst = build_ex4_2(6)
    lf, lg = inst.local_systems

    found = find_nonwoven_witness(inst.payload, eps=1e-8)
    ok = found is not None
    if found is not None:
        partition, vector, value = found
        ok &= partition.assignment == (1, 0, 0, 0, 0, 0)
        ok &= abs(vector[0]) >= 1.0 - 1e-9
        ok &= abs(value) <= 1e-12

    report = local_global_equivalence_report(lf, lg)
    ok &= report.verdicts == (False, False, False)

    elapsed = time.perf_counter() - start
    ok &= elapsed < 2.0
    _report(3, bool(ok), f"damaged pair witness at dim 6 ({elapsed:.3f}s)")


def test_criterion_04_even_odd_pair_at_dim_six():
    start = time.perf_counter()
    inst = build_ex5_4(6, delta=3.0)
    first, second = inst.payload.systems

    b1, b2 = fusion_bounds(first), fusion_bounds(second)
    ok = abs(b1.lower - 1.0) <= 1e-9 and abs(b1.upper - 1.0) <= 1e-9
    ok &= abs(b2.lower - 1.0) <= 1e-9 and abs(b2.upper - 1.0) <= 1e-9

    report = woven_riesz_decomposition_check(inst.payload)
    ok &= report.all_pass and report.partitions_examined == 4

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(4, bool(ok), f"even/odd pair Riesz weaving at dim 6 ({elapsed:.3f}s)")


def test_criterion_05_operator_image_property_suite():
    start = time.perf_counter()
    family = build_ex3_2().payload
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        m = seeded_well_conditioned_operator(rng)
        ok &= np.linalg.cond(m) <= 1e3
        op = InvertibleOperator.from_matrix(m)
        image, predicted = apply_operator_discrete(op, family)
        rep = woven_bounds_exhaustive(image)
        ok &= rep.universal_lower >= predicted[0] - 1e-9
        ok &= rep.universal_upper <= predicted[1] + 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(5, bool(ok), f"50 operator images inside predicted intervals ({elapsed:.3f}s)")


def test_criterion_06_synthesis_equivalence_suite():
    instances = onto_equivalence_instances(100, 20)
    ok = all(
        synthesis_is_onto(ff) == fusion_bounds(ff).is_frame
        for ff in instances
    )
    _report(6, bool(ok), "synthesis onto <=> fusion frame on 100 seeded instances")


def test_criterion_07_perturbation_suite():
    w = coordinate_planes()
    ok = True

    # identical families: every checker holds with zero left-hand side
    for cert in (
        pw_check(w, w, 0.01, 0.01, 0.005),
        op_perturbation_check(w, w, 0.01, 0.01, 0.01),
        proj_perturbation_check(w, w, 0.5),
    ):
        ok &= cert.hypothesis_holds and cert.inequality_violation <= 0.0

    # rotated planes (in-plane rotation by 1e-3, d = 4): hold + containment
    v_rot = inplane_rotated_planes(1e-3)
    rot_certs = (
        pw_check(w, v_rot, 0.05, 0.05, 0.01),
        op_perturbation_check(w, v_rot, 0.05, 0.05, 0.05),
        proj_perturbation_check(w, v_rot, 0.5),
    )
    rot_interval = woven_bounds_exhaustive(WovenFamily.fusion((w, v_rot)))
    for cert in rot_certs:
        ok &= cert.hypothesis_holds
        ok &= rot_interval.universal_lower >= cert.predicted_lower - 1e-9
        ok &= rot_interval.universal_upper <= cert.predicted_upper + 1e-9

    # moved planes still satisfy the synthesis-level condition
    v_tilt = tilted_planes(1e-3)
    tilt_cert = pw_check(w, v_tilt, 0.05, 0.05, 0.01)
    tilt_interval = woven_bounds_exhaustive(WovenFamily.fusion((w, v_tilt)))
    ok &= tilt_cert.hypothesis_holds
    ok &= tilt_interval.universal_lower >= tilt_cert.predicted_lower - 1e-9
    ok &= tilt_interval.universal_upper <= tilt_cert.predicted_upper + 1e-9

    # complement families: every checker fails with positive violation
    v_comp = complement_planes()
    for cert in (
        pw_check(w, v_comp, 0.05, 0.05, 0.01),
        op_perturbation_check(w, v_comp, 0.05, 0.05, 0.05),
        proj_perturbation_check(w, v_comp, 0.01),
    ):
        ok &= (not cert.hypothesis_holds) and cert.max_violation > 0.0

    _report(7, bool(ok), "perturbation checkers on identical/rotated/complement")


def test_criterion_08_proposition_suite():
    rng = np.random.default_rng(42)
    ok = True

    # every weaving's upper bound is dominated by the member-bound sum
    for _ in range(100):
        family = woven_pair_random(rng, 4, 3)
        p = Partition(tuple(int(x) for x in rng.integers(0, 2, 3)))
        ok &= weaving_bessel_bound(family, p) <= sum(member_bessel_bounds(family)) + 1e-9

    # removal: interval containment whenever the removed mass stays below
    # the universal lower bound
    removal = remove_subset_check(redundant_three_member_family(), [2])
    ok &= removal.hypothesis_met and bool(removal.containment_ok)
    ok &= bool(removal.restricted_members_are_fusion_frames)
    blocked = remove_subset_check(redundant_three_member_family(), [0, 1])
    ok &= not blocked.hypothesis_met

    # extending an index set never lowers the universal lower bound
    for _ in range(10):
        family = woven_pair_random(rng, 4, 4)
        sub = family.restrict([0, 1, 3])
        sub_report = woven_bounds_exhaustive(sub)
        full_report = woven_bounds_exhaustive(family)
        if sub_report.is_woven:
            ok &= full_report.universal_lower >= sub_report.universal_lower - 1e-9

    _report(8, bool(ok), "weaving bound propositions (bessel sum, removal, extension)")


def test_criterion_09_spectral_oracle_equivalence():
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 17))
        a = rng.standard_normal((d, d))
        a = a + a.T
        spec = sym_eig(a)
        probes = rng.standard_normal((10_000, d))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        probes = np.vstack([probes, spec.eigenvectors[:, 0], spec.eigenvectors[:, -1]])
        quotients = np.einsum("sd,de,se->s", probes, a, probes)
        scale = 1.0 + float(np.abs(spec.eigenvalues).max())
        ok &= abs(quotients.min() - spec.smallest) <= 1e-9 * scale
        ok &= abs(quotients.max() - spec.largest) <= 1e-9 * scale
    _report(9, bool(ok), "extremal eigenvalues match Rayleigh extremes on 50 matrices")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(
        json.dumps(
            {
                "dim": 2,
                "kind": "discrete",
                "systems": [
                    {"vectors": [[0, 2], [3, 0], [2, 3]]},
                    {"vectors": [[1, 0], [0, 1], [3, 1]]},
                ],
            }
        )
    )
    fus = tmp_path / "fusion.json"
    fus.write_text(
        json.dumps(
            {
                "dim": 4,
                "kind": "fusion",
                "systems": [
                    {
                        "weights": [1, 1],
                        "subspaces": [
                            {"spanning": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                            {"spanning": [[0, 0, 1, 0], [0, 0, 0, 1]]},
                        ],
                    },
                    {
                        "weights": [1, 1],
                        "subspaces": [
                            {"spanning": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                            {"spanning": [[0, 0, 1, 0], [0, 0, 0, 1]]},
                        ],
                    },
                ],
            }
        )
    )
    commands = [
        ["analyze", str(fam)],
        ["woven", str(fam)],
        ["woven", str(fam), "--samples", "64", "--seed", "13"],
        ["perturb", str(fus), "--method", "pw", "--lambda1", "0.01",
         "--lambda2", "0.01", "--mu", "0.005", "--seed", "4"],
        ["perturb", str(fus), "--method", "proj", "--K", "0.5"],
        ["reproduce", "--id", "ex3_2"],
        ["reproduce", "--id", "ex4_1", "--dim", "6"],
        ["reproduce", "--id", "ex4_2", "--dim", "6"],
        ["reproduce", "--id", "ex5_4", "--dim", "6"],
    ]
    ok = True
    for argv in commands:
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        ok &= first.encode("utf-8") == second.encode("utf-8")
    _report(10, bool(ok), "byte-identical CLI reruns for every command")
