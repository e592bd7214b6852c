import gc
import itertools
import weakref

import numpy as np
import pytest

from wovenframes import (
    FusionFrame,
    Subspace,
    fusion_bounds,
    fusion_frame_operator,
    op_perturbation_check,
    proj_perturbation_check,
    pw_check,
    woven_bounds_exhaustive,
)
from wovenframes import fusion, linalg, perturbation
from wovenframes.cli import canonical_json
from wovenframes.errors import (
    ConstantOutOfRange,
    IndexMismatch,
    InvalidSampleCount,
    InvalidSeed,
    NotAFrame,
    ToolkitError,
    WeightMismatch,
)
from wovenframes.perturbation import PerturbationCertificate
from wovenframes.tolerances import HOLD_SLACK
from wovenframes.weaving import WovenFamily

from helpers import (
    _extremal,
    basis_vec,
    complement_planes,
    coordinate_planes,
    inplane_rotated_planes,
    member_operators,
    random_subspace,
    tilted_planes,
)

def coordinate_lines() -> FusionFrame:
    """R^2 split into the span of e_1 and the span of e_2."""
    lines = tuple(Subspace.from_spanning(2, [basis_vec(2, i)]) for i in range(2))
    return FusionFrame(2, lines, np.ones(2))


CHECKS = {
    "pw": lambda w, v, samples, seed=0: pw_check(w, v, 0.01, 0.01, 0.01, samples, seed),
    "op": lambda w, v, samples, seed=0: op_perturbation_check(
        w, v, 0.01, 0.01, 0.01, samples, seed
    ),
    "proj": lambda w, v, samples, seed=0: proj_perturbation_check(w, v, 0.5, samples, seed),
}


def exhaustive_interval(w, v):
    report = woven_bounds_exhaustive(WovenFamily.fusion((w, v)))
    return report.universal_lower, report.universal_upper


def assert_prediction_contains(cert, w, v):
    lo, hi = exhaustive_interval(w, v)
    assert lo >= cert.predicted_lower - 1e-9
    assert hi <= cert.predicted_upper + 1e-9


class TestIdenticalFamilies:
    def test_pw(self):
        w = coordinate_planes()
        cert = pw_check(w, w, 0.01, 0.01, 0.005)
        assert cert.hypothesis_holds
        assert cert.inequality_violation <= 0.0
        assert cert.predicted_lower == pytest.approx(0.5)
        assert cert.predicted_upper == pytest.approx(2.0)
        assert_prediction_contains(cert, w, w)

    def test_op(self):
        w = coordinate_planes()
        cert = op_perturbation_check(w, w, 0.01, 0.01, 0.01)
        assert cert.hypothesis_holds
        a_w = fusion_bounds(w).lower
        b_w = fusion_bounds(w).upper
        expected_gate = 0.01 * b_w + 0.01 * b_w + 0.01 * np.sqrt(b_w)
        assert cert.predicted_lower == pytest.approx(a_w - expected_gate)
        assert cert.predicted_upper == pytest.approx(a_w + expected_gate)
        assert_prediction_contains(cert, w, w)

    def test_proj(self):
        w = coordinate_planes()
        cert = proj_perturbation_check(w, w, 0.5)
        assert cert.hypothesis_holds
        a_w = fusion_bounds(w).lower
        assert cert.predicted_lower == pytest.approx(2.0 * a_w / 2.0)
        assert_prediction_contains(cert, w, w)


class TestRotatedPlanes:
    """Bases rotated inside each plane: the subspaces are unchanged, so
    every checker sees a genuine (if degenerate) perturbation."""

    def test_all_three_hold_with_containment(self):
        w = coordinate_planes()
        v = inplane_rotated_planes(1e-3)
        pw_cert = pw_check(w, v, 0.05, 0.05, 0.01)
        op_cert = op_perturbation_check(w, v, 0.05, 0.05, 0.05)
        proj_cert = proj_perturbation_check(w, v, 0.5)
        for cert in (pw_cert, op_cert, proj_cert):
            assert cert.hypothesis_holds
            assert_prediction_contains(cert, w, v)


class TestTiltedPlanes:
    """Planes moved by a principal angle of 1e-3: only the synthesis-level
    condition, with its additive slack term, genuinely survives."""

    def test_pw_holds_with_containment(self):
        w = coordinate_planes()
        v = tilted_planes(1e-3)
        cert = pw_check(w, v, 0.05, 0.05, 0.01)
        assert cert.hypothesis_holds
        assert_prediction_contains(cert, w, v)

    def test_op_detects_orthogonal_directions(self):
        # any vector orthogonal to a member of the first family but not to
        # its moved counterpart violates the subsetwise inequality
        w = coordinate_planes()
        v = tilted_planes(1e-3)
        cert = op_perturbation_check(w, v, 0.05, 0.05, 0.05)
        assert not cert.hypothesis_holds
        assert cert.inequality_violation > 0.0

    def test_proj_detects_orthogonal_directions(self):
        w = coordinate_planes()
        v = tilted_planes(1e-3)
        cert = proj_perturbation_check(w, v, 0.1)
        assert not cert.hypothesis_holds
        assert cert.inequality_violation > 0.0


class TestComplementFamilies:
    def test_all_three_fail(self):
        w = coordinate_planes()
        v = complement_planes()
        assert pw_check(w, v, 0.05, 0.05, 0.01).max_violation > 0.0
        assert op_perturbation_check(w, v, 0.05, 0.05, 0.05).max_violation > 0.0
        assert proj_perturbation_check(w, v, 0.01).max_violation > 0.0

    def test_failures_are_reported_not_raised(self):
        w = coordinate_planes()
        v = complement_planes()
        cert = pw_check(w, v, 0.05, 0.05, 0.01)
        assert not cert.hypothesis_holds
        assert cert.max_violation == pytest.approx(cert.inequality_violation)


class TestGates:
    def test_gate_failure_tight_frame(self):
        w = coordinate_planes()
        cert = op_perturbation_check(w, w, 0.01, 0.01, 0.99)
        assert cert.gate_margin > 0.0
        assert not cert.hypothesis_holds
        assert cert.inequality_violation <= 0.0

    def test_pw_refuses_a_w_that_is_not_a_fusion_frame(self):
        # both members span e_1, so A_W = 0 and the gate divides by zero
        line = Subspace.from_spanning(2, [basis_vec(2, 0)])
        w = FusionFrame(2, (line, line), np.ones(2))
        with pytest.raises(NotAFrame, match="A_W = 0.0"):
            pw_check(w, coordinate_lines(), 0.01, 0.01, 0.01, samples=5)

    @pytest.mark.parametrize("method", sorted(CHECKS))
    @pytest.mark.parametrize("weight", [1e-160, 1e-6])
    def test_every_check_refuses_a_w_that_fails_the_frame_rule(self, method, weight):
        # A_W = weight^2 is positive but at most FRAME_TOL * max(1, B_W);
        # woven calls such a pair non-woven, so no check certifies it
        lines = coordinate_lines()
        w = FusionFrame(2, lines.subspaces, np.full(2, weight))
        assert not fusion_bounds(w).is_frame
        assert not woven_bounds_exhaustive(WovenFamily.fusion((w, w))).is_woven
        with pytest.raises(NotAFrame, match="is at most FRAME_TOL"):
            CHECKS[method](w, w, 5)

    def test_pw_gate_scales_with_lower_bound(self):
        # weights 0.1 shrink the lower bound, inflating the gate factor
        base = coordinate_planes()
        w = FusionFrame(4, base.subspaces, 0.1 * np.ones(2))
        cert = pw_check(w, w, 0.3, 0.3, 0.3)
        assert cert.gate_margin > 0.0
        assert not cert.hypothesis_holds


def certificate(gate_margin, inequality_violation, **extra):
    return PerturbationCertificate(
        method="pw",
        constants=(0.1,),
        predicted_lower=0.5,
        predicted_upper=2.0,
        sample_count=6,
        seed=0,
        gate_margin=gate_margin,
        inequality_violation=inequality_violation,
        subset_search=None,
        **extra,
    )


class TestDerivedVerdict:
    @pytest.mark.parametrize(
        "gate, inequality, worst",
        [
            (None, -0.25, -0.25),
            (None, 0.5 * HOLD_SLACK, 0.5 * HOLD_SLACK),
            (None, 2.0 * HOLD_SLACK, 2.0 * HOLD_SLACK),
            (-0.5, -0.25, -0.25),
            (-0.25, -0.5, -0.25),
            (0.1, -0.5, 0.1),
            (-0.5, 0.1, 0.1),
            (float("inf"), -0.5, float("inf")),
        ],
    )
    def test_verdict_follows_the_worst_slack(self, gate, inequality, worst):
        cert = certificate(gate, inequality)
        assert cert.max_violation == worst
        assert cert.hypothesis_holds is (worst <= HOLD_SLACK)

    @pytest.mark.parametrize("derived", ["max_violation", "hypothesis_holds"])
    def test_derived_fields_are_not_arguments(self, derived):
        with pytest.raises(TypeError):
            certificate(None, 0.0, **{derived: 0.0})


class TestSamplingBehavior:
    def test_monotone_in_constants(self):
        w = coordinate_planes()
        v = tilted_planes(1e-3)
        small = pw_check(w, v, 0.01, 0.01, 0.01)
        large = pw_check(w, v, 0.05, 0.05, 0.05)
        assert large.inequality_violation <= small.inequality_violation + 1e-12
        assert small.hypothesis_holds  # already holds, stays holding
        assert large.hypothesis_holds

    def test_stability_on_fresh_batches(self):
        pairs = [
            (coordinate_planes(), coordinate_planes()),
            (coordinate_planes(), inplane_rotated_planes(1e-3)),
            (coordinate_planes(), tilted_planes(1e-3)),
        ]
        for w, v in pairs:
            base = pw_check(w, v, 0.05, 0.05, 0.01, samples=1000, seed=0)
            if not base.hypothesis_holds:
                continue
            again = pw_check(w, v, 0.05, 0.05, 0.01, samples=10000, seed=99)
            assert again.max_violation <= 1e-7

    def test_deterministic_for_seed(self):
        w = coordinate_planes()
        v = tilted_planes(1e-3)
        a = pw_check(w, v, 0.05, 0.05, 0.01, samples=200, seed=5)
        b = pw_check(w, v, 0.05, 0.05, 0.01, samples=200, seed=5)
        assert a == b

    def test_subset_sampling_above_enumeration_cap(self):
        # 2^13 index subsets exceed the enumeration limit; the sampled
        # path must still accept an identical pair
        n, dim = 13, 3
        subs = tuple(
            Subspace.from_spanning(dim, [basis_vec(dim, i % dim)]) for i in range(n)
        )
        w = FusionFrame(dim, subs, np.ones(n))
        cert = op_perturbation_check(w, w, 0.01, 0.01, 0.01, samples=20, seed=2)
        assert cert.hypothesis_holds
        assert cert.inequality_violation <= 0.0


class TestSubsetSearch:
    @pytest.mark.parametrize("n, op_search", [(12, "exhaustive"), (13, "sampled")])
    def test_each_certificate_names_how_subsets_were_covered(self, n, op_search):
        subs = tuple(Subspace.from_spanning(3, [basis_vec(3, i % 3)]) for i in range(n))
        w = FusionFrame(3, subs, np.ones(n))
        assert pw_check(w, w, 0.01, 0.01, 0.01, 5).subset_search is None
        assert op_perturbation_check(w, w, 0.01, 0.01, 0.01, 5).subset_search == op_search
        assert proj_perturbation_check(w, w, 0.5, 5).subset_search == "closed_form"


class TestValidation:
    def test_constant_ranges(self):
        w = coordinate_planes()
        with pytest.raises(ConstantOutOfRange):
            pw_check(w, w, 1.0, 0.0, 0.0)
        with pytest.raises(ConstantOutOfRange):
            op_perturbation_check(w, w, -0.1, 0.0, 0.0)
        with pytest.raises(ConstantOutOfRange):
            proj_perturbation_check(w, w, 0.0)

    def test_index_mismatch(self):
        w = coordinate_planes()
        sub = Subspace.from_spanning(4, [basis_vec(4, 0)])
        v = FusionFrame(4, (sub,), np.ones(1))
        with pytest.raises(IndexMismatch):
            pw_check(w, v, 0.01, 0.01, 0.01)

    def test_weight_mismatch(self):
        w = coordinate_planes()
        v = FusionFrame(4, w.subspaces, np.array([1.0, 2.0]))
        with pytest.raises(WeightMismatch):
            proj_perturbation_check(w, v, 0.5)

    @pytest.mark.parametrize("method", sorted(CHECKS))
    @pytest.mark.parametrize("samples", [-1, -1000])
    def test_negative_samples(self, method, samples):
        w = coordinate_planes()
        with pytest.raises(InvalidSampleCount, match=f"non-negative, got {samples}"):
            CHECKS[method](w, w, samples)

    @pytest.mark.parametrize("method", sorted(CHECKS))
    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed(self, method, seed):
        w = coordinate_planes()
        with pytest.raises(InvalidSeed, match=f"non-negative integer, got {seed}$"):
            CHECKS[method](w, w, 5, seed)
        with pytest.raises(ToolkitError):
            CHECKS[method](w, w, 0, seed)

    def test_invalid_sample_count_is_a_toolkit_and_value_error(self):
        w = coordinate_planes()
        with pytest.raises(ToolkitError):
            pw_check(w, w, 0.01, 0.01, 0.01, -1)
        with pytest.raises(ValueError):
            proj_perturbation_check(w, w, 0.5, -1)

    @pytest.mark.parametrize("method", sorted(CHECKS))
    def test_zero_samples_check_the_extremal_vectors(self, method):
        w, v = coordinate_planes(), tilted_planes(1e-3)
        cert = CHECKS[method](w, v, 0)
        assert cert.sample_count == 6
        assert np.isfinite(cert.inequality_violation)


def spy_solves(monkeypatch) -> list:
    """Every matrix given to an eigen-solve from here on, one entry each."""
    solved = []
    original = linalg.stacked_spectra

    def spy(matrices):
        solved.extend(np.array(matrices))
        return original(matrices)

    monkeypatch.setattr(linalg, "stacked_spectra", spy)
    return solved


class TestSharedSpectra:
    @pytest.mark.parametrize("method", sorted(CHECKS))
    def test_three_solves_per_check(self, monkeypatch, method):
        # on a fresh pair: S_W, S_V and S_W - S_V, S bit for bit the fusion
        # frame operator
        solved = spy_solves(monkeypatch)
        w, v = coordinate_planes(), tilted_planes(1e-3)
        CHECKS[method](w, v, 10)
        sw, sv = fusion_frame_operator(w), fusion_frame_operator(v)
        assert [m.tobytes() for m in solved] == [x.tobytes() for x in (sw, sv, sw - sv)]

    def test_checks_on_one_pair_solve_the_difference_once(self, monkeypatch):
        # S_W and S_V once in all, S_W - S_V once for the pair
        solved = spy_solves(monkeypatch)
        w, v = coordinate_planes(), tilted_planes(1e-3)
        for method in sorted(CHECKS):
            CHECKS[method](w, v, 10)
        sw, sv = fusion_frame_operator(w), fusion_frame_operator(v)
        assert [m.tobytes() for m in solved] == [x.tobytes() for x in (sw, sv, sw - sv)]

    @pytest.mark.parametrize("method", sorted(CHECKS))
    def test_one_projector_stack_per_frame(self, monkeypatch, method):
        # the rank grouping runs once per projector stack built
        w, v = coordinate_planes(), tilted_planes(1e-3)
        grouped = []
        original = fusion.size_groups
        monkeypatch.setattr(fusion, "size_groups", lambda s: grouped.append(1) or original(s))
        first = CHECKS[method](w, v, 10)
        assert CHECKS[method](w, v, 10) == first
        assert len(grouped) == 2

    def test_scaled_projector_stacks_are_the_member_operators(self):
        # mixed ranks and an empty member, which contributes zeros
        rng = np.random.default_rng(8)
        subs = tuple(random_subspace(rng, 5, k) for k in (2, 0, 3, 2, 1))
        ff = FusionFrame(5, subs, rng.uniform(0.5, 1.5, 5))
        assert ff.projectors.tobytes() == member_operators(ff, np.ones(5)).tobytes()
        assert ff.operators.tobytes() == member_operators(ff).tobytes()
        scaled = ff.weights[:, None, None] * ff.projectors
        assert scaled.tobytes() == member_operators(ff, ff.weights).tobytes()

    @pytest.mark.parametrize("method", sorted(CHECKS))
    def test_bounds_are_those_of_the_operators(self, method):
        weights = np.array([1.0, 1.5])
        w = FusionFrame(4, coordinate_planes().subspaces, weights)
        v = FusionFrame(4, tilted_planes(0.2).subspaces, weights)
        a_w, b_w = (float(x) for x in np.linalg.eigvalsh(fusion_frame_operator(w))[[0, -1]])
        a_v, b_v = (float(x) for x in np.linalg.eigvalsh(fusion_frame_operator(v))[[0, -1]])
        gate = 0.01 * b_w + 0.01 * b_v + 0.01 * np.sqrt(b_w)
        expected = {
            "pw": (a_w / 2.0, b_w + b_v),
            "op": (a_w - gate, a_w + gate),
            "proj": ((a_w + a_v) / 2.0, b_w + b_v),
        }[method]
        cert = CHECKS[method](w, v, 10)
        assert (cert.predicted_lower, cert.predicted_upper) == pytest.approx(expected, abs=1e-14)


def seeded_pair(tilt: float = 0.05) -> tuple[FusionFrame, FusionFrame]:
    """W of four seeded planes of R^5 and V with each spanning set tilted
    by ``tilt`` times a seeded Gaussian, sharing W's weights: new frames
    on every call, with the same data for one ``tilt``."""
    rng = np.random.default_rng(5)
    spans = rng.standard_normal((4, 2, 5))
    weights = rng.uniform(0.5, 1.5, 4)
    tilted = spans + tilt * rng.standard_normal(spans.shape)
    return tuple(
        FusionFrame(5, tuple(Subspace.from_spanning(5, list(s)) for s in x), weights)
        for x in (spans, tilted)
    )


def cert_bytes(cert: PerturbationCertificate) -> bytes:
    return canonical_json(vars(cert)).encode()


def fresh_cert(method: str, samples: int = 10, seed: int = 0, tilt: float = 0.05) -> bytes:
    return cert_bytes(CHECKS[method](*seeded_pair(tilt), samples, seed))


class TestPairSlot:
    """W keeps the extremal rows of its last partner V, held weakly."""

    @pytest.mark.parametrize("order", list(itertools.permutations(sorted(CHECKS))))
    def test_every_order_gives_the_fresh_certificates(self, order):
        w, v = seeded_pair()
        for samples, seed in ((10, 0), (0, 3), (25, 7), (10, 0)):
            for method in order:
                assert cert_bytes(CHECKS[method](w, v, samples, seed)) == fresh_cert(
                    method, samples, seed
                )

    @pytest.mark.parametrize("method", sorted(CHECKS))
    def test_a_new_partner_replaces_the_slot(self, monkeypatch, method):
        w, v1 = seeded_pair()
        v2 = seeded_pair(0.2)[1]
        expected = [fresh_cert(method, tilt=t) for t in (0.05, 0.2, 0.05)]
        solved = spy_solves(monkeypatch)
        certs = [cert_bytes(CHECKS[method](w, v, 10)) for v in (v1, v2, v1)]
        assert certs == expected
        sw, sv1, sv2 = (fusion_frame_operator(x) for x in (w, v1, v2))
        solves = (sw, sv1, sw - sv1, sv2, sw - sv2, sw - sv1)
        assert [m.tobytes() for m in solved] == [x.tobytes() for x in solves]

    @pytest.mark.parametrize("method", sorted(CHECKS))
    def test_reversed_roles_solve_their_own_difference(self, monkeypatch, method):
        w, v = seeded_pair()
        fresh_w, fresh_v = seeded_pair()
        expected = cert_bytes(CHECKS[method](fresh_v, fresh_w, 10))
        solved = spy_solves(monkeypatch)
        CHECKS[method](w, v, 10)
        assert cert_bytes(CHECKS[method](v, w, 10)) == expected
        # each frame holds its own partner's rows: no solve on a repeat
        CHECKS[method](w, v, 10)
        CHECKS[method](v, w, 10)
        sw, sv = fusion_frame_operator(w), fusion_frame_operator(v)
        assert [m.tobytes() for m in solved] == [x.tobytes() for x in (sw, sv, sw - sv, sv - sw)]

    @pytest.mark.parametrize("method", sorted(CHECKS))
    def test_the_slot_never_keeps_its_partner_alive(self, monkeypatch, method):
        w, v = seeded_pair()
        CHECKS[method](w, v, 10)
        partner = weakref.ref(v)
        del v
        gc.collect()
        assert partner() is None
        v, expected = seeded_pair()[1], fresh_cert(method)
        solved = spy_solves(monkeypatch)
        assert cert_bytes(CHECKS[method](w, v, 10)) == expected
        sw, sv = fusion_frame_operator(w), fusion_frame_operator(v)
        assert [m.tobytes() for m in solved] == [x.tobytes() for x in (sv, sw - sv)]

    def test_the_stored_rows_are_read_only_and_those_of_fresh_solves(self):
        w, v = seeded_pair()
        rows = perturbation._extremal(w, v)
        assert perturbation._extremal(w, v) is rows
        assert rows.shape == (6, 5) and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        assert rows.tobytes() == _extremal(*seeded_pair()).tobytes()
