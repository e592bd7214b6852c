"""Canonical reference instances and their expected quantities.

Each builder returns a ReferenceInstance bundling the constructed family,
a map of named expected values, and notes about quirks of the
construction. Expected values are tagged ``reference`` (externally given
values the instance must reproduce; the reproduction command gates on
these) or ``computed`` (values the toolkit derives itself and the test
suite re-derives with independent oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionTooSmall, OddDimension, ToolkitError
from .frames import DiscreteFrame, frame_operator, optimal_bounds
from .fusion import FusionFrame, Subspace, fusion_bounds
from .linalg import orthonormalize_each
from .tolerances import ENTRY_TOL, EX4_2_WITNESS_BOUND, HOLD_SLACK
from .transforms import (
    LocalSystem,
    flatten_local_system,
    local_global_equivalence_report,
)
from .weaving import (
    Partition,
    WovenFamily,
    _require_partition_count,
    weave,
    woven_bounds_exhaustive,
    woven_riesz_decomposition_check,
)

REFERENCE = "reference"
COMPUTED = "computed"

INSTANCE_IDS = ("ex3_2", "ex4_1", "ex4_2", "ex5_4")

NOTE_UPPER_IS_MAX = (
    "universal upper bound is the maximum weaving upper bound; "
    "a minimum over weavings would not dominate every weaving"
)
NOTE_SECOND_FAMILY_SCALING = (
    "scaling a spanning set does not change the subspace, so the scaled "
    "family normalizes to unit bounds; a tight bound equal to the scale "
    "factor would require the scale to enter as a weight"
)
NOTE_SHIFTED_INTERVAL = (
    "the shifted-copy system keeps every weaving sum between one and two "
    "times the squared norm; the reported interval is [1, 2]"
)


@dataclass(frozen=True)
class Expected:
    value: object
    source: str


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    source: str
    ok: bool
    expected: object
    actual: object


@dataclass(frozen=True)
class ReferenceInstance:
    id: str
    payload: WovenFamily
    truncation_dim: int | None
    expected: dict[str, Expected]
    local_systems: tuple[LocalSystem, LocalSystem] | None = None
    notes: tuple[str, ...] = field(default=())


def build_ex3_2() -> ReferenceInstance:
    """Two three-vector frames in the plane whose weavings are all frames.

    The first system is {2e2, 3e1, 2e1+3e2}, the second {e1, e2, 3e1+e2}.
    Valid (not optimal) bounds are (4, 22) and (1, 19); mixing the first
    two vectors of one with the third of the other keeps valid bounds
    (4, 27), and all eight weavings stay frames.
    """
    f = DiscreteFrame(2, np.array([[0.0, 2.0], [3.0, 0.0], [2.0, 3.0]]))
    g = DiscreteFrame(2, np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 1.0]]))
    family = WovenFamily.discrete((f, g))
    expected = {
        "first_valid_bounds": Expected((4.0, 22.0), REFERENCE),
        "second_valid_bounds": Expected((1.0, 19.0), REFERENCE),
        "mixed_12_weaving_valid_bounds": Expected((4.0, 27.0), REFERENCE),
        "woven": Expected(True, REFERENCE),
        "partition_count": Expected(8, REFERENCE),
        "first_optimal_bounds": Expected((7.0, 19.0), COMPUTED),
        "second_optimal_bounds": Expected((1.0, 11.0), COMPUTED),
        "first_frame_operator": Expected(
            ((13.0, 6.0), (6.0, 13.0)), COMPUTED
        ),
        "mixed_12_weaving_optimal_bounds": Expected(
            ((23.0 - math.sqrt(205.0)) / 2.0, (23.0 + math.sqrt(205.0)) / 2.0),
            COMPUTED,
        ),
    }
    return ReferenceInstance(
        id="ex3_2",
        payload=family,
        truncation_dim=None,
        expected=expected,
        notes=(NOTE_UPPER_IS_MAX,),
    )


def _shifted_pair(dim: int, first_block=None):
    """The coordinate local system (e_i at index i) and its one-step shifted
    enrichment (e_i and e_{i+1}, the companion dropped at the boundary),
    unit-weighted, with their induced fusion family; ``first_block``, when
    given, replaces the enrichment's block at the first index."""
    if dim < 3:
        raise DimensionTooSmall("need dim >= 3")
    axes = np.eye(dim)
    seconds = [axes[i : i + 2] for i in range(dim)]
    if first_block is not None:
        seconds[0] = first_block
    ones = np.ones(dim)
    lf = LocalSystem.build(dim, [axes[i : i + 1] for i in range(dim)], ones)
    lg = LocalSystem.build(dim, seconds, ones)
    return WovenFamily.fusion((lf.fusion_frame, lg.fusion_frame)), (lf, lg)


def build_ex4_1(dim: int = 6) -> ReferenceInstance:
    """Coordinate system against its one-step shifted enrichment.

    At index i the first local system holds e_i alone; the second holds
    e_i and e_{i+1} (the companion vector is dropped at the boundary).
    The flattened first system is the standard basis, the flattened
    second has bounds (1, 2), every weaving stays a frame with bounds
    inside [1, 2], and the induced weighted subspace families are woven.
    """
    family, local_systems = _shifted_pair(dim)
    expected = {
        "first_flat_bounds": Expected((1.0, 1.0), REFERENCE),
        "second_flat_bounds": Expected((1.0, 2.0), REFERENCE),
        "woven": Expected(True, REFERENCE),
        "universal_interval_within": Expected((1.0, 2.0), REFERENCE),
        "weighted_subspace_family_woven": Expected(True, REFERENCE),
        "second_flat_count": Expected(2 * dim - 1, COMPUTED),
    }
    return ReferenceInstance(
        id="ex4_1",
        payload=family,
        truncation_dim=dim,
        expected=expected,
        local_systems=local_systems,
        notes=(NOTE_SHIFTED_INTERVAL,),
    )


def build_ex4_2(dim: int = 6, first_block_absent: bool = False) -> ReferenceInstance:
    """Same pair as ex4_1 except the second system contributes nothing at
    the first index, which destroys wovenness.

    Sending every index except the first to the first system and the
    first index to the second leaves the first coordinate uncovered, so
    that weaving has smallest bound zero with witness e_1. By default the
    missing block is a zero contribution (one zero vector keeps the
    slot); ``first_block_absent=True`` drops the slot entirely.
    """
    family, local_systems = _shifted_pair(
        dim, [] if first_block_absent else [np.zeros(dim)]
    )
    witness_assignment = tuple([1] + [0] * (dim - 1))
    expected = {
        "nonwoven": Expected(True, REFERENCE),
        "witness_assignment": Expected(witness_assignment, REFERENCE),
        "witness_value_at_most": Expected(EX4_2_WITNESS_BOUND, REFERENCE),
        "witness_vector_first_coordinate": Expected(True, REFERENCE),
        "equivalence_verdicts": Expected((False, False, False), REFERENCE),
        "first_flat_bounds": Expected((1.0, 1.0), COMPUTED),
    }
    return ReferenceInstance(
        id="ex4_2",
        payload=family,
        truncation_dim=dim,
        expected=expected,
        local_systems=local_systems,
    )


def build_ex5_4(dim: int = 6, delta: float = 1.0) -> ReferenceInstance:
    """Even/odd coordinate split woven against its scaled copy.

    The first family splits the space into the spans of the even- and
    odd-position coordinate vectors; the second spans the same pair with
    every spanning vector scaled by ``delta``, which normalization
    absorbs. All four weavings are orthonormal splittings, so the pair
    is a woven Riesz decomposition.
    """
    if dim % 2 != 0:
        raise OddDimension("need an even dimension")
    if dim < 4:
        raise DimensionTooSmall("need dim >= 4")
    if delta <= 0:
        raise ToolkitError("delta must be positive")
    axes = np.eye(dim)
    even, odd = axes[1::2], axes[0::2]
    # the four spanning sets share one count: one stacked Gram-Schmidt
    w1, w2, v1, v2 = Subspace.from_bases(
        dim, orthonormalize_each([even, odd, delta * even, delta * odd])
    )
    first = FusionFrame(dim, (w1, w2), np.ones(2))
    second = FusionFrame(dim, (v1, v2), np.ones(2))
    family = WovenFamily.fusion((first, second))
    expected = {
        "first_bounds": Expected((1.0, 1.0), REFERENCE),
        "second_bounds": Expected((1.0, 1.0), REFERENCE),
        "woven_riesz_decomposition": Expected(True, REFERENCE),
        "partition_count": Expected(4, COMPUTED),
    }
    return ReferenceInstance(
        id="ex5_4",
        payload=family,
        truncation_dim=dim,
        expected=expected,
        notes=(NOTE_SECOND_FAMILY_SCALING,),
    )


def build_instance(instance_id: str, dim: int = 6, delta: float = 1.0) -> ReferenceInstance:
    """The instance to verify. ex4_1 and ex4_2 are refused before any member
    is built when their 2^dim partitions exceed the enumeration cap, since
    verifying them enumerates every partition."""
    if instance_id in ("ex4_1", "ex4_2"):
        _require_partition_count(dim, 2)
    if instance_id == "ex3_2":
        return build_ex3_2()
    if instance_id == "ex4_1":
        return build_ex4_1(dim)
    if instance_id == "ex4_2":
        return build_ex4_2(dim)
    if instance_id == "ex5_4":
        return build_ex5_4(dim, delta)
    raise ToolkitError(f"unknown instance id {instance_id!r}")


def _pair_close(actual, expected) -> bool:
    return all(abs(a - e) <= HOLD_SLACK for a, e in zip(actual, expected))


def _pair_inside(actual, stated) -> bool:
    return actual[0] >= stated[0] - HOLD_SLACK and actual[1] <= stated[1] + HOLD_SLACK


def _verify_ex3_2(inst: ReferenceInstance, want: dict) -> list[tuple]:
    family = inst.payload
    f, g = family.systems
    fb = optimal_bounds(f)
    gb = optimal_bounds(g)
    first = (fb.lower, fb.upper)
    second = (gb.lower, gb.upper)
    op = frame_operator(f)
    mb = optimal_bounds(weave(family, Partition((0, 0, 1))))
    mixed = (mb.lower, mb.upper)
    report = woven_bounds_exhaustive(family)
    return [
        ("first_valid_bounds", _pair_inside(first, want["first_valid_bounds"]), first),
        ("second_valid_bounds", _pair_inside(second, want["second_valid_bounds"]), second),
        ("first_optimal_bounds", _pair_close(first, want["first_optimal_bounds"]), first),
        ("second_optimal_bounds", _pair_close(second, want["second_optimal_bounds"]), second),
        (
            "first_frame_operator",
            float(np.abs(op - np.array(want["first_frame_operator"])).max())
            <= ENTRY_TOL,
            tuple(tuple(row) for row in op.tolist()),
        ),
        (
            "mixed_12_weaving_valid_bounds",
            _pair_inside(mixed, want["mixed_12_weaving_valid_bounds"]),
            mixed,
        ),
        (
            "mixed_12_weaving_optimal_bounds",
            _pair_close(mixed, want["mixed_12_weaving_optimal_bounds"]),
            mixed,
        ),
        ("woven", report.is_woven == want["woven"], report.is_woven),
        (
            "partition_count",
            report.partitions_examined == want["partition_count"],
            report.partitions_examined,
        ),
    ]


def _verify_ex4_1(inst: ReferenceInstance, want: dict) -> list[tuple]:
    lf, lg = inst.local_systems
    flat_f, _ = flatten_local_system(lf)
    flat_g, _ = flatten_local_system(lg)
    fb = optimal_bounds(flat_f)
    gb = optimal_bounds(flat_g)
    first = (fb.lower, fb.upper)
    second = (gb.lower, gb.upper)
    report = local_global_equivalence_report(lf, lg)
    vec = report.vector_report
    interval = (vec.universal_lower, vec.universal_upper)
    return [
        ("first_flat_bounds", _pair_close(first, want["first_flat_bounds"]), first),
        (
            "second_flat_bounds",
            _pair_inside(second, want["second_flat_bounds"])
            and _pair_close(second, want["second_flat_bounds"]),
            second,
        ),
        ("second_flat_count", flat_g.size == want["second_flat_count"], flat_g.size),
        ("woven", vec.is_woven == want["woven"], vec.is_woven),
        (
            "universal_interval_within",
            _pair_inside(interval, want["universal_interval_within"]),
            interval,
        ),
        (
            "weighted_subspace_family_woven",
            report.fusion_report.is_woven == want["weighted_subspace_family_woven"]
            and report.verdicts_agree,
            report.verdicts,
        ),
    ]


def _verify_ex4_2(inst: ReferenceInstance, want: dict) -> list[tuple]:
    lf, lg = inst.local_systems
    # the equivalence report's fusion scan is find_nonwoven_witness's scan
    # of the payload, which the same induced fusion frames make up
    report = local_global_equivalence_report(lf, lg)
    witness = report.fusion_report.witness
    rows = [("nonwoven", witness is not None, witness is not None)]
    if witness is not None:
        partition, vector, value = witness
        rows += [
            (
                "witness_assignment",
                partition.assignment == tuple(want["witness_assignment"]),
                partition.assignment,
            ),
            (
                "witness_value_at_most",
                abs(value) <= want["witness_value_at_most"],
                value,
            ),
            (
                "witness_vector_first_coordinate",
                abs(float(vector[0])) >= 1.0 - HOLD_SLACK,
                tuple(vector.tolist()),
            ),
        ]
    fb = optimal_bounds(flatten_local_system(lf)[0])
    first = (fb.lower, fb.upper)
    return rows + [
        (
            "equivalence_verdicts",
            report.verdicts == tuple(want["equivalence_verdicts"]),
            report.verdicts,
        ),
        ("first_flat_bounds", _pair_close(first, want["first_flat_bounds"]), first),
    ]


def _verify_ex5_4(inst: ReferenceInstance, want: dict) -> list[tuple]:
    first, second = inst.payload.systems
    b1 = fusion_bounds(first)
    b2 = fusion_bounds(second)
    first_bounds = (b1.lower, b1.upper)
    second_bounds = (b2.lower, b2.upper)
    report = woven_riesz_decomposition_check(inst.payload)
    return [
        ("first_bounds", _pair_close(first_bounds, want["first_bounds"]), first_bounds),
        ("second_bounds", _pair_close(second_bounds, want["second_bounds"]), second_bounds),
        (
            "woven_riesz_decomposition",
            report.all_pass == want["woven_riesz_decomposition"],
            report.all_pass,
        ),
        (
            "partition_count",
            report.partitions_examined == want["partition_count"],
            report.partitions_examined,
        ),
    ]


_VERIFIERS = {
    "ex3_2": _verify_ex3_2,
    "ex4_1": _verify_ex4_1,
    "ex4_2": _verify_ex4_2,
    "ex5_4": _verify_ex5_4,
}


def verify_instance(inst: ReferenceInstance) -> list[CheckOutcome]:
    """Run every expectation of an instance and report each outcome.

    Each verifier returns ``(name, ok, actual)`` rows in report order;
    the source tag and expected value come from ``inst.expected``.
    """
    verifier = _VERIFIERS.get(inst.id)
    if verifier is None:
        raise ToolkitError(f"unknown instance id {inst.id!r}")
    want = {name: exp.value for name, exp in inst.expected.items()}
    return [
        CheckOutcome(
            name=name,
            source=inst.expected[name].source,
            ok=bool(ok),
            expected=want[name],
            actual=actual,
        )
        for name, ok, actual in verifier(inst, want)
    ]
