"""Canonical reference instances and their expected quantities.

Each builder returns a ReferenceInstance bundling the constructed family,
its checks in report order, and notes about quirks of the construction.
Each check is one Expected: its value, its source and its pass rule.
Sources are ``reference`` (externally given values the instance must
reproduce; the reproduction command gates on these) or ``computed``
(values the toolkit derives itself and the test suite re-derives with
independent oracles). Each verifier only computes the actual values; one
table, ``_INSTANCES``, maps every id to its builder and verifier.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionTooSmall, OddDimension, ToolkitError
from .frames import DiscreteFrame, frame_operator, optimal_bounds
from .fusion import FusionFrame, Subspace, fusion_bounds
from .linalg import orthonormalize_stack
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


def _pair_close(actual, expected) -> bool:
    return all(abs(a - e) <= HOLD_SLACK for a, e in zip(actual, expected))


def _pair_inside(actual, stated) -> bool:
    return actual[0] >= stated[0] - HOLD_SLACK and actual[1] <= stated[1] + HOLD_SLACK


def _entries_close(actual, expected) -> bool:
    return float(np.abs(np.array(actual) - np.array(expected)).max()) <= ENTRY_TOL


@dataclass(frozen=True)
class Expected:
    """One check: the expected value, its source tag, and the rule
    ``passes(actual, value)`` that decides it (equality by default)."""

    value: object
    source: str
    passes: Callable[[object, object], bool] = operator.eq


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
    mixed_root = math.sqrt(205.0)
    expected = {
        "first_valid_bounds": Expected((4.0, 22.0), REFERENCE, _pair_inside),
        "second_valid_bounds": Expected((1.0, 19.0), REFERENCE, _pair_inside),
        "first_optimal_bounds": Expected((7.0, 19.0), COMPUTED, _pair_close),
        "second_optimal_bounds": Expected((1.0, 11.0), COMPUTED, _pair_close),
        "first_frame_operator": Expected(((13.0, 6.0), (6.0, 13.0)), COMPUTED, _entries_close),
        "mixed_12_weaving_valid_bounds": Expected((4.0, 27.0), REFERENCE, _pair_inside),
        "mixed_12_weaving_optimal_bounds": Expected(
            ((23.0 - mixed_root) / 2.0, (23.0 + mixed_root) / 2.0), COMPUTED, _pair_close
        ),
        "woven": Expected(True, REFERENCE),
        "partition_count": Expected(8, REFERENCE),
    }
    return ReferenceInstance(
        id="ex3_2",
        payload=family,
        truncation_dim=None,
        expected=expected,
        notes=(NOTE_UPPER_IS_MAX,),
    )


def _shifted_pair(dim: int, first_zeros: int | None = None):
    """The coordinate local system (e_i at index i) and its one-step shifted
    enrichment (e_i and e_{i+1}, the companion dropped at the boundary),
    unit-weighted, with their induced fusion family; ``first_zeros``, when
    given, replaces the enrichment's block at the first index with that
    many zero vectors. Refused before any member is built when dim < 3."""
    if dim < 3:
        raise DimensionTooSmall("need dim >= 3")
    axes = np.eye(dim)
    seconds = [axes[i : i + 2] for i in range(dim)]
    if first_zeros is not None:
        seconds[0] = np.zeros((first_zeros, dim))
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
        "first_flat_bounds": Expected((1.0, 1.0), REFERENCE, _pair_close),
        "second_flat_bounds": Expected((1.0, 2.0), REFERENCE, _pair_close),
        "second_flat_count": Expected(2 * dim - 1, COMPUTED),
        "woven": Expected(True, REFERENCE),
        "universal_interval_within": Expected((1.0, 2.0), REFERENCE, _pair_inside),
        # the fusion verdict, with all three routes of the report agreeing
        "weighted_subspace_family_woven": Expected(
            True, REFERENCE, lambda verdicts, woven: set(verdicts) == {woven}
        ),
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
    slot); ``first_block_absent=True`` drops the slot entirely. The three
    witness checks are reported only when a witness is found.
    """
    family, local_systems = _shifted_pair(dim, 0 if first_block_absent else 1)
    expected = {
        "nonwoven": Expected(True, REFERENCE),
        "witness_assignment": Expected(tuple([1] + [0] * (dim - 1)), REFERENCE),
        "witness_value_at_most": Expected(
            EX4_2_WITNESS_BOUND, REFERENCE, lambda value, bound: abs(value) <= bound
        ),
        "witness_vector_first_coordinate": Expected(
            True, REFERENCE, lambda vector, _: abs(vector[0]) >= 1.0 - HOLD_SLACK
        ),
        "equivalence_verdicts": Expected((False, False, False), REFERENCE),
        "first_flat_bounds": Expected((1.0, 1.0), COMPUTED, _pair_close),
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
        dim, orthonormalize_stack([even, odd, delta * even, delta * odd])
    )
    first = FusionFrame(dim, (w1, w2), np.ones(2))
    second = FusionFrame(dim, (v1, v2), np.ones(2))
    family = WovenFamily.fusion((first, second))
    expected = {
        "first_bounds": Expected((1.0, 1.0), REFERENCE, _pair_close),
        "second_bounds": Expected((1.0, 1.0), REFERENCE, _pair_close),
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


def _bounds(bounds) -> tuple[float, float]:
    return bounds.lower, bounds.upper


def _verify_ex3_2(inst: ReferenceInstance) -> dict:
    family = inst.payload
    f, g = family.systems
    first = _bounds(optimal_bounds(f))
    second = _bounds(optimal_bounds(g))
    mixed = _bounds(optimal_bounds(weave(family, Partition((0, 0, 1)))))
    report = woven_bounds_exhaustive(family)
    return {
        "first_valid_bounds": first,
        "second_valid_bounds": second,
        "first_optimal_bounds": first,
        "second_optimal_bounds": second,
        "first_frame_operator": tuple(tuple(row) for row in frame_operator(f).tolist()),
        "mixed_12_weaving_valid_bounds": mixed,
        "mixed_12_weaving_optimal_bounds": mixed,
        "woven": report.is_woven,
        "partition_count": report.partitions_examined,
    }


def _verify_ex4_1(inst: ReferenceInstance) -> dict:
    lf, lg = inst.local_systems
    flat_g, _ = flatten_local_system(lg)
    report = local_global_equivalence_report(lf, lg)
    vec = report.vector_report
    return {
        "first_flat_bounds": _bounds(optimal_bounds(flatten_local_system(lf)[0])),
        "second_flat_bounds": _bounds(optimal_bounds(flat_g)),
        "second_flat_count": flat_g.size,
        "woven": vec.is_woven,
        "universal_interval_within": (vec.universal_lower, vec.universal_upper),
        "weighted_subspace_family_woven": report.verdicts,
    }


def _verify_ex4_2(inst: ReferenceInstance) -> dict:
    lf, lg = inst.local_systems
    # the equivalence report's fusion scan is find_nonwoven_witness's scan
    # of the payload, which the same induced fusion frames make up
    report = local_global_equivalence_report(lf, lg)
    witness = report.fusion_report.witness
    actual = {"nonwoven": witness is not None}
    if witness is not None:
        partition, vector, value = witness
        actual["witness_assignment"] = partition.assignment
        actual["witness_value_at_most"] = value
        actual["witness_vector_first_coordinate"] = tuple(vector.tolist())
    actual["equivalence_verdicts"] = report.verdicts
    actual["first_flat_bounds"] = _bounds(optimal_bounds(flatten_local_system(lf)[0]))
    return actual


def _verify_ex5_4(inst: ReferenceInstance) -> dict:
    first, second = inst.payload.systems
    report = woven_riesz_decomposition_check(inst.payload)
    return {
        "first_bounds": _bounds(fusion_bounds(first)),
        "second_bounds": _bounds(fusion_bounds(second)),
        "woven_riesz_decomposition": report.all_pass,
        "partition_count": report.partitions_examined,
    }


class _Entry(NamedTuple):
    build: Callable[[int], ReferenceInstance]
    verify: Callable[[ReferenceInstance], dict]


def _build_ex3_2(dim: int) -> ReferenceInstance:
    """ex3_2, which lives in the plane at any ``dim`` of at least 2."""
    if dim < 2:
        raise DimensionTooSmall("need dim >= 2")
    return build_ex3_2()


def _capped(dim: int) -> int:
    """``dim``, refused when its 2^dim partitions (verifying ex4_1 or ex4_2
    enumerates them all) exceed the cap; checked before any member is built."""
    _require_partition_count(dim, 2)
    return dim


_INSTANCES = {
    "ex3_2": _Entry(_build_ex3_2, _verify_ex3_2),
    "ex4_1": _Entry(lambda dim: build_ex4_1(_capped(dim)), _verify_ex4_1),
    "ex4_2": _Entry(lambda dim: build_ex4_2(_capped(dim)), _verify_ex4_2),
    "ex5_4": _Entry(build_ex5_4, _verify_ex5_4),
}
INSTANCE_IDS = tuple(_INSTANCES)


def _entry(instance_id: str) -> _Entry:
    entry = _INSTANCES.get(instance_id)
    if entry is None:
        raise ToolkitError(f"unknown instance id {instance_id!r}")
    return entry


def build_instance(instance_id: str, dim: int = 6) -> ReferenceInstance:
    """The instance to verify; ex3_2 has one size and ignores a ``dim`` of
    at least 2, and ex4_1 and ex4_2 are refused past the enumeration cap."""
    return _entry(instance_id).build(dim)


def verify_instance(inst: ReferenceInstance) -> list[CheckOutcome]:
    """Decide every check of an instance by its pass rule, in report
    order; a check its verifier gives no actual value is left out."""
    actual = _entry(inst.id).verify(inst)
    return [
        CheckOutcome(
            name=name,
            source=exp.source,
            ok=bool(exp.passes(actual[name], exp.value)),
            expected=exp.value,
            actual=actual[name],
        )
        for name, exp in inst.expected.items()
        if name in actual
    ]
