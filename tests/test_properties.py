"""Property tests on generated inputs, under fixed derandomized settings so
every run draws the same examples."""

import copy
import hashlib
import itertools
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wovenframes import (
    DiscreteFrame,
    FusionFrame,
    Partition,
    Subspace,
    WovenFamily,
    frame_operator,
    fusion_bounds,
    fusion_frame_operator,
    op_perturbation_check,
    proj_perturbation_check,
    synthesis_is_onto,
    weave,
    woven_bounds_exhaustive,
    woven_riesz_decomposition_check,
)
from wovenframes import cli, linalg, perturbation, weaving
from wovenframes.cli import canonical_json, load_family, parse_family_document
from wovenframes.errors import EmptyIntersection, NotAFrame
from wovenframes.frames import _clamp_small_negative, _is_frame
from wovenframes.linalg import stacked_eigenvalues, stacked_spectra
from wovenframes.transforms import (
    InvertibleOperator,
    LocalSystem,
    conjugation_check,
    flatten_local_system,
    intersection_weaving_report,
    local_global_equivalence_report,
    remove_subset_check,
)
from wovenframes.errors import EmptyInput
from wovenframes.tolerances import HOLD_SLACK, WITNESS_EPS
from wovenframes.weaving import contribution_stacks, woven_bounds_from_contributions

from helpers import (
    all_assignments,
    basis_vec,
    conjugation_residual,
    gathered_operators,
    index_order_operators,
    intersection_violations,
    jacobi,
    local_system_oracle,
    member_operators,
    one_matrix_eigenvalues,
    op_violation_unscreened,
    plain_values,
    proj_violation_oracle,
    projector_pattern,
    random_riesz_family,
    random_subspace,
    riesz_failing,
    scan_oracle,
)

FIXED = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENTRIES = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, -2, 0.5]),
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    st.integers(-5, 5),
)


@st.composite
def spanning_lists(draw, dim: int):
    """0-4 rows in R^dim: drawn entries, all-zero rows, and rows dependent
    on earlier ones (a multiple, or the sum of two)."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["entries", "zero", "multiple", "sum"]))
        if kind == "zero" or (kind != "entries" and not rows):
            row = [draw(st.sampled_from([0.0, -0.0, 0])) for _ in range(dim)]
        elif kind == "multiple":
            base = draw(st.sampled_from(rows))
            factor = draw(st.sampled_from([-1.0, 2.0, 0.5, 3]))
            row = [factor * x for x in base]
        elif kind == "sum":
            first, second = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = [x + y for x, y in zip(first, second)]
        else:
            row = [draw(ENTRIES) for _ in range(dim)]
        rows.append(row)
    return rows


@st.composite
def fusion_documents(draw):
    dim = draw(st.integers(1, 8))
    members = draw(st.integers(1, 6))
    systems = [
        {
            "weights": [draw(st.floats(0.1, 10.0)) for _ in range(members)],
            "subspaces": [
                {"spanning": draw(spanning_lists(dim))} for _ in range(members)
            ],
        }
        for _ in range(2)
    ]
    return {"dim": dim, "kind": "fusion", "systems": systems}


@FIXED
@given(fusion_documents())
def test_ingested_bases_equal_per_member_orthonormalization(doc):
    family = parse_family_document(doc)
    dim = doc["dim"]
    for system, sys_doc in zip(family.systems, doc["systems"]):
        assert system.weights.tobytes() == np.array(sys_doc["weights"]).tobytes()
        for sub, sub_doc in zip(system.subspaces, sys_doc["subspaces"]):
            expected = Subspace.from_spanning(dim, sub_doc["spanning"])
            assert sub.basis.shape == expected.basis.shape
            # byte comparison also tells -0.0 from +0.0
            assert sub.basis.tobytes() == expected.basis.tobytes()


@st.composite
def local_vector_lists(draw):
    """(dim, lists): 1-6 blocks of ``spanning_lists`` in R^1..R^5, so the
    blocks mix their counts (0 included) and hold zero rows anywhere,
    -0.0 entries and dependent rows."""
    dim = draw(st.integers(1, 5))
    return dim, [draw(spanning_lists(dim)) for _ in range(draw(st.integers(1, 6)))]


# a zero vector before a nonzero one, -0.0 entries, an all -0.0 vector,
# an empty block and a dependent one, all at different counts
MIXED_BLOCKS = (
    3,
    [
        [[0.0, 0.0, 0.0], [1.0, -0.0, 2.0]],
        [],
        [[1.0, 1.0, -0.0], [2.0, 2.0, -0.0], [-0.0, 0.0, 3.0]],
        [[-0.0, -0.0, -0.0]],
    ],
)
# ex4_2 with first_block_absent: the second system's first block is empty
SHIFTED_FIRST_ABSENT = (6, [[]] + [[np.eye(6)[i], np.eye(6)[i + 1]] for i in range(1, 5)] + [[np.eye(6)[5]]])


@FIXED
@example(MIXED_BLOCKS, 0.5)
@example(SHIFTED_FIRST_ABSENT, 1.0)
@given(local_vector_lists(), st.floats(0.1, 10.0))
def test_local_system_build_equals_the_per_block_oracle(case, scale):
    dim, lists = case
    system = LocalSystem.build(dim, lists, scale * (1.0 + np.arange(len(lists))))
    bases, bounds, projectors = local_system_oracle(dim, lists)
    assert len(system.bases) == len(bases)
    for got, want in zip(system.bases, bases):
        # byte comparison also tells -0.0 from +0.0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert [None if b is None else np.array(b).tobytes() for b in system.local_bounds] == [
        None if b is None else np.array(b).tobytes() for b in bounds
    ]
    assert system.fusion_frame.projectors.tobytes() == projectors.tobytes()
    # the flattened frame against the row-by-row loop
    rows = [w * np.asarray(v, float) for vectors, w in zip(lists, system.weights) for v in vectors]
    if rows:
        flat, index_map = flatten_local_system(system)
        assert flat.vectors.tobytes() == np.array(rows).tobytes()
        assert index_map == tuple((i, j) for i, vectors in enumerate(lists) for j in range(len(vectors)))


@st.composite
def local_system_pairs(draw):
    """(dim, first lists, second lists): a ``local_vector_lists`` case and
    a second system of as many blocks in the same dim."""
    dim, lists = draw(local_vector_lists())
    return dim, lists, [draw(spanning_lists(dim)) for _ in lists]


@settings(FIXED, max_examples=150)
@example((*SHIFTED_FIRST_ABSENT, [[v] for v in np.eye(6)]))
@given(local_system_pairs())
def test_the_lazy_bound_chain_equals_the_eager_formula(case):
    dim, first, second = case
    lf, lg = (LocalSystem.build(dim, lists, np.ones(len(lists))) for lists in (first, second))
    nontrivial = [
        [b for b in local_system_oracle(dim, lists)[1] if b is not None] for lists in (first, second)
    ]
    if not all(nontrivial):
        with pytest.raises(EmptyInput, match="no nontrivial local system present"):
            local_global_equivalence_report(lf, lg)
        return
    report = local_global_equivalence_report(lf, lg)
    assert all("local_bounds" not in vars(s) for s in (lf, lg))
    floor = min(min(low for low, _ in bounds) for bounds in nontrivial)
    ceiling = max(max(high for _, high in bounds) for bounds in nontrivial)
    l_vec = report.vector_report.universal_lower
    l_fus = report.fusion_report.universal_lower
    chain_ok = l_vec >= floor * l_fus - HOLD_SLACK and l_fus >= l_vec / ceiling - HOLD_SLACK
    assert struct.pack("<d", report.lower_floor) == struct.pack("<d", floor)
    assert struct.pack("<d", report.upper_ceiling) == struct.pack("<d", ceiling)
    assert report.chain_ok is chain_ok


@st.composite
def fusion_pairs(draw, tilts=(0.0, 1e-3, 0.1, 1.0)):
    """Pairs sharing weights, n <= 8 members of any rank (0 included) in
    R^1..R^4, V_i a tilt of W_i drawn from ``tilts``; a tilt of None
    pairs W with itself."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    tilt = draw(st.sampled_from(tilts))
    if tilt is None:
        w = draw(fusion_pairs(tilts=(0.0,)))[0]
        return w, w
    weights = rng.uniform(0.5, 1.5, n)
    pair = [[], []]
    for _ in range(n):
        span = rng.standard_normal((draw(st.integers(0, dim)), dim))
        moved = span + tilt * rng.standard_normal(span.shape)
        for members, rows in zip(pair, (span, moved)):
            members.append(Subspace.from_spanning(dim, list(rows)))
    return tuple(FusionFrame(dim, tuple(members), weights) for members in pair)


@FIXED
@given(
    fusion_pairs(),
    st.sampled_from([0.05, 0.5, 2.0]),
    st.integers(0, 5),
    st.integers(0, 1000),
)
def test_proj_closed_form_equals_subset_enumeration(pair, kconst, samples, seed):
    w, v = pair
    if not fusion_bounds(w).is_frame:
        with pytest.raises(NotAFrame):
            proj_perturbation_check(w, v, kconst, samples, seed)
        # refused draws do not count: every counted example compares sums
        reject()
    cert = proj_perturbation_check(w, v, kconst, samples, seed)
    expected = proj_violation_oracle(w, v, kconst, samples, seed)
    # the closed form and the enumeration sum in another order
    assert abs(cert.inequality_violation - expected) <= 1e-12 * (1.0 + abs(expected))


# all constants 0, each one alone, and all 0.02
OP_CONSTANTS = [(0.0, 0.0, 0.0), (0.02, 0.0, 0.0), (0.0, 0.02, 0.0), (0.0, 0.0, 0.02), (0.02,) * 3]


@settings(FIXED, max_examples=200)
@given(
    fusion_pairs(tilts=(None, 0.0, 1e-10, 1.0)),
    st.sampled_from(OP_CONSTANTS),
    st.integers(0, 5),
    st.integers(0, 1000),
)
def test_screened_op_equals_the_unscreened_fold(pair, constants, samples, seed):
    w, v = pair
    if not fusion_bounds(w).is_frame:
        with pytest.raises(NotAFrame):
            op_perturbation_check(w, v, *constants, samples, seed)
        reject()
    cert = op_perturbation_check(w, v, *constants, samples, seed)
    expected = op_violation_unscreened(w, v, *constants, samples, seed)
    # bit for bit, the sign of a zero included
    assert np.float64(cert.inequality_violation).tobytes() == np.float64(expected).tobytes()


def loop_slack(parts, mask, sample, lam, mu, gamma) -> float:
    """One pair's ``op`` slack in Python floats: the parts times the mask's
    0/1 entries added in index order from +0.0, each sum's d squares in
    entry order, then the four norms combined."""
    n, rows, _ = parts.shape
    sums = [0.0] * rows
    for i in range(n):
        for r in range(rows):
            sums[r] = sums[r] + float(parts[i, r, sample]) * float(mask[i])
    squares = [0.0, 0.0, 0.0]
    for e in range(rows // 3):
        for j in range(3):
            squares[j] = squares[j] + sums[3 * e + j] * sums[3 * e + j]
    norm_a, norm_b, norm_d = map(math.sqrt, squares)
    u_norm = math.sqrt(sums[-1] if sums[-1] > 0.0 else 0.0)
    return ((norm_d - lam * norm_a) - mu * norm_b) - gamma * u_norm


@settings(FIXED, max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 14),
    st.integers(1, 6),
    st.integers(1, 9),
    st.integers(1, 40),
    st.sampled_from(OP_CONSTANTS + [(0.5, 0.3, 0.9)]),
)
def test_op_kernel_gives_a_pair_the_same_bits_alone_and_in_any_batch(
    seed, n, d, count, pairs, constants
):
    rng = np.random.default_rng(seed)
    # entries over 32 binades, with zeros of both signs, as cancelling sums
    # and tiny members give
    shape = (n, 3 * d + 1, count)
    parts = rng.standard_normal(shape) * 2.0 ** rng.integers(-16, 17, shape)
    zeros = rng.random(shape) < 0.1
    parts[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
    masks = rng.integers(0, 2, (pairs, n)).astype(float)
    samples = rng.integers(0, count, pairs)
    order = rng.permutation(pairs)
    batch = perturbation._op_slacks(parts, masks, samples, *constants)
    shuffled = perturbation._op_slacks(parts, masks[order], samples[order], *constants)
    alone = [
        perturbation._op_slacks(parts, masks[k : k + 1], samples[k : k + 1], *constants)
        for k in range(pairs)
    ]
    assert batch.tobytes() == np.concatenate(alone).tobytes()
    assert batch[order].tobytes() == shuffled.tobytes()
    expected = [loop_slack(parts, masks[k], samples[k], *constants) for k in range(pairs)]
    assert batch.tobytes() == np.array(expected).tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FINITE32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
REPORT_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    FINITE,
    st.text(max_size=4),
    FINITE.map(np.float64),
    FINITE32.map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(np.float64, SHAPES, elements=FINITE),
    hnp.arrays(np.float32, SHAPES, elements=FINITE32),
    hnp.arrays(np.int64, SHAPES),
    hnp.arrays(np.bool_, SHAPES),
    st.lists(st.integers(0, 3), max_size=4).map(Partition),
)
REPORTS = st.recursive(
    REPORT_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=20,
)


@FIXED
@given(REPORTS)
def test_encoder_hook_equals_the_plain_value_walk(payload):
    assert canonical_json(payload) == canonical_json(plain_values(payload))


EXTREME_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308]


@pytest.mark.parametrize("x", EXTREME_FLOATS)
def test_extreme_floats_encode_as_python_floats(x):
    payload = {"scalar": np.float64(x), "array": np.array([x, -x]), "plain": x}
    assert canonical_json(payload) == canonical_json(plain_values(payload))
    assert canonical_json(np.float64(x)) == repr(x)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.datetime64("2000-01-01")])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        canonical_json({"report": value})


@pytest.mark.parametrize("value", [np.float64("nan"), np.array([1.0, np.nan]), np.float32("inf")])
def test_non_finite_values_raise_value_error(value):
    with pytest.raises(ValueError):
        canonical_json({"report": value})


@st.composite
def woven_families(draw):
    """Discrete or fusion families with m in {2, 3}, n <= 6 and d <= 4.
    Vectors are Gaussian and members Gaussian spans of rank 1..d, with
    zero vectors or rank-0 members mixed in so that some families are
    not woven."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["discrete", "fusion"]))
    d, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(2, 3))
    zero_share = draw(st.sampled_from([0.0, 0.3]))
    systems = []
    for _ in range(m):
        kept = rng.random(n) >= zero_share
        if kind == "discrete":
            systems.append(DiscreteFrame(d, rng.standard_normal((n, d)) * kept[:, None]))
        else:
            spans = [rng.standard_normal((int(rng.integers(1, d + 1)) * k, d)) for k in kept]
            subs = tuple(Subspace.from_spanning(d, list(span)) for span in spans)
            systems.append(FusionFrame(d, subs, rng.uniform(0.5, 2.0, n)))
    return WovenFamily(kind, tuple(systems))


def weaving_eigenvalues(family: WovenFamily, p: Partition) -> np.ndarray:
    """The weaving's spectrum through its own operator and ``eigvalsh``,
    apart from the contribution stacks the scans use."""
    woven = weave(family, p)
    if family.kind == "discrete":
        return np.linalg.eigvalsh(frame_operator(woven))
    return np.linalg.eigvalsh(fusion_frame_operator(woven))


def scaled(family: WovenFamily, c: float) -> WovenFamily:
    """Every contribution times c^2: vectors times c, or weights times c."""
    if family.kind == "discrete":
        return WovenFamily.discrete(DiscreteFrame(s.dim, c * s.vectors) for s in family.systems)
    return WovenFamily.fusion(
        FusionFrame(s.dim, s.subspaces, c * s.weights) for s in family.systems
    )


def assert_bounds_close(found, expected, factor: float = 1.0) -> None:
    """Both universal bounds equal ``factor`` times the expected ones,
    within 1e-12 relative to the upper bound, the spectral scale: the
    eigenvalues near 0 of a non-woven family carry rounding of that size."""
    scale = 1e-12 * factor * expected.universal_upper
    assert abs(found.universal_lower - factor * expected.universal_lower) <= scale
    assert abs(found.universal_upper - factor * expected.universal_upper) <= scale


@FIXED
@given(woven_families(), st.integers(0, 1000))
def test_every_weaving_lies_inside_the_universal_interval(family, seed):
    report = woven_bounds_exhaustive(family)
    slack = 1e-12 * max(1.0, report.universal_upper)
    rng = np.random.default_rng(seed)
    for assignment in rng.integers(0, family.m, size=(20, family.n)):
        values = weaving_eigenvalues(family, Partition(assignment))
        assert values[0] >= report.universal_lower - slack
        assert values[-1] <= report.universal_upper + slack


@FIXED
@given(woven_families(), st.randoms(use_true_random=False))
def test_permuting_the_indices_keeps_the_universal_bounds(family, random):
    order = list(range(family.n))
    random.shuffle(order)
    report = woven_bounds_exhaustive(family)
    assert_bounds_close(woven_bounds_exhaustive(family.restrict(order)), report)


@FIXED
@given(woven_families(), st.sampled_from([1e-3, 0.5, 0.7, 3.0, 1e3]))
def test_scaling_the_contributions_scales_the_bounds_quadratically(family, c):
    report = woven_bounds_exhaustive(family)
    assert_bounds_close(woven_bounds_exhaustive(scaled(family, c)), report, c * c)


@st.composite
def scan_families(draw):
    """Discrete or fusion families with d <= 4, n <= 8 and m in {2, 3}:
    Gaussian vectors and spans of rank 1..d, or degenerate coordinate
    families whose vectors are signed or doubled coordinate axes and whose
    members are coordinate subspaces, repeated across indices and systems,
    so that many weavings are singular and many tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["discrete", "fusion"]))
    coordinate = draw(st.booleans())
    d, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(2, 3))
    axes = np.eye(d)
    systems = []
    for _ in range(m):
        if kind == "discrete" and coordinate:
            scale = rng.choice([1.0, -1.0, 2.0], size=(n, 1))
            systems.append(DiscreteFrame(d, axes[rng.integers(0, d, n)] * scale))
        elif kind == "discrete":
            systems.append(DiscreteFrame(d, rng.standard_normal((n, d))))
        else:
            ranks = rng.integers(1, d + 1, n)
            if coordinate:
                spans = [axes[rng.choice(d, k, replace=False)] for k in ranks]
                subs = tuple(Subspace.from_spanning(d, list(span)) for span in spans)
                weights = rng.choice([1.0, 2.0], n)
            else:
                subs = tuple(random_subspace(rng, d, int(k)) for k in ranks)
                weights = rng.uniform(0.5, 2.0, n)
            systems.append(FusionFrame(d, subs, weights))
    return WovenFamily(kind, tuple(systems))


@settings(FIXED, max_examples=150)
@given(scan_families(), st.sampled_from([WITNESS_EPS, 0.5]))
def test_values_only_scan_agrees_with_the_full_solve(family, eps):
    # the scan solves values only; the oracle is the full eigh kernel, one
    # sym_eig per partition, whose values agree with the scan's to rounding
    report = woven_bounds_exhaustive(family, eps=eps)
    stacks = contribution_stacks(family)
    index = np.arange(family.n)
    assignments = list(all_assignments(family.n, family.m))
    # stacked_spectra's report k is sym_eig's on matrix k bit for bit
    operators = np.array([stacks[index, list(a)].sum(axis=0) for a in assignments])
    spectra = list(zip(assignments, stacked_spectra(operators)))
    lowest = min(spec.smallest for _, spec in spectra)
    highest = max(spec.largest for _, spec in spectra)
    scale = 1e-12 * (1.0 + highest)
    assert abs(report.universal_upper - highest) <= scale
    assert abs(report.universal_lower - _clamp_small_negative(lowest, highest)) <= scale
    assert report.is_woven == _is_frame(_clamp_small_negative(lowest, highest), highest)
    first = next((a for a, spec in spectra if spec.smallest < eps), None)
    if first is None:
        assert report.witness is None
        return
    partition, vector, value = report.witness
    assert partition.assignment == first
    assert value < eps
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12
    if partition == report.worst_partition:
        clamped = _clamp_small_negative(value, report.universal_upper)
        assert np.float64(clamped).tobytes() == np.float64(report.universal_lower).tobytes()


def band_family(rng: np.random.Generator, t: float) -> WovenFamily:
    """Two systems of the same d random lines in R^d, d = n in 2..5, except
    that the second system's line j is line i tilted by t: the weavings
    that take line i and the tilted line have a smallest eigenvalue of
    order t^2, inside the frame rule's tolerance band for t <= 1e-6."""
    d = int(rng.integers(2, 6))
    lines = rng.standard_normal((d, d))
    i, j = rng.choice(d, 2, replace=False)
    tilted = lines.copy()
    tilted[j] = lines[i] + t * rng.standard_normal(d)
    systems = tuple(
        FusionFrame(d, tuple(Subspace.from_spanning(d, [row]) for row in rows), rng.uniform(0.5, 2.0, d))
        for rows in (lines, tilted)
    )
    return WovenFamily.fusion(systems)


@FIXED
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 1e-6, 1e-7, 1e-9]))
def test_riesz_check_and_spanning_verdicts_take_the_frame_rule(seed, t):
    rng = np.random.default_rng(seed)
    if t is None:
        d, n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(2, 4))
        family = random_riesz_family(rng, d, n, m)
    else:
        family = band_family(rng, t)
    report = woven_riesz_decomposition_check(family)
    failing = riesz_failing(family)
    assert report.failing_count == len(failing)
    assert report.first_failing == (failing[0] if failing else None)
    if report.all_pass:
        assert woven_bounds_exhaustive(family).is_woven
    for system in family.systems:
        assert synthesis_is_onto(system) == fusion_bounds(system).is_frame
    for p in failing[:8]:
        weaving = weave(family, p)
        assert synthesis_is_onto(weaving) == fusion_bounds(weaving).is_frame


POSITIVE = st.floats(0.1, 10.0)


@st.composite
def coordinate_conjugations(draw):
    """A fusion pair of coordinate subspaces (ranks 0..d, axes in drawn
    order), drawn weights, a diagonal positive E, which keeps every member
    invariant, and a partition."""
    dim = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    axes = st.lists(st.integers(0, dim - 1), max_size=dim, unique=True)
    systems = []
    for _ in range(2):
        subs = tuple(
            Subspace.from_spanning(dim, [basis_vec(dim, i) for i in draw(axes)])
            for _ in range(n)
        )
        weights = [draw(POSITIVE) for _ in range(n)]
        systems.append(FusionFrame(dim, subs, weights))
    op = InvertibleOperator.from_matrix(np.diag([draw(POSITIVE) for _ in range(dim)]))
    assignment = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return op, WovenFamily.fusion(tuple(systems)), Partition(assignment)


@settings(FIXED, max_examples=300)
@given(coordinate_conjugations())
def test_conjugation_check_equals_the_woven_family_residual(case):
    op, family, p = case
    assert conjugation_check(op, family, p) == conjugation_residual(op, family, p)


@st.composite
def planted_spectra(draw):
    """1-3 symmetric matrices Q diag(values) Q^T of one size d in 1..12, Q
    a seeded random orthogonal matrix, and their planted ascending
    spectra: values drawn from a pool of at most three, so zeros and
    repeated eigenvalues are common."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 12))
    values = st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e-3]) | st.floats(-10.0, 10.0)
    pool = draw(st.lists(values, min_size=1, max_size=3))
    matrices, spectra = [], []
    for _ in range(draw(st.integers(1, 3))):
        values = np.array([draw(st.sampled_from(pool)) for _ in range(d)])
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        matrices.append((q * values) @ q.T)
        spectra.append(np.sort(values))
    return np.array(matrices), spectra


@FIXED
@given(planted_spectra())
def test_stacked_spectra_agree_with_the_jacobi_oracle(case):
    matrices, planted = case
    spectra = zip(stacked_spectra(matrices), stacked_eigenvalues(matrices))
    for (report, only), matrix, values in zip(spectra, matrices, planted):
        oracle = np.sort(jacobi(0.5 * (matrix + matrix.T))[0])
        scale = 1e-10 * max(1.0, float(np.abs(values).max()))
        assert np.abs(report.eigenvalues - oracle).max() <= scale
        assert np.abs(only - oracle).max() <= scale
        assert np.abs(report.eigenvalues - values).max() <= scale
        assert report.residual <= scale


@st.composite
def intersection_cases(draw):
    """A fusion family with m in {2, 3}, d in 2..5 and n in 1..5, members
    of rank 1..d that are random or coordinate subspaces, and a random or
    coordinate target K of rank 1..d."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n, m = draw(st.integers(2, 5)), draw(st.integers(1, 5)), draw(st.sampled_from([2, 3]))

    def subspace(coordinate: bool, rank: int) -> Subspace:
        if coordinate:
            return Subspace.from_spanning(d, [basis_vec(d, i) for i in rng.permutation(d)[:rank]])
        return random_subspace(rng, d, rank)

    coordinate_members = draw(st.booleans())
    systems = tuple(
        FusionFrame(
            d,
            tuple(subspace(coordinate_members, int(rng.integers(1, d + 1))) for _ in range(n)),
            rng.uniform(0.5, 2.0, n),
        )
        for _ in range(m)
    )
    target = subspace(draw(st.booleans()), draw(st.integers(1, d)))
    return WovenFamily.fusion(systems), target


@settings(FIXED, max_examples=200)
@given(intersection_cases(), st.integers(1, 20), st.integers(0, 1000))
def test_intersection_report_equals_the_partition_loop(case, samples, seed):
    family, k = case
    try:
        report = intersection_weaving_report(family, k, samples, seed)
    except EmptyIntersection:
        reject()
    low, high = intersection_violations(family, k, samples, seed)
    # the closed form and the loop sum each weaving in another order
    assert abs(report.max_lower_violation - low) <= 1e-12 * (1.0 + abs(low))
    assert abs(report.max_upper_violation - high) <= 1e-12 * (1.0 + abs(high))


@settings(FIXED, max_examples=100)
@given(intersection_cases(), st.data())
def test_removal_and_intersection_read_the_member_loops(case, data):
    # neither path has a CLI command, so the report diff cannot see them
    family, k = case
    pair = WovenFamily.fusion(family.systems[:2])
    removed = data.draw(st.sets(st.integers(0, pair.n - 1), max_size=pair.n - 1))
    report = remove_subset_check(pair, removed)
    parts = member_operators(pair.systems[0])[list(report.removed)]
    expected = one_matrix_eigenvalues(parts.sum(axis=0))[-1]
    assert np.float64(report.partial_upper).tobytes() == np.float64(expected).tobytes()
    try:
        holds = intersection_weaving_report(family, k, 1).projector_pattern_holds
    except EmptyIntersection:
        return
    assert holds == projector_pattern(family, k)


@st.composite
def symmetric_stacks(draw):
    """(n, m, d, d) stacks of symmetric matrices, d 1-6, m 2-3 and n 1-13
    (1-8 at m = 3): Gaussian entries scaled by 2^-8..2^8, about 17
    binades, with about a fifth of them -0.0, and a chunk size of 1-40
    leaves."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.sampled_from([2, 3]))
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 13 if m == 2 else 8))
    raw = rng.standard_normal((n, m, d, d)) * np.exp2(rng.integers(-8, 9, (n, m, d, d)))
    raw[rng.random(raw.shape) < 0.2] = -0.0
    row, col = np.indices((d, d))
    # mirrored, not added, so every -0.0 stays
    return np.where(row <= col, raw, np.swapaxes(raw, -1, -2)), draw(st.integers(1, 40))


@FIXED
@given(symmetric_stacks())
def test_prefix_tree_sums_equal_the_index_order_accumulation(case):
    stacks, leaves = case
    n, m, d = stacks.shape[:3]
    every = np.array(list(all_assignments(n, m)))
    ranks = np.random.default_rng(n * m * d).integers(0, d + 1, (n, m))
    trees = zip(weaving._prefix_sums(stacks, leaves), weaving._prefix_sums(ranks, leaves))
    start = 0
    for (first, sums), (rank_first, rank_sums) in trees:
        assert first == rank_first == start and 1 <= len(sums) <= leaves
        chunk = every[first : first + len(sums)]
        expected = index_order_operators(stacks, chunk)
        assert sums.tobytes() == expected.tobytes()
        assert weaving._weaving_operators(stacks, chunk).tobytes() == expected.tobytes()
        if d >= 2:
            # numpy's gathered sum adds a non-innermost axis in index order
            assert sums.tobytes() == gathered_operators(stacks, chunk).tobytes()
        assert np.array_equal(rank_sums, ranks[np.arange(n), chunk].sum(axis=1))
        start += len(sums)
    assert start == m**n


@FIXED
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_exhaustive_scan_matches_the_oracle_at_any_chunk_size(seed, rows):
    """Bounds, first extremal partitions (ties included: half the families
    repeat a system) and the first witness, whatever the chunk size."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    d, n = int(rng.integers(1, 5)), int(rng.integers(1, 11 if m == 2 else 7))
    vectors = rng.standard_normal((n, m, d)) * (rng.random((n, m, 1)) > 0.3)
    if rng.random() < 0.5:
        vectors[:, 1:] = vectors[:, :1]
    stacks = vectors[..., :, None] * vectors[..., None, :]
    eps = float(rng.uniform(0.0, 2.0)) or 1.0
    budget = linalg.CHUNK_FLOATS
    linalg.CHUNK_FLOATS = rows * d * d
    try:
        report = woven_bounds_from_contributions(stacks, eps=eps)
    finally:
        linalg.CHUNK_FLOATS = budget
    expected = scan_oracle(stacks, all_assignments(n, m), eps)
    assert report.partitions_examined == expected["count"] == m**n
    assert report.universal_upper == expected["upper"]
    assert report.universal_lower == _clamp_small_negative(expected["lower"], expected["upper"])
    assert report.worst_partition.assignment == expected["worst"]
    assert report.best_upper_partition.assignment == expected["best"]
    if expected["witness"] is None:
        assert report.witness is None
    else:
        partition, vector, value = report.witness
        assert partition.assignment == expected["witness"][0]
        assert vector.tobytes() == expected["witness"][1].tobytes()
        assert value == expected["witness"][2]


@st.composite
def digest_documents(draw):
    """Discrete or fusion documents of 2-3 systems in R^1..R^4: float and
    integer entries, and 0-3 rows per fusion member."""
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["discrete", "fusion"]))

    def rows(k):
        return [[draw(ENTRIES) for _ in range(dim)] for _ in range(k)]

    systems = []
    for _ in range(draw(st.integers(2, 3))):
        if kind == "discrete":
            systems.append({"vectors": rows(count)})
        else:
            weights = [draw(st.floats(0.1, 10.0)) for _ in range(count)]
            subspaces = [{"spanning": rows(draw(st.integers(0, 3)))} for _ in range(count)]
            systems.append({"weights": weights, "subspaces": subspaces})
    return {"dim": dim, "kind": kind, "systems": systems}


def digest_of(text: str) -> str:
    """``load_family``'s digest of a document file holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_family(path)[1]


def dump(value, spell=repr, reverse=False) -> str:
    """Compact JSON with every float written by ``spell``, and each
    object's keys reversed when ``reverse`` is set."""
    if isinstance(value, dict):
        items = list(value.items())[::-1] if reverse else value.items()
        return "{" + ",".join(f"{json.dumps(k)}:{dump(v, spell, reverse)}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(dump(v, spell, reverse) for v in value) + "]"
    if isinstance(value, float):
        return spell(value)
    return json.dumps(value)


def padded(x: float) -> str:
    """repr(x) with a trailing zero on its mantissa: 0.50, 1.00e-05."""
    mantissa, _, exponent = repr(x).partition("e")
    mantissa += "0" if "." in mantissa else ".00"
    return mantissa + ("e" + exponent if exponent else "")


def integral(x: float) -> str:
    """An integral float other than -0.0 as an integer, 3.0 as 3."""
    return str(int(x)) if x.is_integer() and repr(x) != "-0.0" else repr(x)


SPELLINGS = (repr, lambda x: format(x, ".16E"), padded, integral)


def schema_entries(doc):
    """(list, index, is a weight) of every number the schema reads."""
    for sys_doc in doc["systems"]:
        if doc["kind"] == "discrete":
            rows = sys_doc["vectors"]
        else:
            yield from ((sys_doc["weights"], i, True) for i in range(len(sys_doc["weights"])))
            rows = [row for sub in sys_doc["subspaces"] for row in sub["spanning"]]
        yield from ((row, i, False) for row in rows for i in range(len(row)))


def shape_document(doc) -> dict:
    """The document with each schema number list replaced by its shape."""
    dim = doc["dim"]
    systems = []
    for sys_doc in doc["systems"]:
        if doc["kind"] == "discrete":
            systems.append({**sys_doc, "vectors": [len(sys_doc["vectors"]), dim]})
            continue
        subspaces = [{**sub, "spanning": [len(sub["spanning"]), dim]} for sub in sys_doc["subspaces"]]
        systems.append({**sys_doc, "subspaces": subspaces, "weights": [len(sys_doc["weights"])]})
    return {**doc, "systems": systems}


def rule_digest(doc) -> str:
    """The v2 rule from the document alone: the prefix, the shape
    document's canonical JSON, then every schema list's float64 entries,
    system by system: vectors, or the members' spanning rows, then the
    weights."""
    digest = hashlib.sha256(b"wovenframes-digest-v2\n")
    digest.update(canonical_json(shape_document(doc)).encode("utf-8"))
    for sys_doc in doc["systems"]:
        if doc["kind"] == "discrete":
            lists = [sys_doc["vectors"]]
        else:
            lists = [sub["spanning"] for sub in sys_doc["subspaces"]] + [sys_doc["weights"]]
        for values in lists:
            digest.update(b"".join(struct.pack("<d", x) for x in np.ravel(values)))
    return digest.hexdigest()


@FIXED
@given(digest_documents())
def test_digest_is_the_v2_rule_and_encodes_no_schema_list(doc):
    # canonical_json sees the shape document alone: a later change that
    # encodes the schema's number lists again fails here
    seen = []

    def spy(obj):
        seen.append(obj)
        return encode(obj)

    encode = cli.canonical_json
    cli.canonical_json = spy
    try:
        digest = digest_of(json.dumps(doc))
    finally:
        cli.canonical_json = encode
    assert seen == [shape_document(doc)]
    assert digest == rule_digest(doc)


@FIXED
@given(digest_documents(), st.sampled_from(range(len(SPELLINGS))), st.integers(0, 4))
def test_formatting_keeps_the_digest(doc, spelling, indent):
    expected = digest_of(json.dumps(doc))
    assert digest_of(json.dumps(doc, indent=indent)) == expected
    assert digest_of(dump(doc, reverse=True)) == expected
    assert digest_of(dump(doc, SPELLINGS[spelling])) == expected


def flip_last_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


@FIXED
@given(digest_documents(), st.integers(0, 2**16))
def test_changing_an_entry_moves_the_digest(doc, pick):
    entries = list(schema_entries(doc))
    values, index, weight = entries[pick % len(entries)]
    expected = digest_of(json.dumps(doc))
    values[index] = flip_last_bit(float(values[index]))
    assert digest_of(json.dumps(doc)) != expected
    if weight:
        return  # weights are positive: no zero to re-sign
    values[index] = 0.0
    positive = digest_of(json.dumps(doc))
    values[index] = 0
    assert digest_of(json.dumps(doc)) == positive
    values[index] = -0.0
    assert digest_of(json.dumps(doc)) != positive


def moved_row(doc, source, target):
    """A copy of a fusion document with the last row of member ``source``
    moved to the front of member ``target``, each a (system, member)."""
    doc = copy.deepcopy(doc)
    (s0, k0), (s1, k1) = source, target
    row = doc["systems"][s0]["subspaces"][k0]["spanning"].pop()
    doc["systems"][s1]["subspaces"][k1]["spanning"].insert(0, row)
    return doc


@FIXED
@given(digest_documents())
def test_moving_a_row_moves_the_digest(doc):
    expected = digest_of(json.dumps(doc))
    systems = doc["systems"]
    if doc["kind"] == "discrete":
        # systems share the vector count: their last rows trade places
        first, second = systems[0]["vectors"], systems[1]["vectors"]
        if first[-1] == second[-1]:
            reject()
        first[-1], second[-1] = second[-1], first[-1]
        assert digest_of(json.dumps(doc)) != expected
        return
    count = len(systems[0]["weights"])
    nonempty = [
        (s, k) for s in range(len(systems)) for k in range(count)
        if systems[s]["subspaces"][k]["spanning"]
    ]
    if not nonempty:
        reject()
    s, k = nonempty[0]
    if k + 1 < count:
        # the same float64 bytes in the same order: only the shapes differ
        assert digest_of(json.dumps(moved_row(doc, (s, k), (s, k + 1)))) != expected
    other = ((s + 1) % len(systems), k)
    assert digest_of(json.dumps(moved_row(doc, (s, k), other))) != expected


@FIXED
@given(digest_documents(), st.sampled_from(["top", "system", "member"]), st.integers(0, 2))
def test_changing_an_ignored_field_moves_the_digest(doc, level, note):
    key = "note"
    if level == "top":
        holder = doc
    elif level == "system":
        # a schema key of the other kind is an ignored field too
        holder = doc["systems"][-1]
        key = "weights" if doc["kind"] == "discrete" else "vectors"
    elif doc["kind"] == "fusion":
        holder = doc["systems"][0]["subspaces"][0]
    else:
        reject()
    digests = {digest_of(json.dumps(doc))}
    for value in (note, [note, 1.5], [[note, 1.5]]):
        holder[key] = value
        digests.add(digest_of(json.dumps(doc)))
    assert len(digests) == 4
