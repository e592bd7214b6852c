"""Property tests on generated inputs, under fixed derandomized settings so
every run draws the same examples."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
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
from wovenframes.cli import canonical_json, parse_family_document
from wovenframes.errors import EmptyIntersection, NotAFrame
from wovenframes.linalg import stacked_spectra
from wovenframes.transforms import (
    InvertibleOperator,
    conjugation_check,
    intersection_weaving_report,
)

from helpers import (
    basis_vec,
    conjugation_residual,
    intersection_violations,
    jacobi,
    op_violation_unscreened,
    plain_values,
    proj_violation_oracle,
    random_riesz_family,
    random_subspace,
    riesz_failing,
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
    st.booleans(),
    st.integers(0, 5),
    st.integers(0, 1000),
)
def test_proj_closed_form_equals_subset_enumeration(pair, kconst, squared, samples, seed):
    w, v = pair
    if not fusion_bounds(w).is_frame:
        with pytest.raises(NotAFrame):
            proj_perturbation_check(w, v, kconst, samples, seed, squared=squared)
        # refused draws do not count: every counted example compares sums
        reject()
    cert = proj_perturbation_check(w, v, kconst, samples, seed, squared=squared)
    expected = proj_violation_oracle(w, v, kconst, samples, seed, squared)
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
    for report, matrix, values in zip(stacked_spectra(matrices), matrices, planted):
        oracle = np.sort(jacobi(0.5 * (matrix + matrix.T))[0])
        scale = 1e-10 * max(1.0, float(np.abs(values).max()))
        assert np.abs(report.eigenvalues - oracle).max() <= scale
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
