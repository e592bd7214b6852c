"""Property tests on generated inputs, under fixed derandomized settings so
every run draws the same examples."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wovenframes import FusionFrame, Subspace, proj_perturbation_check
from wovenframes.cli import canonical_json, parse_family_document

from helpers import plain_values, proj_violation_oracle

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
def fusion_pairs(draw):
    """Pairs sharing weights, n <= 8 members of any rank (0 included) in
    R^1..R^4, V_i a tilt of W_i from none to large."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    tilt = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
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
    cert = proj_perturbation_check(w, v, kconst, samples, seed, squared=squared)
    expected = proj_violation_oracle(w, v, kconst, samples, seed, squared)
    # the closed form and the enumeration sum in another order
    assert abs(cert.inequality_violation - expected) <= 1e-12 * (1.0 + abs(expected))


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
