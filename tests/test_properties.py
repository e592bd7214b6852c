"""Property tests on generated inputs, under fixed derandomized settings so
every run draws the same examples."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wovenframes import Subspace
from wovenframes.cli import parse_family_document

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
