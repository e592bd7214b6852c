"""The report comparison of tools/outdiff.py on planted differences."""

import copy
import importlib.util
import json
import os

import numpy as np
import pytest

from wovenframes import (
    find_nonwoven_witness,
    op_perturbation_check,
    proj_perturbation_check,
    pw_check,
    woven_bounds_exhaustive,
    woven_bounds_sampled,
    woven_riesz_decomposition_check,
)
from wovenframes.errors import NotAFrame
from wovenframes.cli import main, parse_family_document
from wovenframes.linalg import chunk_rows, chunk_slices
from wovenframes.perturbation import _SUBSET_CAP
from wovenframes.weaving import PARTITION_CAP, contribution_stacks

from helpers import gathered_operators, index_order_sum, riesz_failing

_TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "outdiff.py")
_spec = importlib.util.spec_from_file_location("outdiff", _TOOL)
outdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outdiff)

# swapping coordinate bases: the weaving (0, 1) misses e_1
NONWOVEN_DOC = {
    "dim": 2,
    "kind": "discrete",
    "systems": [
        {"vectors": [[1, 0], [0, 1]]},
        {"vectors": [[0, 1], [1, 0]]},
    ],
}


@pytest.fixture
def report(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(NONWOVEN_DOC))
    code = main(["woven", str(path)])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["witness"]["partition"] == [0, 1]
    return doc


def test_identical_reports_pass(report):
    assert outdiff.compare(report, copy.deepcopy(report)) == []
    run = (1, json.dumps(report) + "\n", "")
    assert outdiff.compare_runs(run, run) == []


def test_last_bit_float_change_passes(report):
    moved = copy.deepcopy(report)
    moved["report"]["universal_upper"] *= 1.0 + 1e-15
    assert outdiff.compare(report, moved) == []


def test_bound_change_is_flagged(report):
    moved = copy.deepcopy(report)
    moved["report"]["universal_upper"] += 1e-9
    diffs = outdiff.compare(report, moved)
    assert len(diffs) == 1
    assert diffs[0].startswith("$.report.universal_upper")


def test_flipped_witness_partition_is_flagged(report):
    moved = copy.deepcopy(report)
    moved["report"]["witness"]["partition"] = [1, 0]
    diffs = outdiff.compare(report, moved)
    assert [d.split(":")[0] for d in diffs] == [
        "$.report.witness.partition[0]",
        "$.report.witness.partition[1]",
    ]


def test_vector_compared_up_to_sign(report):
    moved = copy.deepcopy(report)
    moved["report"]["witness"]["vector"] = [-x for x in report["report"]["witness"]["vector"]]
    assert outdiff.compare(report, moved) == []
    moved["report"]["witness"]["vector"] = [1.0, 0.0]
    assert outdiff.compare(report, moved) != []


def test_integer_becoming_float_is_flagged():
    assert outdiff.compare({"partitions_examined": 4}, {"partitions_examined": 4.0}) != []


def test_exit_code_and_stderr_are_exact():
    assert outdiff.compare_runs((0, "", ""), (1, "", "")) == ["exit code 0 != 1"]
    assert outdiff.compare_runs((2, "", "error: a\n"), (2, "", "error: b\n")) != []


def test_summary_counts_commands_that_are_not_byte_identical(report):
    text = json.dumps(report) + "\n"
    moved = copy.deepcopy(report)
    moved["report"]["universal_upper"] *= 1.0 + 1e-15
    reordered = json.dumps(dict(reversed(report.items()))) + "\n"
    lines, not_identical = outdiff.summarize(
        [
            ("same", (1, text, ""), (1, text, "")),
            ("last bit", (1, text, ""), (1, json.dumps(moved) + "\n", "")),
            ("key order", (1, text, ""), (1, reordered, "")),
            ("exit", (0, "", ""), (1, "", "")),
        ]
    )
    assert lines == ["exit: exit code 0 != 1"]
    assert not_identical == 3


@pytest.mark.parametrize("kind", ["discrete", "fusion"])
@pytest.mark.parametrize("m, n", [(2, 13), (3, 9)])
def test_late_witness_documents_place_the_witness_past_the_first_chunk(kind, m, n):
    family = parse_family_document(outdiff.late_witness_doc(m * 100 + n, kind, m, n))
    partition, _, _ = find_nonwoven_witness(family)
    assert partition.assignment == (1,) + (0,) * (n - 1)
    # a scan chunk holds at most chunk_rows(d * d) partitions
    assert m ** (n - 1) >= chunk_rows(family.dim**2)


@pytest.mark.parametrize("kind", ["discrete", "fusion"])
def test_sampled_late_witness_scans_span_many_chunks(kind):
    family = parse_family_document(outdiff.late_witness_doc(213, kind, 2, 13))
    # the m pure partitions lead the 12000 drawn ones
    rows = 12000 + family.m
    assert woven_bounds_sampled(family, 12000, 5).partitions_examined == rows
    assert len(list(chunk_slices(rows, family.dim**2))) > 10


@pytest.mark.parametrize("kind", ["discrete", "fusion"])
def test_line_documents_move_in_the_last_bits_when_summed_pairwise(kind):
    family = parse_family_document(outdiff.line_doc(902, kind))
    assert (family.dim, family.n, family.m) == (1, 9, 2)
    report = woven_bounds_exhaustive(family)
    stacks = contribution_stacks(family)
    extremes = np.array(
        [report.worst_partition.assignment, report.best_upper_partition.assignment]
    )
    pairwise = gathered_operators(stacks, extremes)
    in_order = np.array([index_order_sum(stacks, a) for a in extremes])
    assert not np.array_equal(pairwise, in_order)
    assert np.allclose(pairwise, in_order, rtol=1e-15, atol=0.0)


def test_near_pair_document_samples_its_subset_masks():
    family = parse_family_document(outdiff.near_fusion_pair_doc(13))
    assert family.m == 2 and family.n == 13 and 2**family.n > _SUBSET_CAP


def test_d6_pair_documents_enumerate_their_subsets_over_many_chunks():
    family = parse_family_document(outdiff.near_fusion_pair_doc(609, d=6, n=9))
    assert family.m == 2 and family.dim == 6 and 2**family.n <= _SUBSET_CAP
    # default 1000 samples plus 6 extremal vectors, as the op check lays rows out
    assert 2**family.n > 10 * chunk_rows((1000 + 6) * (3 * family.dim + 1))


def test_over_cap_documents_exceed_the_default_cap():
    pair = parse_family_document(outdiff.near_fusion_pair_doc(23, n=23))
    woven = parse_family_document(outdiff.late_witness_doc(223, "discrete", 2, 23))
    for family in (pair, woven):
        assert family.m**family.n > PARTITION_CAP


def test_riesz_documents_pass_fail_and_span_many_chunks():
    lines = parse_family_document(outdiff.lines_doc(6, 2, 6))
    assert (lines.n, lines.dim) == (6, 6)
    assert woven_riesz_decomposition_check(lines).all_pass
    swapped = woven_riesz_decomposition_check(parse_family_document(outdiff.swapped_axes_doc()))
    assert swapped.failing_count and not swapped.all_pass
    many = parse_family_document(outdiff.lines_doc(38, 3, 8, repeat_first=True))
    report = woven_riesz_decomposition_check(many)
    assert 0 < report.failing_count < report.partitions_examined
    # the Riesz check takes the scans' chunks, d * d floats per row
    assert many.m**many.n > 10 * chunk_rows(many.dim**2)


def test_degenerate_w_document_is_refused_by_pw():
    w, v = parse_family_document(outdiff.degenerate_w_doc()).systems
    with pytest.raises(NotAFrame):
        pw_check(w, v, 0.0, 0.0, 0.0, samples=5)


def test_band_document_sits_in_the_tolerance_band_and_fails_both_checks():
    family = parse_family_document(outdiff.band_doc())
    woven = woven_bounds_exhaustive(family)
    assert 0.0 < woven.universal_lower < 1e-10 and not woven.is_woven
    report = woven_riesz_decomposition_check(family)
    failing = riesz_failing(family)
    assert report.failing_count == len(failing) == 2 and woven.worst_partition in failing
    assert report.first_failing == failing[0]


def test_tiny_weights_document_is_refused_by_every_check():
    w, v = parse_family_document(outdiff.tiny_weights_doc()).systems
    for check in (
        lambda: pw_check(w, v, 0.0, 0.0, 0.0, samples=5),
        lambda: op_perturbation_check(w, v, 0.0, 0.0, 0.0, samples=5),
        lambda: proj_perturbation_check(w, v, 0.5, samples=5),
    ):
        with pytest.raises(NotAFrame, match="A_W = 1e-320"):
            check()
