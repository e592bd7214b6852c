"""tools/scan_timing.py, run in-process on the first point of each grid."""

import importlib.util
import json
import os

import numpy as np

from wovenframes import (
    op_perturbation_check,
    perturbation,
    woven_bounds_exhaustive,
    woven_riesz_decomposition_check,
)

from helpers import op_inputs, riesz_failing

_TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "scan_timing.py")


def _load_tool(monkeypatch):
    # the tool pins the BLAS thread variables on import; restore them after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("scan_timing", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_grid_points_print_and_write_their_records(monkeypatch, tmp_path, capsys):
    tool = _load_tool(monkeypatch)
    monkeypatch.setattr(tool, "RIESZ_DIMS", tool.RIESZ_DIMS[:1])
    monkeypatch.setattr(tool, "EXHAUSTIVE_NS", tool.EXHAUSTIVE_NS[:1])
    monkeypatch.setattr(tool, "OP_ROWS", tool.OP_ROWS[:1])
    out = tmp_path / "BENCH_scan.json"
    assert tool.main(["--out", str(out)]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == json.loads(out.read_text())
    riesz, exhaustive, op = printed
    assert (riesz["scan"], riesz["n"], riesz["d"]) == ("woven_riesz_decomposition_check", 8, 8)
    assert riesz["partitions"] == 2**8 and riesz["all_pass"]
    assert (exhaustive["scan"], exhaustive["n"], exhaustive["d"]) == ("woven_bounds_exhaustive", 12, 6)
    assert exhaustive["partitions"] == 2**12
    assert (op["scan"], op["n"], op["d"], op["samples"]) == ("op_perturbation_check", 9, 6, 1000)
    assert op["subsets"] == 2**9 and op["subset_search"] == "exhaustive"
    assert op["us_per_subset"] == 1e6 * op["best_s"] / 2**9
    for record in printed:
        assert record["runs"] == 3 and record["blas_threads"] == 1
        assert 0.0 < record["best_s"] < 60.0


def test_no_chunk_of_the_adversarial_op_row_can_be_skipped(monkeypatch):
    # d = 1: every member is the whole line, so every slack and every
    # bound is 0, and no chunk's bound falls below the worst slack
    tool = _load_tool(monkeypatch)
    d, n, constants = tool.OP_ROWS[-1]
    w, v = tool.near_pair(np.random.default_rng([tool.SEED, d, n]), d, n)
    batch, flat, w_normsq, masks = op_inputs(w, v, tool.OP_SAMPLES, tool.SEED)
    blocks = perturbation._slack_bounds(batch, flat, w_normsq, masks, *constants)
    assert all((b == 0.0).all() for b in blocks)
    cert = op_perturbation_check(w, v, *constants, tool.OP_SAMPLES, tool.SEED)
    assert cert.inequality_violation == 0.0


def test_d12_riesz_family_fails_where_woven_says_non_woven(monkeypatch):
    # two weavings of the n = d = 12 grid family have smallest eigenvalues
    # near 2.6e-10, under FRAME_TOL * max(1, upper): non-woven, so not Riesz
    tool = _load_tool(monkeypatch)
    family = tool.rank1_pair(np.random.default_rng([tool.SEED, 12]), 12)
    woven = woven_bounds_exhaustive(family)
    report = woven_riesz_decomposition_check(family)
    assert not woven.is_woven and woven.universal_lower < 1e-9
    failing = riesz_failing(family)
    assert not report.all_pass and report.failing_count == len(failing) == 2
    assert woven.worst_partition in failing
    assert report.first_failing == failing[0]
