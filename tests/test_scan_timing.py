"""tools/scan_timing.py, run in-process on the first point of each grid."""

import importlib.util
import json
import os

import numpy as np

from wovenframes import woven_bounds_exhaustive, woven_riesz_decomposition_check

from helpers import riesz_failing

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
    out = tmp_path / "BENCH_scan.json"
    assert tool.main(["--out", str(out)]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == json.loads(out.read_text())
    riesz, exhaustive = printed
    assert (riesz["scan"], riesz["n"], riesz["d"]) == ("woven_riesz_decomposition_check", 8, 8)
    assert riesz["partitions"] == 2**8 and riesz["all_pass"]
    assert (exhaustive["scan"], exhaustive["n"], exhaustive["d"]) == ("woven_bounds_exhaustive", 12, 6)
    assert exhaustive["partitions"] == 2**12
    for record in printed:
        assert record["runs"] == 3 and record["blas_threads"] == 1
        assert 0.0 < record["best_s"] < 60.0


def test_d12_riesz_family_fails_where_woven_says_non_woven(monkeypatch):
    # two weavings of the n = d = 12 grid family have smallest eigenvalues
    # near 2.6e-10, under FRAME_TOL * max(1, upper): non-woven, so not Riesz
    tool = _load_tool(monkeypatch)
    family = tool.rank1_pair(np.random.default_rng([tool.SEED, 12]), 12)
    woven = woven_bounds_exhaustive(family)
    report = woven_riesz_decomposition_check(family)
    assert not woven.is_woven and woven.universal_lower < 1e-9
    assert not report.all_pass and len(report.failing) == 2
    assert woven.worst_partition in report.failing
    assert report.failing == riesz_failing(family)
