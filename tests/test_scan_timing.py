"""tools/scan_timing.py, run in-process on the first point of each grid."""

import importlib.util
import json
import os

import numpy as np

from wovenframes import (
    linalg,
    op_perturbation_check,
    perturbation,
    woven_bounds_exhaustive,
    woven_riesz_decomposition_check,
)

from wovenframes.cli import main

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
    monkeypatch.setattr(tool, "FUSION_NS", tool.FUSION_NS[:1])
    monkeypatch.setattr(tool, "OP_ROWS", tool.OP_ROWS[:1])
    monkeypatch.setattr(tool, "PW_ROWS", tool.PW_ROWS[:1])
    monkeypatch.setattr(tool, "PROJ_ROWS", tool.PROJ_ROWS[:1])
    monkeypatch.setattr(tool, "ONE_SHOT_ROWS", tool.ONE_SHOT_ROWS[:1])
    monkeypatch.setattr(tool, "INSTANCE_IDS", tool.INSTANCE_IDS[:1])
    monkeypatch.setattr(tool, "INSTANCE_DIMS", tool.INSTANCE_DIMS[:1])
    monkeypatch.setattr(tool, "LOAD_ROWS", tool.LOAD_ROWS[:1])
    monkeypatch.setattr(tool, "COLD_ROWS", tool.COLD_ROWS[:1])
    monkeypatch.setattr(tool, "COLD_STARTS", 1)
    out = tmp_path / "BENCH_scan.json"
    assert tool.main(["--out", str(out)]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert printed == json.loads(out.read_text())
    riesz, exhaustive, fusion, op, pw, proj, one_shot, build, verify, digest, command, load, cold = printed
    # the first cold-start row is one fresh interpreter importing the CLI
    assert (cold["scan"], cold["argv"]) == ("cold_start", ["-c", "import wovenframes.cli"])
    assert cold["runs"] == 1 and cold["processes"] == 1
    assert (cold["exit_code"], cold["stdout_bytes"]) == (0, 0)
    assert cold["us_per_process"] == 1e6 * cold["best_s"]
    # the first load_family row reads the benchmark's fusion ingest shape
    assert (load["scan"], load["kind"], load["d"], load["n"]) == ("load_family", "fusion", 12, 60)
    assert load["m"] == 2 and load["documents"] == 1 and load["bytes"] > 0
    assert load["us_per_document"] == 1e6 * load["best_s"]
    for record, name in (
        (build, "build_instance"),
        (verify, "verify_instance"),
        (digest, "reproduce_digest"),
        (command, "reproduce"),
    ):
        assert (record["scan"], record["id"], record["d"]) == (name, "ex3_2", 6)
        # ex3_2 is the plane pair at every requested dim
        assert record["truncation_dim"] is None
    assert build["instances"] == 1 and build["us_per_instance"] == 1e6 * build["best_s"]
    assert verify["checks"] == 9 and verify["all_ok"]
    assert verify["us_per_check"] == 1e6 * verify["best_s"] / 9
    assert digest["instances"] == 1 and digest["us_per_instance"] == 1e6 * digest["best_s"]
    assert command["commands"] == 1 and command["us_per_command"] == 1e6 * command["best_s"]
    assert command["exit_code"] == 0 and command["stdout_bytes"] > 0
    assert (riesz["scan"], riesz["n"], riesz["d"]) == ("woven_riesz_decomposition_check", 8, 8)
    assert riesz["partitions"] == 2**8 and riesz["all_pass"]
    assert (exhaustive["scan"], exhaustive["n"], exhaustive["d"]) == ("woven_bounds_exhaustive", 12, 6)
    assert exhaustive["partitions"] == 2**12 and exhaustive["kind"] == "discrete"
    assert (fusion["scan"], fusion["n"], fusion["d"]) == ("woven_bounds_exhaustive", 12, 6)
    assert fusion["partitions"] == 2**12 and fusion["kind"] == "fusion"
    assert (op["scan"], op["n"], op["d"], op["samples"]) == ("op_perturbation_check", 9, 6, 1000)
    assert op["tilt"] == pw["tilt"] == proj["tilt"] == 0.01
    assert op["subsets"] == 2**9 and op["subset_search"] == "exhaustive"
    assert op["us_per_subset"] == 1e6 * op["best_s"] / 2**9
    for record, name, search in (
        (pw, "pw_check", None),
        (proj, "proj_perturbation_check", "closed_form"),
    ):
        assert (record["scan"], record["n"], record["d"]) == (name, 9, 6)
        assert record["samples"] == 1000
        assert record["subset_search"] == search and "subsets" not in record
        assert record["sample_count"] == 1006
        assert record["us_per_sample"] == 1e6 * record["best_s"] / 1006
    # the one-shot row runs the three checks of the first pw, op and proj
    # rows on the same seeded pair, rebuilt in each run
    assert (one_shot["scan"], one_shot["n"], one_shot["d"]) == ("pw_op_proj_one_shot", 9, 6)
    assert one_shot["tilt"] == 0.01 and one_shot["samples"] == 1000
    assert one_shot["checks"] == 3 and one_shot["methods"] == ["pw", "op", "proj"]
    violations = [r["inequality_violation"] for r in (pw, op, proj)]
    assert one_shot["inequality_violations"] == violations
    assert one_shot["us_per_check"] == 1e6 * one_shot["best_s"] / 3
    for record in printed:
        assert record["runs"] == (1 if record is cold else 3) and record["blas_threads"] == 1
        assert 0.0 < record["best_s"] < 60.0


def test_the_adversarial_op_row_evaluates_no_pair(monkeypatch):
    # d = 1: every member is the whole line, so every slack and every
    # bound is 0, and a bound that ties the running worst 0 cannot raise it
    tool = _load_tool(monkeypatch)
    (d, n, tilt, constants), = (row for row in tool.OP_ROWS if row[0] == 1)
    w, v = tool.near_pair(np.random.default_rng([tool.SEED, d, n]), d, n, tilt)
    batch, parts, halves = op_inputs(w, v, tool.OP_SAMPLES, tool.SEED)
    upper, lower = perturbation._slack_bounds(batch, parts, halves, *constants)
    assert (upper == 0.0).all() and (lower == 0.0).all()
    monkeypatch.setattr(perturbation, "_op_slacks", None)
    cert = op_perturbation_check(w, v, *constants, tool.OP_SAMPLES, tool.SEED)
    assert cert.inequality_violation == 0.0


def test_d12_riesz_family_fails_where_woven_says_non_woven(monkeypatch):
    # two weavings of the n = d = 12 grid family have smallest eigenvalues
    # near 2.6e-10, under FRAME_TOL * max(1, upper): non-woven, so not Riesz
    tool = _load_tool(monkeypatch)
    family = tool.fusion_pair(np.random.default_rng([tool.SEED, 12]), 12, 12, 1)
    woven = woven_bounds_exhaustive(family)
    report = woven_riesz_decomposition_check(family)
    assert not woven.is_woven and woven.universal_lower < 1e-9
    failing = riesz_failing(family)
    assert not report.all_pass and report.failing_count == len(failing) == 2
    assert woven.worst_partition in failing
    assert report.first_failing == failing[0]


def test_the_mixed_count_load_row_reads_every_count_from_zero_to_four(monkeypatch, tmp_path):
    # the uniform row is the first load_family row, the mixed-count one
    # follows it with the same d and n
    tool = _load_tool(monkeypatch)
    (uniform, _, _), (fields, run, summary), _ = tool.load_grid(str(tmp_path))
    assert uniform["spanning_rows"] == 3
    assert fields["spanning_rows"] == (0, 4)
    assert (fields["scan"], fields["kind"]) == ("load_family", "fusion")
    assert (fields["d"], fields["n"]) == (12, 60)
    stacks = []
    kernel = linalg._gram_schmidt_stack
    monkeypatch.setattr(
        linalg, "_gram_schmidt_stack", lambda stack: stacks.append(stack.shape) or kernel(stack)
    )
    family, _ = result = run()
    assert summary(result) == {"m": 2, "documents": 1}
    ranks = [rank for system in family.systems for rank in system.ranks.tolist()]
    assert len(ranks) == 120 and set(ranks) == {0, 1, 2, 3, 4}
    # one Gram-Schmidt stack per spanning count, 120 members in all
    assert sorted(k for _, k, _ in stacks) == [0, 1, 2, 3, 4]
    assert sum(members for members, _, _ in stacks) == 120


def test_a_reproduce_row_times_one_whole_command(monkeypatch, capsys):
    # the row builds its instance anew and prints what the command prints
    tool = _load_tool(monkeypatch)
    monkeypatch.setattr(tool, "INSTANCE_IDS", ("ex4_1",))
    monkeypatch.setattr(tool, "INSTANCE_DIMS", (6,))
    (fields, run, summary), = (row for row in tool.instance_grid() if row[0]["scan"] == "reproduce")
    assert (fields["id"], fields["d"], fields["truncation_dim"]) == ("ex4_1", 6, 6)
    code, out = result = run()
    assert capsys.readouterr().out == ""
    assert main(["reproduce", "--id", "ex4_1", "--dim", "6"]) == code == 0
    assert capsys.readouterr().out == out
    assert summary(result) == {"commands": 1, "exit_code": 0, "stdout_bytes": len(out)}
