import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from wovenframes import (
    Subspace,
    cli,
    find_nonwoven_witness,
    fusion,
    instances,
    linalg,
    perturbation,
    weaving,
)
from wovenframes.cli import canonical_json, load_family, main, parse_family_document


EX3_2_DOC = {
    "dim": 2,
    "kind": "discrete",
    "systems": [
        {"vectors": [[0, 2], [3, 0], [2, 3]]},
        {"vectors": [[1, 0], [0, 1], [3, 1]]},
    ],
}

COORDINATE_PAIR_DOC = {
    "dim": 4,
    "kind": "fusion",
    "systems": [
        {
            "weights": [1, 1],
            "subspaces": [
                {"spanning": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                {"spanning": [[0, 0, 1, 0], [0, 0, 0, 1]]},
            ],
        },
        {
            "weights": [1, 1],
            "subspaces": [
                {"spanning": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                {"spanning": [[0, 0, 1, 0], [0, 0, 0, 1]]},
            ],
        },
    ],
}

# second system loses coverage of the first coordinate
GAP_DOC = {
    "dim": 3,
    "kind": "fusion",
    "systems": [
        {
            "weights": [1, 1, 1],
            "subspaces": [
                {"spanning": [[1, 0, 0]]},
                {"spanning": [[0, 1, 0]]},
                {"spanning": [[0, 0, 1]]},
            ],
        },
        {
            "weights": [1, 1, 1],
            "subspaces": [
                {"spanning": []},
                {"spanning": [[0, 1, 0]]},
                {"spanning": [[0, 0, 1]]},
            ],
        },
    ],
}


# both members of the first system span e_1, so W is no fusion frame
DEGENERATE_W_DOC = {
    "dim": 2,
    "kind": "fusion",
    "systems": [
        {"weights": [1, 1], "subspaces": [{"spanning": [[1, 0]]}, {"spanning": [[1, 0]]}]},
        {"weights": [1, 1], "subspaces": [{"spanning": [[1, 0]]}, {"spanning": [[0, 1]]}]},
    ],
}

# the second system's lines meet at angle 1e-7: its weavings with the
# second line sit in the frame rule's tolerance band (lower about 5e-15)
BAND_DOC = {
    "dim": 2,
    "kind": "fusion",
    "systems": [
        {"weights": [1, 1], "subspaces": [{"spanning": [[1, 0]]}, {"spanning": [[0, 1]]}]},
        {"weights": [1, 1], "subspaces": [{"spanning": [[1, 0]]}, {"spanning": [[1, 1e-7]]}]},
    ],
}

# an orthonormal fusion basis weighted 1e-160: A_W = 1e-320 fails the frame rule
TINY_WEIGHTS_DOC = {
    "dim": 2,
    "kind": "fusion",
    "systems": [
        {"weights": [1e-160] * 2, "subspaces": [{"spanning": [[1, 0]]}, {"spanning": [[0, 1]]}]},
    ]
    * 2,
}

# coordinate axes against the swapped axes: the mixed weavings repeat one
SWAPPED_AXES_DOC = {
    "dim": 2,
    "kind": "fusion",
    "systems": [
        {"weights": [1, 1], "subspaces": [{"spanning": [[1, 0]]}, {"spanning": [[0, 1]]}]},
        {"weights": [1, 1], "subspaces": [{"spanning": [[0, 1]]}, {"spanning": [[1, 0]]}]},
    ],
}


def _sixty_member_system(seed: int) -> dict:
    """60 members in R^3 with 0-3 spanning rows each: every seventh list
    is empty, and the rest mix ints, floats, -0.0 and dependent rows."""
    rng = np.random.default_rng(seed)
    subspaces = []
    for i in range(60):
        rows = rng.integers(-3, 4, size=(i % 4, 3)).tolist()
        if rows:
            rows[0][int(rng.integers(3))] = -0.0
            rows.append([2.5 * x for x in rows[0]])
        subspaces.append({"spanning": [] if i % 7 == 0 else rows})
    return {"weights": rng.uniform(0.5, 1.5, 60).tolist(), "subspaces": subspaces}


SIXTY_MEMBER_DOC = {
    "dim": 3,
    "kind": "fusion",
    "systems": [_sixty_member_system(0), _sixty_member_system(1)],
}


def write_doc(tmp_path, doc, name="family.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_discrete_bounds(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX3_2_DOC)
        code, out = run_main(capsys, ["analyze", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "analyze"
        first, second = doc["systems"]
        assert first["lower"] == pytest.approx(7.0)
        assert first["upper"] == pytest.approx(19.0)
        assert second["lower"] == pytest.approx(1.0)
        assert second["upper"] == pytest.approx(11.0)

    def test_orthonormal_document_is_parseval(self, tmp_path, capsys):
        doc = {
            "dim": 2,
            "kind": "discrete",
            "systems": [
                {"vectors": [[1, 0], [0, 1]]},
                {"vectors": [[0, 1], [1, 0]]},
            ],
        }
        code, out = run_main(capsys, ["analyze", write_doc(tmp_path, doc)])
        assert code == 0
        parsed = json.loads(out)
        for system in parsed["systems"]:
            assert system["lower"] == pytest.approx(1.0)
            assert system["upper"] == pytest.approx(1.0)
            assert system["is_riesz_basis"]

    def test_fusion_document_flags(self, tmp_path, capsys):
        code, out = run_main(capsys, ["analyze", write_doc(tmp_path, COORDINATE_PAIR_DOC)])
        assert code == 0
        for system in json.loads(out)["systems"]:
            assert system["lower"] == pytest.approx(1.0)
            assert system["is_fusion_frame"]
            assert system["synthesis_is_onto"]
            assert system["is_riesz_decomposition"]
            assert system["is_orthonormal_fusion_basis"]

    def test_band_system_is_neither_onto_nor_riesz(self, tmp_path, capsys):
        code, out = run_main(capsys, ["analyze", write_doc(tmp_path, BAND_DOC)])
        assert code == 0
        first, band = json.loads(out)["systems"]
        assert first["is_fusion_frame"] and first["is_riesz_decomposition"]
        assert band["lower"] < 1e-14
        assert not band["is_fusion_frame"]
        assert not band["synthesis_is_onto"]
        assert not band["is_riesz_decomposition"]

    def test_fusion_system_takes_one_eigensolve(self, tmp_path, capsys, monkeypatch):
        # rank-3 members in R^12 whose ranks do not add up to 12: the one
        # solve is fusion_bounds', which also decides synthesis_is_onto
        rng = np.random.default_rng(12)
        systems = [
            {
                "weights": rng.uniform(0.5, 1.5, 5).tolist(),
                "subspaces": [{"spanning": s.tolist()} for s in rng.standard_normal((5, 3, 12))],
            }
            for _ in range(2)
        ]
        path = write_doc(tmp_path, {"dim": 12, "kind": "fusion", "systems": systems})
        calls = []
        original = linalg.stacked_spectra
        monkeypatch.setattr(
            linalg,
            "stacked_spectra",
            lambda matrices: calls.append(len(matrices)) or original(matrices),
        )
        code, out = run_main(capsys, ["analyze", path])
        assert code == 0
        assert calls == [1, 1]
        for system in json.loads(out)["systems"]:
            assert system["synthesis_is_onto"] and system["is_fusion_frame"]

    def test_ingest_checks_bases_once_per_system(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = fusion._checked_bases
        monkeypatch.setattr(
            fusion,
            "_checked_bases",
            lambda dim, bases: calls.append(len(bases)) or original(dim, bases),
        )
        load_family(write_doc(tmp_path, SIXTY_MEMBER_DOC))
        assert calls == [60, 60]

    def test_internal_fault_exits_three(self, tmp_path, capsys, monkeypatch):
        def faulty(path):
            return 1 / 0

        monkeypatch.setattr(cli, "load_family", faulty)
        code = main(["analyze", write_doc(tmp_path, EX3_2_DOC)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        first, *rest = captured.err.splitlines()
        assert first == "internal error: ZeroDivisionError: division by zero"
        assert rest[0] == "Traceback (most recent call last):"
        assert rest[-1] == "ZeroDivisionError: division by zero"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,')
        code, _ = run_main(capsys, ["analyze", str(path)])
        assert code == 2

    def test_schema_violation(self, tmp_path, capsys):
        doc = {"dim": 2, "kind": "discrete", "systems": [{"vectors": [[1, 0]]}]}
        code, _ = run_main(capsys, ["analyze", write_doc(tmp_path, doc)])
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run_main(capsys, ["analyze", "/no/such/file.json"])
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"dim": 2, "x": ' + "[" * 100000 + "]" * 100000 + "}", "nested too deeply"),
            ('{"dim": ' + "7" * 5000 + "}", "Exceeds the limit"),
            ('{"dim": 2, "kind": "fusion", "systems": [{"weights": [' + "7" * 5000
             + '], "subspaces": [{"spanning": []}]}]}', "Exceeds the limit"),
        ],
        ids=["deep-array", "long-integer-dim", "long-integer-weight"],
    )
    def test_unparsable_json_exits_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "family.json"
        path.write_text(text)
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("dim", [cli.MAX_DIM + 1, 10**12, 10**400])
    def test_dim_above_the_limit_exits_two(self, tmp_path, capsys, dim):
        member = {"weights": [1.0], "subspaces": [{"spanning": []}]}
        doc = {"dim": dim, "kind": "fusion", "systems": [member, member]}
        code = main(["analyze", write_doc(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: dim: at most {cli.MAX_DIM} supported\n"

    def test_dim_at_the_limit_parses(self):
        member = {"weights": [1.0], "subspaces": [{"spanning": []}]}
        doc = {"dim": cli.MAX_DIM, "kind": "fusion", "systems": [member, member]}
        assert parse_family_document(doc).dim == cli.MAX_DIM

    def test_nan_in_an_ignored_field_exits_two(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(EX3_2_DOC)[:-1] + ', "note": NaN}')
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: {path}: Out of range float values are not JSON compliant\n"
        )

    def test_deep_ignored_field_never_exits_three(self, tmp_path, capsys):
        # near the recursion limit a document can parse and still be too deep
        # to serialize for its digest; the window spans that boundary
        codes = set()
        for depth in range(800, 1001):
            path = tmp_path / "family.json"
            note = "[" * depth + "]" * depth
            path.write_text(json.dumps(EX3_2_DOC)[:-1] + f', "note": {note}}}')
            code = main(["analyze", str(path)])
            captured = capsys.readouterr()
            assert code in (0, 2)
            if code == 2:
                assert captured.err == f"error: {path}: nested too deeply\n"
            codes.add(code)
        assert codes == {0, 2}


class TestWoven:
    def test_woven_family_exits_zero(self, tmp_path, capsys):
        code, out = run_main(capsys, ["woven", write_doc(tmp_path, EX3_2_DOC)])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["is_woven"]
        assert report["partitions_examined"] == 8

    def test_nonwoven_family_exits_one_with_witness(self, tmp_path, capsys):
        code, out = run_main(capsys, ["woven", write_doc(tmp_path, GAP_DOC)])
        assert code == 1
        report = json.loads(out)["report"]
        assert not report["is_woven"]
        witness = report["witness"]
        assert witness["partition"] == [1, 0, 0]
        assert abs(witness["value"]) <= 1e-12
        assert abs(witness["vector"][0]) == pytest.approx(1.0)

    def test_fusion_document(self, tmp_path, capsys):
        code, out = run_main(capsys, ["woven", write_doc(tmp_path, COORDINATE_PAIR_DOC)])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["is_woven"]
        assert report["universal_lower"] == pytest.approx(1.0)
        assert report["universal_upper"] == pytest.approx(1.0)

    @pytest.mark.parametrize("extra", [[], ["--samples", "5"]])
    def test_report_keys_are_the_woven_report_fields(self, tmp_path, capsys, extra):
        for doc in (EX3_2_DOC, GAP_DOC):
            _, out = run_main(capsys, ["woven", write_doc(tmp_path, doc), *extra])
            report = json.loads(out)["report"]
            assert set(report) == {f.name for f in dataclasses.fields(weaving.WovenReport)}

    def test_sampled_determinism(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX3_2_DOC)
        argv = ["woven", path, "--samples", "100", "--seed", "7"]
        _, first = run_main(capsys, argv)
        _, second = run_main(capsys, argv)
        assert first == second

    def test_cap_violation_needs_samples(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", "4")
        path = write_doc(tmp_path, EX3_2_DOC)
        code, _ = run_main(capsys, ["woven", path])
        assert code == 2
        code, out = run_main(capsys, ["woven", path, "--samples", "20", "--seed", "1"])
        assert code == 0
        assert json.loads(out)["report"]["method"] == "sampled"


class TestPerturb:
    def test_identical_proj(self, tmp_path, capsys):
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code, out = run_main(capsys, ["perturb", path, "--method", "proj", "--K", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["predicted_lower"] == pytest.approx(1.0)
        assert doc["prediction_contains_exhaustive"]

    def test_pw_with_containment_note(self, tmp_path, capsys):
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code, out = run_main(
            capsys,
            [
                "perturb", path, "--method", "pw",
                "--lambda1", "0.01", "--lambda2", "0.01", "--mu", "0.005",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["hypothesis_holds"]
        assert doc["exhaustive_interval"] == [pytest.approx(1.0), pytest.approx(1.0)]
        assert doc["prediction_contains_exhaustive"]

    def test_complement_fails(self, tmp_path, capsys):
        doc = json.loads(json.dumps(COORDINATE_PAIR_DOC))
        doc["systems"][1]["subspaces"] = [
            {"spanning": [[0, 0, 1, 0], [0, 0, 0, 1]]},
            {"spanning": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        ]
        path = write_doc(tmp_path, doc)
        code, out = run_main(
            capsys,
            [
                "perturb", path, "--method", "pw",
                "--lambda1", "0.05", "--lambda2", "0.05", "--mu", "0.01",
            ],
        )
        assert code == 1
        assert json.loads(out)["certificate"]["max_violation"] > 0.0

    def test_constant_range_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code, _ = run_main(
            capsys, ["perturb", path, "--method", "pw", "--lambda1", "1.5"]
        )
        assert code == 2

    def test_requires_fusion_pair(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX3_2_DOC)
        code, _ = run_main(capsys, ["perturb", path, "--method", "proj", "--K", "0.5"])
        assert code == 2

    @pytest.mark.parametrize(
        "method, search", [("pw", None), ("op", "exhaustive"), ("proj", "closed_form")]
    )
    def test_certificate_names_its_subset_search(self, tmp_path, capsys, method, search):
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code, out = run_main(capsys, ["perturb", path, "--method", method])
        assert code == 0
        assert json.loads(out)["certificate"]["subset_search"] == search


    def test_pw_on_a_w_that_is_not_a_fusion_frame_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, DEGENERATE_W_DOC)
        code = main(["perturb", path, "--method", "pw", "--samples", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: W is not a fusion frame: ")
        assert "A_W = 0.0" in captured.err

    @pytest.mark.parametrize("method", ["op", "proj"])
    def test_op_and_proj_on_that_pair_report_a_failure(self, tmp_path, capsys, method):
        # refused as pw refuses it: W fails the frame rule
        path = write_doc(tmp_path, DEGENERATE_W_DOC)
        code = main(["perturb", path, "--method", method, "--samples", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: W is not a fusion frame: ")
        assert "A_W = 0.0 is not positive" in captured.err

    @pytest.mark.parametrize("method", ["pw", "op", "proj"])
    def test_w_below_the_frame_rule_exits_two(self, tmp_path, capsys, method):
        path = write_doc(tmp_path, TINY_WEIGHTS_DOC)
        code = main(["perturb", path, "--method", method, "--samples", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: W is not a fusion frame: ")
        assert "A_W = 1e-320 is at most FRAME_TOL * max(1, B_W)" in captured.err
        # woven calls the same family non-woven
        assert main(["woven", path]) == 1

    @pytest.mark.parametrize("method", ["pw", "op", "proj"])
    def test_certificate_encodes_alike_from_vars_and_asdict(self, method):
        w, v = parse_family_document(COORDINATE_PAIR_DOC).systems
        cert = {
            "pw": lambda: perturbation.pw_check(w, v, 0.01, 0.01, 0.005, 20, 4),
            "op": lambda: perturbation.op_perturbation_check(w, v, 0.01, 0.01, 0.01, 20, 4),
            "proj": lambda: perturbation.proj_perturbation_check(w, v, 0.5, 20, 4),
        }[method]()
        assert canonical_json(vars(cert)) == canonical_json(dataclasses.asdict(cert))


class TestRiesz:
    def test_every_weaving_passes(self, tmp_path, capsys):
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code, out = run_main(capsys, ["riesz", path])
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "command": "riesz",
            "input_digest": load_family(path)[1],
            "report": {
                "all_pass": True,
                "failing_count": 0,
                "first_failing": None,
                "partitions_examined": 4,
            },
            "notes": [],
            "seed": None,
        }

    def test_failing_weavings_exit_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, SWAPPED_AXES_DOC)
        code, out = run_main(capsys, ["riesz", path])
        assert code == 1
        assert json.loads(out)["report"] == {
            "all_pass": False,
            "failing_count": 2,
            "first_failing": [0, 1],
            "partitions_examined": 4,
        }

    def test_band_document_fails_as_woven_does(self, tmp_path, capsys):
        path = write_doc(tmp_path, BAND_DOC)
        code, out = run_main(capsys, ["riesz", path])
        assert code == 1
        assert json.loads(out)["report"] == {
            "all_pass": False,
            "failing_count": 2,
            "first_failing": [0, 1],
            "partitions_examined": 4,
        }
        code, out = run_main(capsys, ["woven", path])
        assert code == 1
        assert json.loads(out)["report"]["witness"]["partition"] == [0, 1]

    def test_all_fail_family_is_counted_across_chunks_without_partitions(
        self, tmp_path, capsys, monkeypatch
    ):
        # d = 1 with twelve lines per system: no weaving's ranks add up to 1
        system = {"weights": [1] * 12, "subspaces": [{"spanning": [[1]]}] * 12}
        path = write_doc(tmp_path, {"dim": 1, "kind": "fusion", "systems": [system] * 2})
        monkeypatch.setattr(linalg, "CHUNK_FLOATS", 5 * 12)

        built = []
        init = weaving.Partition.__post_init__

        def counted(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(weaving.Partition, "__post_init__", counted)
        code, out = run_main(capsys, ["riesz", path])
        assert code == 1
        assert json.loads(out)["report"] == {
            "all_pass": False,
            "failing_count": 2**12,
            "first_failing": [0] * 12,
            "partitions_examined": 2**12,
        }
        # the scan's extremes and first failing row, never one per failing row
        assert len(built) <= 3

    def test_discrete_document_exits_two(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX3_2_DOC)
        code = main(["riesz", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "fusion families only" in captured.err

    def test_over_the_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", "3")
        path = write_doc(tmp_path, SWAPPED_AXES_DOC)
        code = main(["riesz", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "2^2 = 4 partitions exceeds the cap 3" in captured.err


class TestReproduce:
    @pytest.mark.parametrize("instance_id", ["ex3_2", "ex4_1", "ex4_2", "ex5_4"])
    def test_ids_pass(self, capsys, instance_id):
        code, out = run_main(capsys, ["reproduce", "--id", instance_id, "--dim", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_reference_ok"]
        assert all(c["ok"] for c in doc["checks"] if c["source"] == "reference")

    def test_unknown_id(self, capsys):
        code, _ = run_main(capsys, ["reproduce", "--id", "bogus"])
        assert code == 2

    @pytest.mark.parametrize("instance_id", ["ex3_2", "ex4_1", "ex4_2", "ex5_4"])
    @pytest.mark.parametrize("dim", ["1025", "1000000000000"])
    def test_dim_above_the_limit_exits_two(self, monkeypatch, capsys, instance_id, dim):
        def refuse(*args, **kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(cli, "build_instance", refuse)
        code = main(["reproduce", "--id", instance_id, "--dim", dim])
        assert code == 2
        assert "--dim: at most 1024" in capsys.readouterr().err

    @pytest.mark.parametrize("instance_id", ["ex4_1", "ex4_2"])
    def test_partitions_over_the_cap_refused_before_building(
        self, monkeypatch, capsys, instance_id
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a local system was built")

        monkeypatch.setattr(instances.LocalSystem, "build", refuse)
        code = main(["reproduce", "--id", instance_id, "--dim", "23"])
        assert code == 2
        assert "2^23 = 8388608 partitions exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("instance_id", instances.INSTANCE_IDS)
    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_checks_encode_alike_from_vars_and_asdict(self, instance_id, dim):
        outcomes = instances.verify_instance(instances.build_instance(instance_id, dim=dim))
        for o in outcomes:
            assert canonical_json(vars(o)) == canonical_json(dataclasses.asdict(o))


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        fam = write_doc(tmp_path, EX3_2_DOC)
        fus = write_doc(tmp_path, COORDINATE_PAIR_DOC, "fusion.json")
        commands = [
            ["analyze", fam],
            ["woven", fam],
            ["woven", fam, "--samples", "50", "--seed", "3"],
            ["perturb", fus, "--method", "proj", "--K", "0.5", "--seed", "9"],
            ["reproduce", "--id", "ex3_2"],
            ["reproduce", "--id", "ex5_4", "--dim", "6"],
        ]
        for argv in commands:
            _, first = run_main(capsys, argv)
            _, second = run_main(capsys, argv)
            assert first.encode() == second.encode(), argv


def test_module_entry_point(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(EX3_2_DOC))
    proc = subprocess.run(
        [sys.executable, "-m", "wovenframes", "woven", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["is_woven"]


def test_huge_weight_leaves_stderr_empty(tmp_path):
    # S entries near 1e240: the eigen-residual's squared errors would
    # overflow a float unless scaled first
    rng = np.random.default_rng(0)
    systems = [
        {
            "weights": weights,
            "subspaces": [{"spanning": rng.standard_normal((1, 4)).round(3).tolist()} for _ in range(4)],
        }
        for weights in ([1e120, 1, 1, 1], [1, 1, 1, 1])
    ]
    path = write_doc(tmp_path, {"dim": 4, "kind": "fusion", "systems": systems})
    for command, code in (("analyze", 0), ("woven", 1), ("riesz", 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "wovenframes", command, path],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (code, ""), command
        assert json.loads(proc.stdout)["command"] == command


def nonwoven_discrete_doc(rng):
    """Random pair in R^3 whose weaving (0, 0, 1, 1) misses e_0."""
    first = rng.standard_normal((4, 3))
    second = rng.standard_normal((4, 3))
    first[:2, 0] = 0.0
    second[2:, 0] = 0.0
    return {
        "dim": 3,
        "kind": "discrete",
        "systems": [{"vectors": first.tolist()}, {"vectors": second.tolist()}],
    }


def nonwoven_fusion_doc(rng):
    """Random rank-2 members in R^3; weaving (1, 0, 0) misses e_0."""

    def member(inside_plane):
        span = rng.standard_normal((2, 3))
        if inside_plane:
            span[:, 0] = 0.0
        return {"spanning": span.tolist()}

    return {
        "dim": 3,
        "kind": "fusion",
        "systems": [
            {
                "weights": rng.uniform(0.5, 1.5, 3).tolist(),
                "subspaces": [member(False), member(True), member(True)],
            },
            {
                "weights": rng.uniform(0.5, 1.5, 3).tolist(),
                "subspaces": [member(True), member(False), member(False)],
            },
        ],
    }


class TestWitnessFromScan:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("make_doc", [nonwoven_discrete_doc, nonwoven_fusion_doc])
    @pytest.mark.parametrize("eps", [1e-8, 0.5])
    def test_matches_early_exit_search(self, tmp_path, capsys, seed, make_doc, eps):
        path = write_doc(tmp_path, make_doc(np.random.default_rng(seed)))
        code, out = run_main(capsys, ["woven", path, "--eps", str(eps)])
        assert code == 1
        witness = json.loads(out)["report"]["witness"]
        family, _ = load_family(path)
        partition, vector, value = find_nonwoven_witness(family, eps)
        assert witness["partition"] == list(partition.assignment)
        assert witness["vector"] == vector.tolist()
        assert witness["value"] == value

    def test_woven_family_with_large_eps_has_no_witness(self, tmp_path, capsys):
        path = write_doc(tmp_path, EX3_2_DOC)
        code, out = run_main(capsys, ["woven", path, "--eps", "100"])
        assert code == 0
        assert json.loads(out)["report"]["witness"] is None


class TestEpsValidation:
    @pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("extra", [[], ["--samples", "7"]])
    def test_invalid_eps_exits_two(self, tmp_path, capsys, eps, extra):
        path = write_doc(tmp_path, nonwoven_discrete_doc(np.random.default_rng(1)))
        code = main(["woven", path, "--eps", eps] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--eps" in captured.err
        assert "finite and positive" in captured.err


class TestSampleCount:
    @pytest.mark.parametrize("method", ["pw", "op", "proj"])
    def test_negative_perturb_samples_exit_two(self, tmp_path, capsys, method):
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code = main(["perturb", path, "--method", method, "--samples", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: samples must be non-negative, got -1\n"

    @pytest.mark.parametrize("method", ["pw", "op", "proj"])
    def test_zero_perturb_samples_check_the_extremal_vectors(self, tmp_path, capsys, method):
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code, out = run_main(capsys, ["perturb", path, "--method", method, "--samples", "0"])
        assert code == 0
        assert json.loads(out)["certificate"]["sample_count"] == 6

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_woven_samples_below_one_exit_two(self, tmp_path, capsys, samples):
        path = write_doc(tmp_path, EX3_2_DOC)
        code = main(["woven", path, "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: samples must be at least 1\n"


class TestSeedValidation:
    @pytest.mark.parametrize(
        "doc, argv",
        [
            (EX3_2_DOC, ["woven", "--samples", "3"]),
            (COORDINATE_PAIR_DOC, ["perturb", "--method", "pw"]),
            (COORDINATE_PAIR_DOC, ["perturb", "--method", "op"]),
            (COORDINATE_PAIR_DOC, ["perturb", "--method", "proj"]),
        ],
        ids=["woven-sampled", "pw", "op", "proj"],
    )
    def test_negative_seed_exits_two(self, tmp_path, capsys, doc, argv):
        path = write_doc(tmp_path, doc)
        code = main(argv[:1] + [path] + argv[1:] + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"


class TestParserReuse:
    def test_one_process_matches_fresh_runs(self, tmp_path, capsys, monkeypatch):
        # help text wraps at the terminal width; fix it for both sides
        monkeypatch.setenv("COLUMNS", "80")
        fam = write_doc(tmp_path, EX3_2_DOC)
        fus = write_doc(tmp_path, COORDINATE_PAIR_DOC, "fusion.json")
        commands = [
            ["analyze", fam],
            ["woven", fam, "--samples", "5"],
            ["woven", fam],
            ["perturb", fus, "--method", "proj", "--K", "0.5", "--seed", "2"],
            ["reproduce", "--id", "ex3_2"],
            ["woven", fam, "--samples"],
            ["--help"],
        ]
        fresh = {}
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "wovenframes", *argv], capture_output=True, text=True
            )
            fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
        # forward, plain woven follows --samples 5 and must not inherit it
        for order in (commands, commands[::-1]):
            for argv in order:
                code = main(argv)
                captured = capsys.readouterr()
                assert (code, captured.out, captured.err) == fresh[tuple(argv)], argv


class TestPartitionCapVariable:
    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [["woven"], ["perturb", "--method", "proj", "--K", "0.5"]],
    )
    def test_invalid_value_exits_two(self, tmp_path, capsys, monkeypatch, raw, argv):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", raw)
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code = main(argv[:1] + [path] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "WOVEN_MAX_PARTITIONS" in captured.err
        assert "positive integer" in captured.err

    def test_cap_beyond_int64_exits_two(self, tmp_path, capsys, monkeypatch):
        # 2^64 partitions fit under a cap of 10^23, but not in int64 ranks
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", str(10**23))
        doc = {
            "dim": 1,
            "kind": "discrete",
            "systems": [{"vectors": [[1.0]] * 64}, {"vectors": [[2.0]] * 64}],
        }
        code = main(["woven", write_doc(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "WOVEN_MAX_PARTITIONS" in captured.err
        assert "positive integer" in captured.err

    def test_perturb_over_the_cap_has_no_exhaustive_interval(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("WOVEN_MAX_PARTITIONS", "2")
        path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
        code, out = run_main(capsys, ["perturb", path, "--method", "proj", "--K", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["hypothesis_holds"] is True
        assert doc["exhaustive_interval"] is None
        assert doc["prediction_contains_exhaustive"] is None

    def test_huge_partition_count_exits_two(self, tmp_path, capsys):
        vectors = [[1.0]] * 15_000
        doc = {"dim": 1, "kind": "discrete", "systems": [{"vectors": vectors}] * 2}
        code = main(["woven", write_doc(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: 2^15000 partitions exceeds the cap")

    def test_perturb_with_a_huge_partition_count_has_no_exhaustive_interval(
        self, tmp_path, capsys
    ):
        system = {"weights": [1.0] * 15_000, "subspaces": [{"spanning": [[1.0]]}] * 15_000}
        doc = {"dim": 1, "kind": "fusion", "systems": [system, system]}
        path = write_doc(tmp_path, doc)
        argv = ["perturb", path, "--method", "proj", "--samples", "5"]
        code, out = run_main(capsys, argv)
        assert code == 0
        assert json.loads(out)["exhaustive_interval"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{path}", "--format", "json"],
        ["woven", "{path}", "--exhaustive"],
        ["perturb", "{path}", "--method", "pw", "--format", "json"],
        ["reproduce", "--id", "ex3_2", "--format", "json"],
    ],
)
def test_removed_flags_are_usage_errors(tmp_path, capsys, argv):
    path = write_doc(tmp_path, COORDINATE_PAIR_DOC)
    code = main([a.format(path=path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err



def _replaced(doc, keys, value):
    """A deep copy of ``doc`` with the entry at the key path set to ``value``."""
    copy = json.loads(json.dumps(doc))
    target = copy
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return copy


class TestNumberEntries:
    @pytest.mark.parametrize(
        "doc, keys, value, path, message",
        [
            (EX3_2_DOC, ["systems", 0, "vectors", 1, 0], True,
             "systems[0].vectors[1][0]", "finite number required"),
            (EX3_2_DOC, ["systems", 1, "vectors", 2, 1], False,
             "systems[1].vectors[2][1]", "finite number required"),
            (COORDINATE_PAIR_DOC, ["systems", 0, "weights", 0], True,
             "systems[0].weights[0]", "weights must be finite and positive"),
            (COORDINATE_PAIR_DOC, ["systems", 1, "subspaces", 1, "spanning", 0, 3], True,
             "systems[1].subspaces[1].spanning[0][3]", "finite number required"),
            (EX3_2_DOC, ["dim"], True, "dim", "positive integer required"),
            (EX3_2_DOC, ["systems", 0, "vectors", 0, 1], 10**400,
             "systems[0].vectors[0][1]", "finite number required"),
            (EX3_2_DOC, ["systems", 1, "vectors", 1, 0], "1",
             "systems[1].vectors[1][0]", "finite number required"),
            (EX3_2_DOC, ["systems", 0, "vectors", 2, 1], None,
             "systems[0].vectors[2][1]", "finite number required"),
            (EX3_2_DOC, ["systems", 0, "vectors", 1, 1], [1.0],
             "systems[0].vectors[1][1]", "finite number required"),
            (EX3_2_DOC, ["systems", 0, "vectors", 2], [1.0],
             "systems[0].vectors[2]", "vector of length 2 required"),
            (COORDINATE_PAIR_DOC, ["systems", 0, "subspaces", 1, "spanning", 1, 0], "x",
             "systems[0].subspaces[1].spanning[1][0]", "finite number required"),
            (COORDINATE_PAIR_DOC, ["systems", 1, "subspaces", 0, "spanning", 0, 2], None,
             "systems[1].subspaces[0].spanning[0][2]", "finite number required"),
            (COORDINATE_PAIR_DOC, ["systems", 1, "subspaces", 0, "spanning", 1], [[0, 1, 0, 0]],
             "systems[1].subspaces[0].spanning[1]", "vector of length 4 required"),
            (COORDINATE_PAIR_DOC, ["systems", 0, "subspaces", 0, "spanning", 0, 1], 10**400,
             "systems[0].subspaces[0].spanning[0][1]", "finite number required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59, "spanning", 0, 2], True,
             "systems[1].subspaces[59].spanning[0][2]", "finite number required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59, "spanning", 1, 0], "1",
             "systems[1].subspaces[59].spanning[1][0]", "finite number required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59, "spanning", 0, 1], None,
             "systems[1].subspaces[59].spanning[0][1]", "finite number required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59, "spanning", 1, 2], 10**400,
             "systems[1].subspaces[59].spanning[1][2]", "finite number required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59, "spanning", 1], [1.0, 2.0],
             "systems[1].subspaces[59].spanning[1]", "vector of length 3 required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59, "spanning"], {"rows": []},
             "systems[1].subspaces[59].spanning", "list of vectors required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59, "spanning"], None,
             "systems[1].subspaces[59].spanning", "list of vectors required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59], {"span": []},
             "systems[1].subspaces[59]", "object with a 'spanning' list required"),
            (SIXTY_MEMBER_DOC, ["systems", 0, "subspaces", 59], [[1, 0, 0]],
             "systems[0].subspaces[59]", "object with a 'spanning' list required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "weights", 59], -0.5,
             "systems[1].weights[59]", "weights must be finite and positive"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "weights", 59], 0,
             "systems[1].weights[59]", "weights must be finite and positive"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "weights", 59], True,
             "systems[1].weights[59]", "weights must be finite and positive"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "weights", 59], "1",
             "systems[1].weights[59]", "weights must be finite and positive"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "weights", 59], None,
             "systems[1].weights[59]", "weights must be finite and positive"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "weights", 59], 10**400,
             "systems[1].weights[59]", "weights must be finite and positive"),
        ],
        ids=["vector-true", "vector-false", "weight-true", "spanning-true", "dim-true",
             "int-beyond-float", "vector-string", "vector-null", "vector-nested",
             "vector-short-row", "spanning-string", "spanning-null", "spanning-nested-row",
             "spanning-int-beyond-float", "last-member-true", "last-member-string",
             "last-member-null", "last-member-int-beyond-float", "last-member-short-row",
             "last-member-spanning-object", "last-member-spanning-null",
             "last-member-no-spanning", "last-member-not-an-object", "last-weight-negative",
             "last-weight-zero", "last-weight-true", "last-weight-string", "last-weight-null",
             "last-weight-int-beyond-float"],
    )
    def test_booleans_and_unrepresentable_numbers_exit_two(
        self, tmp_path, capsys, doc, keys, value, path, message
    ):
        code = main(["analyze", write_doc(tmp_path, _replaced(doc, keys, value))])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "doc, keys, path, message",
        [
            (EX3_2_DOC, ["systems", 1, "vectors", 0, 1], "systems[1].vectors[0][1]",
             "finite number required"),
            (COORDINATE_PAIR_DOC, ["systems", 1, "subspaces", 1, "spanning", 1, 3],
             "systems[1].subspaces[1].spanning[1][3]", "finite number required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "subspaces", 59, "spanning", 0, 0],
             "systems[1].subspaces[59].spanning[0][0]", "finite number required"),
            (SIXTY_MEMBER_DOC, ["systems", 1, "weights", 59], "systems[1].weights[59]",
             "weights must be finite and positive"),
        ],
        ids=["vector", "spanning", "last-member", "last-weight"],
    )
    def test_literal_beyond_float_range_exits_two(
        self, tmp_path, capsys, doc, keys, path, message
    ):
        # JSON text 1e400 parses as a float infinity
        text = json.dumps(_replaced(doc, keys, "HUGE")).replace('"HUGE"', "1e400")
        doc_path = tmp_path / "huge.json"
        doc_path.write_text(text)
        code = main(["analyze", str(doc_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_members_mixing_empty_and_nonempty_lists_parse_per_member(self):
        family = parse_family_document(SIXTY_MEMBER_DOC)
        for system, sys_doc in zip(family.systems, SIXTY_MEMBER_DOC["systems"]):
            assert system.weights.tobytes() == np.array(sys_doc["weights"]).tobytes()
            for sub, sub_doc in zip(system.subspaces, sys_doc["subspaces"]):
                expected = Subspace.from_spanning(3, sub_doc["spanning"])
                assert sub.basis.tobytes() == expected.basis.tobytes()
                assert sub.rank == expected.rank
        ranks = [sub.rank for sub in family.systems[0].subspaces]
        assert 0 in ranks and len(set(ranks)) > 2

    def test_integer_and_float_entries_parse_alike(self, tmp_path, capsys):
        floats = _replaced(
            EX3_2_DOC,
            ["systems", 0, "vectors"],
            [[float(x) for x in row] for row in EX3_2_DOC["systems"][0]["vectors"]],
        )
        _, out_ints = run_main(capsys, ["woven", write_doc(tmp_path, EX3_2_DOC)])
        _, out_floats = run_main(capsys, ["woven", write_doc(tmp_path, floats, "f.json")])
        assert json.loads(out_ints)["report"] == json.loads(out_floats)["report"]
