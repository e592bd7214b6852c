"""Wall time of the exhaustive partition scans and of the ``op`` subset
search over a fixed grid.

Times ``woven_riesz_decomposition_check`` on seeded rank-1 fusion pairs
with n = d in {8, 10, 12} (2^n partitions; every weaving is a Riesz
decomposition at n = 8 and 10, while at n = 12 two of the 4096 are not:
their smallest eigenvalues, near 2.6e-10, fail the frame rule, so
``woven`` calls that family non-woven) and ``woven_bounds_exhaustive`` on seeded Gaussian
discrete pairs with d = 6 and n in {12, 14, 16} and on seeded rank-2
fusion pairs with d = 6 and n in {12, 14}, the two halves of the
benchmark's woven-exhaustive workload at larger n. Times
``op_perturbation_check`` at the CLI's default of 1000 samples on seeded
near fusion pairs (rank 2, V_i a 0.01 tilt of W_i, constants 0.02):
d = 6 with n = 9 and 12 (all subsets) and n = 13, 16, 20 and 40 (4096
subsets from drawn half sets); on a d = 1 pair with n = 12 and all constants 0, where every
line is the whole line, V = W, and every slack and every screen bound
is 0, so the screen's fixed cost shows alone; and on d = 6 pairs with
n = 12 and 13 whose V_i tilt W_i by 1.0, where the screen's bound is
loose and many (mask, sample) pairs reach the kernel. Times
``pw_check`` (constants 0.02) and ``proj_perturbation_check`` (K = 0.5)
on the first three d = 6 near pairs at 1000 samples; their unit is the
sample, the 1000 drawn vectors and the 6 extremal ones. These per-check
rows keep the best of three runs on one pair, so after the first run
they read the extremal eigenvectors the pair keeps and solve nothing.
The one-shot rows time ``pw``, ``op`` and ``proj`` in turn, with the
constants above, on the d = 6 near pairs with n = 9 and 12, each run
rebuilding the pair from its seeded spans: what one process pays for
the three checks, S_W, S_V and S_W - S_V each solved once; their unit
is the check. Times, for each reference instance id at ``--dim`` 6 and
8, ``build_instance``, ``verify_instance`` of the built instance and the
digest of its family (``_family_digest``), the three layers of one
``reproduce`` command, and the whole command, ``cli.main`` of
``reproduce --id ID --dim D`` with its stdout captured, building the
instance anew in every run; their units are the instance, the check, the
instance and the command. Times ``load_family`` (read, parse, build
and digest) on seeded m = 2 documents of the benchmark's ingest-analyze
shapes, a rank-3 fusion pair with d = 12 and n = 60 and a discrete pair
with d = 15 and n = 80, and on a fusion pair with d = 12 and n = 60 whose
members span 0 to 4 drawn Gaussian rows each, the mixed-count ingest
that no benchmark workload has (one Gram-Schmidt stack per count); each
is written to a temporary directory and its unit is the document. Each
grid point keeps the best of three runs in one process with one BLAS
thread; the family is built before the clock starts, except in the
one-shot rows. The cold-start rows time whole
fresh interpreters, the best of five, in the caller's environment with
this ``src/`` first on ``PYTHONPATH``: ``import wovenframes.cli``, and
one ``python -m wovenframes`` run each of ``analyze``, ``woven`` and
``riesz`` (a seeded rank-2 fusion pair with d = 4 and n = 7, a
woven-exhaustive shape of the benchmark), ``perturb --method pw`` (the
near pair of the first one-shot row) and ``reproduce --id ex3_2``, the
documents written to the temporary directory, which is the runs'
working directory; their unit is the process. Prints one JSON line per
grid point and writes them all, as a JSON list, to ``BENCH_scan.json`` in
the working directory (``--out`` changes the path).

    python tools/scan_timing.py

The ``src/`` next to this file is the one timed, so a copy of the
repository at another revision times that revision.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from wovenframes import (  # noqa: E402
    DiscreteFrame,
    FusionFrame,
    Subspace,
    WovenFamily,
    op_perturbation_check,
    proj_perturbation_check,
    pw_check,
    woven_bounds_exhaustive,
    woven_riesz_decomposition_check,
)
from wovenframes.cli import (  # noqa: E402
    _family_digest,
    canonical_json,
    family_to_document,
    load_family,
    main as cli_main,
)
from wovenframes.instances import INSTANCE_IDS, build_instance, verify_instance  # noqa: E402

SEED = 2024
RUNS = 3
COLD_STARTS = 5
RIESZ_DIMS = (8, 10, 12)
EXHAUSTIVE_D = 6
EXHAUSTIVE_NS = (12, 14, 16)
FUSION_RANK = 2
FUSION_NS = (12, 14)
OP_SAMPLES = 1000
# (d, n, tilt, constants): all subsets at n <= 12, 4096 from drawn half sets
# above; the d = 1 pair has every slack and bound 0, the tilt-1.0 pairs a
# loose bound
OP_ROWS = (
    (6, 9, 0.01, (0.02,) * 3),
    (6, 12, 0.01, (0.02,) * 3),
    (6, 13, 0.01, (0.02,) * 3),
    (1, 12, 0.01, (0.0,) * 3),
    (6, 16, 0.01, (0.02,) * 3),
    (6, 12, 1.0, (0.02,) * 3),
    (6, 13, 1.0, (0.02,) * 3),
    (6, 20, 0.01, (0.02,) * 3),
    (6, 40, 0.01, (0.02,) * 3),
)
# (d, n, tilt, constants) on the first d = 6 op pairs: (lam1, lam2, mu) and (K,)
PW_ROWS = tuple((d, n, tilt, (0.02,) * 3) for d, n, tilt, _ in OP_ROWS[:3])
PROJ_ROWS = tuple((d, n, tilt, (0.5,)) for d, n, tilt, _ in OP_ROWS[:3])
# (d, n, tilt) of the one-shot rows, the first two op pairs
ONE_SHOT_ROWS = tuple((d, n, tilt) for d, n, tilt, _ in OP_ROWS[:2])
INSTANCE_DIMS = (6, 8)
# (kind, d, n, rows) of the load_family rows: the spanning rows of every
# fusion member, or the (least, most) a member's count is drawn from; None
# for discrete
LOAD_ROWS = (("fusion", 12, 60, 3), ("fusion", 12, 60, (0, 4)), ("discrete", 15, 80, None))
# the python arguments of each cold-start row; "fusion.json" and
# "near.json" are written to the working directory first
COLD_ROWS = (
    ("-c", "import wovenframes.cli"),
    ("-m", "wovenframes", "analyze", "fusion.json"),
    ("-m", "wovenframes", "woven", "fusion.json"),
    ("-m", "wovenframes", "riesz", "fusion.json"),
    ("-m", "wovenframes", "perturb", "near.json", "--method", "pw"),
    ("-m", "wovenframes", "reproduce", "--id", "ex3_2"),
)


def fusion_pair(rng: np.random.Generator, d: int, n: int, rank: int) -> WovenFamily:
    """Two systems of n Gaussian spans of ``rank`` vectors in R^d with
    weights in [0.5, 1.5]."""
    systems = []
    for _ in range(2):
        spans = rng.standard_normal((n, rank, d))
        members = tuple(Subspace.from_spanning(d, list(span)) for span in spans)
        systems.append(FusionFrame(d, members, rng.uniform(0.5, 1.5, n)))
    return WovenFamily.fusion(tuple(systems))


def mixed_count_pair(
    rng: np.random.Generator, d: int, n: int, least: int, most: int
) -> WovenFamily:
    """Two systems of n Gaussian spans in R^d, each of a count drawn from
    least..most, with weights in [0.5, 1.5]."""
    systems = []
    for _ in range(2):
        counts = rng.integers(least, most + 1, n)
        members = tuple(Subspace.from_spanning(d, rng.standard_normal((k, d))) for k in counts)
        systems.append(FusionFrame(d, members, rng.uniform(0.5, 1.5, n)))
    return WovenFamily.fusion(tuple(systems))


def discrete_pair(rng: np.random.Generator, d: int, n: int) -> WovenFamily:
    """Two frames of n Gaussian vectors in R^d."""
    return WovenFamily.discrete(
        tuple(DiscreteFrame(d, rng.standard_normal((n, d))) for _ in range(2))
    )


def best_time(run, runs: int = RUNS) -> tuple[float, object]:
    """Shortest of ``runs`` wall times of ``run()``, and its last result."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def near_pair(
    rng: np.random.Generator, d: int, n: int, tilt: float = 0.01
) -> tuple[FusionFrame, FusionFrame]:
    """W of n Gaussian rank-2 members of R^d (rank 1 at d = 1), weights in
    [0.5, 1.5], and V with each spanning set tilted by ``tilt`` times a
    Gaussian."""
    rank = min(2, d)
    weights = rng.uniform(0.5, 1.5, n)
    spans = rng.standard_normal((n, rank, d))
    return tuple(
        FusionFrame(d, tuple(Subspace.from_spanning(d, list(s)) for s in rows), weights)
        for rows in (spans, spans + tilt * rng.standard_normal(spans.shape))
    )


def grid():
    """(record fields, run, summary) per grid point; ``summary`` maps the
    run's result to the record's count and result fields."""
    for d in RIESZ_DIMS:
        family = fusion_pair(np.random.default_rng([SEED, d]), d, d, 1)
        yield (
            {"scan": "woven_riesz_decomposition_check", "d": d, "n": d},
            lambda f=family: woven_riesz_decomposition_check(f),
            lambda r, f=family: {
                "m": f.m,
                "kind": f.kind,
                "partitions": r.partitions_examined,
                "all_pass": r.all_pass,
                "failing_count": r.failing_count,
            },
        )
    d = EXHAUSTIVE_D
    families = [discrete_pair(np.random.default_rng([SEED, d, n]), d, n) for n in EXHAUSTIVE_NS]
    families += [
        fusion_pair(np.random.default_rng([SEED, d, n, FUSION_RANK]), d, n, FUSION_RANK)
        for n in FUSION_NS
    ]
    for family in families:
        yield (
            {"scan": "woven_bounds_exhaustive", "d": d, "n": family.n},
            lambda f=family: woven_bounds_exhaustive(f),
            lambda r, f=family: {
                "m": f.m,
                "kind": f.kind,
                "partitions": r.partitions_examined,
                "universal_lower": r.universal_lower,
                "universal_upper": r.universal_upper,
            },
        )
    for check, rows in (
        (op_perturbation_check, OP_ROWS),
        (pw_check, PW_ROWS),
        (proj_perturbation_check, PROJ_ROWS),
    ):
        for d, n, tilt, constants in rows:
            w, v = near_pair(np.random.default_rng([SEED, d, n]), d, n, tilt)
            yield (
                {"scan": check.__name__, "d": d, "n": n, "tilt": tilt},
                lambda f=check, w=w, v=v, c=constants: f(w, v, *c, OP_SAMPLES, SEED),
                lambda r, n=n: {
                    "samples": OP_SAMPLES,
                    "constants": list(r.constants),
                    "sample_count": r.sample_count,
                    "subset_search": r.subset_search,
                    "inequality_violation": r.inequality_violation,
                    # op sums every subset or 4096 sampled ones; pw has no
                    # subsets and proj takes its worst one in closed form
                    **({"subsets": min(2**n, 4096)} if r.method == "op" else {}),
                },
            )


def one_shot(d: int, n: int, tilt: float) -> tuple:
    """``pw``, ``op`` and ``proj`` in turn on the near pair of the op row
    (d, n, tilt), built anew from its seeded spans."""
    w, v = near_pair(np.random.default_rng([SEED, d, n]), d, n, tilt)
    checks = (
        (pw_check, PW_ROWS),
        (op_perturbation_check, OP_ROWS),
        (proj_perturbation_check, PROJ_ROWS),
    )
    # each check's constants are those of its first row
    return tuple(check(w, v, *rows[0][-1], OP_SAMPLES, SEED) for check, rows in checks)


def one_shot_grid():
    """(record fields, run, summary) of each one-shot row."""
    for d, n, tilt in ONE_SHOT_ROWS:
        yield (
            {"scan": "pw_op_proj_one_shot", "d": d, "n": n, "tilt": tilt},
            lambda d=d, n=n, tilt=tilt: one_shot(d, n, tilt),
            lambda r: {
                "samples": OP_SAMPLES,
                "checks": len(r),
                "methods": [c.method for c in r],
                "inequality_violations": [c.inequality_violation for c in r],
            },
        )


def reproduce(instance_id: str, d: int) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``reproduce`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["reproduce", "--id", instance_id, "--dim", str(d)])
    return code, out.getvalue()


def instance_grid():
    """(record fields, run, summary) of ``build_instance``, of
    ``verify_instance``, of the ``reproduce`` digest and of the whole
    ``reproduce`` command for each instance id and dim; the instance that
    the verify and digest rows read is built before their clocks start."""
    for instance_id in INSTANCE_IDS:
        for d in INSTANCE_DIMS:
            inst = build_instance(instance_id, d)
            fields = {"id": instance_id, "d": d, "truncation_dim": inst.truncation_dim}
            yield (
                {"scan": "build_instance", **fields},
                lambda i=instance_id, d=d: build_instance(i, d),
                lambda r: {"instances": 1},
            )
            yield (
                {"scan": "verify_instance", **fields},
                lambda inst=inst: verify_instance(inst),
                lambda r: {"checks": len(r), "all_ok": all(o.ok for o in r)},
            )
            yield (
                {"scan": "reproduce_digest", **fields},
                lambda inst=inst: _family_digest(inst.payload),
                lambda r: {"instances": 1},
            )
            yield (
                {"scan": "reproduce", **fields},
                lambda i=instance_id, d=d: reproduce(i, d),
                lambda r: {"commands": 1, "exit_code": r[0], "stdout_bytes": len(r[1])},
            )


def load_grid(tmp: str):
    """(record fields, run, summary) of ``load_family`` on each seeded
    document of LOAD_ROWS, written under ``tmp`` before its clock starts."""
    for row, (kind, d, n, rows) in enumerate(LOAD_ROWS):
        rng = np.random.default_rng([SEED, d, n])
        if rows is None:
            family = discrete_pair(rng, d, n)
        elif isinstance(rows, int):
            family = fusion_pair(rng, d, n, rows)
        else:
            family = mixed_count_pair(rng, d, n, *rows)
        path = os.path.join(tmp, f"load-{row}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(family_to_document(family)))
        fields = {"scan": "load_family", "kind": kind, "d": d, "n": n, "spanning_rows": rows}
        yield (
            {**fields, "bytes": os.path.getsize(path)},
            lambda p=path: load_family(p),
            lambda r: {"m": r[0].m, "documents": 1},
        )


def cold_grid(tmp: str):
    """(record fields, run, summary) of each cold-start row, run in ``tmp``
    after its documents are written there; a run is one fresh interpreter."""
    d, n, tilt = ONE_SHOT_ROWS[0]
    documents = {
        "fusion.json": fusion_pair(np.random.default_rng([SEED, 4, 7]), 4, 7, 2),
        "near.json": WovenFamily.fusion(near_pair(np.random.default_rng([SEED, d, n]), d, n, tilt)),
    }
    for name, family in documents.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(canonical_json(family_to_document(family)))
    paths = [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def start(args):
        proc = subprocess.run(
            [sys.executable, *args], cwd=tmp, env=env, capture_output=True, check=False
        )
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr!r}")
        return proc

    for args in COLD_ROWS:
        yield (
            {"scan": "cold_start", "argv": list(args), "runs": COLD_STARTS},
            lambda a=args: start(a),
            lambda r: {"exit_code": r.returncode, "stdout_bytes": len(r.stdout), "processes": 1},
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_scan.json", help="JSON list of the records")
    args = parser.parse_args(argv)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        rows = (*grid(), *one_shot_grid(), *instance_grid(), *load_grid(tmp), *cold_grid(tmp))
        for fields, run, summary in rows:
            record = {"runs": RUNS, **fields, "seed": SEED, "blas_threads": BLAS_THREADS}
            record["best_s"], result = best_time(run, record["runs"])
            record.update(summary(result))
            units = (
                ("partition", "partitions"),
                ("subset", "subsets"),
                ("sample", "sample_count"),
                ("instance", "instances"),
                ("check", "checks"),
                ("command", "commands"),
                ("document", "documents"),
                ("process", "processes"),
            )
            unit, key = next((unit, key) for unit, key in units if key in record)
            record[f"us_per_{unit}"] = 1e6 * record["best_s"] / record[key]
            print(json.dumps(record, sort_keys=True), flush=True)
            records.append(record)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
