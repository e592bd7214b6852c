"""Wall time of the exhaustive partition scans and of the ``op`` subset
search over a fixed grid.

Times ``woven_riesz_decomposition_check`` on seeded rank-1 fusion pairs
with n = d in {8, 10, 12} (2^n partitions, every weaving a Riesz
decomposition) and ``woven_bounds_exhaustive`` on seeded Gaussian
discrete pairs with d = 6 and n in {12, 14, 16}. Times
``op_perturbation_check`` at the CLI's default of 1000 samples on seeded
near fusion pairs (rank 2, V_i a 0.01 tilt of W_i, constants 0.02):
d = 6 with n = 9 and 12 (all subsets) and n = 13 (4096 drawn subsets);
and on a d = 1 pair with n = 12 and all constants 0, where every line
is the whole line, V = W, every slack and every screen bound is 0, and
no chunk can be skipped: the screen's whole cost shows there. Each grid
point keeps the best of three runs in one process with one BLAS thread;
the family is built before the clock starts. Prints one JSON line per
grid point and writes them all, as a JSON list, to ``BENCH_scan.json``
in the working directory (``--out`` changes the path).

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
import json  # noqa: E402
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
    woven_bounds_exhaustive,
    woven_riesz_decomposition_check,
)

SEED = 2024
RUNS = 3
RIESZ_DIMS = (8, 10, 12)
EXHAUSTIVE_D = 6
EXHAUSTIVE_NS = (12, 14, 16)
OP_SAMPLES = 1000
# (d, n, constants): all subsets at n <= 12, 4096 drawn ones at n = 13;
# the last row is the d = 1 pair whose chunks the screen cannot skip
OP_ROWS = ((6, 9, (0.02,) * 3), (6, 12, (0.02,) * 3), (6, 13, (0.02,) * 3), (1, 12, (0.0,) * 3))


def rank1_pair(rng: np.random.Generator, d: int) -> WovenFamily:
    """Two systems of d Gaussian lines in R^d with weights in [0.5, 1.5]."""
    systems = []
    for _ in range(2):
        lines = tuple(Subspace.from_spanning(d, [row]) for row in rng.standard_normal((d, d)))
        systems.append(FusionFrame(d, lines, rng.uniform(0.5, 1.5, d)))
    return WovenFamily.fusion(tuple(systems))


def discrete_pair(rng: np.random.Generator, d: int, n: int) -> WovenFamily:
    """Two frames of n Gaussian vectors in R^d."""
    return WovenFamily.discrete(
        tuple(DiscreteFrame(d, rng.standard_normal((n, d))) for _ in range(2))
    )


def best_time(run) -> tuple[float, object]:
    """Shortest of RUNS wall times of ``run()``, and its last result."""
    best = float("inf")
    for _ in range(RUNS):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def near_pair(rng: np.random.Generator, d: int, n: int) -> tuple[FusionFrame, FusionFrame]:
    """W of n Gaussian rank-2 members of R^d (rank 1 at d = 1), weights in
    [0.5, 1.5], and V with each spanning set tilted by 0.01."""
    rank = min(2, d)
    weights = rng.uniform(0.5, 1.5, n)
    spans = rng.standard_normal((n, rank, d))
    return tuple(
        FusionFrame(d, tuple(Subspace.from_spanning(d, list(s)) for s in rows), weights)
        for rows in (spans, spans + 0.01 * rng.standard_normal(spans.shape))
    )


def grid():
    """(record fields, run, summary) per grid point; ``summary`` maps the
    run's result to the record's count and result fields."""
    for d in RIESZ_DIMS:
        family = rank1_pair(np.random.default_rng([SEED, d]), d)
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
    for n in EXHAUSTIVE_NS:
        family = discrete_pair(np.random.default_rng([SEED, EXHAUSTIVE_D, n]), EXHAUSTIVE_D, n)
        yield (
            {"scan": "woven_bounds_exhaustive", "d": EXHAUSTIVE_D, "n": n},
            lambda f=family: woven_bounds_exhaustive(f),
            lambda r, f=family: {
                "m": f.m,
                "kind": f.kind,
                "partitions": r.partitions_examined,
                "universal_lower": r.universal_lower,
                "universal_upper": r.universal_upper,
            },
        )
    for d, n, constants in OP_ROWS:
        w, v = near_pair(np.random.default_rng([SEED, d, n]), d, n)
        yield (
            {"scan": "op_perturbation_check", "d": d, "n": n},
            lambda w=w, v=v, c=constants: op_perturbation_check(w, v, *c, OP_SAMPLES, SEED),
            lambda r, n=n: {
                "samples": OP_SAMPLES,
                "constants": list(r.constants),
                "subsets": min(2**n, 4096),
                "subset_search": r.subset_search,
                "inequality_violation": r.inequality_violation,
            },
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_scan.json", help="JSON list of the records")
    args = parser.parse_args(argv)
    records = []
    for fields, run, summary in grid():
        seconds, result = best_time(run)
        record = {
            **fields,
            "seed": SEED,
            "best_s": seconds,
            "runs": RUNS,
            "blas_threads": BLAS_THREADS,
            **summary(result),
        }
        unit = "partitions" if "partitions" in record else "subsets"
        record[f"us_per_{unit[:-1]}"] = 1e6 * seconds / record[unit]
        print(json.dumps(record, sort_keys=True), flush=True)
        records.append(record)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
