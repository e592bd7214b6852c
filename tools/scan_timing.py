"""Wall time of the exhaustive partition scans over a fixed grid.

Times ``woven_riesz_decomposition_check`` on seeded rank-1 fusion pairs
with n = d in {8, 10, 12} (2^n partitions, every weaving a Riesz
decomposition) and ``woven_bounds_exhaustive`` on seeded Gaussian
discrete pairs with d = 6 and n in {12, 14, 16}. Each grid point keeps
the best of three runs in one process with one BLAS thread; the family
is built before the clock starts. Prints one JSON line per grid point
and writes them all, as a JSON list, to ``BENCH_scan.json`` in the
working directory (``--out`` changes the path).

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
    woven_bounds_exhaustive,
    woven_riesz_decomposition_check,
)

SEED = 2024
RUNS = 3
RIESZ_DIMS = (8, 10, 12)
EXHAUSTIVE_D = 6
EXHAUSTIVE_NS = (12, 14, 16)


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


def grid():
    """(scan, d, n, family, run, summary) per grid point."""
    for d in RIESZ_DIMS:
        family = rank1_pair(np.random.default_rng([SEED, d]), d)
        yield (
            "woven_riesz_decomposition_check", d, d, family,
            lambda f=family: woven_riesz_decomposition_check(f),
            lambda r: {"all_pass": r.all_pass, "failing_count": len(r.failing)},
        )
    for n in EXHAUSTIVE_NS:
        family = discrete_pair(np.random.default_rng([SEED, EXHAUSTIVE_D, n]), EXHAUSTIVE_D, n)
        yield (
            "woven_bounds_exhaustive", EXHAUSTIVE_D, n, family,
            lambda f=family: woven_bounds_exhaustive(f),
            lambda r: {"universal_lower": r.universal_lower, "universal_upper": r.universal_upper},
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_scan.json", help="JSON list of the records")
    args = parser.parse_args(argv)
    records = []
    for scan, d, n, family, run, summary in grid():
        seconds, result = best_time(run)
        partitions = result.partitions_examined
        record = {
            "scan": scan,
            "d": d,
            "n": n,
            "m": family.m,
            "kind": family.kind,
            "seed": SEED,
            "partitions": partitions,
            "best_s": seconds,
            "us_per_partition": 1e6 * seconds / partitions,
            "runs": RUNS,
            "blas_threads": BLAS_THREADS,
            **summary(result),
        }
        print(json.dumps(record, sort_keys=True), flush=True)
        records.append(record)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
