"""Quick self-test of the benchmark.

    python3 bench/selftest.py

Checks that the generators' ground truth holds at a tiny size, against
oracles that read the generated documents independently, then runs every
workload for a short window with and without tracing and checks that each
metric named in BENCHMARK.json appears with its unit and that no request
failed. Last, it checks that the benchmark refuses to run without the
toolkit sources. Exits 0 when every check passes.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

WINDOW_S = "1"
RUN_TIMEOUT_S = 180


def tiny(cls, **shape):
    return type(f"Tiny{cls.__name__}", (cls,), {"shape": {**cls.shape, **shape}})


def doc_operators(doc: dict) -> np.ndarray:
    """Per-(index, system) contributions read back from a document."""
    d = doc["dim"]
    systems = doc["systems"]
    n = len(systems[0]["vectors" if doc["kind"] == "discrete" else "weights"])
    out = np.zeros((n, len(systems), d, d))
    for j, system in enumerate(systems):
        for i in range(n):
            if doc["kind"] == "discrete":
                v = np.array(system["vectors"][i])
                out[i, j] = np.outer(v, v)
            else:
                span = np.array(system["subspaces"][i]["spanning"])
                u, s, _ = np.linalg.svd(span.T, full_matrices=False)
                basis = u[:, s > 1e-10 * s.max()]
                out[i, j] = system["weights"][i] ** 2 * basis @ basis.T
    return out


def check_woven_ground_truth(workdir: str) -> list[str]:
    cls = tiny(workloads.WovenExhaustive, d=3, n=4)
    wl = cls(7, workdir)
    problems = []
    for k, item in enumerate(wl.inputs):
        path = Path(workdir) / f"{wl.name}-{k}.json"
        stacks = doc_operators(json.loads(path.read_text()))
        n = stacks.shape[0]
        first = None
        for assignment in itertools.product(range(2), repeat=n):
            op = stacks[np.arange(n), list(assignment)].sum(axis=0)
            if np.linalg.eigvalsh(op)[0] < 1e-8:
                first = assignment
                break
        expected = None if item.expected_exit == 0 else (1,) + (0,) * (n - 1)
        if first != expected:
            problems.append(f"{item.label}: first witness {first}, expected {expected}")
    return problems


def check_analyze_ground_truth(workdir: str) -> list[str]:
    cls = tiny(
        workloads.IngestAnalyze,
        fusion={"d": 3, "n": 4, "rank": 2},
        discrete={"d": 3, "n": 5},
    )
    wl = cls(7, workdir)
    problems = []
    for k, item in enumerate(wl.inputs):
        path = Path(workdir) / f"{wl.name}-{k}.json"
        ops = doc_operators(json.loads(path.read_text())).sum(axis=0)
        for j in range(ops.shape[0]):
            eig = np.linalg.eigvalsh(ops[j])
            if not eig[0] > workloads.MARGIN * eig[-1]:
                problems.append(f"{item.label}: system {j} is not a frame")
    return problems


def check_perturb_ground_truth(workdir: str) -> list[str]:
    """pw holds, and op/proj violations stay within their caps, on a dense
    grid of vectors and every subset."""
    cls = tiny(workloads.PerturbCertify, d=3, n=4, rank=1, perturbation=0.05)
    wl = cls(7, workdir)
    rng = np.random.default_rng(0)
    problems = []
    for k in range(4):
        w, v, truth = wl._near_pair()
        pw_ = np.array([s.basis @ s.basis.T for s in w.subspaces])
        pv_ = np.array([s.basis @ s.basis.T for s in v.subspaces])
        weights = w.weights
        # pw: the block operator c -> sum_i w_i (P_Wi - P_Vi) c_i has norm < mu
        block = np.hstack([wt * (a - b) for wt, a, b in zip(weights, pw_, pv_)])
        if np.linalg.norm(block, 2) >= truth["mu"]:
            problems.append(f"pair {k}: pw left side reaches mu")
        f = rng.standard_normal((2000, w.dim))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        diff = np.linalg.norm(np.einsum("sd,nde->nse", f, pw_ - pv_), axis=2)
        for mask in itertools.product((0, 1), repeat=w.size):
            lhs = (np.array(mask)[:, None] * (weights[:, None] ** 2) * diff).sum(axis=0)
            if lhs.max() > truth["violation_cap"] + 1e-12:
                problems.append(f"pair {k}: subset left side exceeds the cap")
                break
    return problems


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", WINDOW_S, "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )


def check_runs() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        cls = workloads.WORKLOADS.get(workload["name"])
        if cls is None or cls.why != workload["why"]:
            problems.append(f"{workload['name']}: why differs from the workload's")
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} trace={trace}"
            proc = run_bench(ROOT, workload["name"], trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
                problems.append(f"{label}: {result['failed']} failed: {record['problems']}")
            got = result["metrics"]
            for metric in metrics:
                entry = got.get(metric["name"])
                if entry is None or entry.get("unit") != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} missing or mis-unit")
                elif not isinstance(entry["value"], (int, float)):
                    problems.append(f"{label}: metric {metric['name']} not a number")
            extra = set(got) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            if trace:
                coverage = got["trace.coverage"]["value"]
                if coverage < 0.95:
                    problems.append(f"{label}: trace coverage {coverage:.3f} < 0.95")
    return problems


def check_refuses_without_sources() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without toolkit sources: exit {proc.returncode}"]
    return []


def main() -> int:
    (BENCH / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=BENCH / "out")
    try:
        checks = {
            "woven ground truth": lambda: check_woven_ground_truth(workdir),
            "analyze ground truth": lambda: check_analyze_ground_truth(workdir),
            "perturb ground truth": lambda: check_perturb_ground_truth(workdir),
            "short runs": check_runs,
            "refuses without sources": check_refuses_without_sources,
        }
        failed = False
        for name, check in checks.items():
            problems = check()
            print(f"{name}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
