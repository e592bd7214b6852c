"""Benchmark for the wovenframes toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The toolkit is imported from ``src/`` of
the same checkout; without it the benchmark exits with code 2.

One process, one client, closed loop: each request starts when the
previous one has returned and been checked. Requests go through
``wovenframes.cli.main`` or names in ``wovenframes.__all__``; no request
starts a subprocess. Each distinct input runs once as warm-up, where its
report is checked against the generator's ground truth; every timed
request must then exit as expected and reproduce that report byte for
byte. A request that raises, exits unexpectedly or differs counts as
failed.

Times are scaled to a reference machine speed. Shared hosts speed up
and slow down by up to 2x within minutes, so the benchmark runs a fixed
reference loop (``reference.py``) right before and after every request
and cold start, and multiplies each wall time by REFERENCE_S over the
slower of those two loop times. The slower pass is used because the
loop is short: a brief fast burst that catches one pass but little of
the request would otherwise scale the request up. A time metric
therefore reads in seconds at the speed where the reference loop takes
REFERENCE_S; the raw wall times are in the record line.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, the median
over 16 cold starts of ``python -c "import wovenframes.cli"`` (page cache
warm, interpreter cold), half before and half after the timed window;
``request_s.p50`` and ``request_s.p90``; ``throughput_rps``, completed
requests over the summed request time (the benchmark's own checks and
reference passes excluded); and ``peak_rss_mb`` of the benchmark process.

``--trace 1`` runs the loop untraced for half the window, then traced for
the other half with spans around the library functions each module calls
across module boundaries, and prints per-layer self time per request,
counts, span coverage of request wall time and the tracing overhead. The
spans are written to ``bench/out/spans-WORKLOAD.jsonl``.

The line before the result is a record of the run: the machine, the
library versions, the BLAS thread count, the workload shape and the
within-run spread of request time. The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads; 1 <= nproc on any machine, and a single BLAS
# thread keeps the one-client loop free of thread-pool scheduling noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

COLD_STARTS = 16
# after the checked pass over the inputs, keep cycling untimed this long
WARM_UP_S = 1.0
COLD_START_TIMEOUT_S = 30

END_TO_END = {
    "setup_s": "s",
    "request_s.p50": "s",
    "request_s.p90": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}

# Functions wrapped in spans in the traced run, as module.function.
TIMED = [
    "linalg.sym_eig",
    "linalg.orthonormalize",
    "weaving.woven_bounds_exhaustive",
    "weaving.contribution_stacks",
    "weaving.find_nonwoven_witness",
    "weaving.woven_riesz_decomposition_check",
    "weaving.weave",
    "transforms.local_global_equivalence_report",
    "instances.build_instance",
    "instances.verify_instance",
    "cli.build_parser",
    "cli.load_family",
    "cli._emit",
    "cli._round_trip_floats",
    "cli.canonical_json",
    "cli.family_to_document",
    "fusion.fusion_bounds",
    "fusion.fusion_frame_operator",
    "fusion.synthesis_is_onto",
    "fusion.is_riesz_decomposition",
    "fusion.is_orthonormal_fusion_basis",
    "frames.optimal_bounds",
    "frames.bessel_bound",
    "frames.is_riesz_basis",
    "perturbation.pw_check",
    "perturbation.op_perturbation_check",
    "perturbation.proj_perturbation_check",
]

# metric -> (function whose results are counted, count per call)
COUNTERS = {"perturbation.subsets_examined": ("perturbation._subset_masks", len)}

PER_LAYER = {f"{name}.self_s": "s" for name in TIMED}
PER_LAYER.update(
    {
        "linalg.sym_eig.calls": "count",
        "linalg.orthonormalize.calls": "count",
        "weaving.partitions_examined": "count",
        "weaving.witness_partitions": "count",
        "weaving.eig_per_partition": "ratio",
        "cli.ingest_bytes": "count",
        "cli.report_bytes": "count",
        "perturbation.subsets_examined": "count",
        "perturbation.sample_count": "count",
        "trace.coverage": "ratio",
        "trace.overhead": "ratio",
    }
)


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_toolkit() -> None:
    """Import wovenframes from this checkout's src/, then the benchmark's
    own modules, which import it."""
    if not (SRC / "wovenframes" / "__init__.py").is_file():
        fail(f"no toolkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wovenframes
    import wovenframes.cli  # noqa: F401

    if Path(wovenframes.__file__).resolve().parent.parent != SRC:
        fail(f"imported wovenframes from {wovenframes.__file__}, not {SRC}")
    global reference, spans, workloads
    import reference
    import spans
    import workloads


# -- measurement -----------------------------------------------------------------


class Timings:
    """Request times of one loop phase, raw and scaled to reference speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.served: list[int] = []

    def add(self, raw: float, before: float, after: float, idx: int) -> None:
        self.raw.append(raw)
        self.scaled.append(scale(raw, before, after))
        self.served.append(idx)


def scale(raw: float, before: float, after: float) -> float:
    """``raw`` in seconds at reference speed, given the reference-loop
    times right before and right after it."""
    return raw * reference.REFERENCE_S / max(before, after)


def cold_start_s() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing wovenframes.cli, raw and
    scaled to reference speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import wovenframes.cli; print(wovenframes.cli.__file__)"
    before = reference.reference_s()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=COLD_START_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    after = reference.reference_s()
    if proc.returncode != 0 or Path(proc.stdout.strip()).resolve().parent.parent != SRC:
        fail(f"cold import failed: {proc.stderr.strip() or proc.stdout.strip()}")
    return elapsed, scale(elapsed, before, after)


def decile(values: list[float], q: int) -> float:
    """q-th decile (q in 1..9) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


class Loop:
    """Closed loop over a workload's inputs; counts attempts and failures."""

    def __init__(self, workload) -> None:
        self.inputs = workload.inputs
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {message}")

    def warm_up(self) -> None:
        """Run each input once and check it against ground truth, then
        cycle untimed for WARM_UP_S."""
        for k, item in enumerate(self.inputs):
            self.attempted += 1
            try:
                code, report = item.run()
                text = workloads.report_text(report)
                problems = item.check(code, report)
            except Exception as exc:  # a request fault is a failed request
                self._fail(item.label, f"{type(exc).__name__}: {exc}")
                continue
            if code != item.expected_exit:
                problems.append(f"exit code {code}, expected {item.expected_exit}")
            if problems:
                self._fail(item.label, "; ".join(problems))
                continue
            self.first[k] = text
            if isinstance(report, str):
                item.facts["report_bytes"] = len(text.encode("utf-8"))
                for line in report.splitlines():
                    rep = json.loads(line).get("report") or {}
                    item.facts["partitions_examined"] = rep.get("partitions_examined", 0)
            else:
                item.facts["sample_count"] = sum(c.sample_count for c in report)
        if self.first:
            self.timed(WARM_UP_S)

    def timed(self, seconds: float, call=None) -> Timings:
        """Cycle the inputs for ``seconds``, with a reference pass between
        requests; ``call(k, run)`` wraps request k when given."""
        timings = Timings()
        k = 0
        start = time.perf_counter()
        before = reference.reference_s()
        while time.perf_counter() - start < seconds:
            idx = k % len(self.inputs)
            item = self.inputs[idx]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                code, report = call(k, item.run) if call else item.run()
            except Exception as exc:  # a request fault is a failed request
                self._fail(item.label, f"{type(exc).__name__}: {exc}")
                code, report = None, None
            elapsed = time.perf_counter() - t0
            after = reference.reference_s()
            if report is not None:
                if code != item.expected_exit:
                    self._fail(item.label, f"exit code {code}")
                elif self.first.get(idx) != workloads.report_text(report):
                    self._fail(item.label, "report differs from the first report")
                else:
                    timings.add(elapsed, before, after, idx)
            before = after
            k += 1
        return timings


# -- machine record ------------------------------------------------------------------


def blas_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reported = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = [line.split()[-1] for line in fh if "openblas" in line.lower()]
        if libs:
            lib = ctypes.CDLL(libs[0])
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    reported = int(fn())
                    break
    except OSError:
        pass
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": reported,
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_record(np) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(np),
        "git_commit": git_commit(),
    }


# -- main -------------------------------------------------------------------------


def spread(timings: Timings, workload) -> dict:
    """Within-run spread of request time, and raw medians per input."""
    values = timings.scaled
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    by_input: dict[str, list[float]] = {}
    for t, i in zip(timings.raw, timings.served):
        by_input.setdefault(workload.inputs[i].label, []).append(t)
    return {
        "requests": len(values),
        "iqr_s": q3 - q1,
        "iqr_rel": (q3 - q1) / median,
        "raw_p50_s": statistics.median(timings.raw),
        "raw_p90_s": decile(timings.raw, 9),
        "raw_median_by_input_s": {k: statistics.median(v) for k, v in by_input.items()},
    }


def end_to_end(workload, seconds: float) -> tuple[dict, Loop, dict]:
    loop = Loop(workload)
    half = COLD_STARTS // 2
    cold = [cold_start_s() for _ in range(half)]
    loop.warm_up()
    timings = loop.timed(seconds)
    cold += [cold_start_s() for _ in range(COLD_STARTS - half)]
    if not timings.scaled:
        return {}, loop, {}
    values = {
        "setup_s": statistics.median(s for _, s in cold),
        "request_s.p50": statistics.median(timings.scaled),
        "request_s.p90": decile(timings.scaled, 9),
        "throughput_rps": len(timings.scaled) / sum(timings.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "request_s": spread(timings, workload),
        "raw_setup_s": statistics.median(r for r, _ in cold),
        "raw_throughput_rps": len(timings.raw) / sum(timings.raw),
    }
    return values, loop, extra


def per_layer(workload, seconds: float) -> tuple[dict, Loop, dict]:
    loop = Loop(workload)
    loop.warm_up()
    plain = loop.timed(seconds / 2.0)
    recorder = spans.SpanRecorder()
    recorder.install(TIMED, COUNTERS)
    try:
        traced = loop.timed(seconds / 2.0, call=recorder.run_request)
    finally:
        recorder.uninstall()
    if not plain.scaled or not traced.scaled:
        return {}, loop, {}
    recorder.write(OUT / f"spans-{workload.name}.jsonl")

    s = recorder.summary()
    requests = s["requests"]
    # self times in the same reference seconds as request_s
    speed = sum(traced.scaled) / sum(traced.raw)
    values = {
        f"{name}.self_s": speed * s["self_s"].get(name, 0.0) / requests for name in TIMED
    }
    facts = [workload.inputs[i].facts for i in traced.served]
    eig_calls = s["calls"].get("linalg.sym_eig", 0)
    partitions = sum(f.get("partitions_examined", 0) for f in facts)
    witness_eigs = s["children_calls"].get(("weaving.find_nonwoven_witness", "linalg.sym_eig"), 0)
    values.update(
        {
            "linalg.sym_eig.calls": eig_calls / requests,
            "linalg.orthonormalize.calls": s["calls"].get("linalg.orthonormalize", 0) / requests,
            "weaving.partitions_examined": partitions / len(facts),
            "weaving.witness_partitions": witness_eigs / requests,
            "weaving.eig_per_partition": eig_calls / partitions if partitions else 0.0,
            "cli.ingest_bytes": sum(workload.inputs[i].ingest_bytes for i in traced.served)
            / len(facts),
            "cli.report_bytes": sum(f.get("report_bytes", 0) for f in facts) / len(facts),
            "perturbation.subsets_examined": recorder.counts.get(
                "perturbation.subsets_examined", 0
            )
            / requests,
            "perturbation.sample_count": sum(f.get("sample_count", 0) for f in facts) / len(facts),
            "trace.coverage": s["coverage"],
            "trace.overhead": statistics.median(traced.scaled) / statistics.median(plain.scaled),
        }
    )
    extra = {
        "absent": recorder.absent,
        "untraced": spread(plain, workload),
        "traced": spread(traced, workload),
        "spans": len(recorder.spans),
    }
    return values, loop, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        fail("--seconds must lie in (0, 60]")

    import_toolkit()
    import numpy as np

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        values, loop, extra = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": workload.name,
        "shape": workload.shape,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(np),
        "problems": loop.problems,
        **extra,
    }
    print(json.dumps({"record": record}, default=str))
    result = {
        "correct": loop.failed == 0 and bool(values),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        if values
        else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
