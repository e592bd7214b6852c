"""Seeded workloads for the benchmark, with ground truth and output checks.

Every workload holds a small pool of distinct inputs of one shape and
cycles through it. Generators build the inputs from the workload seed and
record what the answer must be by construction; checks compare reports
against that ground truth with ``numpy.linalg.eigvalsh`` as an oracle
independent of the toolkit's own eigensolver. Generation and checking
never run inside a timed request.

A request goes through ``wovenframes.cli.main`` or through names in
``wovenframes.__all__``, looked up at call time so that a traced run sees
the rebound names.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os

import numpy as np

import wovenframes
from wovenframes import cli

# relative agreement required between a reported bound and the oracle
ORACLE_TOL = 1e-9
# a generator that cannot meet its construction within this many draws
# has a bug; it raises instead of looping forever
MAX_DRAWS = 1000
# ground-truth margin: every spectrum a verdict depends on stays this far
# (relative to the largest eigenvalue) from zero, far above the toolkit's
# 1e-10 frame tolerance and 1e-8 witness threshold
MARGIN = 1e-3


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def close(actual: float, expected: float, scale: float) -> bool:
    return abs(actual - expected) <= ORACLE_TOL * max(1.0, abs(scale))


def orthonormal(spanning: np.ndarray) -> np.ndarray:
    """Orthonormal basis (d, k) of the row span, via numpy QR."""
    q, _ = np.linalg.qr(spanning.T)
    return q


# -- inputs ------------------------------------------------------------------


@dataclasses.dataclass
class Input:
    """One distinct request of a workload.

    ``run()`` returns ``(exit_code, report)`` and is the only thing timed;
    the report is the CLI's output text or the library's certificates.
    ``check(code, report)`` returns a list of problems with the first
    report; later reports must equal it byte for byte (``report_text``). ``facts``
    holds per-request counts read from the checked report.
    """

    label: str
    run: object
    check: object
    expected_exit: int
    ingest_bytes: int = 0
    facts: dict = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    shape: dict = {}

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.inputs: list[Input] = []

    def _write(self, label: str, doc: dict) -> tuple[str, int]:
        path = os.path.join(self.workdir, f"{self.name}-{label}.json")
        data = json.dumps(doc).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        return path, len(data)


# -- woven-exhaustive ----------------------------------------------------------


def stack_operators(stacks: np.ndarray) -> np.ndarray:
    """Weaving operators of every partition, in lexicographic order."""
    n, m = stacks.shape[:2]
    idx = np.array(list(itertools.product(range(m), repeat=n)))
    return stacks[np.arange(n)[None, :], idx].sum(axis=1)


def lex_rank(assignment, m: int) -> int:
    rank = 0
    for a in assignment:
        rank = rank * m + a
    return rank


class WovenExhaustive(Workload):
    name = "woven-exhaustive"
    shape = {
        "command": "woven DOC.json",
        "m": 2,
        "d": 4,
        "n": 7,
        "kinds": "discrete and fusion (rank 2) alternating",
        "pool": 10,
        "nonwoven_share": 0.3,
    }
    why = (
        "woven DOC.json, m=2 d=4 n=7 (128 partitions), discrete and rank-2 fusion, "
        "30% non-woven: partition enumeration and eigen-solves do nearly all the work"
    )
    # positions in the pool that are non-woven by construction; 3 of 10 puts
    # the woven/non-woven cost boundary at the 70th percentile, away from
    # both p50 and p90
    NONWOVEN = (2, 5, 8)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        d, n = self.shape["d"], self.shape["n"]
        for k in range(self.shape["pool"]):
            kind = "discrete" if k % 2 == 0 else "fusion"
            woven = k not in self.NONWOVEN
            doc, stacks, witness = self._family(kind, d, n, woven)
            path, size = self._write(f"{k}", doc)
            self.inputs.append(
                Input(
                    label=f"{kind}-{'woven' if woven else 'nonwoven'}-{k}",
                    run=lambda path=path: run_cli(["woven", path]),
                    check=self._checker(stacks, witness),
                    expected_exit=0 if woven else 1,
                    ingest_bytes=size,
                )
            )

    def _family(self, kind: str, d: int, n: int, woven: bool):
        """Draw until the spectra clear MARGIN; returns (doc, stacks, witness).

        A non-woven family zeroes coordinate c in system 0 at indices
        1..n-1 and in system 1 at index 0, so the partition (1, 0, ..., 0)
        misses e_c and is the only singular weaving: its lexicographic rank
        is 2^(n-1), and every earlier partition clears the margin.
        """
        for _ in range(MAX_DRAWS):
            c = int(self.rng.integers(d))
            stacks = np.zeros((n, 2, d, d))
            systems = []
            for j in range(2):
                zeroed = range(1, n) if j == 0 else range(1)
                if kind == "discrete":
                    vecs = self.rng.standard_normal((n, d))
                    if not woven:
                        vecs[list(zeroed), c] = 0.0
                    systems.append({"vectors": vecs.tolist()})
                    stacks[:, j] = vecs[:, :, None] * vecs[:, None, :]
                else:
                    weights = self.rng.uniform(0.5, 1.5, n)
                    subs = []
                    for i in range(n):
                        span = self.rng.standard_normal((2, d))
                        if not woven and i in zeroed:
                            span[:, c] = 0.0
                        q = orthonormal(span)
                        stacks[i, j] = weights[i] ** 2 * (q @ q.T)
                        subs.append({"spanning": span.tolist()})
                    systems.append({"weights": weights.tolist(), "subspaces": subs})
            eig = np.linalg.eigvalsh(stack_operators(stacks))
            scale = eig[:, -1].max()
            lows = eig[:, 0] / scale
            if woven:
                if lows.min() > MARGIN:
                    witness = None
                    break
            else:
                star = (1,) + (0,) * (n - 1)
                r = lex_rank(star, 2)
                others = np.delete(lows, r)
                if lows[r] < 1e-12 and others.min() > MARGIN:
                    witness = star
                    break
        else:
            raise RuntimeError(f"no {kind} family met the construction")
        doc = {"dim": d, "kind": kind, "systems": systems}
        return doc, stacks, witness

    @staticmethod
    def _checker(stacks: np.ndarray, witness):
        eig = np.linalg.eigvalsh(stack_operators(stacks))
        lower, upper = float(eig[:, 0].min()), float(eig[:, -1].max())
        n, m = stacks.shape[:2]

        def oracle(assignment):
            op = stacks[np.arange(n), list(assignment)].sum(axis=0)
            return np.linalg.eigvalsh(op)

        def check(code: int, text: str) -> list[str]:
            doc = json.loads(text)
            rep = doc["report"]
            problems = []
            if rep["is_woven"] != (witness is None):
                problems.append(f"is_woven {rep['is_woven']}")
            if rep["partitions_examined"] != m**n:
                problems.append(f"partitions_examined {rep['partitions_examined']}")
            worst = oracle(rep["worst_partition"])
            if not (
                close(rep["universal_lower"], worst[0], upper)
                and close(rep["universal_lower"], lower, upper)
            ):
                problems.append(f"universal_lower {rep['universal_lower']} vs {lower}")
            best = oracle(rep["best_upper_partition"])
            if not (
                close(rep["universal_upper"], best[-1], upper)
                and close(rep["universal_upper"], upper, upper)
            ):
                problems.append(f"universal_upper {rep['universal_upper']} vs {upper}")
            if witness is None:
                if rep["witness"] is not None:
                    problems.append("witness on a woven family")
            else:
                got = rep["witness"]
                if got is None or tuple(got["partition"]) != witness:
                    problems.append(f"witness {got and got['partition']}")
                elif not close(got["value"], oracle(witness)[0], upper):
                    problems.append(f"witness value {got['value']}")
                if tuple(rep["worst_partition"]) != witness:
                    problems.append(f"worst_partition {rep['worst_partition']}")
            return problems

        return check


# -- ingest-analyze ------------------------------------------------------------


class IngestAnalyze(Workload):
    name = "ingest-analyze"
    shape = {
        "command": "analyze DOC.json",
        "m": 2,
        "fusion": {"d": 12, "n": 60, "rank": 3},
        "discrete": {"d": 15, "n": 80},
        "pool": 10,
    }
    why = (
        "analyze DOC.json, m=2, fusion d=12 n=60 rank 3 and discrete d=15 n=80 of equal "
        "cost: ingest, orthonormalization and rank tests, no partition enumeration"
    )

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        for k in range(self.shape["pool"]):
            kind = "fusion" if k % 2 == 0 else "discrete"
            doc, operators = self._document(kind)
            path, size = self._write(f"{k}", doc)
            self.inputs.append(
                Input(
                    label=f"{kind}-{k}",
                    run=lambda path=path: run_cli(["analyze", path]),
                    check=self._checker(kind, operators),
                    expected_exit=0,
                    ingest_bytes=size,
                )
            )

    def _document(self, kind: str):
        shape = self.shape[kind]
        d, n = shape["d"], shape["n"]
        systems, operators = [], []
        for _ in range(MAX_DRAWS):
            if kind == "discrete":
                vecs = self.rng.standard_normal((n, d))
                system = {"vectors": vecs.tolist()}
                op = vecs.T @ vecs
            else:
                weights = self.rng.uniform(0.5, 1.5, n)
                spans = self.rng.standard_normal((n, shape["rank"], d))
                op = np.zeros((d, d))
                for w, span in zip(weights, spans):
                    q = orthonormal(span)
                    op += w * w * (q @ q.T)
                system = {
                    "weights": weights.tolist(),
                    "subspaces": [{"spanning": s.tolist()} for s in spans],
                }
            eig = np.linalg.eigvalsh(op)
            if eig[0] > MARGIN * eig[-1]:
                systems.append(system)
                operators.append(op)
            if len(systems) == self.shape["m"]:
                break
        else:
            raise RuntimeError(f"no {kind} frames met the margin")
        return {"dim": d, "kind": kind, "systems": systems}, operators

    @staticmethod
    def _checker(kind: str, operators: list):
        spectra = [np.linalg.eigvalsh(op) for op in operators]

        def check(code: int, text: str) -> list[str]:
            doc = json.loads(text)
            problems = []
            if len(doc["systems"]) != len(spectra):
                return [f"{len(doc['systems'])} systems reported"]
            for k, (rep, eig) in enumerate(zip(doc["systems"], spectra)):
                lo, hi = float(eig[0]), float(eig[-1])
                if not (close(rep["lower"], lo, hi) and close(rep["upper"], hi, hi)):
                    problems.append(f"system {k} bounds {rep['lower']}, {rep['upper']}")
                if kind == "discrete":
                    expected = {"is_frame": True, "is_riesz_basis": False}
                    if not close(rep["bessel_bound"], hi, hi):
                        problems.append(f"system {k} bessel_bound")
                else:
                    expected = {
                        "is_fusion_frame": True,
                        "synthesis_is_onto": True,
                        "is_riesz_decomposition": False,
                        "is_orthonormal_fusion_basis": False,
                    }
                for flag, value in expected.items():
                    if rep[flag] is not value:
                        problems.append(f"system {k} {flag} {rep[flag]}")
            return problems

        return check


# -- perturb-certify -----------------------------------------------------------


class PerturbCertify(Workload):
    name = "perturb-certify"
    shape = {
        "calls": "pw_check, op_perturbation_check, proj_perturbation_check",
        "d": 6,
        "n": 9,
        "rank": 2,
        "samples": 100,
        "perturbation": 0.01,
        "pool": 4,
    }
    why = (
        "pw, op and proj certificates on near fusion pairs, d=6 n=9 rank 2, all 512 "
        "subsets, 100 samples: subset loops ~65%, 15 eigen-solves ~30%"
    )
    OP_CONSTANTS = (0.02, 0.02, 0.02)
    K = 0.5

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        for k in range(self.shape["pool"]):
            w, v, truth = self._near_pair()
            self.inputs.append(
                Input(
                    label=f"pair-{k}",
                    run=self._request(w, v, truth["mu"], k),
                    check=self._checker(truth),
                    expected_exit=0,
                )
            )

    def _near_pair(self):
        """Fusion pair sharing weights, V_i a small tilt of W_i.

        With D_i = ||P_Wi - P_Vi||, Cauchy-Schwarz bounds the pw left side
        by sqrt(sum w_i^2 D_i^2) ||c||, so pw with that mu (plus 1%) holds
        whenever its gate does; the generator redraws until the pw and op
        gates hold. The op and proj left sides are at most
        sum w_i^2 D_i over any subset, and the empty subset gives 0, so
        their sampled violations lie in [0, sum w_i^2 D_i].
        """
        d, n, r = self.shape["d"], self.shape["n"], self.shape["rank"]
        eps = self.shape["perturbation"]
        lam, mu_op, gamma = self.OP_CONSTANTS
        for _ in range(MAX_DRAWS):
            weights = self.rng.uniform(0.5, 1.5, n)
            span_w = self.rng.standard_normal((n, r, d))
            span_v = span_w + eps * self.rng.standard_normal((n, r, d))
            pw_ = np.array([orthonormal(s) @ orthonormal(s).T for s in span_w])
            pv_ = np.array([orthonormal(s) @ orthonormal(s).T for s in span_v])
            dist = np.linalg.norm(pw_ - pv_, ord=2, axis=(1, 2))
            eig_w = np.linalg.eigvalsh((weights[:, None, None] ** 2 * pw_).sum(0))
            eig_v = np.linalg.eigvalsh((weights[:, None, None] ** 2 * pv_).sum(0))
            a_w, b_w, a_v, b_v = eig_w[0], eig_w[-1], eig_v[0], eig_v[-1]
            mu = 1.01 * float(np.sqrt((weights**2 * dist**2).sum()))
            pw_gate = (2.0 / a_w) * (np.sqrt(b_w) + np.sqrt(b_v)) * mu - 1.0
            op_gate = lam * b_w + mu_op * b_v + gamma * np.sqrt(b_w)
            if pw_gate < -MARGIN and op_gate - a_w < -MARGIN:
                break
        else:
            raise RuntimeError("no near pair met the pw and op gates")
        w = self._fusion_frame(span_w, weights)
        v = self._fusion_frame(span_v, weights)
        truth = {
            "mu": mu,
            "a_w": a_w,
            "b_w": b_w,
            "a_v": a_v,
            "b_v": b_v,
            "pw_gate": pw_gate,
            "op_gate": op_gate,
            "violation_cap": float((weights**2 * dist).sum()),
        }
        return w, v, truth

    @staticmethod
    def _fusion_frame(spans, weights):
        d = spans.shape[2]
        subs = tuple(wovenframes.Subspace.from_spanning(d, list(s)) for s in spans)
        return wovenframes.FusionFrame(d, subs, weights)

    def _request(self, w, v, mu: float, seed: int):
        samples = self.shape["samples"]
        lam, mu_op, gamma = self.OP_CONSTANTS
        k = self.K

        def run():
            certs = (
                wovenframes.pw_check(w, v, 0.0, 0.0, mu, samples, seed),
                wovenframes.op_perturbation_check(w, v, lam, mu_op, gamma, samples, seed),
                wovenframes.proj_perturbation_check(w, v, k, samples, seed),
            )
            return 0, certs

        return run

    def _checker(self, truth: dict):
        samples = self.shape["samples"]
        t = truth
        op_value = t["op_gate"]  # lam B_W + mu B_V + gamma sqrt(B_W)

        def check(code: int, certs) -> list[str]:
            pw, op, proj = certs
            scale = t["b_w"] + t["b_v"]
            problems = []
            expected = {
                "pw": (pw, t["a_w"] / 2.0, scale, t["pw_gate"]),
                "op": (op, t["a_w"] - op_value, t["a_w"] + op_value, op_value - t["a_w"]),
                "proj": (proj, (t["a_w"] + t["a_v"]) / (2 * self.K + 1), scale, None),
            }
            for method, (cert, lo, hi, gate) in expected.items():
                if cert.method != method or cert.sample_count != samples + 6:
                    problems.append(f"{method} method/sample_count {cert.sample_count}")
                if not (
                    close(cert.predicted_lower, lo, scale)
                    and close(cert.predicted_upper, hi, scale)
                ):
                    problems.append(f"{method} predicted interval")
                if gate is None:
                    if cert.gate_margin is not None:
                        problems.append(f"{method} gate_margin")
                elif not close(cert.gate_margin, gate, scale):
                    problems.append(f"{method} gate_margin {cert.gate_margin} vs {gate}")
                if cert.hypothesis_holds != (cert.max_violation <= 1e-9):
                    problems.append(f"{method} verdict disagrees with max_violation")
            if not pw.hypothesis_holds or pw.inequality_violation >= 0.0:
                problems.append(f"pw must hold by construction: {pw.inequality_violation}")
            for cert in (op, proj):
                if not -1e-12 <= cert.inequality_violation <= t["violation_cap"] + 1e-9:
                    problems.append(
                        f"{cert.method} violation {cert.inequality_violation} "
                        f"outside [0, {t['violation_cap']}]"
                    )
            return problems

        return check


# -- reproduce-paper -----------------------------------------------------------


class ReproducePaper(Workload):
    name = "reproduce-paper"
    shape = {"command": "reproduce --id ID --dim 6", "ids": ["ex3_2", "ex4_1", "ex4_2", "ex5_4"]}
    why = (
        "reproduce --dim 6 for ex3_2, ex4_1, ex4_2 and ex5_4 in one request: "
        "the only path through transforms and instances"
    )
    DIM = 6

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        ids = self.shape["ids"]

        def run():
            codes, texts = [], []
            for instance_id in ids:
                code, text = run_cli(["reproduce", "--id", instance_id, "--dim", str(self.DIM)])
                codes.append(code)
                texts.append(text)
            return max(codes), "".join(texts)

        def check(code: int, text: str) -> list[str]:
            reports = [json.loads(line) for line in text.splitlines()]
            problems = []
            if [r.get("id") for r in reports] != ids:
                problems.append(f"ids {[r.get('id') for r in reports]}")
            for r in reports:
                # ex3_2 is a fixed two-dimensional instance and reports no dim
                expected_dim = None if r.get("id") == "ex3_2" else self.DIM
                if r.get("all_reference_ok") is not True or r.get("dim") != expected_dim:
                    problems.append(f"{r.get('id')}: reference checks failed")
            return problems

        self.inputs.append(Input("all-four", run, check, expected_exit=0))


WORKLOADS = {
    w.name: w for w in (WovenExhaustive, PerturbCertify, IngestAnalyze, ReproducePaper)
}


def report_text(report) -> str:
    """Canonical text of a request's result, for byte-identity checks."""
    if isinstance(report, str):
        return report
    return canonical([dataclasses.asdict(c) for c in report])
