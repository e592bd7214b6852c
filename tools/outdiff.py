"""Semantic diff of CLI reports between a base revision and the working tree.

Runs a fixed command corpus, one subprocess per command, against the
``src/`` of ``--base REV`` (exported with ``git archive``) and against the
``src/`` of the working tree, and compares what each run printed:

- exact: exit codes, stderr, object keys, list lengths, strings (verdict
  names, digests), booleans, integers (partitions, counts) and every
  other non-float value;
- floats: ``|a - b| <= 1e-12 * (1 + |a|)``;
- vectors (numeric lists under a ``vector`` key, such as non-woven
  witnesses): equal norms, and equal up to sign with
  ``|<u, v>| >= (1 - 1e-10) |u| |v|``.

The corpus: the byte-identity commands of acceptance criterion 10, plus
``perturb --method op`` on its fusion document; ``woven``, ``woven --eps
5``, ``woven --samples 7`` and ``analyze`` on every woven-exhaustive
input, and ``analyze`` on every ingest-analyze input, that the benchmark
generators in ``bench/workloads.py`` build for seeds 1-4; ``reproduce``
for every instance id at ``--dim`` 4, 6 and 8. Documents written here
from fixed seeds add ``perturb --method op`` and ``proj`` (K = 0.5 and
1) on a near fusion pair with n = 13, above 2^12 index subsets, so
``op``'s subset masks are sampled (``proj`` takes its worst subset in
closed form at every n, so neither there nor at n = 23 does it sample
subsets); ``perturb --method op`` and ``proj --K 0.5`` at
the default 1000 samples on two near fusion pairs with d = 6, n = 9 (all
512 subsets, many mask chunks), and ``pw``, ``op`` and ``proj`` with
``--samples 0`` (the six extremal vectors alone) on one of them;
``woven`` and ``woven --eps 0.5`` on discrete and fusion families with
m = 2, n = 13 and m = 3, n = 9, whose first singular weaving (1, 0, ...,
0) has lexicographic rank m^(n-1), many scan chunks into the
enumeration, and ``woven --samples 12000 --seed 5`` on the m = 2 ones,
whose 12,002 sampled rows span 12 chunks; ``woven`` on discrete and
fusion families with d = 1 and n = 9, whose bounds move in the last
bits against a base that sums a d = 1 weaving pairwise (not
byte-identical, no difference); ``analyze`` and ``woven`` on
fusion documents with d = 1, 3 and 5 whose members mix spanning counts
within a system and include dependent vectors, an all-zero spanning set,
an empty spanning list and -0.0 entries. Refusals and over-cap paths,
above the default cap of 2^22 partitions: ``reproduce --id ex4_1 --dim
30`` (exit 2), ``woven`` on a discrete family with m = 2, n = 23 (exit
2), and ``perturb --method proj`` on a near fusion pair with n = 23,
whose ``exhaustive_interval`` is null; at n = 15,000, where m^n has
more digits than Python converts to a string, ``woven`` on a discrete
family with d = 1, n = 15,000 (exit 2), and ``perturb --method proj
--samples 5`` (``exhaustive_interval`` null) and ``perturb --method op
--samples 5`` (4096 sampled subsets) on a near fusion pair with d = 1,
n = 15,000 (exit 0); ``perturb --method pw --samples 5`` on a
d = 2 pair whose two W members both span e_1 (exit 2: W is not a fusion
frame); ``reproduce --id nope``, ``--id ex3_2 --dim -5``, ``--id ex4_1
--dim 2``, ``--id ex4_2`` with ``--dim 1`` and ``-1``, and ``--id ex5_4``
with ``--dim 2`` and 5 (exit 2). ``analyze`` on the criterion-10
documents with an entry fault and a later shape fault, three ways (exit
2, the shape fault named), and on a fusion pair whose every spanning
list is empty (exit 0). Overflow: ``woven`` and ``analyze`` on a d = 2
discrete family with entries up to 3e154 and on a d = 2 fusion family
with one weight 1e200, whose operators overflow to inf and nan (exit 2,
the error line alone on stderr).
``riesz`` on every woven-exhaustive fusion input for seeds 1-4
(rank 2, so no weaving's ranks add up to d), on a random rank-1 family
with n = d = 6 whose weavings all pass, on a coordinate family with
swapped axes where some weavings fail, and on a rank-1 family with
m = 3 and n = d = 8 whose 3^8 partitions span many chunks and whose
third system repeats lines of the first. On the tolerance band:
``riesz``, ``woven`` and ``analyze`` on the d = 2 pair {e_1, e_2} /
{e_1, span(1, 1e-7)}, whose weavings with the tilted line have smallest
eigenvalue about 5e-15 (both ``riesz`` and ``woven`` exit 1), and ``perturb
--method pw``, ``op`` and ``proj`` with ``--samples 5`` on a d = 2 pair
weighted 1e-160, whose A_W = 1e-320 fails the frame rule (exit 2). Two
commands run at a time.

    python tools/outdiff.py --base HEAD~1

Prints one line per difference and a summary line that also counts the
commands whose raw (exit code, stdout, stderr) are not byte-identical,
as in ``297 commands, 0 differences, 0 not byte-identical``; exits 0
when there are no differences and 1 otherwise, whatever the byte count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLOAT_RTOL = 1e-12
VECTOR_TOL = 1e-10

SEEDS = (1, 2, 3, 4)
JOBS = 2
INSTANCE_IDS = ("ex3_2", "ex4_1", "ex4_2", "ex5_4")
REPRODUCE_DIMS = (4, 6, 8)

COORDINATE_PLANES = {
    "weights": [1, 1],
    "subspaces": [
        {"spanning": [[1, 0, 0, 0], [0, 1, 0, 0]]},
        {"spanning": [[0, 0, 1, 0], [0, 0, 0, 1]]},
    ],
}
CRITERION_10_DOCS = {
    "discrete": {
        "dim": 2,
        "kind": "discrete",
        "systems": [
            {"vectors": [[0, 2], [3, 0], [2, 3]]},
            {"vectors": [[1, 0], [0, 1], [3, 1]]},
        ],
    },
    "fusion": {"dim": 4, "kind": "fusion", "systems": [COORDINATE_PLANES, COORDINATE_PLANES]},
}


# -- generated documents ------------------------------------------------------


def _spanning(spans: np.ndarray) -> list:
    return [{"spanning": span.tolist()} for span in spans]


def near_fusion_pair_doc(seed: int, d: int = 4, n: int = 13, rank: int = 2) -> dict:
    """Two-system fusion document, V_i a 1% tilt of W_i, shared weights."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n).tolist()
    span_w = rng.standard_normal((n, rank, d))
    span_v = span_w + 0.01 * rng.standard_normal((n, rank, d))
    systems = [{"weights": weights, "subspaces": _spanning(s)} for s in (span_w, span_v)]
    return {"dim": d, "kind": "fusion", "systems": systems}


def grouping_doc(seed: int, d: int, n: int = 7) -> dict:
    """Two-system fusion document whose members mix spanning counts 1-3
    within each system, so ingest orthonormalizes several count groups;
    member 1 is an empty spanning list in system 0 and an all-zero pair in
    system 1, member 2 appends a dependent vector, member 3 carries -0.0
    entries."""
    rng = np.random.default_rng(seed)
    systems = []
    for j in range(2):
        spans = []
        for i in range(n):
            span = rng.standard_normal((1 + (i + j) % 3, d))
            if i == 1:
                span = span[:0] if j == 0 else np.zeros((2, d))
            elif i == 2:
                span = np.vstack([span, 2.0 * span[:1] - span[-1:]])
            elif i == 3:
                span[:, ::2] = -0.0
            spans.append(span)
        weights = rng.uniform(0.5, 1.5, n).tolist()
        systems.append({"weights": weights, "subspaces": _spanning(spans)})
    return {"dim": d, "kind": "fusion", "systems": systems}


def late_witness_doc(seed: int, kind: str, m: int, n: int, d: int = 4) -> dict:
    """Coordinate 0 is zeroed in system 0 at indices 1..n-1 and in
    system 1 at index 0, so (1, 0, ..., 0) is the first singular
    weaving; further systems are generic."""
    rng = np.random.default_rng(seed)
    systems = []
    for j in range(m):
        zeroed = {0: range(1, n), 1: range(1)}.get(j, ())
        if kind == "discrete":
            vectors = rng.standard_normal((n, d))
            vectors[list(zeroed), 0] = 0.0
            systems.append({"vectors": vectors.tolist()})
        else:
            spans = rng.standard_normal((n, 2, d))
            spans[list(zeroed), :, 0] = 0.0
            weights = rng.uniform(0.5, 1.5, n).tolist()
            systems.append({"weights": weights, "subspaces": _spanning(spans)})
    return {"dim": d, "kind": kind, "systems": systems}


def line_doc(seed: int, kind: str, n: int = 9) -> dict:
    """d = 1 family of two systems, n entries each of Gaussian values
    scaled by 2^-6..2^6: frame vectors, or lines weighted by the values'
    magnitudes. Past 8 indices numpy sums a gathered d = 1 index stack
    pairwise, so against a pairwise base the bounds move in the last bits."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(2):
        values = rng.standard_normal(n) * np.exp2(rng.integers(-6, 7, n))
        if kind == "discrete":
            systems.append({"vectors": values[:, None].tolist()})
        else:
            line = {"spanning": [[1.0]]}
            systems.append({"weights": np.abs(values).tolist(), "subspaces": [line] * n})
    return {"dim": 1, "kind": kind, "systems": systems}


def degenerate_w_doc() -> dict:
    """d = 2 fusion pair whose two W members both span e_1, so A_W = 0."""
    e1, e2 = [[1.0, 0.0]], [[0.0, 1.0]]
    systems = [
        {"weights": [1.0, 1.0], "subspaces": [{"spanning": e1}, {"spanning": e1}]},
        {"weights": [1.0, 1.0], "subspaces": [{"spanning": e1}, {"spanning": e2}]},
    ]
    return {"dim": 2, "kind": "fusion", "systems": systems}


def band_doc(t: float = 1e-7) -> dict:
    """d = 2 fusion pair {e_1, e_2} / {e_1, span(1, t)}, unit weights: the
    weavings that take the tilted line have a smallest eigenvalue of
    order t^2, inside the frame rule's tolerance band."""
    e1, e2, tilted = [[1.0, 0.0]], [[0.0, 1.0]], [[1.0, t]]
    systems = [
        {"weights": [1.0, 1.0], "subspaces": [{"spanning": e1}, {"spanning": e2}]},
        {"weights": [1.0, 1.0], "subspaces": [{"spanning": e1}, {"spanning": tilted}]},
    ]
    return {"dim": 2, "kind": "fusion", "systems": systems}


def tiny_weights_doc(weight: float = 1e-160) -> dict:
    """d = 2 pair of coordinate-line systems weighted ``weight``: A_W =
    weight^2 is positive (1e-320, subnormal) but fails the frame rule."""
    system = {
        "weights": [weight, weight],
        "subspaces": [{"spanning": [[1.0, 0.0]]}, {"spanning": [[0.0, 1.0]]}],
    }
    return {"dim": 2, "kind": "fusion", "systems": [system, system]}


def two_fault_docs() -> dict[str, dict]:
    """The criterion-10 documents, each with an entry fault and a shape
    fault after it: a bad spanning entry in system 0 and a weight -1 in
    system 1; a bad entry in member 0 and no ``spanning`` key in member 1;
    a bad discrete entry and unequal member counts."""
    kinds = {"later-weight": "fusion", "later-member": "fusion", "member-count": "discrete"}
    docs = {name: json.loads(json.dumps(CRITERION_10_DOCS[kind])) for name, kind in kinds.items()}
    for name in ("later-weight", "later-member"):
        docs[name]["systems"][0]["subspaces"][0]["spanning"][0][0] = "x"
    docs["later-weight"]["systems"][1]["weights"][0] = -1
    docs["later-member"]["systems"][0]["subspaces"][1] = {"span": []}
    docs["member-count"]["systems"][0]["vectors"][0][0] = "x"
    docs["member-count"]["systems"][1]["vectors"].pop()
    return docs


def empty_members_doc() -> dict:
    """d = 2 fusion pair whose members are all empty spanning lists."""
    system = {"weights": [1.0, 2.0], "subspaces": [{"spanning": []}] * 2}
    return {"dim": 2, "kind": "fusion", "systems": [system, system]}


def overflow_doc(kind: str) -> dict:
    """d = 2 family whose operators overflow: discrete vectors with entries
    up to 3e154, or a fusion system with one weight 1e200."""
    if kind == "discrete":
        big = [[3e154, 0.0], [0.0, 3e154], [3e154, 3e154]]
        systems = [{"vectors": big}, {"vectors": [[1.0, 0.0], [0.0, 1.0], [3e154, 1.0]]}]
    else:
        lines = [{"spanning": [[1.0, 0.0]]}, {"spanning": [[0.0, 1.0]]}]
        systems = [{"weights": w, "subspaces": lines} for w in ([1e200, 1.0], [1.0, 1.0])]
    return {"dim": 2, "kind": kind, "systems": systems}


def lines_doc(seed: int, m: int, d: int, repeat_first: bool = False) -> dict:
    """m systems of d random lines in R^d with random weights; with
    ``repeat_first`` the last system holds the first one's lines shifted
    by one index, so weavings that take a line twice fail."""
    rng = np.random.default_rng(seed)
    spans = rng.standard_normal((m, d, 1, d))
    if repeat_first:
        spans[-1] = np.roll(spans[0], -1, axis=0)
    systems = [
        {"weights": rng.uniform(0.5, 1.5, d).tolist(), "subspaces": _spanning(s)}
        for s in spans
    ]
    return {"dim": d, "kind": "fusion", "systems": systems}


def swapped_axes_doc(d: int = 4) -> dict:
    """The coordinate axes against the same axes in reverse order."""
    axes = np.eye(d)[:, None, :]
    systems = [
        {"weights": [1.0] * d, "subspaces": _spanning(s)} for s in (axes, axes[::-1])
    ]
    return {"dim": d, "kind": "fusion", "systems": systems}


# -- comparison --------------------------------------------------------------


def _is_vector(value) -> bool:
    return all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)


def _compare_vectors(base: list, head: list, path: str) -> list[str]:
    dot = sum(a * b for a, b in zip(base, head))
    nb = math.sqrt(sum(a * a for a in base))
    nh = math.sqrt(sum(b * b for b in head))
    if abs(nb - nh) > FLOAT_RTOL * (1.0 + nb):
        return [f"{path}: vector norms {nb!r} != {nh!r}"]
    if nb == 0.0:
        return [] if base == head else [f"{path}: {base!r} != {head!r}"]
    if abs(dot) < (1.0 - VECTOR_TOL) * nb * nh:
        return [f"{path}: vectors not parallel, |<u,v>|/(|u||v|) = {abs(dot) / (nb * nh)!r}"]
    return []


def compare(base, head, path: str = "$") -> list[str]:
    """Differences between two decoded JSON values, one line each."""
    if isinstance(base, dict) and isinstance(head, dict):
        if base.keys() != head.keys():
            return [f"{path}: keys differ: {sorted(base.keys() ^ head.keys())}"]
        out = []
        for key in sorted(base):
            out += compare(base[key], head[key], f"{path}.{key}")
        return out
    if isinstance(base, list) and isinstance(head, list):
        if len(base) != len(head):
            return [f"{path}: lengths {len(base)} != {len(head)}"]
        if path.endswith(".vector") and base and _is_vector(base) and _is_vector(head):
            return _compare_vectors(base, head, path)
        out = []
        for k, (a, b) in enumerate(zip(base, head)):
            out += compare(a, b, f"{path}[{k}]")
        return out
    if type(base) is float and type(head) is float:
        if abs(base - head) <= FLOAT_RTOL * (1.0 + abs(base)):
            return []
        return [f"{path}: {base!r} != {head!r}"]
    if type(base) is not type(head) or base != head:
        return [f"{path}: {base!r} != {head!r}"]
    return []


def _decode(stdout: str):
    """Each stdout line as JSON; the raw text when a line is not JSON."""
    try:
        return [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError:
        return stdout


def compare_runs(base: tuple[int, str, str], head: tuple[int, str, str]) -> list[str]:
    """Differences between two (exit code, stdout, stderr) results."""
    out = []
    if base[0] != head[0]:
        out.append(f"exit code {base[0]} != {head[0]}")
    if base[2] != head[2]:
        out.append(f"stderr {base[2]!r} != {head[2]!r}")
    return out + compare(_decode(base[1]), _decode(head[1]))


def summarize(runs) -> tuple[list[str], int]:
    """Over (label, base, head) triples of a command's label and its two
    (exit code, stdout, stderr) results: the difference lines, each
    prefixed with its label, and the count of commands whose results are
    not byte-identical."""
    lines = []
    not_identical = 0
    for label, base, head in runs:
        lines += [f"{label}: {line}" for line in compare_runs(base, head)]
        not_identical += base != head
    return lines, not_identical


# -- corpus -------------------------------------------------------------------


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _kind(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["kind"]


def build_corpus(workdir: str) -> list[list[str]]:
    """Write the corpus inputs under ``workdir``; returns the argv lists."""
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "bench")]
    import workloads

    fam = _write(os.path.join(workdir, "criterion10-discrete.json"), CRITERION_10_DOCS["discrete"])
    fus = _write(os.path.join(workdir, "criterion10-fusion.json"), CRITERION_10_DOCS["fusion"])
    corpus = [
        ["analyze", fam],
        ["woven", fam],
        ["woven", fam, "--samples", "64", "--seed", "13"],
        ["perturb", fus, "--method", "pw", "--lambda1", "0.01",
         "--lambda2", "0.01", "--mu", "0.005", "--seed", "4"],
        ["perturb", fus, "--method", "proj", "--K", "0.5"],
        ["perturb", fus, "--method", "op", "--lambda", "0.01", "--mu", "0.01",
         "--gamma", "0.01", "--seed", "4"],
    ]
    pair = _write(os.path.join(workdir, "near-pair-n13.json"), near_fusion_pair_doc(13))
    corpus += [
        ["perturb", pair, "--method", "op", "--lambda", "0.02", "--mu", "0.02",
         "--gamma", "0.02", "--samples", "50", "--seed", "2"],
        ["perturb", pair, "--method", "proj", "--K", "0.5", "--samples", "50", "--seed", "2"],
        ["perturb", pair, "--method", "proj", "--K", "1", "--samples", "50", "--seed", "2"],
    ]
    op_args = ["--lambda", "0.02", "--mu", "0.02", "--gamma", "0.02"]
    for seed in (609, 619):
        pair = _write(
            os.path.join(workdir, f"near-pair-d6-n9-{seed}.json"),
            near_fusion_pair_doc(seed, d=6, n=9),
        )
        corpus += [
            ["perturb", pair, "--method", "op", *op_args, "--seed", "3"],
            ["perturb", pair, "--method", "proj", "--K", "0.5", "--seed", "3"],
        ]
    corpus += [
        ["perturb", pair, "--method", "pw", "--mu", "0.05", "--samples", "0"],
        ["perturb", pair, "--method", "op", *op_args, "--samples", "0"],
        ["perturb", pair, "--method", "proj", "--K", "0.5", "--samples", "0"],
    ]
    over_pair = _write(os.path.join(workdir, "near-pair-n23.json"), near_fusion_pair_doc(23, n=23))
    over_woven = _write(
        os.path.join(workdir, "late-witness-discrete-m2-n23.json"),
        late_witness_doc(223, "discrete", 2, 23),
    )
    huge_woven = _write(
        os.path.join(workdir, "late-witness-discrete-d1-n15000.json"),
        late_witness_doc(15_000, "discrete", 2, 15_000, d=1),
    )
    huge_pair = _write(
        os.path.join(workdir, "near-pair-d1-n15000.json"),
        near_fusion_pair_doc(15_000, d=1, n=15_000, rank=1),
    )
    corpus += [
        ["reproduce", "--id", "ex4_1", "--dim", "30"],
        ["woven", over_woven],
        ["perturb", over_pair, "--method", "proj", "--K", "0.5", "--samples", "50", "--seed", "2"],
        ["woven", huge_woven],
        ["perturb", huge_pair, "--method", "proj", "--samples", "5"],
        ["perturb", huge_pair, "--method", "op", "--samples", "5"],
        ["perturb", _write(os.path.join(workdir, "degenerate-w.json"), degenerate_w_doc()),
         "--method", "pw", "--samples", "5"],
    ]
    band = _write(os.path.join(workdir, "band-t1e-7.json"), band_doc())
    corpus += [["riesz", band], ["woven", band], ["analyze", band]]
    tiny = _write(os.path.join(workdir, "tiny-weights-1e-160.json"), tiny_weights_doc())
    corpus += [
        ["perturb", tiny, "--method", "pw", "--samples", "5"],
        ["perturb", tiny, "--method", "op", "--samples", "5"],
        ["perturb", tiny, "--method", "proj", "--samples", "5"],
    ]
    corpus += [
        ["reproduce", "--id", instance_id, "--dim", dim]
        for instance_id, dim in (("nope", "6"), ("ex4_1", "2"), ("ex4_2", "1"),
                                 ("ex5_4", "2"), ("ex5_4", "5"), ("ex4_2", "-1"),
                                 ("ex3_2", "-5"))
    ]
    for kind in ("discrete", "fusion"):
        path = _write(os.path.join(workdir, f"overflow-{kind}.json"), overflow_doc(kind))
        corpus += [["woven", path], ["analyze", path]]
    for name, doc in two_fault_docs().items():
        corpus.append(["analyze", _write(os.path.join(workdir, f"two-fault-{name}.json"), doc)])
    empty = _write(os.path.join(workdir, "empty-members.json"), empty_members_doc())
    corpus.append(["analyze", empty])
    for name, doc in (
        ("riesz-lines-d6.json", lines_doc(6, 2, 6)),
        ("riesz-swapped-axes.json", swapped_axes_doc()),
        ("riesz-lines-m3-d8.json", lines_doc(38, 3, 8, repeat_first=True)),
    ):
        corpus.append(["riesz", _write(os.path.join(workdir, name), doc)])
    for d in (1, 3, 5):
        path = _write(os.path.join(workdir, f"grouping-d{d}.json"), grouping_doc(700 + d, d))
        corpus += [["analyze", path], ["woven", path]]
    for kind in ("discrete", "fusion"):
        path = _write(os.path.join(workdir, f"lines-{kind}-d1-n9.json"), line_doc(902, kind))
        corpus.append(["woven", path])
        for m, n in ((2, 13), (3, 9)):
            doc = late_witness_doc(m * 100 + n, kind, m, n)
            path = _write(os.path.join(workdir, f"late-witness-{kind}-m{m}-n{n}.json"), doc)
            corpus += [["woven", path], ["woven", path, "--eps", "0.5"]]
            if m == 2:
                corpus.append(["woven", path, "--samples", "12000", "--seed", "5"])
    for seed in SEEDS:
        for name, variants in (
            ("woven-exhaustive", (["woven"], ["woven", "--eps", "5"],
                                  ["woven", "--samples", "7"], ["analyze"])),
            ("ingest-analyze", (["analyze"],)),
        ):
            seed_dir = os.path.join(workdir, f"{name}-seed{seed}")
            os.makedirs(seed_dir)
            workloads.WORKLOADS[name](seed, seed_dir)
            for doc in sorted(os.listdir(seed_dir)):
                path = os.path.join(seed_dir, doc)
                corpus += [v[:1] + [path] + v[1:] for v in variants]
                if name == "woven-exhaustive" and _kind(path) == "fusion":
                    corpus.append(["riesz", path])
    for instance_id in INSTANCE_IDS:
        for dim in REPRODUCE_DIMS:
            corpus.append(["reproduce", "--id", instance_id, "--dim", str(dim)])
    return corpus


# -- running ------------------------------------------------------------------


def export_src(rev: str, dest: str) -> str:
    """Extract ``src/`` of ``rev`` into ``dest``; returns its src path."""
    archive = subprocess.run(
        ["git", "-C", REPO, "archive", rev, "src"], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return os.path.join(dest, "src")


def run_command(src: str, argv: list[str], cwd: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=src)
    # one BLAS thread on both sides, so both runs reduce in the same order
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # a caller's cap override would make both sides fail alike
    env.pop("WOVEN_MAX_PARTITIONS", None)
    done = subprocess.run(
        [sys.executable, "-m", "wovenframes", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    return done.returncode, done.stdout, done.stderr


def _label(cmd: list[str], inputs: str) -> str:
    """The command line, with input paths relative to ``inputs``."""
    return " ".join(os.path.relpath(a, inputs) if a.startswith(inputs) else a for a in cmd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="outdiff-") as tmp:
        base_dir = os.path.join(tmp, "base")
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(base_dir)
        os.makedirs(inputs)
        trees = (export_src(args.base, base_dir), os.path.join(REPO, "src"))
        corpus = build_corpus(inputs)
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            runs = [
                [pool.submit(run_command, src, cmd, tmp) for src in trees]
                for cmd in corpus
            ]
            lines, not_identical = summarize(
                (_label(cmd, inputs), base.result(), head.result())
                for cmd, (base, head) in zip(corpus, runs)
            )
    for line in lines:
        print(line)
    print(
        f"{len(corpus)} commands, {len(lines)} differences, "
        f"{not_identical} not byte-identical (base {args.base})"
    )
    return 0 if not lines else 1


if __name__ == "__main__":
    sys.exit(main())
