"""Command line surface: ingest family documents, emit canonical reports.

Exit codes: 0 when the checked property holds, 1 when it fails (the
report carries a witness), 2 on input or usage errors, 3 on an internal
fault (stderr starts with ``internal error:`` and carries the traceback).
Reports are canonical JSON (sorted keys, compact separators, shortest
round-trip floats), so reruns with identical input and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys

import numpy as np

from .errors import ToolkitError, TooManyPartitions
from .frames import DiscreteFrame, optimal_bounds
from .fusion import (
    FusionFrame,
    Subspace,
    fusion_bounds,
    is_orthonormal_fusion_basis,
    is_riesz_decomposition,
)
from .instances import INSTANCE_IDS, build_instance, verify_instance
from .linalg import orthonormalize_each
from .perturbation import op_perturbation_check, proj_perturbation_check, pw_check
from .tolerances import HOLD_SLACK, WITNESS_EPS
from .weaving import (
    DISCRETE,
    FUSION,
    Partition,
    WovenFamily,
    _require_eps,
    woven_bounds_exhaustive,
    woven_bounds_sampled,
    woven_riesz_decomposition_check,
)

NOTE_UPPER_IS_MAX = (
    "universal upper bound is the maximum weaving upper bound over the "
    "examined partitions"
)


class DocumentInvalid(ToolkitError):
    pass


# the largest document dim: operators are dense dim x dim matrices, stacked
# per member and eigen-solved, so a larger dim would only exhaust memory
MAX_DIM = 1024


def _plain(value):
    """numpy arrays and scalars as the Python values ``tolist`` gives, a
    Partition as its assignment list."""
    if isinstance(value, Partition):
        return list(value.assignment)
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, compact, shortest float repr;
    numpy values encode as their Python equivalents."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_plain
    )


def family_to_document(family: WovenFamily) -> dict:
    """Serialize a woven family into the document schema."""
    systems = []
    if family.kind == DISCRETE:
        for s in family.systems:
            systems.append({"vectors": s.vectors.tolist()})
    else:
        for s in family.systems:
            systems.append(
                {
                    "weights": s.weights.tolist(),
                    "subspaces": [
                        {"spanning": sub.basis.T.tolist()} for sub in s.subspaces
                    ],
                }
            )
    return {"dim": family.dim, "kind": family.kind, "systems": systems}


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise DocumentInvalid(f"{path}: {message}")


def parse_family_document(doc) -> WovenFamily:
    """Validate a parsed JSON document and build the woven family."""
    _require(isinstance(doc, dict), "$", "document must be a JSON object")
    dim = doc.get("dim")
    _require(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
        "dim",
        "positive integer required",
    )
    _require(dim <= MAX_DIM, "dim", f"at most {MAX_DIM} supported")
    kind = doc.get("kind")
    _require(kind in (DISCRETE, FUSION), "kind", "must be 'discrete' or 'fusion'")
    systems = doc.get("systems")
    _require(
        isinstance(systems, list) and len(systems) >= 2,
        "systems",
        "need at least two systems",
    )

    built = []
    counts = set()
    for si, sys_doc in enumerate(systems):
        path = f"systems[{si}]"
        _require(isinstance(sys_doc, dict), path, "system must be an object")
        if kind == DISCRETE:
            vectors = sys_doc.get("vectors")
            _require(
                isinstance(vectors, list) and len(vectors) >= 1,
                f"{path}.vectors",
                "nonempty vector list required",
            )
            arr = _float_matrix(vectors, f"{path}.vectors", dim)
            counts.add(arr.shape[0])
            built.append(DiscreteFrame(dim, arr))
        else:
            weights = sys_doc.get("weights")
            subspaces = sys_doc.get("subspaces")
            _require(
                isinstance(weights, list) and len(weights) >= 1,
                f"{path}.weights",
                "nonempty weight list required",
            )
            _require(
                isinstance(subspaces, list) and len(subspaces) == len(weights),
                f"{path}.subspaces",
                "one subspace per weight required",
            )
            w = []
            for wi, value in enumerate(weights):
                _require(
                    _finite_number(value) and value > 0,
                    f"{path}.weights[{wi}]",
                    "weights must be finite and positive",
                )
                w.append(float(value))
            spans = _spanning_matrices(subspaces, path, dim)
            subs = Subspace.from_bases(dim, orthonormalize_each(spans))
            counts.add(len(subs))
            built.append(FusionFrame(dim, subs, np.array(w)))
    _require(len(counts) == 1, "systems", "systems must share the member count")
    return WovenFamily(kind, tuple(built))


def _finite_number(value) -> bool:
    """A JSON number (never a boolean) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _spanning_matrices(subspaces, path: str, dim: int) -> list[np.ndarray]:
    """Each member's spanning rows as a (count, dim) float matrix."""
    # one conversion of the system's rows, split by member, when every
    # member is well-formed; otherwise the member-by-member walk, which
    # names the first offending member or entry
    spannings = [
        sub_doc.get("spanning") if isinstance(sub_doc, dict) else None
        for sub_doc in subspaces
    ]
    if all(isinstance(spanning, list) for spanning in spannings):
        rows = list(itertools.chain.from_iterable(spannings))
        arr = _fast_float_matrix(rows, dim) if rows else np.zeros((0, dim))
        if arr is not None:
            bounds = itertools.accumulate(map(len, spannings), initial=0)
            return [arr[start:end] for start, end in itertools.pairwise(bounds)]
    spans = []
    for ki, sub_doc in enumerate(subspaces):
        sub_path = f"{path}.subspaces[{ki}]"
        _require(
            isinstance(sub_doc, dict) and "spanning" in sub_doc,
            sub_path,
            "object with a 'spanning' list required",
        )
        spanning = sub_doc["spanning"]
        _require(
            isinstance(spanning, list),
            f"{sub_path}.spanning",
            "list of vectors required",
        )
        spans.append(
            _float_matrix(spanning, f"{sub_path}.spanning", dim)
            if spanning
            else np.zeros((0, dim))
        )
    return spans


def _fast_float_matrix(rows, dim: int) -> np.ndarray | None:
    """The rows as one (count, dim) float matrix in one pass when every row
    is a list of ``dim`` entries, each a float or int (never a bool) with a
    finite float value; None otherwise."""
    if (
        set(map(type, rows)) == {list}
        and set(map(len, rows)) == {dim}
        and set(map(type, itertools.chain.from_iterable(rows))) <= {float, int}
    ):
        try:
            arr = np.array(rows, dtype=float)
        except OverflowError:  # an integer beyond the float range
            return None
        if np.isfinite(arr).all():
            return arr
    return None


def _float_matrix(rows, path: str, dim: int) -> np.ndarray:
    # anything but well-formed rows takes the entry-by-entry walk below,
    # which names the first offending entry
    arr = _fast_float_matrix(rows, dim)
    if arr is not None:
        return arr
    for ri, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == dim):
            raise DocumentInvalid(f"{path}[{ri}]: vector of length {dim} required")
        for ci, value in enumerate(row):
            if not _finite_number(value):
                raise DocumentInvalid(f"{path}[{ri}][{ci}]: finite number required")
    return np.array(rows, dtype=float)


def load_family(path: str) -> tuple[WovenFamily, str]:
    """Read, validate, and digest a family document file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DocumentInvalid(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DocumentInvalid(f"{path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentInvalid(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise DocumentInvalid(f"{path}: nested too deeply") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise DocumentInvalid(f"{path}: {exc}") from exc
    family = parse_family_document(doc)
    # fields the schema ignores are digested too, and may still be too
    # deep to serialize or hold NaN or Infinity literals
    try:
        canonical = canonical_json(doc)
    except RecursionError as exc:
        raise DocumentInvalid(f"{path}: nested too deeply") from exc
    except ValueError as exc:
        raise DocumentInvalid(f"{path}: {exc}") from exc
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return family, digest


def _emit(command: str, digest: str, body: dict, notes=(), seed=None) -> None:
    """Write one report: the envelope every command shares, merged with
    the command's ``body``."""
    envelope = {"command": command, "input_digest": digest, "notes": notes, "seed": seed}
    sys.stdout.write(canonical_json(envelope | body) + "\n")


def cmd_analyze(args) -> int:
    family, digest = load_family(args.input)
    systems = []
    for s in family.systems:
        if family.kind == DISCRETE:
            rep = optimal_bounds(s)
            systems.append(
                {
                    "lower": rep.lower,
                    "upper": rep.upper,
                    "is_frame": rep.is_frame,
                    "bessel_bound": rep.upper,
                    "is_riesz_basis": s.size == s.dim and rep.is_frame,
                }
            )
        else:
            rep = fusion_bounds(s)
            systems.append(
                {
                    "lower": rep.lower,
                    "upper": rep.upper,
                    "is_fusion_frame": rep.is_frame,
                    # the members span exactly when they form a fusion frame
                    "synthesis_is_onto": rep.is_frame,
                    "is_riesz_decomposition": is_riesz_decomposition(s),
                    "is_orthonormal_fusion_basis": is_orthonormal_fusion_basis(s),
                }
            )
    _emit("analyze", digest, {"kind": family.kind, "systems": systems})
    return 0


def cmd_woven(args) -> int:
    _require_eps(args.eps, "--eps")
    family, digest = load_family(args.input)
    if args.samples is not None:
        report = woven_bounds_sampled(family, args.samples, args.seed)
    else:
        report = woven_bounds_exhaustive(family, eps=args.eps)
    witness = None
    if not report.is_woven and report.witness is not None:
        witness = dict(zip(("partition", "vector", "value"), report.witness))
    payload = {**vars(report), "witness": witness}
    _emit("woven", digest, {"report": payload}, [NOTE_UPPER_IS_MAX], report.seed)
    return 0 if report.is_woven else 1


def cmd_perturb(args) -> int:
    family, digest = load_family(args.input)
    if family.kind != FUSION:
        raise DocumentInvalid("perturb requires a fusion-kind document")
    if family.m != 2:
        raise DocumentInvalid("perturb requires exactly two systems")
    w, v = family.systems
    if args.method == "pw":
        cert = pw_check(
            w, v, args.lambda1, args.lambda2, args.mu, args.samples, args.seed
        )
    elif args.method == "op":
        cert = op_perturbation_check(
            w, v, args.op_lambda, args.mu, args.gamma, args.samples, args.seed
        )
    else:
        cert = proj_perturbation_check(w, v, args.K, args.samples, args.seed)

    containment = None
    exhaustive_interval = None
    try:
        report = woven_bounds_exhaustive(family)
    except TooManyPartitions:
        pass
    else:
        exhaustive_interval = [report.universal_lower, report.universal_upper]
        if cert.hypothesis_holds:
            containment = (
                report.universal_lower >= cert.predicted_lower - HOLD_SLACK
                and report.universal_upper <= cert.predicted_upper + HOLD_SLACK
            )
    body = {
        "certificate": vars(cert),
        "exhaustive_interval": exhaustive_interval,
        "prediction_contains_exhaustive": containment,
    }
    _emit("perturb", digest, body, seed=cert.seed)
    return 0 if cert.hypothesis_holds else 1


def cmd_riesz(args) -> int:
    family, digest = load_family(args.input)
    report = woven_riesz_decomposition_check(family)
    _emit("riesz", digest, {"report": vars(report)})
    return 0 if report.all_pass else 1


def cmd_reproduce(args) -> int:
    if args.id not in INSTANCE_IDS:
        raise DocumentInvalid(
            f"unknown id {args.id!r}; choose one of {', '.join(INSTANCE_IDS)}"
        )
    _require(args.dim <= MAX_DIM, "--dim", f"at most {MAX_DIM} supported")
    inst = build_instance(args.id, dim=args.dim)
    outcomes = verify_instance(inst)
    digest = hashlib.sha256(
        canonical_json(family_to_document(inst.payload)).encode("utf-8")
    ).hexdigest()
    reference_ok = all(o.ok for o in outcomes if o.source == "reference")
    body = {
        "id": inst.id,
        "dim": inst.truncation_dim,
        "checks": [vars(o) for o in outcomes],
        "all_reference_ok": reference_ok,
    }
    _emit("reproduce", digest, body, inst.notes)
    return 0 if reference_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every call of ``main`` can reuse it."""
    parser = argparse.ArgumentParser(
        prog="wovenframes",
        description="Frame, fusion frame, and woven family analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="per-system bounds and flags")
    p_analyze.add_argument("input", help="family document (JSON)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_woven = sub.add_parser("woven", help="universal bounds over partitions")
    p_woven.add_argument("input", help="family document (JSON)")
    p_woven.add_argument("--samples", type=int, default=None)
    p_woven.add_argument("--seed", type=int, default=0)
    p_woven.add_argument("--eps", type=float, default=WITNESS_EPS)
    p_woven.set_defaults(func=cmd_woven)

    p_perturb = sub.add_parser("perturb", help="closeness certificates")
    p_perturb.add_argument("input", help="fusion family document with two systems")
    p_perturb.add_argument("--method", choices=("pw", "op", "proj"), required=True)
    p_perturb.add_argument("--lambda1", type=float, default=0.0)
    p_perturb.add_argument("--lambda2", type=float, default=0.0)
    p_perturb.add_argument(
        "--lambda", dest="op_lambda", type=float, default=0.0
    )
    p_perturb.add_argument("--mu", type=float, default=0.0)
    p_perturb.add_argument("--gamma", type=float, default=0.0)
    p_perturb.add_argument("--K", type=float, default=0.5)
    p_perturb.add_argument("--samples", type=int, default=1000)
    p_perturb.add_argument("--seed", type=int, default=0)
    p_perturb.set_defaults(func=cmd_perturb)

    p_riesz = sub.add_parser(
        "riesz", help="whether every weaving is a Riesz decomposition"
    )
    p_riesz.add_argument("input", help="fusion family document (JSON)")
    p_riesz.set_defaults(func=cmd_riesz)

    p_repro = sub.add_parser("reproduce", help="rebuild and verify an instance")
    p_repro.add_argument("--id", required=True)
    p_repro.add_argument("--dim", type=int, default=6)
    p_repro.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a fault in the toolkit, never an input error
        # imported here: no other path loads it, and it costs start-up time
        import traceback

        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
