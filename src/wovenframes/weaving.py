"""Weavings of indexed families and universal-bound searches.

A woven family holds m systems (all discrete frames or all fusion
frames) over a shared index set of size n. A partition assigns each
index to one system; the weaving takes element i from the assigned
system. Universal bounds are the min/max of the weaving operator
spectra over partitions, found exhaustively (lexicographic order over
base-m assignment strings) or by seeded sampling.

Every scan runs in chunks of assignments: a chunk's weaving operators
are gathered from the contribution stacks and summed in one call, and
their spectra come from one stacked LAPACK ``eigh`` call. The chunk
size follows the constant budget ``linalg.CHUNK_FLOATS``. Folding the
chunks in order keeps the first lexicographic extremum and the first
lexicographic witness, as a one-partition-at-a-time loop would.
That fold, ``_scan``, also counts the rows a row flag marks: the woven
scans flag a smallest eigenvalue below ``eps``, the Riesz-weaving check
a weaving whose member ranks miss d or whose spectrum fails the frame
rule.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidEps,
    InvalidPartitionCap,
    InvalidSampleCount,
    InvalidSeed,
    PartitionLengthMismatch,
    TooManyPartitions,
    WrongKind,
)
from .frames import DiscreteFrame, _clamp_small_negative, _is_frame
from .fusion import FusionFrame, _member_operators
from .linalg import chunk_rows, row_chunks, stacked_eigenvalues, sym_eig
from .tolerances import WITNESS_EPS

PARTITION_CAP = 2**22
# partitions are ranked in int64, so no cap may exceed its largest value
_RANK_MAX = int(np.iinfo(np.int64).max)

DISCRETE = "discrete"
FUSION = "fusion"


def partition_cap() -> int:
    """Enumeration cap; WOVEN_MAX_PARTITIONS overrides the default 2^22.

    Raises InvalidPartitionCap unless the override is a positive integer
    of at most 2^63 - 1.
    """
    raw = os.environ.get("WOVEN_MAX_PARTITIONS")
    if raw is None:
        return PARTITION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if not 1 <= cap <= _RANK_MAX:
        raise InvalidPartitionCap(
            "WOVEN_MAX_PARTITIONS must be a positive integer of at most "
            f"2^63 - 1, got {raw!r}"
        )
    return cap


def _require_eps(eps: float, name: str = "eps") -> None:
    """Raise InvalidEps unless the witness threshold is finite and positive."""
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidEps(f"{name} must be finite and positive, got {eps}")


def _require_seed(seed: int) -> None:
    """Raise InvalidSeed for a negative sampling seed."""
    if seed < 0:
        raise InvalidSeed(f"seed must be a non-negative integer, got {seed}")


def _require_partition_count(n: int, m: int) -> int:
    """m^n, the number of assignments of n indices to m systems: the one
    enumeration-cap check. Raises TooManyPartitions when m^n exceeds
    partition_cap()."""
    cap = partition_cap()
    # past 63 indices m^n >= 2^64 exceeds every cap, and may have more
    # digits than Python converts to a string: the message names m^n alone
    if m >= 2 and n > 63:
        count = f"{m}^{n}"
    else:
        total = m**n
        if total <= cap:
            return total
        count = f"{m}^{n} = {total}"
    raise TooManyPartitions(
        f"{count} partitions exceeds the cap {cap}; use the sampled search instead"
    )


def _partitions(n: int, m: int, d: int):
    """Every assignment of n indices to m systems, in lexicographic order.

    Returns a generator of (rows, n) int arrays, sized for (rows, n, d, d)
    temporaries. Checks the enumeration cap at the call, before any work.
    """
    total = _require_partition_count(n, m)
    powers = np.array([m ** (n - 1 - k) for k in range(n)], dtype=np.int64)
    step = chunk_rows(n * d * d)

    def chunks():
        for start in range(0, total, step):
            ranks = np.arange(start, min(start + step, total), dtype=np.int64)
            yield ranks[:, None] // powers % m

    return chunks()


@dataclass(frozen=True)
class Partition:
    """Assignment of each index to one of the m systems (0-based)."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))

    @classmethod
    def pure(cls, n: int, system: int) -> "Partition":
        return cls(tuple([system] * n))

    @classmethod
    def from_subset(cls, n: int, second_indices) -> "Partition":
        """Two-system partition: listed indices go to system 1, rest to 0."""
        chosen = set(int(i) for i in second_indices)
        return cls(tuple(1 if i in chosen else 0 for i in range(n)))

    def blocks(self, m: int) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(m)]
        for i, a in enumerate(self.assignment):
            out[a].append(i)
        return out


@dataclass(frozen=True)
class WovenFamily:
    """m systems sharing an index set of size n and ambient dimension."""

    kind: str
    systems: tuple

    def __post_init__(self) -> None:
        systems = tuple(self.systems)
        if len(systems) < 2:
            raise DimensionMismatch("a woven family needs at least two systems")
        if self.kind not in (DISCRETE, FUSION):
            raise WrongKind(f"unknown family kind {self.kind!r}")
        member = DiscreteFrame if self.kind == DISCRETE else FusionFrame
        if not all(isinstance(s, member) for s in systems):
            raise WrongKind(f"a {self.kind} family holds {member.__name__} systems only")
        sizes = {s.size for s in systems}
        dims = {s.dim for s in systems}
        if len(sizes) != 1 or len(dims) != 1:
            raise DimensionMismatch("systems must share index-set size and dim")
        object.__setattr__(self, "systems", systems)

    @classmethod
    def discrete(cls, frames) -> "WovenFamily":
        return cls(DISCRETE, tuple(frames))

    @classmethod
    def fusion(cls, fusion_frames) -> "WovenFamily":
        return cls(FUSION, tuple(fusion_frames))

    @property
    def m(self) -> int:
        return len(self.systems)

    @property
    def n(self) -> int:
        return int(self.systems[0].size)

    @property
    def dim(self) -> int:
        return int(self.systems[0].dim)

    def restrict(self, indices) -> "WovenFamily":
        idx = list(indices)
        if self.kind == DISCRETE:
            kept = tuple(
                DiscreteFrame(s.dim, s.vectors[idx]) for s in self.systems
            )
        else:
            kept = tuple(s.restrict(idx) for s in self.systems)
        return WovenFamily(self.kind, kept)


@dataclass(frozen=True)
class WovenReport:
    """Universal bounds over the examined partitions plus the extremal ones.

    ``witness`` is (partition, unit eigenvector, smallest eigenvalue) of
    the first scanned partition below the scan's ``eps``; None when no
    ``eps`` was given or no weaving fell below it.

    Every field is part of the ``woven`` command's JSON report, under its
    own name: a Partition as its assignment list, and the witness as a
    ``{partition, vector, value}`` object, null when the family is woven or
    the scan recorded none.
    """

    universal_lower: float
    universal_upper: float
    is_woven: bool
    worst_partition: Partition
    best_upper_partition: Partition
    method: str
    partitions_examined: int
    seed: int | None = None
    witness: tuple[Partition, np.ndarray, float] | None = None


def _check_partition(family: WovenFamily, p: Partition) -> None:
    if len(p.assignment) != family.n:
        raise PartitionLengthMismatch(
            f"partition length {len(p.assignment)} != index count {family.n}"
        )
    for a in p.assignment:
        if not 0 <= a < family.m:
            raise PartitionLengthMismatch(f"system index {a} out of range")


def weave(family: WovenFamily, p: Partition):
    """Mixed system taking element i from the system assigned to index i.

    Returns a DiscreteFrame or FusionFrame matching the family kind; for
    fusion families each weight travels with its subspace.
    """
    _check_partition(family, p)
    if family.kind == DISCRETE:
        rows = np.array(
            [family.systems[a].vectors[i] for i, a in enumerate(p.assignment)]
        )
        return DiscreteFrame(family.dim, rows)
    subs = tuple(
        family.systems[a].subspaces[i] for i, a in enumerate(p.assignment)
    )
    weights = np.array(
        [family.systems[a].weights[i] for i, a in enumerate(p.assignment)]
    )
    return FusionFrame(family.dim, subs, weights)


def contribution_stacks(family: WovenFamily) -> np.ndarray:
    """Per-(index, system) operator contributions, shape (n, m, d, d).

    The weaving operator of a partition is the sum over indices of the
    assigned contribution, so every bound search reduces to scans over
    these stacks. A frame vector v contributes v v^T, a weighted member
    subspace weight^2 * P.
    """
    if family.kind == DISCRETE:
        members = [
            s.vectors[:, :, None] * s.vectors[:, None, :] for s in family.systems
        ]
    else:
        members = [_member_operators(s) for s in family.systems]
    return np.stack(members, axis=1)


def _weaving_operators(stacks: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Weaving operators of a (rows, n) chunk of assignments, (rows, d, d).

    One gathered sum over the index axis: numpy reduces it in the order
    it reduces a single partition's (n, d, d) stack, so each row equals
    the one-partition sum bit for bit (pairwise summation included).
    """
    n = stacks.shape[0]
    return stacks[np.arange(n), chunk].sum(axis=1)


def _below(eps: float | None):
    """The woven scans' row flag: smallest eigenvalue below ``eps``, which
    must be finite and positive (else InvalidEps); None without ``eps``."""
    if eps is None:
        return None
    _require_eps(eps)
    return lambda chunk, values: values[:, 0] < eps


def _scan(
    stacks: np.ndarray,
    chunks,
    method: str,
    seed: int | None = None,
    flag=None,
    stop_at_witness: bool = False,
) -> tuple[WovenReport, int]:
    """Fold the weaving spectra of the assignment ``chunks`` into one
    report and the count of flagged rows.

    Each chunk takes one stacked eigensolve; an extremum is replaced
    only by a strictly more extreme later one, so ties go to the first
    assignment in scan order. ``flag(chunk, values)`` marks rows of a
    chunk, given its ascending eigenvalues; the report's witness is the
    first marked assignment with its unit eigenvector (from sym_eig, for
    its sign rule) and smallest eigenvalue, and ``stop_at_witness`` ends
    the scan after the chunk that holds it.
    """
    lo_val = np.inf
    hi_val = -np.inf
    lo_part = hi_part = None
    witness = None
    count = flagged = 0
    for chunk in chunks:
        ops = _weaving_operators(stacks, chunk)
        values = stacked_eigenvalues(ops)
        count += len(chunk)
        k = int(np.argmin(values[:, 0]))
        if values[k, 0] < lo_val:
            lo_val, lo_part = values[k, 0], chunk[k]
        k = int(np.argmax(values[:, -1]))
        if values[k, -1] > hi_val:
            hi_val, hi_part = values[k, -1], chunk[k]
        if flag is None:
            continue
        marked = np.flatnonzero(flag(chunk, values))
        flagged += marked.size
        if witness is None and marked.size:
            k = int(marked[0])
            spec = sym_eig(ops[k])
            witness = (Partition(chunk[k]), spec.eigenvectors[:, 0].copy(), spec.smallest)
            if stop_at_witness:
                break
    upper = float(hi_val)
    lower = _clamp_small_negative(float(lo_val), upper)
    return WovenReport(
        universal_lower=lower,
        universal_upper=upper,
        is_woven=_is_frame(lower, upper),
        worst_partition=Partition(lo_part),
        best_upper_partition=Partition(hi_part),
        method=method,
        partitions_examined=count,
        seed=seed,
        witness=witness,
    ), flagged


def woven_bounds_from_contributions(
    stacks: np.ndarray, *, eps: float | None = None
) -> WovenReport:
    """Exhaustive universal bounds for explicit contribution stacks.

    With ``eps`` the same scan also records the first lexicographic
    partition whose smallest eigenvalue is below ``eps`` as the report's
    witness; ``eps`` must then be finite and positive (else InvalidEps).
    """
    flag = _below(eps)
    n, m, d = stacks.shape[:3]
    return _scan(stacks, _partitions(n, m, d), "exhaustive", flag=flag)[0]


def woven_bounds_exhaustive(
    family: WovenFamily, *, eps: float | None = None
) -> WovenReport:
    """Universal bounds over all m^n partitions (lexicographic order).

    ``eps`` as in woven_bounds_from_contributions.
    """
    flag = _below(eps)
    chunks = _partitions(family.n, family.m, family.dim)
    return _scan(contribution_stacks(family), chunks, "exhaustive", flag=flag)[0]


def woven_bounds_sampled(family: WovenFamily, samples: int, seed: int) -> WovenReport:
    """Universal-bound estimate from sampled partitions.

    Scans the m pure partitions plus ``samples`` partitions drawn
    uniformly (with replacement) from a generator seeded with ``seed``.
    The reported lower value is an upper estimate of the true universal
    lower bound (and the upper value a lower estimate of the true upper),
    since unexamined partitions may be more extreme. Deterministic for a
    fixed seed.
    """
    if samples < 1:
        raise InvalidSampleCount("samples must be at least 1")
    _require_seed(seed)
    stacks = contribution_stacks(family)
    n, m, d = family.n, family.m, family.dim
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, m, size=(samples, n))
    pure = np.repeat(np.arange(m)[:, None], n, axis=1)
    rows = np.concatenate([pure, drawn])
    chunks = row_chunks(rows, n * d * d)
    return _scan(stacks, chunks, "sampled", seed=seed)[0]


def weaving_bessel_bound(family: WovenFamily, p: Partition) -> float:
    """Largest eigenvalue of the weaving's (fusion) frame operator."""
    _check_partition(family, p)
    stacks = contribution_stacks(family)
    return sym_eig(_weaving_operators(stacks, np.array([p.assignment]))[0]).largest


def find_nonwoven_witness(
    family: WovenFamily, eps: float = WITNESS_EPS
) -> tuple[Partition, np.ndarray, float] | None:
    """First partition (lexicographic) whose weaving has smallest
    eigenvalue below ``eps``, with the minimizing unit vector and the
    value. None when every weaving clears the threshold. Raises
    InvalidEps unless ``eps`` is finite and positive."""
    flag = _below(eps)
    chunks = _partitions(family.n, family.m, family.dim)
    stacks = contribution_stacks(family)
    return _scan(stacks, chunks, "exhaustive", flag=flag, stop_at_witness=True)[0].witness


@dataclass(frozen=True)
class RieszWeavingReport:
    """Whether every weaving is a Riesz decomposition: the number of
    failing partitions and the first of them in lexicographic order (None
    when all pass). Every field is part of the ``riesz`` command's JSON
    report, under its own name."""

    all_pass: bool
    failing_count: int
    first_failing: Partition | None
    partitions_examined: int


def woven_riesz_decomposition_check(family: WovenFamily) -> RieszWeavingReport:
    """Whether every weaving splits the space as a direct sum of its members.

    Fusion families only. A weaving fails when its member ranks, read
    from one (n, m) table, do not add up to d, or when the frame rule
    rejects the spectrum ``_scan`` solves for it; the scan counts the
    failing rows and builds a Partition for the first alone. Checks the
    kind and the enumeration cap at the call, before any work.
    """
    if family.kind != FUSION:
        raise WrongKind("Riesz weaving check applies to fusion families only")
    chunks = _partitions(family.n, family.m, family.dim)
    stacks = contribution_stacks(family)
    ranks = np.array([[sub.rank for sub in s.subspaces] for s in family.systems]).T
    index = np.arange(family.n)

    def fails(chunk, values):
        spans = _is_frame(values[:, 0], values[:, -1])
        return ~spans | (ranks[index, chunk].sum(axis=1) != family.dim)

    report, failing = _scan(stacks, chunks, "exhaustive", flag=fails)
    return RieszWeavingReport(
        all_pass=not failing,
        failing_count=failing,
        first_failing=None if report.witness is None else report.witness[0],
        partitions_examined=report.partitions_examined,
    )


def member_bessel_bounds(family: WovenFamily) -> list[float]:
    """Optimal upper bound of each member system."""
    return [sym_eig(op).largest for op in contribution_stacks(family).sum(axis=0)]
