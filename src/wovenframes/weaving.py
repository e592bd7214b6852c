"""Weavings of indexed families and universal-bound searches.

A woven family holds m systems (all discrete frames or all fusion
frames) over a shared index set of size n. A partition assigns each
index to one system; the weaving takes element i from the assigned
system. Universal bounds are the min/max of the weaving operator
spectra over partitions, found exhaustively (lexicographic order over
base-m assignment strings) or by seeded sampling.

Every scan runs in chunks of at most ``linalg.chunk_rows(d * d)``
weavings, sized by their (rows, d, d) operators under the constant
budget ``linalg.CHUNK_FLOATS``. The contribution stacks are checked
(finite, symmetric within SYM_TOL) and symmetrized once per scan, so
each chunk's operators, exactly symmetric sums, need only a finiteness
check before one stacked values-only LAPACK call; no scan builds an
eigenvector, except ``sym_eig``'s for the one witness row. An
exhaustive scan builds its operators as a prefix tree in lexicographic
order (``_prefix_sums``): each chunk is the subtree under one prefix, a
level is the previous one repeated m times plus one index's
contributions, and a Partition is built from a row's rank only for the
rows reported. A sampled scan accumulates its explicit rows' operators
one index at a time (``_weaving_operators``). Either way every weaving
operator is the index-order sum ``((0 + C_0) + C_1) + ...``. Folding
the chunks in order keeps the first lexicographic extremum and the
first lexicographic witness, as a one-partition-at-a-time loop would.
Given ``eps``, that fold, ``_scan``, also records the first row whose
smallest eigenvalue is below it. The Riesz-weaving check walks the same
tree over the operators and over the (n, m) member-rank table, and folds
only what it reports: the count of weavings whose member ranks miss d
or whose spectrum fails the frame rule, and the first of them.
"""

from __future__ import annotations

import functools
import itertools
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
    NonFinite,
    PartitionLengthMismatch,
    TooManyPartitions,
    WrongKind,
)
from .frames import DiscreteFrame, _clamp_small_negative, _is_frame
from .fusion import FusionFrame
from .linalg import _symmetrized, chunk_rows, chunk_slices, stacked_eigenvalues, sym_eig
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


def _require_eps(eps: float | None, name: str = "eps") -> None:
    """Raise InvalidEps unless ``eps`` is None or finite and positive."""
    if eps is not None and not (math.isfinite(eps) and eps > 0):
        raise InvalidEps(f"{name} must be finite and positive, got {eps}")


def _require_seed(seed: int) -> None:
    """Raise InvalidSeed for a negative sampling seed."""
    if seed < 0:
        raise InvalidSeed(f"seed must be a non-negative integer, got {seed}")


def _require_partition_count(n: int, m: int) -> int:
    """m^n, the number of assignments of n indices to m systems: the one
    enumeration-cap check. Raises TooManyPartitions when m^n exceeds
    partition_cap(); the message names WOVEN_MAX_PARTITIONS when a cap
    that it can set would admit m^n."""
    cap = partition_cap()
    # past 63 indices m^n >= 2^64 exceeds every cap, and may have more
    # digits than Python converts to a string: the message names m^n alone
    if m >= 2 and n > 63:
        count, total = f"{m}^{n}", None
    else:
        total = m**n
        if total <= cap:
            return total
        count = f"{m}^{n} = {total}"
    remedy = "" if total is None or total > _RANK_MAX else " (WOVEN_MAX_PARTITIONS raises it)"
    raise TooManyPartitions(f"{count} partitions exceeds the cap {cap}{remedy}")


def _assignment(row: int, n: int, m: int) -> Partition:
    """The partition of lexicographic rank ``row``: its n base-m digits,
    most significant first."""
    digits = []
    for _ in range(n):
        row, digit = divmod(row, m)
        digits.append(digit)
    return Partition(digits[::-1])


def _prefix_sums(table: np.ndarray, leaves: int):
    """Every assignment's sum over an (n, m, ...) table, one row of
    ``table[i]`` per index i, in lexicographic order: yields (rank of the
    first assignment, sums) per chunk.

    The assignments form a prefix tree whose root holds zeros: level
    j + 1 is level j repeated m times plus ``table[j, digit]``, so every
    sum is the index-order ``((0 + t_0) + t_1) + ...`` that numpy's sum
    over a non-innermost axis makes (its +0.0 start included). A chunk
    is the subtree under one prefix, with the largest power of m of at
    most ``leaves`` leaves; the prefixes are walked depth first, each
    keeping its partial sums.
    """
    n, m = table.shape[:2]
    trailing = table.shape[2:]
    span = 0
    while span < n and m ** (span + 1) <= leaves:
        span += 1
    depth = n - span
    # path[k]: the current prefix's sum over its first k digits
    path = [np.zeros(trailing, table.dtype)] + [None] * depth
    previous = None
    for first, digits in enumerate(itertools.product(range(m), repeat=depth)):
        # only the sums past the first digit that changed are new
        changed = 0 if previous is None else next(
            k for k in range(depth) if digits[k] != previous[k]
        )
        for k in range(changed, depth):
            path[k + 1] = path[k] + table[k, digits[k]]
        previous = digits
        level = path[depth][None]
        for j in range(depth, n):
            level = (level[:, None] + table[j]).reshape(-1, *trailing)
        yield first * m**span, level


@dataclass(frozen=True)
class Partition:
    """Assignment of each index to one of the m systems (0-based)."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))


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
        members = [s.operators for s in family.systems]
    return np.stack(members, axis=1)


def _weaving_operators(stacks: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Weaving operators of a (rows, n) chunk of assignments, (rows, d, d).

    Accumulated from zeros one index at a time, so each row is the
    index-order sum ``((0 + C_0) + C_1) + ...`` of its contributions, as
    every scan sums.
    """
    ops = np.zeros((len(chunk), *stacks.shape[2:]))
    for i in range(stacks.shape[0]):
        ops += stacks[i, chunk[:, i]]
    return ops


def _eigenvalues(ops: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a chunk of weaving operators summed from
    stacks that ``_symmetrized`` checked once per scan: such a sum is
    exactly symmetric, so only its finiteness is checked (it can
    overflow) before one stacked values-only LAPACK call."""
    if not np.isfinite(ops).all():
        raise NonFinite("matrix contains NaN or Inf")
    return np.linalg.eigvalsh(ops)


def _scan(
    blocks,
    label,
    method: str,
    seed: int | None = None,
    eps: float | None = None,
    stop_at_witness: bool = False,
) -> WovenReport:
    """Fold the weaving spectra of ``blocks``, (first row, operators)
    pairs in scan order, into one report; ``label(row)`` is the Partition
    of a row, built only for the rows reported.

    An extremum is replaced only by a strictly more extreme later one, so
    ties go to the first row in scan order. Given ``eps``, the report's
    witness is the first row whose smallest eigenvalue is below it, with
    that eigenvalue, the value its row of the scan holds (so the witness
    value is below ``eps`` by construction), and a unit eigenvector for it
    from sym_eig (for its sign rule); ``stop_at_witness`` ends the scan
    after the chunk that holds it.
    """
    lo_val = np.inf
    hi_val = -np.inf
    lo_row = hi_row = None
    witness = None
    count = 0
    for start, ops in blocks:
        values = _eigenvalues(ops)
        count += len(ops)
        k = int(np.argmin(values[:, 0]))
        if values[k, 0] < lo_val:
            lo_val, lo_row = values[k, 0], start + k
        k = int(np.argmax(values[:, -1]))
        if values[k, -1] > hi_val:
            hi_val, hi_row = values[k, -1], start + k
        if eps is None or witness is not None:
            continue
        marked = np.flatnonzero(values[:, 0] < eps)
        if marked.size:
            k = int(marked[0])
            vector = sym_eig(ops[k]).eigenvectors[:, 0].copy()
            witness = (label(start + k), vector, float(values[k, 0]))
            if stop_at_witness:
                break
    upper = float(hi_val)
    lower = _clamp_small_negative(float(lo_val), upper)
    return WovenReport(
        universal_lower=lower,
        universal_upper=upper,
        is_woven=_is_frame(lower, upper),
        worst_partition=label(lo_row),
        best_upper_partition=label(hi_row),
        method=method,
        partitions_examined=count,
        seed=seed,
        witness=witness,
    )


def _exhaustive_scan(
    stacks: np.ndarray, eps: float | None = None, stop_at_witness: bool = False
) -> WovenReport:
    """``_scan`` over every partition of the (n, m, d, d) stacks, in
    lexicographic order, with the stacks checked and symmetrized once; the
    caller has checked the cap."""
    n, m, d = stacks.shape[:3]
    blocks = _prefix_sums(_symmetrized(stacks), chunk_rows(d * d))
    label = functools.partial(_assignment, n=n, m=m)
    return _scan(blocks, label, "exhaustive", eps=eps, stop_at_witness=stop_at_witness)


def woven_bounds_from_contributions(
    stacks: np.ndarray, *, eps: float | None = None
) -> WovenReport:
    """Exhaustive universal bounds for explicit contribution stacks.

    With ``eps`` the same scan also records the first lexicographic
    partition whose smallest eigenvalue is below ``eps`` as the report's
    witness; ``eps`` must then be finite and positive (else InvalidEps).
    """
    _require_eps(eps)
    _require_partition_count(*stacks.shape[:2])
    return _exhaustive_scan(stacks, eps)


def woven_bounds_exhaustive(
    family: WovenFamily, *, eps: float | None = None
) -> WovenReport:
    """Universal bounds over all m^n partitions (lexicographic order).

    ``eps`` as in woven_bounds_from_contributions.
    """
    _require_eps(eps)
    _require_partition_count(family.n, family.m)
    return _exhaustive_scan(contribution_stacks(family), eps)


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
    stacks = _symmetrized(contribution_stacks(family))
    n, m, d = family.n, family.m, family.dim
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, m, size=(samples, n))
    pure = np.repeat(np.arange(m)[:, None], n, axis=1)
    rows = np.concatenate([pure, drawn])
    blocks = (
        (at.start, _weaving_operators(stacks, rows[at]))
        for at in chunk_slices(len(rows), d * d)
    )
    return _scan(blocks, lambda row: Partition(rows[row]), "sampled", seed=seed)


def weaving_bessel_bound(family: WovenFamily, p: Partition) -> float:
    """Largest eigenvalue of the weaving's (fusion) frame operator."""
    _check_partition(family, p)
    stacks = contribution_stacks(family)
    ops = _weaving_operators(stacks, np.array([p.assignment]))
    return float(stacked_eigenvalues(ops)[0, -1])


def find_nonwoven_witness(
    family: WovenFamily, eps: float = WITNESS_EPS
) -> tuple[Partition, np.ndarray, float] | None:
    """First partition (lexicographic) whose weaving has smallest
    eigenvalue below ``eps``, with the minimizing unit vector and the
    value. None when every weaving clears the threshold. Raises
    InvalidEps unless ``eps`` is finite and positive."""
    _require_eps(eps)
    _require_partition_count(family.n, family.m)
    return _exhaustive_scan(contribution_stacks(family), eps, stop_at_witness=True).witness


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

    Fusion families only. A weaving fails when its member ranks do not
    add up to d, or when the frame rule rejects its spectrum, solved
    values-only chunk by chunk as in every scan. The rank sums come from
    the same prefix tree as the operators, over the (n, m) rank table.
    The check counts the failing rows and builds a Partition for the
    first alone, and no extremum or eigenvector. Checks the kind and the
    enumeration cap at the call, before any work.
    """
    if family.kind != FUSION:
        raise WrongKind("Riesz weaving check applies to fusion families only")
    n, m, d = family.n, family.m, family.dim
    _require_partition_count(n, m)
    stacks = _symmetrized(contribution_stacks(family))
    ranks = np.array([s.ranks for s in family.systems]).T
    leaves = chunk_rows(d * d)
    examined = failing = 0
    first = None
    for (start, ops), (_, rank_sums) in zip(
        _prefix_sums(stacks, leaves), _prefix_sums(ranks, leaves)
    ):
        values = _eigenvalues(ops)
        examined += len(ops)
        fails = ~_is_frame(values[:, 0], values[:, -1]) | (rank_sums != d)
        marked = np.flatnonzero(fails)
        failing += marked.size
        if first is None and marked.size:
            first = _assignment(start + int(marked[0]), n, m)
    return RieszWeavingReport(
        all_pass=not failing,
        failing_count=failing,
        first_failing=first,
        partitions_examined=examined,
    )


def member_bessel_bounds(family: WovenFamily) -> list[float]:
    """Optimal upper bound of each member system: the largest eigenvalue of
    its cached frame-operator spectrum, the ``upper`` of its bounds."""
    return [s.spectrum.largest for s in family.systems]
