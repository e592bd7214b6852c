"""Weavings of indexed families and universal-bound searches.

A woven family holds m systems (all discrete frames or all fusion
frames) over a shared index set of size n. A partition assigns each
index to one system; the weaving takes element i from the assigned
system. Universal bounds are the min/max of the weaving operator
spectra over partitions, found exhaustively (lexicographic order over
base-m assignment strings) or by seeded sampling.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidEps,
    InvalidPartitionCap,
    PartitionLengthMismatch,
    TooManyPartitions,
    WrongKind,
)
from .frames import FRAME_TOL, DiscreteFrame, _clamp_small_negative, _is_frame
from .fusion import FusionFrame, _member_operators, is_riesz_decomposition
from .linalg import sym_eig

PARTITION_CAP = 2**22

DISCRETE = "discrete"
FUSION = "fusion"


def partition_cap() -> int:
    """Enumeration cap; WOVEN_MAX_PARTITIONS overrides the default 2^22.

    Raises InvalidPartitionCap unless the override is a positive integer.
    """
    raw = os.environ.get("WOVEN_MAX_PARTITIONS")
    if raw is None:
        return PARTITION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidPartitionCap(
            f"WOVEN_MAX_PARTITIONS must be a positive integer, got {raw!r}"
        )
    return cap


def _require_eps(eps: float, name: str = "eps") -> None:
    """Raise InvalidEps unless the witness threshold is finite and positive."""
    if not (math.isfinite(eps) and eps > 0):
        raise InvalidEps(f"{name} must be finite and positive, got {eps}")


def _partitions(n: int, m: int):
    """Every assignment of n indices to m systems, in lexicographic order.

    The one place the enumeration cap is enforced: raises
    TooManyPartitions before any work when m^n exceeds it.
    """
    cap = partition_cap()
    if m**n > cap:
        raise TooManyPartitions(
            f"{m}^{n} = {m**n} partitions exceeds the cap {cap}; "
            "use the sampled search instead"
        )
    return itertools.product(range(m), repeat=n)


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


def _weaving_operator(stacks: np.ndarray, assignment) -> np.ndarray:
    n = stacks.shape[0]
    return stacks[np.arange(n), list(assignment)].sum(axis=0)


def _scan(
    stacks: np.ndarray,
    assignments,
    method: str,
    frame_tol: float,
    seed: int | None = None,
    eps: float | None = None,
) -> WovenReport:
    """Fold the weaving spectra of ``assignments`` into one report.

    With ``eps`` the report also carries the first assignment whose
    smallest eigenvalue is below ``eps``, with its unit eigenvector and
    that value.
    """
    lo_val = np.inf
    hi_val = -np.inf
    lo_part: tuple[int, ...] | None = None
    hi_part: tuple[int, ...] | None = None
    witness = None
    count = 0
    for assignment in assignments:
        spec = sym_eig(_weaving_operator(stacks, assignment))
        count += 1
        if spec.smallest < lo_val:
            lo_val = spec.smallest
            lo_part = tuple(assignment)
        if spec.largest > hi_val:
            hi_val = spec.largest
            hi_part = tuple(assignment)
        if witness is None and eps is not None and spec.smallest < eps:
            witness = (
                Partition(assignment),
                spec.eigenvectors[:, 0].copy(),
                spec.smallest,
            )
    lower = _clamp_small_negative(lo_val, hi_val)
    return WovenReport(
        universal_lower=float(lower),
        universal_upper=float(hi_val),
        is_woven=_is_frame(lower, hi_val, frame_tol),
        worst_partition=Partition(lo_part),
        best_upper_partition=Partition(hi_part),
        method=method,
        partitions_examined=count,
        seed=seed,
        witness=witness,
    )


def woven_bounds_from_contributions(
    stacks: np.ndarray,
    frame_tol: float = FRAME_TOL,
    eps: float | None = None,
) -> WovenReport:
    """Exhaustive universal bounds for explicit contribution stacks.

    With ``eps`` the same scan also records the first lexicographic
    partition whose smallest eigenvalue is below ``eps`` as the report's
    witness; ``eps`` must then be finite and positive (else InvalidEps).
    """
    if eps is not None:
        _require_eps(eps)
    n, m = stacks.shape[0], stacks.shape[1]
    return _scan(stacks, _partitions(n, m), "exhaustive", frame_tol, eps=eps)


def woven_bounds_exhaustive(
    family: WovenFamily, frame_tol: float = FRAME_TOL, eps: float | None = None
) -> WovenReport:
    """Universal bounds over all m^n partitions (lexicographic order).

    ``eps`` as in woven_bounds_from_contributions.
    """
    stacks = contribution_stacks(family)
    return woven_bounds_from_contributions(stacks, frame_tol, eps)


def woven_bounds_sampled(
    family: WovenFamily,
    samples: int,
    seed: int,
    frame_tol: float = FRAME_TOL,
) -> WovenReport:
    """Universal-bound estimate from sampled partitions.

    Scans the m pure partitions plus ``samples`` partitions drawn
    uniformly (with replacement) from a generator seeded with ``seed``.
    The reported lower value is an upper estimate of the true universal
    lower bound (and the upper value a lower estimate of the true upper),
    since unexamined partitions may be more extreme. Deterministic for a
    fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    stacks = contribution_stacks(family)
    n, m = family.n, family.m
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, m, size=(samples, n))
    assignments = itertools.chain(
        (tuple([j] * n) for j in range(m)),
        (tuple(int(a) for a in row) for row in drawn),
    )
    return _scan(stacks, assignments, "sampled", frame_tol, seed=seed)


def weaving_bessel_bound(family: WovenFamily, p: Partition) -> float:
    """Largest eigenvalue of the weaving's (fusion) frame operator."""
    _check_partition(family, p)
    stacks = contribution_stacks(family)
    return sym_eig(_weaving_operator(stacks, p.assignment)).largest


def find_nonwoven_witness(
    family: WovenFamily, eps: float = 1e-8
) -> tuple[Partition, np.ndarray, float] | None:
    """First partition (lexicographic) whose weaving has smallest
    eigenvalue below ``eps``, with the minimizing unit vector and the
    value. None when every weaving clears the threshold. Raises
    InvalidEps unless ``eps`` is finite and positive."""
    _require_eps(eps)
    assignments = _partitions(family.n, family.m)
    stacks = contribution_stacks(family)
    for assignment in assignments:
        spec = sym_eig(_weaving_operator(stacks, assignment))
        if spec.smallest < eps:
            return (
                Partition(assignment),
                spec.eigenvectors[:, 0].copy(),
                spec.smallest,
            )
    return None


@dataclass(frozen=True)
class RieszWeavingReport:
    all_pass: bool
    failing: tuple[Partition, ...]
    partitions_examined: int


def woven_riesz_decomposition_check(family: WovenFamily) -> RieszWeavingReport:
    """Whether every weaving splits the space as a direct sum of its members.

    Fusion families only; lists the failing partitions when the verdict
    is negative.
    """
    if family.kind != FUSION:
        raise WrongKind("Riesz weaving check applies to fusion families only")
    failing: list[Partition] = []
    count = 0
    for assignment in _partitions(family.n, family.m):
        p = Partition(assignment)
        count += 1
        if not is_riesz_decomposition(weave(family, p)):
            failing.append(p)
    return RieszWeavingReport(
        all_pass=not failing,
        failing=tuple(failing),
        partitions_examined=count,
    )


def member_bessel_bounds(family: WovenFamily) -> list[float]:
    """Optimal upper bound of each member system."""
    return [sym_eig(op).largest for op in contribution_stacks(family).sum(axis=0)]
