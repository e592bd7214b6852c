"""Structural maps that carry woven systems to woven systems.

Covers images under bounded invertible operators, self-adjoint
conjugation of weaving operators, intersection with a closed subspace,
the equivalence between local vector systems and their induced fusion
families, and removal of a weakly contributing index subset.
A ``LocalSystem``'s local bounds and an ``EquivalenceReport``'s bound
chain are derived on first read, as cached attributes that are not
dataclass fields, so a caller that reads neither solves no local frame
operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    EmptyIntersection,
    IndexMismatch,
    InvalidSampleCount,
    InvarianceViolated,
    NotSelfAdjoint,
    SingularOperator,
    WrongKind,
)
from .frames import DiscreteFrame
from .fusion import FusionFrame, Subspace, fusion_bounds, fusion_frame_operator
from .linalg import (
    orthonormalize,
    orthonormalize_stack,
    size_groups,
    stacked_eigenvalues,
    sym_eig,
)
from .tolerances import (
    HOLD_SLACK,
    INTERSECT_TOL,
    INVARIANCE_TOL,
    PATTERN_TOL,
    PIVOT_TOL,
    SELF_ADJOINT_TOL,
    WITNESS_EPS,
)
from .weaving import (
    DISCRETE,
    FUSION,
    Partition,
    WovenFamily,
    WovenReport,
    _check_partition,
    _require_seed,
    _weaving_operators,
    contribution_stacks,
    woven_bounds_exhaustive,
    woven_bounds_from_contributions,
)


@dataclass(frozen=True)
class InvertibleOperator:
    """Square operator with cached inverse and 2-norms of both."""

    matrix: np.ndarray
    inv: np.ndarray
    norm: float
    inv_norm: float

    @classmethod
    def from_matrix(cls, matrix) -> "InvertibleOperator":
        """One SVD gives both norms, ||m|| = s_max and ||m^-1|| = 1 / s_min,
        and decides invertibility: SingularOperator when s_min is at most
        ``PIVOT_TOL * max(1, max|m|)``, with max|m| the largest entry."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("only square matrices can be inverted")
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[-1] <= PIVOT_TOL * max(1.0, float(np.abs(m).max())):
            raise SingularOperator(
                f"smallest singular value {svals[-1]:.3g} is at most "
                f"{PIVOT_TOL} * max(1, max|m|)"
            )
        return cls(m, np.linalg.inv(m), float(svals[0]), float(1.0 / svals[-1]))


def apply_operator_discrete(
    op: InvertibleOperator, family: WovenFamily
) -> tuple[WovenFamily, tuple[float, float]]:
    """Image family {E f_ij} plus its predicted universal interval.

    The prediction scales the family's exhaustive universal bounds by
    1/||E^-1||^2 below and ||E||^2 above; the image family's own
    exhaustive interval always lands inside it.
    """
    if family.kind != DISCRETE:
        raise WrongKind("operator images are defined for discrete families here")
    base = woven_bounds_exhaustive(family)
    image = WovenFamily.discrete(
        tuple(
            DiscreteFrame(s.dim, s.vectors @ op.matrix.T)
            for s in family.systems
        )
    )
    predicted = (
        base.universal_lower / (op.inv_norm**2),
        base.universal_upper * (op.norm**2),
    )
    return image, predicted


def conjugation_check(
    op: InvertibleOperator, family: WovenFamily, p: Partition
) -> float:
    """Residual ``max|S' - E S E^-1|`` for one weaving of a fusion pair.

    S is the weaving's fusion frame operator, S' the operator of the
    weaving built from the image subspaces {E W_i} with unchanged
    weights. Requires E symmetric and E^T E to map every member
    subspace into itself; the residual is reported, and is tiny on the
    class of diagonal positive operators with coordinate subspaces.
    """
    if family.kind != FUSION:
        raise WrongKind("conjugation check applies to fusion families")
    if family.m != 2:
        raise IndexMismatch("conjugation check requires exactly two systems")
    e = op.matrix
    if float(np.abs(e - e.T).max()) > SELF_ADJOINT_TOL:
        raise NotSelfAdjoint(f"operator is not symmetric within {SELF_ADJOINT_TOL}")
    ete = e.T @ e
    scale = 1.0 + float(np.abs(ete).max())
    for system in family.systems:
        for sub in system.subspaces:
            if sub.rank == 0:
                continue
            image = ete @ sub.basis
            resid = image - sub.basis @ (sub.basis.T @ image)
            if float(np.abs(resid).max()) > INVARIANCE_TOL * scale:
                raise InvarianceViolated(
                    "E^T E does not keep every member subspace invariant"
                )

    _check_partition(family, p)
    s_sigma = _weaving_operators(contribution_stacks(family), np.array([p.assignment]))[0]

    # the image weaving: the members p chooses, carried by E, same weights
    chosen = [(family.systems[a], i) for i, a in enumerate(p.assignment)]
    bases = orthonormalize_stack([(e @ s.subspaces[i].basis).T for s, i in chosen])
    subs = Subspace.from_bases(family.dim, bases)
    image = FusionFrame(family.dim, subs, [s.weights[i] for s, i in chosen])
    s_image = fusion_frame_operator(image)

    conjugated = e @ s_sigma @ op.inv
    return float(np.abs(s_image - conjugated).max())


def subspace_intersection(w: Subspace, k: Subspace) -> Subspace:
    """Numerical intersection of two subspaces.

    Null directions of the stacked system [B_w | -B_k] (detected on its
    Gram matrix, singular values at most INTERSECT_TOL) give the
    coefficients of shared vectors.
    """
    if w.dim != k.dim:
        raise DimensionMismatch("subspaces live in different ambient spaces")
    if w.rank == 0 or k.rank == 0:
        return Subspace(w.dim, np.zeros((w.dim, 0)))
    stacked = np.hstack([w.basis, -k.basis])
    gram = stacked.T @ stacked
    spec = sym_eig(gram)
    null_mask = spec.eigenvalues <= INTERSECT_TOL * INTERSECT_TOL
    if not null_mask.any():
        return Subspace(w.dim, np.zeros((w.dim, 0)))
    coeffs = spec.eigenvectors[:, null_mask]
    vectors = [w.basis @ coeffs[: w.rank, j] for j in range(coeffs.shape[1])]
    basis, _ = orthonormalize(vectors)
    return Subspace(w.dim, basis)


def intersect_family(family: WovenFamily, k: Subspace) -> WovenFamily:
    """Member-wise intersection with ``k``; trivial intersections stay as
    zero-dimensional markers so index bookkeeping survives."""
    if family.kind != FUSION:
        raise WrongKind("intersection applies to fusion families")
    if k.rank == 0:
        raise EmptyInput("intersection target is the zero subspace")
    new_systems = []
    any_nontrivial = False
    for system in family.systems:
        subs = tuple(subspace_intersection(sub, k) for sub in system.subspaces)
        if any(s.rank for s in subs):
            any_nontrivial = True
        new_systems.append(FusionFrame(family.dim, subs, system.weights))
    if not any_nontrivial:
        raise EmptyIntersection("every member meets the target trivially")
    return WovenFamily.fusion(tuple(new_systems))


@dataclass(frozen=True)
class IntersectionReport:
    """Sampled check of weaving sums against the original universal bounds
    for inputs inside the intersection target."""

    projector_pattern_holds: bool
    max_lower_violation: float
    max_upper_violation: float
    samples: int
    seed: int


def intersection_weaving_report(
    family: WovenFamily,
    k: Subspace,
    samples: int = 200,
    seed: int = 0,
) -> IntersectionReport:
    """Evaluate, for random unit vectors of ``k``, how the intersected
    family's weaving sums sit against the original universal interval.

    The weaving sum splits by index, f^T S_sigma f = sum_i q_{i sigma_i}
    with q_ij = f^T C_ij f, so the worst sums over all partitions take
    the least and the greatest q_ij at each index: no partition is
    enumerated (the original family's own scan still checks the cap).
    ``projector_pattern_holds`` records whether P_W P_K equals the
    projector of the computed intersection for every member (the
    commuting case). Violations are reported, never asserted. Raises
    InvalidSampleCount for ``samples`` < 1 and InvalidSeed for a negative
    ``seed``.
    """
    if samples < 1:
        raise InvalidSampleCount("samples must be at least 1")
    _require_seed(seed)
    base = woven_bounds_exhaustive(family)
    intersected = intersect_family(family, k)

    pk = k.projector()
    pattern = all(
        float(np.abs(orig.projectors @ pk - new.projectors).max()) <= PATTERN_TOL
        for orig, new in zip(family.systems, intersected.systems)
    )

    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((samples, k.rank))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    vectors = coeffs @ k.basis.T

    stacks = contribution_stacks(intersected)
    n, m, d, _ = stacks.shape
    # C_ij f for every (i, j) and sample as one product, then q_ij = <C_ij f, f>
    images = (stacks.reshape(n * m * d, d) @ vectors.T).reshape(n, m, d, samples)
    q = np.einsum("nmds,sd->snm", images, vectors)
    return IntersectionReport(
        projector_pattern_holds=pattern,
        max_lower_violation=float((base.universal_lower - q.min(axis=2).sum(axis=1)).max()),
        max_upper_violation=float((q.max(axis=2).sum(axis=1) - base.universal_upper).max()),
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class LocalSystem:
    """Per-index local vector systems spanning the member subspaces.

    ``blocks[i]`` holds the local vectors at index i as rows (possibly
    none) and ``bases[i]`` an orthonormal basis of their span.
    ``fusion_frame`` is the induced fusion frame, the spans with the
    local weights, derived here and never passed; a weight that is not
    finite and positive raises NonFinite. ``local_bounds[i]``, the
    optimal bounds of the local system as a frame for its span (None
    for a trivial span), is derived on first read and cached.
    """

    dim: int
    blocks: tuple[np.ndarray, ...]
    weights: np.ndarray
    bases: tuple[np.ndarray, ...]
    fusion_frame: FusionFrame = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subspaces = Subspace.from_bases(self.dim, self.bases)
        object.__setattr__(
            self, "fusion_frame", FusionFrame(self.dim, subspaces, self.weights)
        )

    @classmethod
    def build(cls, dim: int, vector_lists, weights) -> "LocalSystem":
        """Orthonormalize every local system. Raises DimensionMismatch for
        a vector off the ambient dim or a weight count off the index
        count, and NonFinite for a weight that is not finite and
        positive."""
        w = np.asarray(weights, dtype=float).ravel()
        blocks = []
        for lst in vector_lists:
            vectors = [np.asarray(v, float) for v in lst]
            if any(v.shape != (dim,) for v in vectors):
                raise DimensionMismatch("local vectors must have the ambient dim")
            blocks.append(np.array(vectors).reshape(len(vectors), dim))
        bases = orthonormalize_stack(blocks)
        if w.size != len(blocks):
            raise DimensionMismatch("one weight per index required")
        return cls(dim, tuple(blocks), w, tuple(bases))

    @property
    def size(self) -> int:
        return len(self.blocks)

    @cached_property
    def local_bounds(self) -> tuple[tuple[float, float] | None, ...]:
        """Local frame operators in span coordinates, solved values-only in
        one stacked call per span rank; NonFinite for a local Gram that
        overflows."""
        coords = [arr @ basis for arr, basis in zip(self.blocks, self.bases)]
        bounds: list[tuple[float, float] | None] = [None] * self.size
        for k, members in size_groups(basis.shape[1] for basis in self.bases).items():
            if not k:
                continue
            grams = np.array([coords[i].T @ coords[i] for i in members])
            extremes = stacked_eigenvalues(grams)[:, [0, -1]].tolist()
            for i, (low, high) in zip(members, extremes):
                bounds[i] = (low, high)
        return tuple(bounds)

    def _require_nontrivial(self) -> None:
        if not any(basis.shape[1] for basis in self.bases):
            raise EmptyInput("no nontrivial local system present")

    def _nontrivial_bounds(self) -> list[tuple[float, float]]:
        self._require_nontrivial()
        return [b for b in self.local_bounds if b is not None]

    def bound_floor(self) -> float:
        return min(low for low, _ in self._nontrivial_bounds())

    def bound_ceiling(self) -> float:
        return max(high for _, high in self._nontrivial_bounds())


def flatten_local_system(
    system: LocalSystem,
) -> tuple[DiscreteFrame, tuple[tuple[int, int], ...]]:
    """Single weighted frame over the doubly indexed set, plus the map
    from (index, local position) to flat position."""
    counts = [len(block) for block in system.blocks]
    if not any(counts):
        raise EmptyInput("local system has no vectors at all")
    rows = np.repeat(system.weights, counts)[:, None] * np.concatenate(system.blocks)
    index_map = tuple((i, j) for i, count in enumerate(counts) for j in range(count))
    return DiscreteFrame(system.dim, rows), index_map


def _blocked_vector_stacks(lf: LocalSystem, lg: LocalSystem) -> np.ndarray:
    """``w_i^2 * B_i^T B_i`` per block and system, (n, 2, d, d); an empty
    block gives zeros through the matmul."""
    return np.stack(
        [[(w * w) * (b.T @ b) for b, w in zip(s.blocks, s.weights)] for s in (lf, lg)],
        axis=1,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Three routes to the same woven verdict and the bound chain tying
    the vector-level and fusion-level universal lower bounds together.
    ``verdicts`` is (vector, fusion, orthonormalized local); the last two
    routes share one scan, so both read ``fusion_report.is_woven``.
    ``lower_floor``, ``upper_ceiling`` and ``chain_ok`` are derived on
    first read, from the two local systems the report keeps, and
    cached."""

    vector_report: WovenReport
    fusion_report: WovenReport
    verdicts: tuple[bool, bool, bool]
    verdicts_agree: bool
    local_systems: tuple[LocalSystem, LocalSystem] = field(repr=False, compare=False)

    @cached_property
    def lower_floor(self) -> float:
        return min(s.bound_floor() for s in self.local_systems)

    @cached_property
    def upper_ceiling(self) -> float:
        return max(s.bound_ceiling() for s in self.local_systems)

    @cached_property
    def chain_ok(self) -> bool:
        l_vec = self.vector_report.universal_lower
        l_fus = self.fusion_report.universal_lower
        return (
            l_vec >= self.lower_floor * l_fus - HOLD_SLACK
            and l_fus >= l_vec / self.upper_ceiling - HOLD_SLACK
        )


def local_global_equivalence_report(
    lf: LocalSystem, lg: LocalSystem
) -> EquivalenceReport:
    """Compare the woven verdicts of (a) the flattened weighted vector
    systems, (b) the induced weighted fusion families, and (c) the
    orthonormalized local systems; partitions act on the shared outer
    index, dragging whole local blocks.

    The verdicts agree, and with A the smallest local lower bound and B
    the largest local upper bound across both systems, the universal
    lower bounds satisfy L_vec >= A * L_fus and L_fus >= L_vec / B.

    Routes (b) and (c) coincide: the induced fusion family is built on
    the orthonormalized local bases with the local weights, so its
    contribution stacks are the orthonormalized local systems' blocked
    Gram stacks ``w_i^2 * E_i E_i^T``, entry for entry. The one scan of
    those stacks, ``fusion_report``, therefore gives the verdicts of both
    routes. That scan runs first: its cap check refuses before any
    (n, 2, d, d) stack is built. It runs with ``eps=WITNESS_EPS``, so
    ``fusion_report.witness`` is the first partition below it, as
    ``find_nonwoven_witness`` of the induced family gives it.
    """
    if lf.size != lg.size or lf.dim != lg.dim:
        raise IndexMismatch("local systems must share index set and dim")

    fusion_family = WovenFamily.fusion(
        (lf.fusion_frame, lg.fusion_frame)
    )
    fusion_report = woven_bounds_exhaustive(fusion_family, eps=WITNESS_EPS)
    vector_report = woven_bounds_from_contributions(_blocked_vector_stacks(lf, lg))

    verdicts = (vector_report.is_woven, fusion_report.is_woven, fusion_report.is_woven)
    lf._require_nontrivial()
    lg._require_nontrivial()
    return EquivalenceReport(
        vector_report=vector_report,
        fusion_report=fusion_report,
        verdicts=verdicts,
        verdicts_agree=len(set(verdicts)) == 1,
        local_systems=(lf, lg),
    )


@dataclass(frozen=True)
class RemovalReport:
    """Outcome of removing an index subset from a two-system fusion family.

    When the removed indices contribute at most ``partial_upper`` to the
    first system and that stays below the family's universal lower bound,
    the restricted family keeps a woven interval inside
    [universal_lower - partial_upper, universal_upper].
    """

    removed: tuple[int, ...]
    partial_upper: float
    universal_lower: float
    universal_upper: float
    hypothesis_met: bool
    restricted_lower: float | None = None
    restricted_upper: float | None = None
    containment_ok: bool | None = None
    restricted_members_are_fusion_frames: bool | None = None


def remove_subset_check(family: WovenFamily, removed) -> RemovalReport:
    """Check the index-removal bound for a two-system fusion family."""
    if family.kind != FUSION:
        raise WrongKind("removal check applies to fusion families")
    if family.m != 2:
        raise IndexMismatch("removal check requires exactly two systems")
    rem = tuple(sorted(set(int(i) for i in removed)))
    for i in rem:
        if not 0 <= i < family.n:
            raise IndexMismatch(f"index {i} outside 0..{family.n - 1}")
    if len(rem) >= family.n:
        raise IndexMismatch("cannot remove every index")

    base = woven_bounds_exhaustive(family)
    removed_sum = family.systems[0].operators[list(rem)].sum(axis=0, keepdims=True)
    partial_upper = float(stacked_eigenvalues(removed_sum)[0, -1])
    report = RemovalReport(
        removed=rem,
        partial_upper=partial_upper,
        universal_lower=base.universal_lower,
        universal_upper=base.universal_upper,
        hypothesis_met=partial_upper < base.universal_lower,
    )
    if not report.hypothesis_met:
        return report

    keep = [i for i in range(family.n) if i not in rem]
    restricted = family.restrict(keep)
    sub_report = woven_bounds_exhaustive(restricted)
    containment = (
        sub_report.universal_lower
        >= base.universal_lower - partial_upper - HOLD_SLACK
        and sub_report.universal_upper <= base.universal_upper + HOLD_SLACK
    )
    members_ok = all(fusion_bounds(system).is_frame for system in restricted.systems)
    return replace(
        report,
        restricted_lower=sub_report.universal_lower,
        restricted_upper=sub_report.universal_upper,
        containment_ok=containment,
        restricted_members_are_fusion_frames=members_ok,
    )
