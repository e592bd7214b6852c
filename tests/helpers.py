"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np

from wovenframes import (
    DiscreteFrame,
    FusionFrame,
    Partition,
    Subspace,
    WovenFamily,
    weave,
)
from wovenframes.fusion import fusion_frame_operator, is_riesz_decomposition
from wovenframes.linalg import orthonormalize_stack, sym_eig
from wovenframes.perturbation import _op_inputs, _op_slacks, _subset_halves, _unit_rows
from wovenframes.tolerances import PATTERN_TOL, RANK_TOL
from wovenframes.transforms import intersect_family
from wovenframes.weaving import contribution_stacks, woven_bounds_exhaustive


def analysis_blocks(ff: FusionFrame, f) -> list[np.ndarray]:
    """The fusion analysis operator's blocks ``weight_i * P_i f``, member by
    member."""
    vec = np.asarray(f, dtype=float)
    return [w * project(sub, vec) for sub, w in zip(ff.subspaces, ff.weights)]


def project(sub: Subspace, f: np.ndarray) -> np.ndarray:
    """P f for the subspace's projector P, as B (B^T f) of its basis B."""
    return sub.basis @ (sub.basis.T @ f)


def plain_values(value):
    """Every numpy value in a nested report as the Python value JSON
    encodes: arrays as nested lists, numpy scalars as bool, int or float,
    tuples as lists, a Partition as its assignment list and keys as
    strings, one node at a time."""
    if isinstance(value, Partition):
        return plain_values(value.assignment)
    if isinstance(value, dict):
        return {str(k): plain_values(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_values(v) for v in value]
    if isinstance(value, np.ndarray):
        return plain_values(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def eig2(matrix) -> tuple[float, float]:
    """Closed-form eigenvalues of a symmetric 2x2 matrix (ascending)."""
    (a, b), (_, d) = np.asarray(matrix, dtype=float)
    half_trace = (a + d) / 2.0
    disc = math.sqrt(max(half_trace * half_trace - (a * d - b * b), 0.0))
    return half_trace - disc, half_trace + disc


JACOBI_REL_OFF = 1e-12
JACOBI_MAX_SWEEPS = 100


def jacobi(sym) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi sweeps on a symmetric matrix, an eigensolver
    independent of LAPACK.

    Returns (eigenvalues in sweep order, accumulated rotations as columns);
    sweeps stop once the off-diagonal Frobenius mass drops below
    JACOBI_REL_OFF times the Frobenius norm of the input.
    """
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    fro = float(np.linalg.norm(a))
    if fro == 0.0 or n < 2:
        return np.diagonal(a).copy(), v

    for _ in range(JACOBI_MAX_SWEEPS):
        # off-diagonal Frobenius mass, summed directly (subtracting the
        # diagonal mass from the total cancels catastrophically)
        strict = a.copy()
        np.fill_diagonal(strict, 0.0)
        if float(np.linalg.norm(strict)) <= JACOBI_REL_OFF * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-16 * fro:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0

                v_p = v[:, p].copy()
                v_q = v[:, q].copy()
                v[:, p] = c * v_p - s * v_q
                v[:, q] = s * v_p + c * v_q
    else:
        raise RuntimeError("Jacobi iteration failed to converge")
    return np.diagonal(a).copy(), v


def one_matrix_spectrum(matrix) -> tuple[np.ndarray, np.ndarray, float]:
    """``sym_eig``'s values, vectors and residual computed on the one 2-D
    matrix: a 2-D ``eigh``, the sign rule column by column (largest
    magnitude entry positive, first one on ties) and the residual as the
    largest column norm of ``A V - V diag(values)``; errors past 2^500,
    whose squares would overflow, are scaled by 2^-e (e their largest
    entry's binary exponent, so the scaling is exact) before the norm and
    the norm by 2^e after."""
    a = np.asarray(matrix, dtype=float)
    sym = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(sym)
    for j in range(vectors.shape[1]):
        if vectors[np.argmax(np.abs(vectors[:, j])), j] < 0.0:
            vectors[:, j] *= -1.0
    residual = 0.0
    if values.size:
        errors = sym @ vectors - vectors * values
        e = int(np.frexp(np.abs(errors).max())[1]) if np.abs(errors).max() > 2.0**500 else 0
        residual = math.ldexp(float(np.linalg.norm(errors * 2.0**-e, axis=0).max()), e)
    return values, vectors, residual


def gram_schmidt(spanning) -> tuple[np.ndarray, int]:
    """Member-by-member two-pass Gram-Schmidt, the bit-identity oracle for
    ``linalg.orthonormalize_stack``.

    Returns ``(basis, rank)`` like ``orthonormalize``: a vector is
    dependent when its residual norm is at most RANK_TOL * (1 + N), N the
    largest input norm; accepted columns are stacked in input order.
    """
    arr = np.array(spanning, dtype=float, order="C")
    scale = 1.0 + float(np.sqrt((arr * arr).sum(axis=1)).max(initial=0.0))
    cols: list[np.ndarray] = []
    for v in arr:
        w = v.copy()
        for _ in range(2):
            for b in cols:
                w -= (b @ w) * b
        norm = float(np.linalg.norm(w))
        if norm <= RANK_TOL * scale:
            continue
        cols.append(w / norm)
    if cols:
        return np.column_stack(cols), len(cols)
    return np.zeros((arr.shape[1], 0)), 0


def local_system_oracle(dim: int, vector_lists):
    """``LocalSystem.build``'s bases, local bounds and projectors block by
    block, as the bit-identity oracle for its stacked build: each block's
    zero rows filtered out, the rest orthonormalized alone by
    ``gram_schmidt``, the local bounds the extreme 2-D values-only
    eigenvalues of the block's Gram matrix in span coordinates (None for
    a trivial span), and each projector ``B @ B.T`` (zeros for rank 0)."""
    bases, bounds, projectors = [], [], np.zeros((len(vector_lists), dim, dim))
    for i, vectors in enumerate(vector_lists):
        block = np.array(vectors, dtype=float).reshape(-1, dim)
        nonzero = block[np.linalg.norm(block, axis=1) > 0]
        basis = gram_schmidt(nonzero)[0] if len(nonzero) else np.zeros((dim, 0))
        bases.append(basis)
        bounds.append(None)
        if basis.shape[1]:
            coords = block @ basis
            values = one_matrix_eigenvalues(coords.T @ coords)
            bounds[-1] = (float(values[0]), float(values[-1]))
            projectors[i] = basis @ basis.T
    return bases, bounds, projectors


def member_operators(ff: FusionFrame, scale=None) -> np.ndarray:
    """Member-by-member ``scale_i * (B_i @ B_i.T)``, the bit-identity oracle
    for ``FusionFrame.projectors`` (unit scale) and ``FusionFrame.operators``
    (the default, the squared weights); a zero-dimensional member gives
    zeros."""
    scale = ff.weights * ff.weights if scale is None else scale
    out = np.zeros((ff.size, ff.dim, ff.dim))
    for i, sub in enumerate(ff.subspaces):
        if sub.rank:
            out[i] = scale[i] * (sub.basis @ sub.basis.T)
    return out


def basis_vec(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def ex3_2_frames() -> tuple[DiscreteFrame, DiscreteFrame]:
    f = DiscreteFrame(2, np.array([[0.0, 2.0], [3.0, 0.0], [2.0, 3.0]]))
    g = DiscreteFrame(2, np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 1.0]]))
    return f, g


def coordinate_planes(dim: int = 4) -> FusionFrame:
    """R^4 split into the (e1,e2) and (e3,e4) planes, unit weights."""
    p1 = Subspace.from_spanning(dim, [basis_vec(dim, 0), basis_vec(dim, 1)])
    p2 = Subspace.from_spanning(dim, [basis_vec(dim, 2), basis_vec(dim, 3)])
    return FusionFrame(dim, (p1, p2), np.ones(2))


def inplane_rotated_planes(theta: float, dim: int = 4) -> FusionFrame:
    """Same planes as coordinate_planes, bases rotated inside each plane."""
    c, s = math.cos(theta), math.sin(theta)
    r1 = Subspace.from_spanning(
        dim,
        [
            c * basis_vec(dim, 0) + s * basis_vec(dim, 1),
            -s * basis_vec(dim, 0) + c * basis_vec(dim, 1),
        ],
    )
    r2 = Subspace.from_spanning(
        dim,
        [
            c * basis_vec(dim, 2) + s * basis_vec(dim, 3),
            -s * basis_vec(dim, 2) + c * basis_vec(dim, 3),
        ],
    )
    return FusionFrame(dim, (r1, r2), np.ones(2))


def tilted_planes(theta: float, dim: int = 4) -> FusionFrame:
    """Coordinate planes moved by a global rotation mixing (e1,e3), (e2,e4)."""
    g = np.eye(dim)
    c, s = math.cos(theta), math.sin(theta)
    g[0, 0], g[0, 2], g[2, 0], g[2, 2] = c, -s, s, c
    g[1, 1], g[1, 3], g[3, 1], g[3, 3] = c, -s, s, c
    base = coordinate_planes(dim)
    subs = tuple(
        Subspace.from_spanning(dim, list((g @ sub.basis).T))
        for sub in base.subspaces
    )
    return FusionFrame(dim, subs, np.ones(2))


def complement_planes(dim: int = 4) -> FusionFrame:
    """Each member swapped with its orthogonal complement."""
    base = coordinate_planes(dim)
    return FusionFrame(dim, (base.subspaces[1], base.subspaces[0]), np.ones(2))


def random_subspace(rng: np.random.Generator, dim: int, k: int) -> Subspace:
    vecs = rng.standard_normal((k, dim))
    return Subspace.from_spanning(dim, list(vecs))


def random_fusion_frame(
    rng: np.random.Generator, dim: int, member_dims
) -> FusionFrame:
    subs = tuple(random_subspace(rng, dim, k) for k in member_dims)
    weights = rng.uniform(0.5, 2.0, size=len(subs))
    return FusionFrame(dim, subs, weights)


def rank_deficient_fusion_frame(
    rng: np.random.Generator, dim: int, member_dims
) -> FusionFrame:
    """All members orthogonal to one fixed direction, so never a fusion frame."""
    hole = rng.standard_normal(dim)
    hole /= np.linalg.norm(hole)
    subs = []
    for k in member_dims:
        vecs = rng.standard_normal((k, dim))
        vecs -= np.outer(vecs @ hole, hole)
        subs.append(Subspace.from_spanning(dim, list(vecs)))
    weights = rng.uniform(0.5, 2.0, size=len(subs))
    return FusionFrame(dim, subs, weights)


def onto_equivalence_instances(count: int = 100, deficient: int = 20):
    """Seeded mix of generic and deliberately rank-deficient fusion frames."""
    rng = np.random.default_rng(2026)
    out = []
    for i in range(count):
        dim = int(rng.integers(2, 7))
        members = int(rng.integers(1, 5))
        member_dims = [int(rng.integers(1, dim + 1)) for _ in range(members)]
        if i < deficient:
            out.append(rank_deficient_fusion_frame(rng, dim, member_dims))
        else:
            out.append(random_fusion_frame(rng, dim, member_dims))
    return out


def random_unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def woven_pair_random(rng: np.random.Generator, dim: int, members: int) -> WovenFamily:
    """Fusion pair built to be woven: every member contains a shared full
    coordinate split, so all weavings stay fusion frames."""
    systems = []
    for _ in range(2):
        subs = []
        for i in range(members):
            extra = rng.standard_normal((1, dim))
            block = [basis_vec(dim, i % dim), extra[0]]
            subs.append(Subspace.from_spanning(dim, block))
        # last member tops up the span so every weaving covers R^dim
        subs[-1] = Subspace(dim, np.eye(dim))
        systems.append(FusionFrame(dim, tuple(subs), np.ones(members)))
    return WovenFamily.fusion(tuple(systems))


# -- per-item loop oracles for the chunked scans ---------------------------


def one_matrix_eigenvalues(matrix) -> np.ndarray:
    """Ascending eigenvalues of one matrix from a 2-D values-only
    ``eigvalsh`` of ``0.5 * (a + a.T)``: the bit-identity oracle for the
    scans' stacked values-only solve."""
    a = np.asarray(matrix, dtype=float)
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def gathered_operators(stacks: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Weaving operators of a (rows, n) chunk of assignments as one
    gathered (rows, n, d, d) sum over the index axis, the scans' former
    kernel: numpy adds that axis in index order when d >= 2, pairwise
    when d = 1 and n >= 8."""
    n = stacks.shape[0]
    return stacks[np.arange(n), chunk].sum(axis=1)


def index_order_operators(stacks: np.ndarray, chunk) -> np.ndarray:
    """Weaving operators of a (rows, n) chunk of assignments, each the
    index-order sum ``((0 + C_0) + C_1) + ...``, accumulated over the rows
    one index at a time: the summation-order oracle for the scans'
    operators at every d."""
    chunk = np.asarray(chunk, dtype=int).reshape(len(chunk), stacks.shape[0])
    total = np.zeros((len(chunk), *stacks.shape[2:]))
    for i in range(stacks.shape[0]):
        total = total + stacks[i, chunk[:, i]]
    return total


def index_order_sum(stacks: np.ndarray, assignment) -> np.ndarray:
    """One partition's index-order weaving operator."""
    return index_order_operators(stacks, [tuple(assignment)])[0]


def scan_oracle(stacks: np.ndarray, assignments, eps: float | None = None) -> dict:
    """One 2-D values-only solve per assignment, in order, of its
    index-order operator (``index_order_sum``).

    Returns the smallest and largest eigenvalue over the assignments, the
    first assignment attaining each, the first assignment below ``eps``
    as (assignment, eigenvector, value), with the eigenvector from
    ``sym_eig`` and the value from the values-only solve, and the count.
    """
    out = {"lower": np.inf, "upper": -np.inf, "worst": None, "best": None,
           "witness": None, "count": 0}
    for assignment in assignments:
        assignment = tuple(int(a) for a in assignment)
        operator = index_order_sum(stacks, assignment)
        values = one_matrix_eigenvalues(operator)
        smallest, largest = float(values[0]), float(values[-1])
        out["count"] += 1
        if smallest < out["lower"]:
            out["lower"], out["worst"] = smallest, assignment
        if largest > out["upper"]:
            out["upper"], out["best"] = largest, assignment
        if out["witness"] is None and eps is not None and smallest < eps:
            vector = sym_eig(operator).eigenvectors[:, 0]
            out["witness"] = (assignment, vector, smallest)
    return out


def all_assignments(n: int, m: int):
    return itertools.product(range(m), repeat=n)


def _extremal(w: FusionFrame, v: FusionFrame) -> np.ndarray:
    """The extremal eigenvectors of S_W, S_V and S_W - S_V as rows, each
    from its own solve."""
    sw, sv = fusion_frame_operator(w), fusion_frame_operator(v)
    return np.array([sym_eig(op).eigenvectors[:, k] for op in (sw, sv, sw - sv) for k in (0, -1)])


def _sample_batch(w: FusionFrame, v: FusionFrame, samples: int, seed: int):
    """The ``op`` and ``proj`` sample batch: seeded unit rows, then the
    extremal eigenvectors."""
    rng = np.random.default_rng(seed)
    batch = np.concatenate([_unit_rows(rng, samples, w.dim), _extremal(w, v)], axis=0)
    return batch, rng


def pw_violation_oracle(w, v, lam1, lam2, mu, samples, seed) -> float:
    """The ``pw`` inequality's worst sampled slack, one sample c at a time,
    T_X c summing weight_i ``project(sub_i, c_i)`` member by member. The
    samples are seeded unit rows in R^(n d), then each extremal
    eigenvector in all n blocks, scaled by 1/sqrt(n)."""
    n, d = w.size, w.dim
    rows = list(_unit_rows(np.random.default_rng(seed), samples, n * d))
    rows += [np.concatenate([x / np.sqrt(n)] * n) for x in _extremal(w, v)]
    worst = -np.inf
    for c in rows:
        blocks = c.reshape(n, d)
        t_w, t_v = (
            sum(wt * project(sub, b) for sub, wt, b in zip(x.subspaces, x.weights, blocks))
            for x in (w, v)
        )
        rhs = lam1 * np.linalg.norm(t_w) + lam2 * np.linalg.norm(t_v) + mu * np.linalg.norm(c)
        worst = max(worst, float(np.linalg.norm(t_w - t_v) - rhs))
    return worst


def op_violation_oracle(w, v, lam, mu, gamma, samples, seed) -> float:
    """The ``op`` inequality's worst sampled slack, one tensordot per mask."""
    batch, rng = _sample_batch(w, v, samples, seed)
    pw_sq = w.operators
    pv_sq = v.operators
    w_parts = np.einsum("sd,nde->nse", batch, pw_sq)
    v_parts = np.einsum("sd,nde->nse", batch, pv_sq)
    w_normsq = np.einsum("sd,nde,se->ns", batch, pw_sq, batch)
    worst = -np.inf
    for mask in subset_masks(w.size, rng):
        s_w = np.tensordot(mask, w_parts, axes=(0, 0))
        s_v = np.tensordot(mask, v_parts, axes=(0, 0))
        lhs = np.linalg.norm(s_w - s_v, axis=1)
        u_norm = np.sqrt(np.maximum(np.tensordot(mask, w_normsq, axes=(0, 0)), 0.0))
        rhs = (
            lam * np.linalg.norm(s_w, axis=1)
            + mu * np.linalg.norm(s_v, axis=1)
            + gamma * u_norm
        )
        worst = max(worst, float((lhs - rhs).max()))
    return worst


def product_masks(halves) -> np.ndarray:
    """The 0/1 row of every subset of the product of ``halves`` (H rows,
    L rows), subset k the H row k // |L| followed by the L row k % |L|."""
    upper, lower = halves
    return np.hstack([np.repeat(upper, len(lower), axis=0), np.tile(lower, (len(upper), 1))])


def subset_masks(n: int, rng) -> np.ndarray:
    """The 0/1 rows of the subsets ``op`` examines at n indices, its half
    sets drawn from ``rng`` and their product written out."""
    return product_masks(_subset_halves(n, rng))


def op_inputs(w: FusionFrame, v: FusionFrame, samples: int, seed: int):
    """What ``op`` sums over: its sample batch, the per-index parts of S_W f,
    S_V f and their difference with the squared U_W norms as one (n, 3 d +
    1, sample) array, and the two half sets whose product is its subsets,
    from the check's own ``_op_inputs`` and ``_subset_halves``, so a fold
    over them is bit for bit the check's."""
    rng = np.random.default_rng(seed)
    batch, parts = _op_inputs(w, v, rng, samples)
    return batch, parts, _subset_halves(w.size, rng)


def op_slacks(w, v, lam, mu, gamma, samples, seed) -> np.ndarray:
    """Every (mask, sample) slack through ``op``'s kernel, as a (mask,
    sample) array, in batches of 2^14 pairs in mask-major order."""
    batch, parts, halves = op_inputs(w, v, samples, seed)
    masks = product_masks(halves)
    keys, at = np.divmod(np.arange(len(masks) * len(batch)), len(batch))
    slacks = [
        _op_slacks(parts, masks[keys[k : k + 2**14]], at[k : k + 2**14], lam, mu, gamma)
        for k in range(0, len(keys), 2**14)
    ]
    return np.concatenate(slacks).reshape(len(masks), len(batch))


def op_violation_unscreened(w, v, lam, mu, gamma, samples, seed) -> float:
    """``op``'s worst slack without a screen: every (mask, sample) pair
    through the check's kernel. The fold starts at +0.0, the
    empty subset's exact slack (the empty subset is always among the
    masks), so a zero maximum reads as +0.0 whatever the order."""
    worst = 0.0
    for slacks in op_slacks(w, v, lam, mu, gamma, samples, seed):
        worst = max(worst, float(slacks.max()))
    return worst


def proj_violation_oracle(w, v, kconst, samples, seed, masks=None) -> float:
    """The ``proj`` inequality's worst slack over the sampled vectors and
    index subsets, one tensordot per subset: all 2^n subsets, enumerated,
    or the 0/1 rows of ``masks(n, rng)`` with rng as left by the batch."""
    batch, rng = _sample_batch(w, v, samples, seed)
    if masks is None:
        subsets = itertools.product((0.0, 1.0), repeat=w.size)
    else:
        subsets = masks(w.size, rng)
    pw_f = np.einsum("sd,nde->nse", batch, w.projectors)
    pv_f = np.einsum("sd,nde->nse", batch, v.projectors)
    diff = np.linalg.norm(pw_f - pv_f, axis=2)
    wn = np.linalg.norm(pw_f, axis=2)
    vn = np.linalg.norm(pv_f, axis=2)
    wsq = (w.weights**2)[:, None]
    diff, wn, vn = diff * wsq, wn * wsq, vn * wsq
    worst = -np.inf
    for mask in subsets:
        mask = np.array(mask)
        lhs = np.tensordot(mask, diff, axes=(0, 0))
        rhs = kconst * np.minimum(
            np.tensordot(mask, wn, axes=(0, 0)), np.tensordot(mask, vn, axes=(0, 0))
        )
        worst = max(worst, float((lhs - rhs).max()))
    return worst


def conjugation_residual(op, family: WovenFamily, p: Partition) -> float:
    """``max|S' - E S E^-1|`` through two woven families: S from ``weave``
    on the family, S' from ``weave`` on the image family, every member of
    both systems carried by E and orthonormalized. The oracle for
    ``conjugation_check`` past its operator checks."""
    e = op.matrix
    s_sigma = fusion_frame_operator(weave(family, p))
    image_systems = []
    for system in family.systems:
        bases = orthonormalize_stack([(e @ sub.basis).T for sub in system.subspaces])
        subs = Subspace.from_bases(family.dim, bases)
        image_systems.append(FusionFrame(family.dim, subs, system.weights))
    image = WovenFamily.fusion(tuple(image_systems))
    s_image = fusion_frame_operator(weave(image, p))
    return float(np.abs(s_image - e @ s_sigma @ op.inv).max())


def intersection_violations(
    family: WovenFamily, k: Subspace, samples: int, seed: int
) -> tuple[float, float]:
    """(max lower, max upper) violation of the intersected family's weaving
    sums against the family's universal interval, by a chunked loop over
    every partition's summed operator: the oracle for
    ``intersection_weaving_report``'s closed form. Draws the unit vectors
    of ``k`` as the report does."""
    base = woven_bounds_exhaustive(family)
    intersected = intersect_family(family, k)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((samples, k.rank))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    vectors = coeffs @ k.basis.T
    chunk = np.array(list(all_assignments(intersected.n, intersected.m)))
    ops = gathered_operators(contribution_stacks(intersected), chunk)
    sums = np.einsum("sd,rde,se->rs", vectors, ops, vectors)
    return float((base.universal_lower - sums).max()), float((sums - base.universal_upper).max())


def projector_pattern(family: WovenFamily, k: Subspace) -> bool:
    """Whether P_W P_K equals the projector of W's intersection with ``k``
    within PATTERN_TOL for every member, one ``Subspace.projector()`` per
    member: the oracle for ``intersection_weaving_report``'s
    ``projector_pattern_holds``."""
    intersected = intersect_family(family, k)
    pk = k.projector()
    return all(
        float(np.abs(orig.projector() @ pk - new.projector()).max()) <= PATTERN_TOL
        for orig_sys, new_sys in zip(family.systems, intersected.systems)
        for orig, new in zip(orig_sys.subspaces, new_sys.subspaces)
    )


# -- the per-partition Riesz-weaving oracle --------------------------------


def riesz_failing(family: WovenFamily) -> tuple[Partition, ...]:
    """Every partition, in lexicographic order, whose weaving is not a
    Riesz decomposition: one ``weave`` and one ``is_riesz_decomposition``
    per partition, the oracle for ``woven_riesz_decomposition_check``."""
    partitions = map(Partition, all_assignments(family.n, family.m))
    return tuple(p for p in partitions if not is_riesz_decomposition(weave(family, p)))


def random_riesz_member(rng: np.random.Generator, dim: int, rank: int) -> Subspace:
    """A rank-``rank`` subspace of R^dim: spanned by coordinate vectors, by
    Gaussian vectors, or by Gaussian vectors plus dependent combinations
    of them; rank 0 is an empty or an all-zero spanning set."""
    if rank == 0:
        return Subspace.from_spanning(dim, [] if rng.random() < 0.5 else [np.zeros(dim)])
    kind = rng.integers(3)
    if kind == 0:
        return Subspace.from_spanning(
            dim, [basis_vec(dim, int(i)) for i in rng.choice(dim, rank, replace=False)]
        )
    vectors = list(rng.standard_normal((rank, dim)))
    if kind == 2:
        vectors += [vectors[0] + vectors[-1], -2.0 * vectors[0]]
    return Subspace.from_spanning(dim, vectors)


def random_riesz_family(rng: np.random.Generator, dim: int, n: int, m: int) -> WovenFamily:
    """m fusion systems of n members in R^dim. Half the time the systems
    share a rank profile adding up to dim, so every weaving reaches the
    rank test; otherwise ranks are drawn from 0..min(dim, 2)."""
    if rng.random() < 0.5:
        profile = rng.multinomial(dim, np.ones(n) / n)
        ranks = np.repeat(profile[None], m, axis=0)
    else:
        ranks = rng.integers(0, min(dim, 2) + 1, size=(m, n))
    systems = []
    for row in ranks:
        subs = tuple(random_riesz_member(rng, dim, int(k)) for k in row)
        systems.append(FusionFrame(dim, subs, rng.uniform(0.5, 2.0, n)))
    return WovenFamily.fusion(tuple(systems))
