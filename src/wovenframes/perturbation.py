"""Perturbation checkers for pairs of fusion frames.

Each checker certifies, by seeded sampling, that two fusion frames are
close in the sense of one closeness condition, and emits the woven
interval that condition predicts. Certificates are sampled evidence,
never proofs: ``hypothesis_holds`` means no violation was found on the
examined batch of unit vectors. ``subset_search`` says how the index
subsets were covered for each vector.

``proj`` needs no subset search: at fixed f, with a_i, b_i, c_i the
weighted norms of P_{W_i} f - P_{V_i} f, P_{W_i} f and P_{V_i} f, the
worst slack over all subsets s is

    max_s sum_{i in s} a_i - K min(sum_s b_i, sum_s c_i)
        = max(sum_i (a_i - K b_i)_+, sum_i (a_i - K c_i)_+)

since -K min(x, y) = max(-K x, -K y), and each sum is largest over the
indices whose term is positive. So ``proj`` is exact over subsets at
every n (``closed_form``).

``op`` has no such form and keeps explicit per-(mask, sample) sums over
a product of two half sets, H the first ceil(n/2) indices and L the
rest: subset k joins H row k // |L| to L row k % |L|. A half with at
most 64 subsets lists them all in lexicographic order (index 0 the most
significant bit), a larger one 64 drawn rows led by the empty and the
full half, H's drawn before L's. So up to n = 12 every subset is
examined, in lexicographic order (``exhaustive``), and above that 4096,
the empty and the full subset among them (``sampled``). The per-index
parts S_{W,i} f and S_{V,i} f are one matrix product per frame, the
summands' transposes stacked as (n d, d) times the samples as columns,
and u_i = <S_{W,i} f, f> is read from the W parts. One kernel gives the
slack of any batch of (mask, sample) pairs, with each pair's arithmetic
fixed: its parts of S_W f, S_V f, their difference and u are multiplied
by the mask's 0/1 entries and added in index order, each of the three
sums' d squares in entry order, and the four norms combine as ((||D|| -
lam ||A||) - mu ||B||) - gamma ||U||. So a pair's slack has the same
bits whichever pairs are evaluated with it, and the worst slack, the
largest over every pair with a zero maximum read as +0.0, does not
depend on which pairs a screen skips. A Gram or quadratic-form shortcut
would lose to cancellation the small differences the verdict turns on.

A screen skips the pairs that cannot raise the worst slack. For a
subset s and f != 0, with A, B and D the sums over s of the parts
S_{W,i} f, S_{V,i} f and S_{W,i} f - S_{V,i} f, and U the sum of the
squared weighted projection norms u_i:

    ||A|| >= <A, f> / ||f||,    ||B|| >= <B, f> / ||f||,
    ||D|| <= ||D_{s & H}|| + ||D_{s & L}||,
    sqrt(max(0, a + b)) >= rho(a) + rho(b),
    rho(x) = sqrt(max(x, 0) / 2) - sqrt(max(-x, 0)),

H and L the two halves. So the slack at (s, f) is at most R_H(s & H,
f) + R_L(s & L, f), read from one table per half with a row per row of
its half set, each entry the norm of the half's exact D sum, its linear
terms and its share rho of the U term. The running worst starts at the
empty subset's slack, exactly 0; seeds raise it first, and then every
pair whose bound is above it is evaluated, in decreasing order of
bound. A pair whose bound is at most the running worst cannot raise it,
so a tie is never evaluated. The masks that share an H row h are ruled
out together at f when R_H(h, f) plus f's largest L entry is not above
the worst.

The bound must hold for the computed slacks, so it adds a rounding
margin kappa T, with T = the sum over s of ||D_i|| + lam ||A_i|| +
mu ||B_i||: relative to each (mask, sample) term, not global, so pairs
whose differences cancel ten orders below their parts still prune.
With u = 2^-53, g_k = k u / (1 - k u), Q the sum over s of |u_i|, and
the computed parts and u_i taken as exact data (so the products that
form them, and their rounding, do not enter the argument):

1. A mask sum of at most n parts (0/1 products are exact) and then its
   norm, d squares and a square root, lands within g_{n+d+1} times the
   sum of the parts' norms of the exact norm, in any summation order;
   the U sum lands within g_n Q, and the kernel's combination of the
   four norms (three products, three subtractions) adds g_4 of their
   weighted sum. So a computed slack is at most
   ||D|| - (lam <A, f> + mu <B, f>) / ||f|| + g_{n+d+5} T
   - gamma (1 - g_5) sqrt(max(0, U - g_n Q)).
2. In the screen, <A_i, f> / ||f|| lands within g_{2d+2} ||A_i||, and
   the per-index terms' other products and sums add g_{2d+6} T_i; a
   table's D norms land within g_{n+d+1} as in 1, its sums of at most n
   per-index terms within 2 g_n T, and the additions that assemble a
   bound within g_5 T.
3. The U sums enter as u_i - kappa |u_i|, which keeps each computed sum
   below its exact U - g_n Q, and rho is increasing; the U term's
   coefficient is gamma (1 - kappa) / sqrt 2 on a positive half sum, or
   gamma (1 + kappa) on a negative one, which covers that term's own g_8.

So the computed bound exceeds the computed slack when kappa (1 -
g_{d+8}) >= g_{4n+6d+19}, and kappa = g_{4n+8d+40} is used. These bounds
assume no underflow or overflow, so the screen runs only when every
nonzero entry of the samples, of the scaled projectors w_i^2 P_i and of
the constants has magnitude in [2^-200, 2^200]. The parts are then
integer multiples of 2^-504 and the u_i, sums of a part times a sample
entry, of 2^-756 (sums and rounding keep such a grid), the samples are
unit vectors, and every product or quotient either side forms is 0 or
at least 2^-1008 in magnitude, with every value below 2^900. Otherwise
every pair is evaluated, mask by mask. The kernel's and the screen's
blocks stay under the chunk budget ``linalg.CHUNK_FLOATS``.

Each frame solves its fusion frame operator once, on first use, and
keeps its member projectors P_i and the summands w_i^2 P_i as (n, d, d)
stacks (``FusionFrame.projectors``, ``operators`` and ``spectrum``), so
checks on one pair share them; ``pw`` scales the projectors by w_i.
Every contraction of the sample batch with a stack is one matrix
product. S_W - S_V is solved once per pair, not once per check: W
keeps the pair's extremal eigenvectors together with a weak reference
to its last partner V (``_extremal``), so checks on one pair share them
and W never keeps V alive. The optimal bounds and the extremal sample
vectors come from the three spectra. Each gate or predicted interval is
built on A_W, so every check raises NotAFrame unless W passes the frame
rule.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstantOutOfRange,
    IndexMismatch,
    InvalidSampleCount,
    NotAFrame,
    WeightMismatch,
)
from .frames import _is_frame
from .fusion import FusionFrame, fusion_frame_operator
from .linalg import chunk_slices, read_only, sym_eig
from .tolerances import HOLD_SLACK, WEIGHT_TOL
from .weaving import _require_seed

_SUBSET_CAP = 4096
# a half set holds at most _HALF_CAP rows: every subset of at most
# _HALF_BITS indices, else that many drawn ones
_HALF_CAP = math.isqrt(_SUBSET_CAP)
_HALF_BITS = _HALF_CAP.bit_length() - 1
_UNIT_ROUNDOFF = 2.0**-53
_SCREEN_RANGE = (2.0**-200, 2.0**200)
# samples whose best pair seeds the screen's running worst: on the
# benchmark's pairs 16 gave the threshold that every sample gives
_SEEDS = 16
# the FusionFrame instance-dict key of W's (weak V, extremal rows) slot
_EXTREMAL_SLOT = "_extremal"


@dataclass(frozen=True)
class PerturbationCertificate:
    """Sampled verdict for one closeness condition.

    ``gate_margin`` is the slack of the constant gate (non-positive when
    the gate holds, None for methods without a gate),
    ``inequality_violation`` the worst sampled slack of the defining
    inequality. Both verdict fields are derived here, never passed:
    ``max_violation`` is the larger of the two (the inequality's slack
    alone without a gate), and hypothesis_holds is max_violation <=
    HOLD_SLACK.
    ``subset_search`` is how the index subsets were covered at each
    sample: ``closed_form`` (exact, ``proj``), ``exhaustive`` (every
    subset evaluated or ruled out by the screen's proven bound, ``op`` up
    to 2^12 subsets), ``sampled`` (drawn subsets, ``op`` above that) or
    None (``pw`` has no subsets).
    """

    method: str
    hypothesis_holds: bool = field(init=False)
    constants: tuple[float, ...]
    predicted_lower: float
    predicted_upper: float
    sample_count: int
    seed: int
    max_violation: float = field(init=False)
    gate_margin: float | None
    inequality_violation: float
    subset_search: str | None

    def __post_init__(self):
        worst = self.inequality_violation
        if self.gate_margin is not None:
            worst = max(self.gate_margin, worst)
        object.__setattr__(self, "max_violation", worst)
        object.__setattr__(self, "hypothesis_holds", worst <= HOLD_SLACK)


def _check_pair(w: FusionFrame, v: FusionFrame) -> None:
    if w.dim != v.dim:
        raise IndexMismatch("families live in different ambient spaces")
    if w.size != v.size:
        raise IndexMismatch("families have different index sets")


def _check_unit_interval(**constants: float) -> None:
    for name, value in constants.items():
        if not np.isfinite(value) or value < 0.0 or value >= 1.0:
            raise ConstantOutOfRange(f"{name} must lie in [0, 1), got {value}")


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise InvalidSampleCount(f"samples must be non-negative, got {samples}")


def _extremal(w: FusionFrame, v: FusionFrame) -> np.ndarray:
    """The extremal eigenvectors of S_W, S_V and S_W - S_V as the read-only
    rows of one (6, d) array.

    S_W - S_V is solved once per pair: W keeps the rows in one slot of its
    instance dict, where ``cached_property`` writes too, with a weak
    reference to V. A call with the same V returns the stored rows; one
    with another V solves and replaces the slot. Frames are immutable, so
    the stored rows are those a fresh solve gives, and the weak reference
    never keeps V alive (a dead one matches no frame). The slot is one
    tuple, written whole, so a concurrent call reads a matched pair."""
    partner, rows = w.__dict__.get(_EXTREMAL_SLOT, (None, None))
    if partner is not None and partner() is v:
        return rows
    diff = sym_eig(fusion_frame_operator(w) - fusion_frame_operator(v))
    spectra = (w.spectrum, v.spectrum, diff)
    rows = read_only(np.array([s.eigenvectors[:, k] for s in spectra for k in (0, -1)]))
    w.__dict__[_EXTREMAL_SLOT] = (weakref.ref(v), rows)
    return rows


def _frame_bounds(w: FusionFrame, use: str) -> tuple[float, float]:
    """A_W and B_W; NotAFrame, naming the ``use`` of A_W, unless W is a frame."""
    a_w, b_w = w.spectrum.smallest, w.spectrum.largest
    if not _is_frame(a_w, b_w):
        reason = "is not positive" if a_w <= 0.0 else "is at most FRAME_TOL * max(1, B_W)"
        raise NotAFrame(
            f"W is not a fusion frame: its lower bound A_W = {a_w!r} {reason}, and {use}"
        )
    return a_w, b_w


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _sample_batch(rng: np.random.Generator, samples: int, extremal: np.ndarray) -> np.ndarray:
    """The unit vectors f of ``op`` and ``proj``: seeded unit rows, then the
    extremal eigenvectors."""
    return np.concatenate([_unit_rows(rng, samples, extremal.shape[1]), extremal])


def _op_inputs(w: FusionFrame, v: FusionFrame, rng, samples):
    """What ``op`` sums over: its sample batch and, per index i, one (3 d +
    1, sample) block of ``parts``: row 3 e + j holds entry e of S_{W,i} f,
    S_{V,i} f or their difference for j = 0, 1, 2, and the last row u_i =
    <S_{W,i} f, f>, read from the W parts. The parts of each frame are one
    matrix product, the summands' transposes stacked as (n d, d) times the
    samples as columns."""
    n, d = w.size, w.dim
    batch = _sample_batch(rng, samples, _extremal(w, v))
    w_parts, v_parts = (
        (np.swapaxes(sq, 1, 2).reshape(n * d, d) @ batch.T).reshape(n, d, -1)
        for sq in (w.operators, v.operators)
    )
    parts = np.empty((n, 3 * d + 1, len(batch)))
    parts[:, 0:-1:3], parts[:, 1:-1:3] = w_parts, v_parts
    np.subtract(w_parts, v_parts, out=parts[:, 2:-1:3])
    parts[:, -1] = np.einsum("nes,se->ns", w_parts, batch)
    return batch, parts


def _op_slacks(parts, masks, samples, lam, mu, gamma):
    """The computed op slack of each pair (``masks[k]``, ``samples[k]``), a
    0/1 subset row and an index into ``parts``' samples.

    A pair's arithmetic does not depend on the other pairs: its parts are
    multiplied by the mask (exactly) and added in index order, the d
    squares of each of its three sums in entry order, and its four norms
    are combined on their own. ``np.add.reduce`` adds sequentially along
    an axis that is not the innermost, and both reductions here leave at
    least 3 entries per pair. So a pair's slack has the same bits alone as
    in any batch."""
    count, d = len(samples), parts.shape[1] // 3
    sums = np.take(parts, samples, axis=2)
    sums *= masks.T[:, None, :]
    sums = np.add.reduce(sums, axis=0)
    squares = sums[:-1] * sums[:-1]
    norms = np.sqrt(np.add.reduce(squares.reshape(d, 3, count), axis=0))
    u_norms = np.sqrt(np.maximum(sums[-1], 0.0))
    return ((norms[2] - lam * norms[0]) - mu * norms[1]) - gamma * u_norms


def _mask_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 float rows whose bits, index 0 the most significant, are ``keys``."""
    return ((keys[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


# per k <= _HALF_BITS, every subset of k indices in lexicographic order
_HALF_ROWS = tuple(read_only(_mask_rows(np.arange(2**k), k)) for k in range(_HALF_BITS + 1))


def _subset_halves(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The H rows over the first ceil(n/2) indices and the L rows over the
    rest, 0/1 float rows whose product is the subsets examined: each half's
    subsets in lexicographic order when they number at most _HALF_CAP, else
    _HALF_CAP drawn rows led by the empty and the full half, H's drawn
    first."""
    halves = []
    for size in ((n + 1) // 2, n // 2):
        if size <= _HALF_BITS:
            halves.append(_HALF_ROWS[size])
        else:
            drawn = rng.integers(0, 2, size=(_HALF_CAP, size)).astype(float)
            drawn[0] = 0.0
            drawn[1] = 1.0
            halves.append(drawn)
    return tuple(halves)


def _keyed_masks(halves, keys: np.ndarray) -> np.ndarray:
    """The 0/1 rows of the subsets ``keys``: subset k joins H row k // |L|
    to L row k % |L|."""
    upper, lower = halves
    high, low = np.divmod(keys, len(lower))
    return np.concatenate([upper[high], lower[low]], axis=1)


def _screenable(*arrays: np.ndarray) -> bool:
    """Whether every entry is 0 or of magnitude in _SCREEN_RANGE (see the
    module docstring: then nothing in the op pass or its screen underflows
    or overflows)."""
    lo, hi = _SCREEN_RANGE
    m = np.abs(np.concatenate([a.ravel() for a in arrays]))
    return bool(m.max() <= hi and np.min(m, where=m > 0.0, initial=hi) >= lo)


def _index_terms(batch, parts, lam, mu, kappa):
    """Per index and sample: the linear terms of the bound, kappa t_i -
    (lam <A_i, f> + mu <B_i, f>) / ||f||, and the lowered u_i - kappa
    |u_i|; <A_i, f> is u_i itself."""
    n, rows, count = parts.shape
    u = parts[:, -1]
    f_norms = np.sqrt(np.einsum("sd,sd->s", batch, batch))
    v_forms = np.einsum("nes,se->ns", parts[:, 1:-1:3], batch)
    triples = parts[:, :-1].reshape(n, rows // 3, 3, count)
    norm_a, norm_b, norm_d = np.sqrt(np.einsum("nejs,nejs->jns", triples, triples))
    linear = kappa * ((lam * norm_a + mu * norm_b) + norm_d) - (lam * u + mu * v_forms) / f_norms
    return linear, u - kappa * np.abs(u)


def _slack_bounds(batch, parts, halves, lam, mu, gamma):
    """The screen of the module docstring as the H table and the L table,
    one row per 0/1 row of ``halves[0]`` and of ``halves[1]``, so subset k
    has the bound upper[k // b] + lower[k % b] at every sample, b the
    number of L rows. Each entry is the norm of the half's D sum plus its
    linear terms plus rho[0] sqrt(u) for its U sum u >= 0, or rho[1]
    sqrt(-u) for u < 0."""
    n, rows, count = parts.shape
    d = rows // 3
    k = 4 * n + 8 * d + 40
    kappa = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    linear, u_low = _index_terms(batch, parts, lam, mu, kappa)
    rho = (-gamma * (1.0 - kappa) * np.sqrt(0.5), gamma * (1.0 + kappa))
    # per index: the d rows of D, the linear terms and u - kappa |u|
    terms = np.concatenate([parts[:, 2:-1:3], linear[:, None], u_low[:, None]], axis=1)
    terms = terms.reshape(n, (d + 2) * count)
    high = halves[0].shape[1]
    tables = []
    for half, half_terms in zip(halves, (terms[:high], terms[high:])):
        table = []
        for at in chunk_slices(len(half), (d + 2) * count):
            sums = (half[at] @ half_terms).reshape(-1, d + 2, count)
            u_sums = sums[:, -1]
            table.append(
                np.sqrt(np.einsum("kds,kds->ks", sums[:, :d], sums[:, :d]))
                + sums[:, d]
                + np.where(u_sums > 0.0, rho[0], rho[1]) * np.sqrt(np.abs(u_sums))
            )
        tables.append(np.concatenate(table))
    return tables


def _group_pairs(bounds, groups, samples, threshold=None):
    """(subset keys, samples, bounds) among the subsets of H row
    ``groups[c]`` at ``samples[c]``, ``bounds`` as ``_slack_bounds``
    returns them: the pair of highest bound for each c when ``threshold``
    is None, else every pair whose bound is above it."""
    upper, lower = bounds
    found = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    for at in chunk_slices(len(groups), len(lower)):
        g, s = groups[at], samples[at]
        block = upper[g, s][:, None] + lower[:, s].T
        if threshold is None:
            c, j = np.arange(len(g)), block.argmax(axis=1)
        else:
            c, j = np.nonzero(block > threshold)
        found.append((g[c] * len(lower) + j, s[c], block[c, j]))
    return [np.concatenate(x) for x in zip(*found)]


def _fold_descending(parts, halves, keys, samples, bounds, constants, worst):
    """``worst`` raised to the slack of every pair (subset ``keys[c]``,
    ``samples[c]``) whose bound is above it, in decreasing order of bound:
    a pair whose bound is at most the running worst cannot raise it."""
    order = np.argsort(bounds)[::-1]
    for at in chunk_slices(len(order), parts.shape[0] * parts.shape[1]):
        pick = order[at]
        pick = pick[bounds[pick] > worst]
        if not len(pick):
            break
        masks = _keyed_masks(halves, keys[pick])
        worst = max(worst, float(_op_slacks(parts, masks, samples[pick], *constants).max()))
    return worst


def _every_pair_worst(parts, halves, constants, worst):
    """``worst`` raised to the slack of every (subset, sample) pair, subset
    by subset: the fold without a screen."""
    count = parts.shape[2]
    total = len(halves[0]) * len(halves[1]) * count
    for at in chunk_slices(total, parts.shape[0] * parts.shape[1]):
        keys, samples = np.divmod(np.arange(at.start, at.stop), count)
        masks = _keyed_masks(halves, keys)
        worst = max(worst, float(_op_slacks(parts, masks, samples, *constants).max()))
    return worst


def _screened_worst(batch, parts, halves, constants, worst):
    """``worst`` raised to the largest computed slack over every (subset,
    sample), evaluating only the pairs whose bound is above the running
    worst. The subsets of an H row h are ruled out together at a sample
    whose largest L entry, added to upper[h], is not above the worst.
    The seeds come first: at each of the _SEEDS samples where that group
    bound peaks highest, the pair of highest bound in its peak group."""
    bounds = upper, lower = _slack_bounds(batch, parts, halves, *constants)
    count = len(batch)
    reach = lower.max(axis=0)
    seeds = np.argsort(upper.max(axis=0) + reach)[-_SEEDS:]
    pairs = _group_pairs(bounds, upper[:, seeds].argmax(axis=0), seeds)
    worst = _fold_descending(parts, halves, *pairs, constants, worst)
    above = [
        np.flatnonzero(upper[at] + reach > worst) + at.start * count
        for at in chunk_slices(len(upper), count)
    ]
    groups, samples = np.divmod(np.concatenate(above), count)
    pairs = _group_pairs(bounds, groups, samples, worst)
    return _fold_descending(parts, halves, *pairs, constants, worst)


def pw_check(
    w: FusionFrame,
    v: FusionFrame,
    lam1: float,
    lam2: float,
    mu: float,
    samples: int = 1000,
    seed: int = 0,
) -> PerturbationCertificate:
    """Synthesis-operator closeness check.

    Both synthesis maps are evaluated on the shared product domain (one
    ambient copy per index) as c -> sum_i weight_i P_i c_i. The gate
    (2/A_W)(sqrt(B_W)+sqrt(B_V))(lam1 sqrt(B_W)+lam2 sqrt(B_V)+mu) <= 1
    uses the computed optimal bounds, and the sampled inequality is

        ||T_W c - T_V c|| <= lam1 ||T_W c|| + lam2 ||T_V c|| + mu ||c||

    with the additive term scaled by ||c|| so the condition is
    homogeneous. On success the predicted woven interval is
    [A_W / 2, B_W + B_V].
    """
    _check_unit_interval(lam1=lam1, lam2=lam2, mu=mu)
    _check_pair(w, v)
    _check_samples(samples)
    _require_seed(seed)
    a_w, b_w = _frame_bounds(w, "the pw gate divides by A_W")
    b_v = v.spectrum.largest

    gate_value = (
        (2.0 / a_w)
        * (np.sqrt(b_w) + np.sqrt(b_v))
        * (lam1 * np.sqrt(b_w) + lam2 * np.sqrt(b_v) + mu)
    )
    gate_margin = float(gate_value - 1.0)

    n, d = w.size, w.dim
    rng = np.random.default_rng(seed)
    # each row c is n blocks of d: seeded unit rows, then every extremal
    # vector repeated in all n blocks, scaled to unit norm
    extremal = np.tile(_extremal(w, v) / np.sqrt(n), n)
    batch = np.concatenate([_unit_rows(rng, samples, n * d), extremal])

    t_w = batch @ (w.weights[:, None, None] * w.projectors).reshape(n * d, d)
    t_v = batch @ (v.weights[:, None, None] * v.projectors).reshape(n * d, d)
    norms_c = np.linalg.norm(batch, axis=1)
    lhs = np.linalg.norm(t_w - t_v, axis=1)
    rhs = (
        lam1 * np.linalg.norm(t_w, axis=1)
        + lam2 * np.linalg.norm(t_v, axis=1)
        + mu * norms_c
    )
    inequality_violation = float((lhs - rhs).max())

    return PerturbationCertificate(
        method="pw",
        constants=(lam1, lam2, mu),
        predicted_lower=a_w / 2.0,
        predicted_upper=b_w + b_v,
        sample_count=int(batch.shape[0]),
        seed=seed,
        gate_margin=gate_margin,
        inequality_violation=inequality_violation,
        subset_search=None,
    )


def op_perturbation_check(
    w: FusionFrame,
    v: FusionFrame,
    lam: float,
    mu: float,
    gamma: float,
    samples: int = 1000,
    seed: int = 0,
) -> PerturbationCertificate:
    """Partial-operator closeness check.

    With S_X^s the weighted projector sum over an index subset s, the
    gate lam*B_W + mu*B_V + gamma*sqrt(B_W) < A_W is combined with the
    sampled inequality, over unit f and every subset s,

        ||S_W^s f - S_V^s f||
            <= lam ||S_W^s f|| + mu ||S_V^s f|| + gamma ||U_W^s f||

    where ||U_W^s f||^2 sums the squared weighted projection norms over
    s. On success the predicted interval is A_W -/+ the gate sum.
    """
    _check_unit_interval(lam=lam, mu=mu, gamma=gamma)
    _check_pair(w, v)
    _check_samples(samples)
    _require_seed(seed)
    a_w, b_w = _frame_bounds(w, "the op gate and interval are measured against A_W")
    b_v = v.spectrum.largest

    gate_value = lam * b_w + mu * b_v + gamma * np.sqrt(b_w)
    gate_margin = float(gate_value - a_w)

    rng = np.random.default_rng(seed)
    batch, parts = _op_inputs(w, v, rng, samples)
    halves = _subset_halves(w.size, rng)
    constants = (lam, mu, gamma)
    # the fold starts at the empty subset's slack, exactly +0.0, so a zero
    # maximum reads as +0.0 whichever pairs are evaluated
    if _screenable(batch, w.operators, v.operators, np.array(constants)):
        inequality_violation = _screened_worst(batch, parts, halves, constants, 0.0)
    else:
        inequality_violation = _every_pair_worst(parts, halves, constants, 0.0)

    return PerturbationCertificate(
        method="op",
        constants=(lam, mu, gamma),
        predicted_lower=float(a_w - gate_value),
        predicted_upper=float(a_w + gate_value),
        sample_count=int(batch.shape[0]),
        seed=seed,
        gate_margin=gate_margin,
        inequality_violation=inequality_violation,
        subset_search="exhaustive" if 2**w.size <= _SUBSET_CAP else "sampled",
    )


def proj_perturbation_check(
    w: FusionFrame,
    v: FusionFrame,
    kconst: float,
    samples: int = 1000,
    seed: int = 0,
) -> PerturbationCertificate:
    """Projection-difference closeness check for families sharing weights.

    Samples unit f and takes the worst index subset s in closed form
    (see the module docstring), requiring

        sum_{i in s} w_i^2 ||P_{W_i} f - P_{V_i} f||
            <= K min( sum_{i in s} w_i^2 ||P_{W_i} f||,
                      sum_{i in s} w_i^2 ||P_{V_i} f|| ).

    On success the predicted interval is [(A_W + A_V) / (2K + 1), B_W + B_V].
    """
    if not np.isfinite(kconst) or kconst <= 0.0:
        raise ConstantOutOfRange(f"K must be positive and finite, got {kconst}")
    _check_pair(w, v)
    if float(np.abs(w.weights - v.weights).max()) > WEIGHT_TOL:
        raise WeightMismatch("families must share the same weights")

    _check_samples(samples)
    _require_seed(seed)
    a_w, b_w = _frame_bounds(w, "the proj interval is predicted from A_W")
    a_v, b_v = v.spectrum.smallest, v.spectrum.largest

    batch = _sample_batch(np.random.default_rng(seed), samples, _extremal(w, v))

    wsq = (w.weights**2)[:, None]
    # (n, sample, d): row f of entry i is f P_i, that is P_i f
    pw_f = batch @ w.projectors
    pv_f = batch @ v.projectors
    # norms over the ambient axis, each the root of one einsum sum of squares
    diff, wn, vn = (np.sqrt(np.einsum("nse,nse->ns", x, x)) for x in (pw_f - pv_f, pw_f, pv_f))
    # per index and sample: a_i, b_i and c_i of the module docstring; the
    # worst subset takes exactly the indices with a positive term
    a = diff * wsq
    terms = np.stack([a - kconst * (wn * wsq), a - kconst * (vn * wsq)])
    inequality_violation = float(np.maximum(terms, 0.0).sum(axis=1).max())

    return PerturbationCertificate(
        method="proj",
        constants=(kconst,),
        predicted_lower=float((a_w + a_v) / (2.0 * kconst + 1.0)),
        predicted_upper=float(b_w + b_v),
        sample_count=int(batch.shape[0]),
        seed=seed,
        gate_margin=None,
        inequality_violation=inequality_violation,
        subset_search="closed_form",
    )
