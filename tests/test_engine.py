"""The chunked scans against per-item loop oracles.

Every check runs with chunks forced to 1 row, 3 rows and the default
budget, so extrema, ties and witnesses are exercised on both sides of
chunk boundaries. An exhaustive scan's chunk is the subtree under one
prefix of the assignments, so its boundaries also fall inside the
subtrees of shorter prefixes.
"""

import itertools

import numpy as np
import pytest

from wovenframes import (
    DiscreteFrame,
    FusionFrame,
    Subspace,
    WovenFamily,
    find_nonwoven_witness,
    fusion_bounds,
    op_perturbation_check,
    proj_perturbation_check,
    pw_check,
    woven_bounds_exhaustive,
    woven_bounds_sampled,
    woven_riesz_decomposition_check,
)
from wovenframes import linalg, perturbation, weaving
from wovenframes.frames import _clamp_small_negative
from wovenframes.weaving import contribution_stacks

from helpers import (
    all_assignments,
    basis_vec,
    gathered_operators,
    index_order_sum,
    op_inputs,
    op_slacks,
    op_violation_oracle,
    op_violation_unscreened,
    product_masks,
    proj_violation_oracle,
    pw_violation_oracle,
    random_riesz_family,
    riesz_failing,
    scan_oracle,
    subset_masks,
)


@pytest.fixture(params=[1, 3, None], ids=["1-row", "3-row", "default"])
def rows_per_chunk(request, monkeypatch):
    """Returns ``force(row_floats)``: sets the chunk budget so a scan whose
    rows hold ``row_floats`` floats runs in chunks of the fixture's row
    count (the default budget for None), and returns that row count."""

    def force(row_floats: int) -> int:
        if request.param is not None:
            monkeypatch.setattr(linalg, "CHUNK_FLOATS", request.param * row_floats)
        return linalg.chunk_rows(row_floats)

    return force


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts the stacked eigensolves the weaving scans make."""
    calls = []
    original = weaving._eigenvalues

    def spy(matrices):
        calls.append(len(matrices))
        return original(matrices)

    monkeypatch.setattr(weaving, "_eigenvalues", spy)
    return calls


def subtree_leaves(rows: int, n: int, m: int) -> int:
    """Leaves of an exhaustive scan's chunk: the largest power of m of at
    most ``rows``, at most m^n."""
    leaves = 1
    while leaves * m <= min(rows, m**n):
        leaves *= m
    return leaves


def assert_matches(report, expected):
    assert report.partitions_examined == expected["count"]
    assert report.universal_upper == expected["upper"]
    assert report.universal_lower == _clamp_small_negative(
        expected["lower"], expected["upper"]
    )
    assert report.worst_partition.assignment == expected["worst"]
    assert report.best_upper_partition.assignment == expected["best"]
    if expected["witness"] is None:
        assert report.witness is None
    else:
        partition, vector, value = report.witness
        assert partition.assignment == expected["witness"][0]
        assert np.array_equal(vector, expected["witness"][1])
        assert value == expected["witness"][2]


def random_discrete(rng, d: int, n: int, m: int, zero_share: float = 0.0) -> WovenFamily:
    """m Gaussian systems; about ``zero_share`` of the vectors are zeroed,
    which spreads the weaving spectra towards 0."""
    return WovenFamily.discrete(
        [
            DiscreteFrame(d, rng.standard_normal((n, d)) * (rng.random((n, 1)) >= zero_share))
            for _ in range(m)
        ]
    )


def nonwoven_pair(rng, d: int, n: int) -> WovenFamily:
    """Coordinate 0 is missing from system 0 at indices 1..n-1 and from
    system 1 at index 0, so (1, 0, ..., 0), of lexicographic rank
    2^(n-1), is the first singular weaving."""
    frames = []
    for zeroed in (range(1, n), range(1)):
        vectors = rng.standard_normal((n, d))
        vectors[list(zeroed), 0] = 0.0
        frames.append(DiscreteFrame(d, vectors))
    return WovenFamily.discrete(frames)


def near_fusion_pair(rng, d: int, n: int, rank: int, tilt: float = 0.02):
    weights = rng.uniform(0.5, 1.5, n)
    span_w = rng.standard_normal((n, rank, d))
    span_v = span_w + tilt * rng.standard_normal((n, rank, d))
    return tuple(
        FusionFrame(d, tuple(Subspace.from_spanning(d, list(s)) for s in spans), weights)
        for spans in (span_w, span_v)
    )


# d = 1 with n >= 8 is where numpy sums a gathered index stack pairwise,
# so only the index-order oracle holds there
@pytest.mark.parametrize("d, n, m", [(1, 9, 2), (1, 12, 2), (3, 7, 2), (2, 5, 3)])
def test_chunk_operators_equal_one_partition_sums(d, n, m):
    stacks = contribution_stacks(random_discrete(np.random.default_rng(n), d, n, m))
    chunk = np.array(list(all_assignments(n, m)))
    expected = np.array([index_order_sum(stacks, a) for a in chunk])
    ops = weaving._weaving_operators(stacks, chunk)
    assert ops.tobytes() == expected.tobytes()
    tree = np.concatenate([sums for _, sums in weaving._prefix_sums(stacks, 4)])
    assert tree.tobytes() == expected.tobytes()
    if d >= 2:
        assert ops.tobytes() == gathered_operators(stacks, chunk).tobytes()


@pytest.mark.parametrize("d, n, m", [(1, 9, 2), (3, 7, 2), (2, 5, 3)])
def test_exhaustive_matches_oracle(rows_per_chunk, eig_calls, d, n, m):
    family = random_discrete(np.random.default_rng(d * 100 + n), d, n, m, 0.3)
    leaves = subtree_leaves(rows_per_chunk(d * d), n, m)
    stacks = contribution_stacks(family)
    eps = 1.0
    report = woven_bounds_exhaustive(family, eps=eps)
    assert_matches(report, scan_oracle(stacks, all_assignments(n, m), eps))
    assert eig_calls == [leaves] * (m**n // leaves)


@pytest.mark.parametrize("n, m", [(7, 2), (5, 3)])
def test_ties_go_to_the_first_partition(rows_per_chunk, n, m):
    frame = DiscreteFrame(3, np.random.default_rng(n).standard_normal((n, 3)))
    family = WovenFamily.discrete([frame] * m)
    rows_per_chunk(9)
    report = woven_bounds_exhaustive(family)
    assert report.worst_partition.assignment == (0,) * n
    assert report.best_upper_partition.assignment == (0,) * n
    assert_matches(report, scan_oracle(contribution_stacks(family), all_assignments(n, m)))


def test_witness_in_a_later_chunk(rows_per_chunk, eig_calls):
    d, n = 3, 11
    family = nonwoven_pair(np.random.default_rng(5), d, n)
    rows = subtree_leaves(rows_per_chunk(d * d), n, 2)
    star = (1,) + (0,) * (n - 1)
    assert 2 ** (n - 1) >= rows  # not in the first chunk

    report = woven_bounds_exhaustive(family, eps=1e-8)
    expected = scan_oracle(contribution_stacks(family), all_assignments(n, 2), 1e-8)
    assert expected["witness"][0] == star
    assert_matches(report, expected)

    del eig_calls[:]
    partition, vector, value = find_nonwoven_witness(family, eps=1e-8)
    assert partition.assignment == star
    assert np.array_equal(vector, expected["witness"][1])
    assert value == expected["witness"][2]
    # the search stops after the chunk that holds rank 2^(n-1)
    assert len(eig_calls) == 2 ** (n - 1) // rows + 1


@pytest.mark.parametrize("d, n, m", [(2, 6, 2), (3, 5, 3)])
@pytest.mark.parametrize("eps", [0.01, 1.0, 10.0, 1e6])
def test_witness_search_matches_the_full_scan(rows_per_chunk, d, n, m, eps):
    family = random_discrete(np.random.default_rng(n + m), d, n, m)
    # universal lower bounds 0.21 and 0.020: no witness below 0.01
    rows_per_chunk(d * d)
    found = find_nonwoven_witness(family, eps=eps)
    scanned = woven_bounds_exhaustive(family, eps=eps).witness
    if scanned is None:
        assert found is None
    else:
        assert found[0] == scanned[0]
        assert np.array_equal(found[1], scanned[1])
        assert found[2] == scanned[2]


@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_matches_oracle(rows_per_chunk, seed):
    d, n, m, samples = 3, 10, 3, 40
    family = random_discrete(np.random.default_rng(seed), d, n, m)
    rows_per_chunk(d * d)
    drawn = np.random.default_rng(seed).integers(0, m, size=(samples, n))
    rows = [(j,) * n for j in range(m)] + [tuple(r) for r in drawn]
    report = woven_bounds_sampled(family, samples, seed)
    assert_matches(report, scan_oracle(contribution_stacks(family), rows))
    assert report.method == "sampled" and report.seed == seed


def close(a: float, b: float) -> bool:
    # a GEMM and a per-mask tensordot may round in another order
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


# n = 9 enumerates all 512 masks; n = 13 draws 4096 of 8192
@pytest.mark.parametrize("n", [9, 13])
@pytest.mark.parametrize("c", [0.02, 0.1])
def test_op_matches_oracle(rows_per_chunk, n, c):
    d, samples, seed = 3, 10, 4
    w, v = near_fusion_pair(np.random.default_rng(n), d, n, 2)
    # each mask holds the S_W, S_V and difference sums and the U_W norm
    rows_per_chunk((samples + 6) * (3 * d + 1))
    cert = op_perturbation_check(w, v, c, c, c, samples, seed)
    expected = op_violation_oracle(w, v, c, c, c, samples, seed)
    assert close(cert.inequality_violation, expected)
    assert cert.hypothesis_holds == (max(cert.gate_margin, expected) <= 1e-9)


# unequal constants tell the S_W, S_V and U_W terms apart
@pytest.mark.parametrize("lam, mu, gamma", [(0.05, 0.0, 0.0), (0.0, 0.05, 0.0), (0.0, 0.0, 0.05)])
def test_op_matches_oracle_per_term(rows_per_chunk, lam, mu, gamma):
    d, n, samples, seed = 3, 9, 10, 4
    w, v = near_fusion_pair(np.random.default_rng(11), d, n, 2, tilt=0.2)
    rows_per_chunk((samples + 6) * (3 * d + 1))
    cert = op_perturbation_check(w, v, lam, mu, gamma, samples, seed)
    expected = op_violation_oracle(w, v, lam, mu, gamma, samples, seed)
    assert close(cert.inequality_violation, expected)


# V_i tilts W_i by 1e-10, so every subset's S_W^s f - S_V^s f cancels to
# about 1e-10 against sums of order 1; a Gram or quadratic-form shortcut
# (||sum_i m_i x_i||^2 = m^T G m) leaves an error near sqrt(1e-16) there
@pytest.mark.parametrize("c", [0.0, 1e-10])
def test_op_keeps_cancelling_sums_exact(rows_per_chunk, c):
    d, n, samples, seed = 4, 9, 20, 6
    w, v = near_fusion_pair(np.random.default_rng(3), d, n, 2, tilt=1e-10)
    rows_per_chunk((samples + 6) * (3 * d + 1))
    cert = op_perturbation_check(w, v, c, c, c, samples, seed)
    expected = op_violation_oracle(w, v, c, c, c, samples, seed)
    assert 1e-11 < expected < 1e-8
    assert abs(cert.inequality_violation - expected) <= 1e-14


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# d = 6, n = 9 is the benchmark's shape; n = 13 draws its H rows and
# enumerates its L rows, and n = 14, 20 and 40 draw both halves; the tilts
# run from cancellation to unrelated members
@pytest.mark.parametrize(
    "d, n, samples",
    [(6, 9, 100), (6, 9, 20), (3, 13, 10), (3, 14, 10), (6, 14, 10), (3, 20, 10), (2, 40, 10)],
)
@pytest.mark.parametrize("tilt", [1e-10, 0.02, 1.0])
@pytest.mark.parametrize("constants", [(0.02, 0.02, 0.02), (0.0, 0.0, 0.0)])
def test_op_screen_keeps_the_unscreened_worst(rows_per_chunk, d, n, samples, tilt, constants):
    w, v = near_fusion_pair(np.random.default_rng(d + n), d, n, 2, tilt)
    rows_per_chunk((samples + 6) * (3 * d + 1))
    cert = op_perturbation_check(w, v, *constants, samples, 3)
    expected = op_violation_unscreened(w, v, *constants, samples, 3)
    assert same_bits(cert.inequality_violation, expected)


def screen_bounds(w, v, lam, mu, gamma, samples, seed) -> np.ndarray:
    """The screen's bound on every (mask, sample) slack, as the check adds
    it: the H table's row plus the L table's row of the mask's halves, in
    the mask order of ``op_slacks``."""
    batch, parts, halves = op_inputs(w, v, samples, seed)
    upper, lower = perturbation._slack_bounds(batch, parts, halves, lam, mu, gamma)
    assert upper.shape == (len(halves[0]), len(batch))
    assert lower.shape == (len(halves[1]), len(batch))
    return (upper[:, None] + lower[None, :]).reshape(-1, len(batch))


def random_fusion_pair(rng, d: int, n: int, tilt: float):
    """Members of drawn rank 0..d, V_i a tilt of W_i, shared weights."""
    weights = rng.uniform(0.5, 1.5, n)
    spans = [rng.standard_normal((int(rng.integers(0, d + 1)), d)) for _ in range(n)]
    return tuple(
        FusionFrame(d, tuple(Subspace.from_spanning(d, list(s)) for s in members), weights)
        for members in (spans, [s + tilt * rng.standard_normal(s.shape) for s in spans])
    )


# n = 13 and 14 take the half tables over drawn half rows; tilt
# 1e-10 makes every difference cancel to about 1e-10 against parts of order 1
@pytest.mark.parametrize("tilt", [0.0, 1e-10, 1e-3, 1.0])
@pytest.mark.parametrize("constants", [(0.0, 0.0, 0.0), (0.02, 0.02, 0.02), (0.5, 0.3, 0.9)])
def test_screen_bounds_every_computed_slack(tilt, constants):
    for seed in range(30):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(1, 7)), [3, 8, 9, 12, 13, 14][seed % 6]
        w, v = random_fusion_pair(rng, d, n, tilt)
        samples = int(rng.integers(0, 12))
        bounds = screen_bounds(w, v, *constants, samples, seed)
        assert (bounds >= op_slacks(w, v, *constants, samples, seed)).all()


def planted_tight_pair(rng, n: int):
    """d = 1 and every member the whole line, weights w_i in W and w_i / 2
    in V: at unit f every part (w_i^2 - w_i^2 / 4) f has the sign of f,
    so ||D|| = ||D_H|| + ||D_L||, and A and B point along f. With gamma
    = 0 the screen's bound equals the slack in exact arithmetic; the
    rho split of the U_W term gives away at most gamma (1 - 1/sqrt 2)
    ||U_W f||."""
    weights = rng.uniform(1.0, 2.0, n)
    line = (Subspace.from_spanning(1, [[1.0]]),) * n
    return FusionFrame(1, line, weights), FusionFrame(1, line, weights / 2.0)


@pytest.mark.parametrize("n", [2, 7, 9, 12, 13])
@pytest.mark.parametrize("constants", [(0.0, 0.0, 0.0), (0.3, 0.2, 0.0), (0.02, 0.02, 0.02)])
def test_screen_bound_is_tight_on_a_planted_pair(n, constants):
    w, v = planted_tight_pair(np.random.default_rng(n), n)
    samples, seed = 30, 1
    bounds = screen_bounds(w, v, *constants, samples, seed)
    slacks = op_slacks(w, v, *constants, samples, seed)
    _, parts, halves = op_inputs(w, v, samples, seed)
    given_away = constants[2] * (1.0 - 0.5**0.5) * np.sqrt(product_masks(halves) @ parts[:, -1])
    assert (bounds >= slacks).all()
    assert (bounds - slacks <= given_away + 1e-12 * (1.0 + np.abs(slacks))).all()


def test_screen_margin_is_what_keeps_the_planted_bound_sound(monkeypatch):
    # without the rounding margin the tight bound falls below computed slacks
    w, v = planted_tight_pair(np.random.default_rng(9), 9)
    monkeypatch.setattr(perturbation, "_UNIT_ROUNDOFF", 0.0)
    bounds = screen_bounds(w, v, 0.0, 0.0, 0.0, 30, 1)
    assert (bounds < op_slacks(w, v, 0.0, 0.0, 0.0, 30, 1)).any()


def test_screen_evaluates_few_pairs_at_the_benchmark_shape(monkeypatch):
    d, n, samples, seed = 6, 9, 100, 1
    w, v = near_fusion_pair(np.random.default_rng(0), d, n, 2, tilt=0.01)
    evaluated = []
    kernel = perturbation._op_slacks

    def spy(parts, masks, at, *constants):
        evaluated.append(len(at))
        return kernel(parts, masks, at, *constants)

    monkeypatch.setattr(perturbation, "_op_slacks", spy)
    op_perturbation_check(w, v, 0.02, 0.02, 0.02, samples, seed)
    # at most 1% of the 2^9 * 106 (mask, sample) pairs reach the kernel
    assert 0 < sum(evaluated) <= 2**n * (samples + 6) // 100


# a tiny weight in W, or one in V whose square passes 2^200; n = 9
# enumerates the masks and n = 13 draws them
@pytest.mark.parametrize("member, weight", [(0, 1e-120), (1, 1e70)])
def test_op_runs_every_chunk_outside_the_screened_range(monkeypatch, member, weight):
    # every pair goes through the kernel without a bound
    monkeypatch.setattr(perturbation, "_slack_bounds", None)
    for n in (9, 13):
        pair = list(near_fusion_pair(np.random.default_rng(4), 3, n, 2))
        x = pair[member]
        pair[member] = FusionFrame(3, x.subspaces, np.r_[x.weights[:-1], weight])
        w, v = pair
        assert not perturbation._screenable(*(x.operators for x in pair))
        cert = op_perturbation_check(w, v, 0.02, 0.02, 0.02, 10, 2)
        expected = op_violation_unscreened(w, v, 0.02, 0.02, 0.02, 10, 2)
        assert same_bits(cert.inequality_violation, expected)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_subset_masks_enumerate_lexicographically(n):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    upper, lower = perturbation._subset_halves(n, rng)
    assert rng.bit_generator.state == state  # nothing drawn
    assert (upper.shape[1], lower.shape[1]) == ((n + 1) // 2, n // 2)
    masks = product_masks((upper, lower))
    expected = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    assert masks.dtype == expected.dtype
    assert np.array_equal(masks, expected)
    keys = np.arange(2**n)[::-1]
    assert np.array_equal(perturbation._keyed_masks((upper, lower), keys), expected[keys])


def test_subset_halves_above_the_cap_draw_the_larger_half():
    # n = 13: L's 6 indices have all 64 subsets, H's 7 get 64 drawn rows
    # led by the empty and the full half, drawn before anything else
    upper, lower = perturbation._subset_halves(13, np.random.default_rng(5))
    assert upper.shape == (64, 7) and lower.shape == (64, 6)
    assert np.array_equal(lower, np.array(list(itertools.product((0.0, 1.0), repeat=6))))
    assert (upper[0] == 0.0).all() and (upper[1] == 1.0).all()
    drawn = np.random.default_rng(5).integers(0, 2, size=(64, 7))
    assert np.array_equal(upper[2:], drawn[2:])
    masks = product_masks((upper, lower))
    assert len(masks) == perturbation._SUBSET_CAP
    assert (masks[0] == 0.0).all() and (masks[64 + 63] == 1.0).all()
    # n = 14 draws both halves, H's rows first
    upper, lower = perturbation._subset_halves(14, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for half in (upper, lower):
        drawn = rng.integers(0, 2, size=(64, 7))
        assert np.array_equal(half[2:], drawn[2:])
        assert (half[0] == 0.0).all() and (half[1] == 1.0).all()


# the oracle enumerates all 2^n subsets at both n; the closed form takes
# no chunks, so no chunk budget may change it
@pytest.mark.parametrize("n", [9, 13])
@pytest.mark.parametrize("kconst", [0.05, 0.5])
def test_proj_matches_oracle(rows_per_chunk, n, kconst):
    d, samples, seed = 3, 10, 2
    w, v = near_fusion_pair(np.random.default_rng(n), d, n, 2)
    rows_per_chunk((samples + 6) * 3)
    cert = proj_perturbation_check(w, v, kconst, samples, seed)
    assert cert.subset_search == "closed_form"
    expected = proj_violation_oracle(w, v, kconst, samples, seed)
    assert close(cert.inequality_violation, expected)
    assert cert.hypothesis_holds == (expected <= 1e-9)


# member 0 is rank 0 in both frames; the tilts run from cancelling
# differences to unrelated members
@pytest.mark.parametrize("tilt", [1e-10, 0.02, 1.0])
@pytest.mark.parametrize("samples", [0, 10])
def test_pw_matches_oracle(tilt, samples):
    d, n, seed = 3, 9, 5
    w, v = near_fusion_pair(np.random.default_rng(7), d, n, 2, tilt=tilt)
    empty = Subspace.from_spanning(d, [])
    w, v = (FusionFrame(d, (empty,) + x.subspaces[1:], x.weights) for x in (w, v))
    cert = pw_check(w, v, 0.05, 0.02, 0.01, samples, seed)
    expected = pw_violation_oracle(w, v, 0.05, 0.02, 0.01, samples, seed)
    scale = 1.0 + fusion_bounds(w).upper + fusion_bounds(v).upper
    assert abs(cert.inequality_violation - expected) <= 1e-12 * scale
    assert cert.sample_count == samples + 6


def planted_proj_pair(n: int):
    """Fusion pair in R^2 that differs only at index 0, span(e1) against
    span(e2); every other member is R^2 in both. With K = 0.5 a subset
    violates the proj inequality only if it holds index 0 and at most one
    other index: n of the 2^n subsets."""
    e1, e2 = basis_vec(2, 0), basis_vec(2, 1)
    plane = Subspace.from_spanning(2, [e1, e2])
    w = FusionFrame(2, (Subspace.from_spanning(2, [e1]),) + (plane,) * (n - 1), np.ones(n))
    v = FusionFrame(2, (Subspace.from_spanning(2, [e2]),) + (plane,) * (n - 1), np.ones(n))
    return w, v


def at_most_two(n: int, rng):
    """0/1 masks of the empty subset, the singletons and the pairs."""
    for k in (0, 1, 2):
        for chosen in itertools.combinations(range(n), k):
            yield np.isin(np.arange(n), chosen).astype(float)


def test_proj_closed_form_finds_the_subsets_sampling_misses():
    n, kconst, samples, seed = 20, 0.5, 20, 0
    w, v = planted_proj_pair(n)
    cert = proj_perturbation_check(w, v, kconst, samples, seed)
    # the 4096 subsets op samples at n = 20, a product of drawn halves
    sampled = proj_violation_oracle(w, v, kconst, samples, seed, masks=subset_masks)
    planted = proj_violation_oracle(w, v, kconst, samples, seed, masks=at_most_two)
    assert sampled <= 0.0
    assert planted > 0.5
    assert close(cert.inequality_violation, planted)
    assert not cert.hypothesis_holds and cert.subset_search == "closed_form"


def riesz_family(seed: int) -> WovenFamily:
    """Seeded family with d <= 5, n <= 6 and m in {2, 3}."""
    rng = np.random.default_rng(seed)
    d, n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7)), int(rng.integers(2, 4))
    return random_riesz_family(rng, d, n, m)


def assert_riesz_matches(family: WovenFamily) -> None:
    report = woven_riesz_decomposition_check(family)
    failing = riesz_failing(family)
    assert report.failing_count == len(failing)
    assert report.first_failing == (failing[0] if failing else None)
    assert report.all_pass == (not failing)
    assert report.partitions_examined == family.m**family.n


@pytest.mark.parametrize("seed", range(30))
def test_riesz_check_matches_the_weaving_loop(rows_per_chunk, seed):
    family = riesz_family(seed)
    rows_per_chunk(family.dim**2)
    assert_riesz_matches(family)


def test_riesz_check_solves_one_stack_per_chunk(rows_per_chunk, eig_calls):
    # d = 1 and three lines per system: every weaving has rank sum 3
    line = Subspace.from_spanning(1, [[1.0]])
    family = WovenFamily.fusion(
        tuple(FusionFrame(1, (line,) * 3, np.ones(3)) for _ in range(2))
    )
    leaves = subtree_leaves(rows_per_chunk(family.dim**2), 3, 2)
    assert_riesz_matches(family)
    eig_calls.clear()
    assert woven_riesz_decomposition_check(family).failing_count == 8
    assert eig_calls == [leaves] * (8 // leaves)


def test_riesz_check_matches_the_weaving_loop_on_300_families():
    for seed in range(100, 400):
        assert_riesz_matches(riesz_family(seed))
