"""The chunked scans against per-item loop oracles.

Every check runs with chunks forced to 1 row, 3 rows and the default
budget, so extrema, ties and witnesses are exercised on both sides of
chunk boundaries.
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
    op_perturbation_check,
    proj_perturbation_check,
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
    op_inputs,
    op_slacks,
    op_violation_oracle,
    op_violation_unscreened,
    proj_violation_oracle,
    random_riesz_family,
    riesz_failing,
    scan_oracle,
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
    original = weaving.stacked_eigenvalues

    def spy(matrices):
        calls.append(len(matrices))
        return original(matrices)

    monkeypatch.setattr(weaving, "stacked_eigenvalues", spy)
    return calls


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


# d = 1 with n >= 8 is where numpy sums an index stack pairwise
@pytest.mark.parametrize("d, n, m", [(1, 9, 2), (1, 12, 2), (3, 7, 2), (2, 5, 3)])
def test_chunk_operators_equal_one_partition_sums(d, n, m):
    stacks = contribution_stacks(random_discrete(np.random.default_rng(n), d, n, m))
    chunk = np.array(list(all_assignments(n, m)))
    expected = [stacks[np.arange(n), a].sum(axis=0) for a in chunk]
    assert np.array_equal(weaving._weaving_operators(stacks, chunk), expected)


@pytest.mark.parametrize("d, n, m", [(1, 9, 2), (3, 7, 2), (2, 5, 3)])
def test_exhaustive_matches_oracle(rows_per_chunk, eig_calls, d, n, m):
    family = random_discrete(np.random.default_rng(d * 100 + n), d, n, m, 0.3)
    rows = rows_per_chunk(n * d * d)
    stacks = contribution_stacks(family)
    eps = 1.0
    report = woven_bounds_exhaustive(family, eps=eps)
    assert_matches(report, scan_oracle(stacks, all_assignments(n, m), eps))
    assert eig_calls == [min(rows, m**n - k) for k in range(0, m**n, rows)]


@pytest.mark.parametrize("n, m", [(7, 2), (5, 3)])
def test_ties_go_to_the_first_partition(rows_per_chunk, n, m):
    frame = DiscreteFrame(3, np.random.default_rng(n).standard_normal((n, 3)))
    family = WovenFamily.discrete([frame] * m)
    rows_per_chunk(n * 9)
    report = woven_bounds_exhaustive(family)
    assert report.worst_partition.assignment == (0,) * n
    assert report.best_upper_partition.assignment == (0,) * n
    assert_matches(report, scan_oracle(contribution_stacks(family), all_assignments(n, m)))


def test_witness_in_a_later_chunk(rows_per_chunk, eig_calls):
    d, n = 2, 11
    family = nonwoven_pair(np.random.default_rng(5), d, n)
    rows = rows_per_chunk(n * d * d)
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
    rows_per_chunk(n * d * d)
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
    rows_per_chunk(n * d * d)
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


# d = 6, n = 9 is the benchmark's shape, and n = 13 draws 4096 of 8192
# masks; the tilts run from cancellation to unrelated members
@pytest.mark.parametrize("d, n, samples", [(6, 9, 100), (6, 9, 20), (3, 13, 10)])
@pytest.mark.parametrize("tilt", [1e-10, 0.02, 1.0])
@pytest.mark.parametrize("constants", [(0.02, 0.02, 0.02), (0.0, 0.0, 0.0)])
def test_op_screen_keeps_the_unscreened_worst(rows_per_chunk, d, n, samples, tilt, constants):
    w, v = near_fusion_pair(np.random.default_rng(d + n), d, n, 2, tilt)
    rows_per_chunk((samples + 6) * (3 * d + 1))
    cert = op_perturbation_check(w, v, *constants, samples, 3)
    expected = op_violation_unscreened(w, v, *constants, samples, 3)
    assert same_bits(cert.inequality_violation, expected)


def screen_bounds(w, v, lam, mu, gamma, samples, seed) -> np.ndarray:
    """The screen's bound on every (mask, sample) slack."""
    batch, flat, w_normsq, masks = op_inputs(w, v, samples, seed)
    blocks = perturbation._slack_bounds(batch, flat, w_normsq, masks, lam, mu, gamma)
    return np.concatenate(list(blocks))


def random_fusion_pair(rng, d: int, n: int, tilt: float):
    """Members of drawn rank 0..d, V_i a tilt of W_i, shared weights."""
    weights = rng.uniform(0.5, 1.5, n)
    spans = [rng.standard_normal((int(rng.integers(0, d + 1)), d)) for _ in range(n)]
    return tuple(
        FusionFrame(d, tuple(Subspace.from_spanning(d, list(s)) for s in members), weights)
        for members in (spans, [s + tilt * rng.standard_normal(s.shape) for s in spans])
    )


# n = 13 takes the per-index bound on drawn masks; tilt 1e-10 makes every
# difference cancel to about 1e-10 against parts of order 1
@pytest.mark.parametrize("tilt", [0.0, 1e-10, 1e-3, 1.0])
@pytest.mark.parametrize("constants", [(0.0, 0.0, 0.0), (0.02, 0.02, 0.02), (0.5, 0.3, 0.9)])
def test_screen_bounds_every_computed_slack(tilt, constants):
    for seed in range(25):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(1, 7)), [3, 8, 9, 12, 13][seed % 5]
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
    _, _, w_normsq, masks = op_inputs(w, v, samples, seed)
    given_away = constants[2] * (1.0 - 0.5**0.5) * np.sqrt(masks @ w_normsq)
    if n > 12:  # the per-index bound sums the U_W term whole
        given_away = 0.0
    assert (bounds >= slacks).all()
    assert (bounds - slacks <= given_away + 1e-12 * (1.0 + np.abs(slacks))).all()


def test_screen_margin_is_what_keeps_the_planted_bound_sound(monkeypatch):
    # without the rounding margin the tight bound falls below computed slacks
    w, v = planted_tight_pair(np.random.default_rng(9), 9)
    monkeypatch.setattr(perturbation, "_UNIT_ROUNDOFF", 0.0)
    bounds = screen_bounds(w, v, 0.0, 0.0, 0.0, 30, 1)
    assert (bounds < op_slacks(w, v, 0.0, 0.0, 0.0, 30, 1)).any()


def test_screen_rules_out_most_chunks_at_the_benchmark_shape():
    d, n, samples, seed = 6, 9, 100, 1
    w, v = near_fusion_pair(np.random.default_rng(0), d, n, 2, tilt=0.01)
    worst = op_perturbation_check(w, v, 0.02, 0.02, 0.02, samples, seed).inequality_violation
    starts = np.arange(0, 2**n, linalg.chunk_rows((samples + 6) * (3 * d + 1)))
    bounds = screen_bounds(w, v, 0.02, 0.02, 0.02, samples, seed).max(axis=1)
    # only chunks whose bound reaches the worst slack can run
    assert (np.maximum.reduceat(bounds, starts) >= worst).sum() <= len(starts) // 4


# a tiny weight in W, or one in V whose square passes 2^200
@pytest.mark.parametrize("member, weight", [(0, 1e-120), (1, 1e70)])
def test_op_runs_every_chunk_outside_the_screened_range(monkeypatch, member, weight):
    pair = list(near_fusion_pair(np.random.default_rng(4), 3, 9, 2))
    x = pair[member]
    pair[member] = FusionFrame(3, x.subspaces, np.r_[x.weights[:-1], weight])
    w, v = pair
    assert not perturbation._screenable(*(perturbation._stacks(x)[1] for x in pair))
    monkeypatch.setattr(perturbation, "_slack_bounds", None)
    cert = op_perturbation_check(w, v, 0.02, 0.02, 0.02, 10, 2)
    expected = op_violation_unscreened(w, v, 0.02, 0.02, 0.02, 10, 2)
    assert same_bits(cert.inequality_violation, expected)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_subset_masks_enumerate_lexicographically(n):
    masks = perturbation._subset_masks(n, np.random.default_rng(0))
    expected = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    assert masks.dtype == expected.dtype
    assert np.array_equal(masks, expected)


# the oracle enumerates all 2^n subsets at both n; the closed form takes
# no chunks, so no chunk budget may change it
@pytest.mark.parametrize("n", [9, 13])
@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("kconst", [0.05, 0.5])
def test_proj_matches_oracle(rows_per_chunk, n, squared, kconst):
    d, samples, seed = 3, 10, 2
    w, v = near_fusion_pair(np.random.default_rng(n), d, n, 2)
    rows_per_chunk((samples + 6) * 3)
    cert = proj_perturbation_check(w, v, kconst, samples, seed, squared=squared)
    assert cert.subset_search == "closed_form"
    expected = proj_violation_oracle(w, v, kconst, samples, seed, squared)
    assert close(cert.inequality_violation, expected)
    assert cert.hypothesis_holds == (expected <= 1e-9)


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
    # 4096 drawn masks, the search proj made above 2^12 subsets
    sampled = proj_violation_oracle(w, v, kconst, samples, seed, masks=perturbation._subset_masks)
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
    rows_per_chunk(family.n * family.dim**2)
    assert_riesz_matches(family)


def test_riesz_check_solves_one_stack_per_chunk(rows_per_chunk, eig_calls):
    # d = 1 and three lines per system: every weaving has rank sum 3
    line = Subspace.from_spanning(1, [[1.0]])
    family = WovenFamily.fusion(
        tuple(FusionFrame(1, (line,) * 3, np.ones(3)) for _ in range(2))
    )
    rows = rows_per_chunk(family.n * family.dim**2)
    assert_riesz_matches(family)
    eig_calls.clear()
    assert woven_riesz_decomposition_check(family).failing_count == 8
    assert eig_calls == [min(rows, 8 - start) for start in range(0, 8, rows)]


def test_riesz_check_matches_the_weaving_loop_on_300_families():
    for seed in range(100, 400):
        assert_riesz_matches(riesz_family(seed))
