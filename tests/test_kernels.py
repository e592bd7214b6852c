"""The numpy-backed kernels against independent oracles: the Jacobi
eigensolver in helpers, the member-by-member Gram-Schmidt loop and
member-operator loop in helpers (bit for bit), Gram-Schmidt rank
detection, and numpy's 2-norm."""

import numpy as np
import pytest

from wovenframes import (
    FusionFrame,
    InvertibleOperator,
    Subspace,
    WovenFamily,
    fusion_bounds,
    fusion_frame_operator,
    orthonormalize,
    synthesis_is_onto,
    sym_eig,
)
from wovenframes.errors import (
    DimensionMismatch,
    NonFinite,
    NotOrthonormal,
    SingularOperator,
)
from wovenframes.linalg import orthonormalize_stack
from wovenframes.weaving import contribution_stacks

from helpers import gram_schmidt, jacobi, member_operators


def symmetric_with_repeats(rng, d: int) -> np.ndarray:
    """Q diag(values) Q^T with about half of the values repeated."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    distinct = rng.standard_normal(max(1, d // 2)) * 5.0
    values = rng.choice(distinct, size=d)
    return (q * values) @ q.T


def seeded_symmetric_matrices():
    rng = np.random.default_rng(31)
    out = []
    for k in range(60):
        d = int(rng.integers(1, 17))
        if k % 2:
            a = rng.standard_normal((d, d))
            out.append(a + a.T)
        else:
            out.append(symmetric_with_repeats(rng, d))
    out.append(np.zeros((5, 5)))
    out.append(2.0 * np.eye(7))
    return out


class TestSymEigAgainstJacobi:
    @pytest.mark.parametrize("a", seeded_symmetric_matrices())
    def test_eigenvalues_match_oracle(self, a):
        spec = sym_eig(a)
        oracle = np.sort(jacobi(0.5 * (a + a.T))[0])
        scale = 1.0 + float(np.abs(oracle).max())
        assert np.abs(spec.eigenvalues - oracle).max() <= 1e-10 * scale

    @pytest.mark.parametrize("a", seeded_symmetric_matrices())
    def test_sign_convention(self, a):
        vecs = sym_eig(a).eigenvectors
        for k in range(vecs.shape[1]):
            col = vecs[:, k]
            assert col[int(np.argmax(np.abs(col)))] > 0.0


def rank_deficient_fusion_frames():
    """Seeded fusion frames whose stacked bases are rank deficient: members
    confined to a random subspace of lower dimension, duplicated members,
    zero-dimensional members and members weighted down to numerically
    zero columns."""
    rng = np.random.default_rng(47)
    out = []
    for _ in range(80):
        d = int(rng.integers(2, 16))
        r = int(rng.integers(1, d))
        span, _ = np.linalg.qr(rng.standard_normal((d, r)))
        subs, weights = [], []
        for _ in range(int(rng.integers(1, 8))):
            k = int(rng.integers(1, r + 1))
            sub = Subspace.from_spanning(d, list((span @ rng.standard_normal((r, k))).T))
            subs.append(sub)
            weights.append(rng.uniform(0.5, 2.0))
            if rng.random() < 0.4:
                subs.append(sub)
                weights.append(rng.uniform(0.5, 2.0))
        if rng.random() < 0.5:
            subs.append(Subspace(d, np.zeros((d, 0))))
            weights.append(1.0)
        if rng.random() < 0.5:
            outside = Subspace.from_spanning(d, [rng.standard_normal(d)])
            subs.append(outside)
            weights.append(1e-13)
        out.append(FusionFrame(d, tuple(subs), np.array(weights)))
    return out


class TestSpanningVerdicts:
    def test_rank_deficient_systems_are_not_onto(self):
        for ff in rank_deficient_fusion_frames():
            columns = [w * col for s, w in zip(ff.subspaces, ff.weights) for col in s.basis.T]
            assert orthonormalize(columns)[1] < ff.dim
            assert not fusion_bounds(ff).is_frame
            assert not synthesis_is_onto(ff)


class TestInvertibleOperatorNorms:
    def test_norms_match_numpy_two_norm(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 9))
            m = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
            op = InvertibleOperator.from_matrix(m)
            for actual, expected in (
                (op.norm, np.linalg.norm(m, 2)),
                (op.inv_norm, np.linalg.norm(np.linalg.inv(m), 2)),
            ):
                assert abs(actual - expected) <= 1e-12 * (1.0 + expected)
            assert np.array_equal(op.inv, np.linalg.inv(m))

    def test_singular_threshold_scales_with_largest_entry(self):
        # the cut-off is pivot_tol * max|m| = 1e-10 * 1e3: 1e-6 clears it,
        # 1e-8 does not
        m = np.diag([1e3, 1e-6])
        assert np.allclose(InvertibleOperator.from_matrix(m).inv, np.diag([1e-3, 1e6]))
        with pytest.raises(SingularOperator):
            InvertibleOperator.from_matrix(np.diag([1e3, 1e-8]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            InvertibleOperator.from_matrix(np.ones((2, 3)))


def spanning_members(rng, count: int, d: int, members: int) -> np.ndarray:
    """An (members, count, d) stack mixing generic, rank-deficient,
    all-zero, tiny, and -0.0-carrying members."""
    stack = rng.standard_normal((members, count, d))
    for m in range(members):
        kind = rng.integers(6)
        if kind == 1:
            stack[m] = 0.0
        elif kind == 2 and count > 1:
            # the last vector repeats a combination of the others
            stack[m, -1] = rng.standard_normal(count - 1) @ stack[m, :-1]
        elif kind == 3 and count > 1:
            stack[m, 1:] = stack[m, 0]
        elif kind == 4:
            stack[m][rng.random((count, d)) < 0.5] = -0.0
        elif kind == 5:
            stack[m] *= 1e-12
    return stack


def ragged_member(rng, count: int, d: int) -> np.ndarray:
    """A (count, d) spanning set, count 0 included, of one of seven kinds:
    generic, rank-deficient, all-zero, with a zero row, with -0.0 entries,
    tiny, or integer-valued."""
    span = rng.standard_normal((count, d))
    kind = rng.integers(7)
    if kind == 1 and count > 1:
        # the last row repeats a combination of the others
        span[-1] = rng.standard_normal(count - 1) @ span[:-1]
    elif kind == 2:
        span[:] = 0.0
    elif kind == 3 and count:
        span[rng.integers(count)] = 0.0
    elif kind == 4:
        span[rng.random((count, d)) < 0.5] = -0.0
    elif kind == 5:
        span *= 1e-12
    elif kind == 6:
        return rng.integers(-2, 3, (count, d))
    return span


def assert_bit_identical(actual: np.ndarray, spanning) -> None:
    expected, rank = gram_schmidt(spanning)
    assert actual.shape == expected.shape
    assert actual.shape[1] == rank
    assert actual.flags.c_contiguous
    # byte comparison also tells -0.0 from +0.0
    assert actual.tobytes() == expected.tobytes()


class TestStackedGramSchmidt:
    def test_matches_member_loop_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            d = int(rng.integers(1, 16))
            count = int(rng.integers(1, 5))
            stack = spanning_members(rng, count, d, int(rng.integers(1, 13)))
            bases = orthonormalize_stack(stack)
            assert len(bases) == stack.shape[0]
            for basis, member in zip(bases, stack):
                assert_bit_identical(basis, member)
                assert_bit_identical(orthonormalize(list(member))[0], member)

    def test_dimension_one(self):
        stack = np.array([[[2.0]], [[0.0]], [[-0.0]], [[-3.0]], [[1e-300]]])
        bases = orthonormalize_stack(stack)
        assert [b.shape[1] for b in bases] == [1, 0, 0, 1, 0]
        for basis, member in zip(bases, stack):
            assert_bit_identical(basis, member)

    def test_mixed_counts_in_one_system(self):
        # each count group is its own kernel stack, so every basis is its
        # member's alone, whatever the other members of the sequence hold
        rng = np.random.default_rng(62)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            members = int(rng.integers(1, 12))
            spans = [ragged_member(rng, int(rng.integers(0, 5)), d) for _ in range(members)]
            bases = orthonormalize_stack(spans)
            assert len(bases) == len(spans)
            for basis, span in zip(bases, spans):
                assert_bit_identical(basis, span)

    def test_array_and_list_of_its_members_agree(self):
        rng = np.random.default_rng(64)
        for _ in range(40):
            stack = spanning_members(rng, int(rng.integers(0, 5)), int(rng.integers(1, 9)), 7)
            from_array = orthonormalize_stack(stack)
            from_list = orthonormalize_stack(list(stack))
            assert len(from_array) == len(from_list) == len(stack)
            for a, b in zip(from_array, from_list):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_negative_zero_entries_survive(self):
        # the second member rejects its middle column, whose residual is
        # (0, -0, 0); masking it out keeps the -0.0 of the third column,
        # which subtracting that residual's projection would turn into +0.0
        stack = np.array(
            [
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                [[1.0, 0.0, 0.0], [2.0, -0.0, 0.0], [0.0, -0.0, 1.0]],
            ]
        )
        bases = orthonormalize_stack(stack)
        assert [b.shape[1] for b in bases] == [3, 2]
        assert np.signbit(bases[1][1, 1])
        for basis, member in zip(bases, stack):
            assert_bit_identical(basis, member)

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(63)
        big = spanning_members(rng, 6, 14, 16)
        views = [big[::2], big[:, ::2], big[:, :, ::3], big[::-1]]
        views.append(np.asfortranarray(spanning_members(rng, 3, 5, 7)))
        for view in views:
            assert not view.flags.c_contiguous
            before = view.copy()
            for basis, member in zip(orthonormalize_stack(view), view):
                assert_bit_identical(basis, member)
            assert view.tobytes() == before.tobytes()

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            orthonormalize_stack(np.ones((2, 3)))
        with pytest.raises(NonFinite):
            orthonormalize_stack(np.array([[[1.0, 0.0]], [[np.inf, 0.0]]]))

    def test_ragged_errors_and_empty_sequence(self):
        assert orthonormalize_stack([]) == []
        assert orthonormalize_stack(np.zeros((0, 2, 3))) == []
        good = [np.eye(3)[:2], np.zeros((0, 3)), np.ones((1, 3))]
        # a bad member shares its count with a good one, or has its own
        bads = (np.ones((2, 4)), np.zeros((0, 2)), np.ones((3, 4)), np.ones(3), np.ones((1, 2, 3)))
        for bad in bads:
            for at in range(len(good) + 1):
                with pytest.raises(DimensionMismatch):
                    orthonormalize_stack([*good[:at], bad, *good[at:]])
        # a NaN or Inf in any member, whichever count group it falls in
        for at in range(len(good)):
            for value in (np.nan, np.inf, -np.inf):
                spans = [member.copy() for member in good]
                if spans[at].size:
                    spans[at][-1, 0] = value
                    with pytest.raises(NonFinite):
                        orthonormalize_stack(spans)


def mixed_rank_frame(rng, d: int, count: int) -> FusionFrame:
    """Members of ranks 0..d, some bases with -0.0 rows, every other one
    Fortran-ordered."""
    subs = []
    for i in range(count):
        k = int(rng.integers(0, d + 1))
        span = int(rng.integers(k, d + 1))
        basis = np.zeros((d, k))
        if k:
            basis[:span] = np.linalg.qr(rng.standard_normal((span, k)))[0]
        basis[span:] = -0.0
        basis = basis[rng.permutation(d)]
        subs.append(Subspace(d, np.asfortranarray(basis) if i % 2 else basis))
    return FusionFrame(d, tuple(subs), rng.uniform(0.5, 2.0, size=count))


def seeded_mixed_rank_frames():
    rng = np.random.default_rng(71)
    frames = [
        mixed_rank_frame(rng, int(rng.integers(1, 16)), int(rng.integers(1, 12)))
        for _ in range(150)
    ]
    # every other given basis is Fortran-ordered; each subspace keeps its
    # own read-only C-ordered copy
    assert all(sub.basis.flags.c_contiguous and not sub.basis.flags.writeable
               for ff in frames for sub in ff.subspaces)
    assert any(sub.rank == 0 for ff in frames for sub in ff.subspaces)
    return frames


class TestBatchedMemberOperators:
    def test_match_member_loop_bit_for_bit(self):
        # a rank-1 member with a -0.0 basis entry, so P[0, 1] multiplies by
        # -0.0; byte comparison also tells -0.0 from +0.0
        planted = FusionFrame(2, (Subspace(2, np.array([[1.0], [-0.0]])),), [0.5])
        assert np.signbit(planted.subspaces[0].basis[1, 0])
        for ff in [planted, *seeded_mixed_rank_frames()]:
            ones = np.ones(ff.size)
            assert ff.projectors.tobytes() == member_operators(ff, ones).tobytes()
            assert ff.operators.tobytes() == member_operators(ff).tobytes()
            operator = fusion_frame_operator(ff)
            assert operator.tobytes() == member_operators(ff).sum(axis=0).tobytes()

    def test_contribution_stacks_match_member_loop(self):
        frames = seeded_mixed_rank_frames()
        for first, second in zip(frames[::2], frames[1::2]):
            if first.dim != second.dim:
                continue
            n = min(first.size, second.size)
            family = WovenFamily.fusion(
                (first.restrict(range(n)), second.restrict(range(n)))
            )
            expected = np.stack(
                [member_operators(s) for s in family.systems], axis=1
            )
            assert contribution_stacks(family).tobytes() == expected.tobytes()


class TestBatchSubspaces:
    def test_from_bases_matches_one_by_one(self):
        for ff in seeded_mixed_rank_frames()[:40]:
            bases = [sub.basis for sub in ff.subspaces]
            built = Subspace.from_bases(ff.dim, bases)
            assert len(built) == len(bases)
            for sub, basis in zip(built, bases):
                assert sub.dim == ff.dim
                assert sub.basis.shape == basis.shape
                assert sub.basis.tobytes() == basis.tobytes()
                assert sub.basis.flags.c_contiguous and not sub.basis.flags.writeable

    @pytest.mark.parametrize("build", ["one", "batch"])
    def test_a_later_write_to_the_given_basis_changes_nothing(self, build):
        b = np.array([[1.0], [0.0]])
        c = np.array([[0.0], [1.0]])
        if build == "one":
            subs = (Subspace(2, b), Subspace(2, c))
        else:
            subs = Subspace.from_bases(2, [b, c])
        ff = FusionFrame(2, subs, [1.0, 2.0])
        # written before the frame derives anything: its projectors and
        # spectrum are still those of the subspaces as built
        b[:] = [[0.0], [1.0]]
        assert subs[0].basis.tolist() == [[1.0], [0.0]]
        bounds = fusion_bounds(ff)
        assert (bounds.lower, bounds.upper) == (1.0, 4.0)
        fresh = FusionFrame(2, (Subspace(2, b), Subspace(2, c)), [1.0, 2.0])
        assert fusion_bounds(fresh).lower == 0.0
        with pytest.raises(ValueError):
            subs[0].basis[0, 0] = 5.0

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]), NotOrthonormal),
            (np.array([[np.nan], [0.0], [1.0]]), NonFinite),
            (np.eye(2), DimensionMismatch),
            (np.ones(3), DimensionMismatch),
            (np.zeros((3, 4)), DimensionMismatch),
        ],
        ids=["skewed", "nan", "wrong-dim", "one-dimensional", "rank-above-dim"],
    )
    def test_every_member_is_checked(self, bad, error):
        good = [np.eye(3)[:, :2], np.zeros((3, 0)), np.eye(3)[:, [1]]]
        with pytest.raises(error) as single:
            Subspace(3, bad)
        for position in range(len(good) + 1):
            bases = good[:position] + [bad] + good[position:]
            with pytest.raises(error) as batch:
                Subspace.from_bases(3, bases)
            assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize(
        "first, second, error",
        [
            (np.array([[np.nan], [0.0], [1.0]]), np.eye(2), NonFinite),
            (np.eye(2), np.array([[np.nan], [0.0], [1.0]]), DimensionMismatch),
            (
                np.array([[1.0], [1.0], [0.0]]),
                np.array([[np.nan], [0.0], [1.0]]),
                NotOrthonormal,
            ),
            (
                np.array([[np.nan], [0.0], [1.0]]),
                np.array([[1.0], [1.0], [0.0]]),
                NonFinite,
            ),
            (
                np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]),
                np.array([[np.inf], [0.0], [0.0]]),
                NotOrthonormal,
            ),
        ],
        ids=[
            "nan-then-wrong-dim",
            "wrong-dim-then-nan",
            "skewed-then-nan",
            "nan-then-skewed",
            "skewed-rank-two-then-inf-rank-one",
        ],
    )
    def test_first_bad_member_decides_the_error(self, first, second, error):
        good = np.eye(3)[:, [2]]
        with pytest.raises(error) as single:
            Subspace(3, first)
        for bases in ([first, second], [good, first, good, second, good]):
            with pytest.raises(error) as batch:
                Subspace.from_bases(3, bases)
            assert str(batch.value) == str(single.value)
