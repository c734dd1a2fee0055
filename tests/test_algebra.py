"""The canonical basis, structure constants, and ring axioms."""

import json
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tworow.algebra import (
    AlgebraContext,
    AlgebraElement,
    _steps,
    factored_squares,
    mul,
    products,
    structure_constant,
)
from tworow.errors import ContextMismatchError, InvalidPrimeError, UnsupportedCharacteristicError
from tworow.idempotents import _expand, _factors, _width
from tworow.padic import digits, lucas_binom


def ctx_of(l1, l2, p=3):
    return AlgebraContext(l1, l2, p)


def elements(ctx, max_size=6):
    """Strategy producing random elements of a fixed context."""
    return st.lists(
        st.integers(0, ctx.p - 1), min_size=ctx.dim, max_size=ctx.dim
    ).map(lambda cs: ctx.from_coeffs(cs))


def reference_product(x, y):
    """x*y as a direct sum over the written structure constants."""
    ctx = x.context
    acc = [0] * ctx.dim
    for i in x.support():
        for j in y.support():
            for h in range(max(i, j), min(i + j, ctx.lambda2) + 1):
                acc[h] += x.coeffs[i] * y.coeffs[j] * structure_constant(ctx, i, j, h)
    return ctx.from_coeffs(acc)


@st.composite
def large_m_pairs(draw):
    """Sparse elements of a context with m >= 3^10, so the binomials
    C(m+i+j, k) have multi-digit Lucas expansions.  At p = 2, 5, 7 far more
    structure constants survive than at 3, so lambda2 stays small there."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    lam2 = draw(st.integers(0, 300 if p == 3 else 40))
    m = draw(st.integers(3**10, 10**12))
    ctx = AlgebraContext(m + lam2, lam2, p)

    terms = st.dictionaries(st.integers(0, lam2), st.integers(1, p - 1), max_size=5)
    return from_terms(ctx, draw(terms)), from_terms(ctx, draw(terms))


def from_terms(ctx, terms):
    return ctx.from_coeffs([terms.get(k, 0) for k in range(ctx.dim)])


_CTX_300 = AlgebraContext(3**10 + 7 + 300, 300, 3)


small_contexts = st.tuples(
    st.integers(0, 8), st.integers(0, 8), st.sampled_from((2, 3, 5))
).map(lambda t: AlgebraContext(t[0] + t[1], t[1], t[2]))

# m small or far past 3^10 (multi-digit Lucas binomials), lambda2 up to 30.
any_contexts = st.tuples(
    st.one_of(st.integers(0, 40), st.integers(3**10, 10**12)),
    st.integers(0, 30),
    st.sampled_from((2, 3, 5, 7)),
).map(lambda t: AlgebraContext(t[0] + t[1], t[1], t[2]))


class TestBasis:
    def test_identity_vector(self):
        ctx = ctx_of(9, 4)
        assert ctx.basis(0).coeffs == (1, 0, 0, 0, 0)

    def test_truncation(self):
        ctx = ctx_of(3, 1)
        assert ctx.basis(2).is_zero()

    def test_in_range(self):
        ctx = ctx_of(36, 13)
        assert ctx.basis(13).coeffs[13] == 1
        assert ctx.basis(13).support() == [13]

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            AlgebraContext(2, 5, 3)

    @pytest.mark.parametrize("args", [(6.5, 2, 3), (5, 2, 3.0), (True, True, 3)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(ValueError, match="is not an integer"):
            AlgebraContext(*args)


class TestIndexTypes:
    """An index that is not exactly an int is rejected by name, not read as one."""

    @pytest.mark.parametrize("i", [True, 1.0, np.int64(1), "1"], ids=repr)
    def test_basis(self, i):
        with pytest.raises(ValueError, match=re.escape(f"basis index {i!r} is not an int")):
            ctx_of(4, 4).basis(i)

    @pytest.mark.parametrize("at", range(3))
    @pytest.mark.parametrize("bad", [True, 1.0], ids=repr)
    def test_structure_constant(self, at, bad):
        indices = [1, 1, 1]
        indices[at] = bad
        name = "ijh"[at]
        with pytest.raises(ValueError, match=re.escape(f"index {name}={bad!r} is not an int")):
            structure_constant(ctx_of(4, 4), *indices)


class TestStructureConstant:
    def test_m0_square(self):
        assert structure_constant(ctx_of(4, 4), 1, 1, 1) == 2

    def test_top_summand(self):
        ctx = ctx_of(13, 6, 5)
        for i in range(4):
            for j in range(4):
                from math import comb

                assert structure_constant(ctx, i, j, i + j) == comb(i + j, i) * comb(i + j, j) % 5

    def test_m1_example(self):
        assert structure_constant(ctx_of(5, 4), 2, 2, 2) == 1

    def test_range_error(self):
        with pytest.raises(ValueError):
            structure_constant(ctx_of(4, 4), 1, 2, 1)
        with pytest.raises(ValueError):
            structure_constant(ctx_of(4, 4), 1, 2, 4)

    def test_rejects_indices_past_truncation(self):
        # b(3) is zero when lambda2 = 2, so b(3)b(3) has no coefficient at
        # b(5), even though the written formula gives 2 there.
        ctx = AlgebraContext(4, 2, 3)
        assert ctx.basis(3).is_zero()
        for i, j, h in ((3, 3, 5), (3, 0, 3), (0, 3, 3), (2, 2, 3)):
            with pytest.raises(ValueError, match="lambda2=2"):
                structure_constant(ctx, i, j, h)
        # Indices up to lambda2 still follow the formula (m = 2).
        assert structure_constant(ctx, 1, 2, 2) == 2 * 1 * 5 % 3
        assert structure_constant(ctx, 1, 1, 2) == 2 * 2 * 1 % 3


def table_entries(ctx):
    """The set of (h, i, j, c) read off ctx._table, after checking its layout."""
    i, j, c, starts = ctx._table
    for array in (i, j, c, starts):
        assert array.dtype == np.int64
    assert len(starts) == ctx.dim and starts[0] == 0
    assert np.all(np.diff(starts) > 0) and starts[-1] < len(c)
    # Each group h begins with b(0)b(h) = b(h).
    assert i[starts].tolist() == [0] * ctx.dim
    assert j[starts].tolist() == list(range(ctx.dim))
    assert c[starts].tolist() == [1] * ctx.dim
    h = np.repeat(np.arange(ctx.dim), np.diff(np.append(starts, len(c))))
    return set(zip(h.tolist(), i.tolist(), j.tolist(), c.tolist()))


def formula_entries(ctx):
    """{(h, i, j, structure_constant(ctx, i, j, h)) != 0} over i, j <= lambda2
    and max(i, j) <= h <= min(i + j, lambda2).

    A triple is skipped only where one of the three written binomials is 0
    mod p, evaluated by itself: C(h, i), C(h, j), or C(m + i + j, i + j - h).
    """
    p, out = ctx.p, set()
    for h in range(ctx.dim):
        below = [i for i in range(h + 1) if lucas_binom(h, i, p)]
        mixed = {s: lucas_binom(ctx.m + s, s - h, p) for s in range(h, 2 * h + 1)}
        for i in below:
            for j in below:
                if i + j >= h and mixed[i + j]:
                    c = structure_constant(ctx, i, j, h)
                    if c:
                        out.add((h, i, j, c))
    return out


@st.composite
def table_contexts(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 2**31 - 1)))
    lam2 = draw(st.integers(0, 300 if p == 3 else 40))
    m = draw(st.integers(0, 10**12))
    return AlgebraContext(m + lam2, lam2, p)


class TestTable:
    """The per-context table of non-zero structure constants against the
    written formula."""

    def test_exhaustive_small(self):
        # The entries depend on m alone, and truncation keeps those with
        # h <= lambda2, so one reference per m serves every lambda2.
        for m in range(41):
            full = formula_entries(AlgebraContext(m + 40, 40, 3))
            for lam2 in range(41):
                ctx = AlgebraContext(m + lam2, lam2, 3)
                assert table_entries(ctx) == {e for e in full if e[0] <= lam2}, (m, lam2)

    @pytest.mark.parametrize("p, bound", [(2, 31), (5, 30)])
    def test_exhaustive_small_other_primes(self, p, bound):
        # m, lambda2 < p**2 reach every step table a context can ask for:
        # each (top, mu) at the lowest digit, and each top >= 1 with each mu
        # above it.  The bounds run the sums through three or more digits.
        for m in range(bound + 1):
            full = formula_entries(AlgebraContext(m + bound, bound, p))
            for lam2 in range(bound + 1):
                ctx = AlgebraContext(m + lam2, lam2, p)
                assert table_entries(ctx) == {e for e in full if e[0] <= lam2}, (m, lam2)

    @settings(max_examples=40, deadline=None)
    @given(table_contexts())
    @example(AlgebraContext(3**10 + 7 + 300, 300, 3))
    @example(AlgebraContext(10**12 + 40, 40, 2**31 - 1))
    @example(AlgebraContext(0, 0, 2))
    def test_matches_formula(self, ctx):
        assert table_entries(ctx) == formula_entries(ctx)

    @pytest.mark.parametrize("m", [0, 5, 2**31 - 62, 10**12 + 3])
    def test_one_digit_position_at_largest_prime(self, m):
        # lambda2 = 60 < p: every index is a single base-p digit.
        ctx = AlgebraContext(m + 60, 60, 2**31 - 1)
        assert table_entries(ctx) == formula_entries(ctx)

    def test_step_tables_are_few_and_read_only(self):
        # At p = 3 the steps depend on the top digit, the digit of m, and
        # whether the position is the lowest: 15 tables serve every context.
        _steps.cache_clear()
        for m in (0, 1, 2, 5, 3**10 + 7, 10**12 + 1):
            for lam2 in (0, 1, 2, 3, 5, 9, 26, 80, 150):
                AlgebraContext(m + lam2, lam2, 3)._table
        assert _steps.cache_info().currsize <= 15
        for array in _steps(3, 2, 1, 4):
            assert not array.flags.writeable


class TestMul:
    def test_b1_squared_m0(self):
        ctx = ctx_of(4, 4)
        b1 = ctx.basis(1)
        assert b1 * b1 == 2 * ctx.basis(1) + ctx.basis(2)

    def test_identity(self):
        ctx = ctx_of(7, 3)
        x = ctx.from_coeffs([1, 2, 0, 1])
        assert ctx.one() * x == x

    def test_b2_idempotent_m1(self):
        ctx = ctx_of(5, 4)
        b2 = ctx.basis(2)
        assert b2 * b2 == b2

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            mul(ctx_of(4, 4).one(), ctx_of(5, 4).one())
        with pytest.raises(ContextMismatchError):
            ctx_of(4, 4).one() + ctx_of(4, 4, 5).one()

    @settings(max_examples=200)
    @given(small_contexts.flatmap(lambda c: st.tuples(elements(c), elements(c))))
    def test_commutative(self, pair):
        x, y = pair
        assert x * y == y * x

    def test_associative_on_basis(self):
        for p in (2, 3, 5):
            for m in (0, 1, 2, 7):
                lam2 = 12
                ctx = AlgebraContext(m + lam2, lam2, p)
                basis = [ctx.basis(i) for i in range(lam2 + 1)]
                for bi in basis:
                    for bj in basis:
                        left = bi * bj
                        for bk in basis:
                            assert (left * bk) == bi * (bj * bk)

    @settings(max_examples=30, deadline=None)
    @given(any_contexts.flatmap(lambda c: st.tuples(elements(c), elements(c), elements(c))))
    def test_associative_on_random_elements(self, triple):
        x, y, z = triple
        assert (x * y) * z == x * (y * z)

    def test_truncation_consistency(self):
        # multiply at lambda2 = N, chop above N', compare with direct N' run
        m, n_big, n_small, p = 2, 11, 5, 3
        big = AlgebraContext(m + n_big, n_big, p)
        small = AlgebraContext(m + n_small, n_small, p)
        for i in range(n_small + 1):
            for j in range(n_small + 1):
                full = mul(big.basis(i), big.basis(j))
                chopped = small.from_coeffs(full.coeffs[: n_small + 1])
                assert chopped == mul(small.basis(i), small.basis(j))

    def test_digit_factorization_of_basis(self):
        # b(i) equals the product of b(i_t * p^t) over the digits of i
        for p in (2, 3, 5):
            lam2 = 13
            for m in (0, 3, 10):
                ctx = AlgebraContext(m + lam2, lam2, p)
                for i in range(lam2 + 1):
                    prod = ctx.one()
                    for t, d in enumerate(digits(i, p)):
                        prod = prod * ctx.basis(d * p**t)
                    assert prod == ctx.basis(i)

    def test_low_support_subalgebra(self):
        # elements supported below 3^u multiply within that span
        ctx = ctx_of(20, 15)
        u = 2
        x = ctx.from_coeffs([1, 2, 0, 1, 0, 2, 1, 0, 2] + [0] * 7)
        y = ctx.from_coeffs([0, 1, 1, 0, 2, 0, 0, 1, 1] + [0] * 7)
        z = x * y
        assert z.support_max() is None or z.support_max() < 3**u

    @settings(max_examples=25, deadline=None)
    @given(large_m_pairs())
    @example((
        from_terms(_CTX_300, {0: 1, 1: 2, 3: 1, 243: 2, 300: 1}),
        from_terms(_CTX_300, {2: 1, 81: 1, 82: 2, 299: 2}),
    ))
    def test_matches_structure_constants(self, pair):
        x, y = pair
        assert mul(x, y) == reference_product(x, y)

    def test_exact_at_largest_prime(self):
        # Products of two residues near 2**31 fill int64; their sums must not.
        ctx = AlgebraContext(10**12 + 20, 20, 2**31 - 1)
        rng = random.Random(1)
        x, y = (
            ctx.from_coeffs([rng.randrange(ctx.p) for _ in range(ctx.dim)])
            for _ in range(2)
        )
        assert mul(x, y) == reference_product(x, y)

    def test_rejects_prime_beyond_int64_products(self):
        with pytest.raises(InvalidPrimeError):
            AlgebraContext(4, 2, 2**31 + 11)
        # Rejected by size, before any trial division.
        with pytest.raises(InvalidPrimeError):
            AlgebraContext(4, 2, 2**61 - 1)


class TestProducts:
    """products(ctx, xs, ys) is the one multiplication kernel: unreduced
    terms while (p-1)^3 times the table size fits in int64, terms reduced
    mod p above that."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 2**31 - 1]),
        st.integers(0, 10**12),
        st.integers(0, 12),
        st.integers(0, 4),
        st.data(),
    )
    def test_rows_match_structure_constants(self, p, m, l2, k, data):
        # p = 2**31 - 1 takes the reduced branch, the others the unreduced one
        ctx = AlgebraContext(m + l2, l2, p)
        row = st.lists(st.integers(0, p - 1), min_size=ctx.dim, max_size=ctx.dim)
        xs = data.draw(st.lists(row, min_size=k, max_size=k))
        ys = data.draw(st.lists(row, min_size=k, max_size=k))
        got = products(ctx, np.array(xs, dtype=np.int64).reshape(k, ctx.dim),
                       np.array(ys, dtype=np.int64).reshape(k, ctx.dim))
        assert got.shape == (k, ctx.dim)
        for x, y, out in zip(xs, ys, got.tolist()):
            want = [0] * ctx.dim
            for i in range(ctx.dim):
                for j in range(ctx.dim):
                    for h in range(max(i, j), min(i + j, l2) + 1):
                        want[h] += x[i] * y[j] * structure_constant(ctx, i, j, h)
            assert out == [w % p for w in want]

    def test_largest_unreduced_terms(self):
        # With every coefficient p - 1 = -1 at p = 5, each term x[i]y[j]c of
        # a constant c = 4 is (p-1)^3 = 64, the largest unreduced term, and
        # x*x = (sum of all b(i))^2, whose coefficient at b(h) sums group h.
        ctx = AlgebraContext(7 + 300, 300, 5)
        i, j, c, starts = ctx._table
        assert (c == 4).any()
        minus_one = np.full((2, ctx.dim), 4)
        want = np.add.reduceat(c, starts) % 5
        assert (products(ctx, minus_one, minus_one) == want).all()

    @pytest.mark.parametrize(
        "xs, ys",
        [([[0] * 5, [0] * 5], [[0] * 5]), ([[0] * 6], [[0] * 6]), ([[0] * 4], [[0] * 4]),
         ([0] * 5, [0] * 5), (np.ones((1, 5)), np.ones((1, 5))),
         (np.ones((1, 5), dtype=bool), np.ones((1, 5), dtype=bool))],
        ids=["fewer-ys", "long-rows", "short-rows", "one-row-not-a-stack", "float", "bool"],
    )
    def test_rejects_what_is_not_two_integer_stacks_of_one_shape(self, xs, ys):
        # a row is never left unwritten, cut, padded or cast from a float
        with pytest.raises(ValueError, match="integer stacks of one shape K x 5"):
            products(AlgebraContext(10, 4, 3), xs, ys)

    def test_any_integer_dtype_is_read_as_residues(self):
        ctx = AlgebraContext(10, 4, 3)
        xs = np.array([[1, 2, 0, 1, 2], [0, 1, 1, 2, 0]])
        want = products(ctx, xs, xs[::-1])
        for dtype in (np.int8, np.uint8, np.int32, np.uint64):
            got = products(ctx, xs.astype(dtype), xs[::-1].astype(dtype))
            assert got.tolist() == want.tolist()
        empty = np.zeros((0, 5), dtype=np.int64)
        assert products(ctx, empty, empty).shape == (0, 5)


class TestFactoredSquares:
    """factored_squares squares digit products by transfer matrices built from
    `_steps`; every row must equal `products` of its expansion, and the
    idempotents' squares the idempotents themselves."""

    @staticmethod
    def assert_squares(ctx, factors):
        rows = _expand(factors, ctx.dim)
        got = factored_squares(ctx, factors)
        assert got.shape == (len(factors), ctx.dim)
        assert got.tolist() == products(ctx, rows, rows).tolist(), ctx
        return got, rows

    def test_every_context_up_to_r_60(self):
        rng = np.random.default_rng(60)
        for r in range(61):
            for l2 in range(r // 2 + 1):
                ctx = ctx_of(r - l2, l2)
                w = _width(l2)
                # e(g) for every g <= lambda2 (zero where B = 0), then products
                # of random digit factors, which need not be idempotent
                triples, _ = _factors(ctx.m, w, np.arange(ctx.dim))
                got, rows = self.assert_squares(ctx, triples)
                assert got.tolist() == rows.tolist(), ctx
                factors = rng.integers(0, 3, (4, w, 3), dtype=np.int8)
                self.assert_squares(ctx, factors)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**30), st.integers(0, 299), st.integers(0, 3), st.data())
    def test_large_m(self, m, l2, k, data):
        ctx = ctx_of(m + l2, l2)
        w = _width(l2)
        gs = data.draw(st.lists(st.integers(0, l2), min_size=1, max_size=3))
        triples, _ = _factors(m, w, np.array(gs, dtype=np.int64))
        got, rows = self.assert_squares(ctx, triples)
        assert got.tolist() == rows.tolist()
        digit = st.integers(0, 2)
        factors = np.array(data.draw(st.lists(st.lists(st.lists(
            digit, min_size=3, max_size=3), min_size=w, max_size=w), min_size=k, max_size=k)),
            dtype=np.int8).reshape(k, w, 3)
        self.assert_squares(ctx, factors)

    def test_needs_characteristic_3(self):
        ctx = AlgebraContext(5, 2, 5)
        with pytest.raises(UnsupportedCharacteristicError, match="p=5"):
            factored_squares(ctx, np.ones((1, 1, 3), dtype=np.int8))

    @pytest.mark.parametrize(
        "factors",
        [np.ones((2, 2, 3), dtype=np.int8), np.full((1, 4, 3), 7, dtype=np.int8),
         np.full((1, 4, 3), -1, dtype=np.int64), np.ones((1, 4, 3)),
         np.ones((1, 4, 3), dtype=bool), np.ones((4, 3), dtype=np.int8),
         np.ones((1, 4, 2), dtype=np.int8)],
        ids=["narrow", "digit-7", "digit-minus-1", "float", "bool", "not-a-stack", "pairs"],
    )
    def test_rejects_what_is_not_a_stack_of_digit_triples(self, factors):
        # at (100, 50) a K x 2 x 3 stack would give K x 9 rows, and int8
        # digits 7, though 1 mod 3, would overflow the 9-term sums
        with pytest.raises(ValueError, match=r"K x w x 3 array of digits 0\.\.2"):
            factored_squares(ctx_of(100, 50), factors)

    def test_wider_and_other_integer_factors(self):
        # factors past the width truncate to their constant terms, and any
        # integer dtype of digits 0..2 gives the int8 result
        ctx = ctx_of(100, 50)
        factors = np.random.default_rng(24).integers(0, 3, (5, 4, 3), dtype=np.int8)
        want = self.assert_squares(ctx, factors)[0].tolist()
        for dtype in (np.uint8, np.int64):
            assert factored_squares(ctx, factors.astype(dtype)).tolist() == want
        wider = np.concatenate([factors, np.ones((5, 2, 3), dtype=np.int8)], axis=1)
        self.assert_squares(ctx, wider)
        assert factored_squares(ctx, np.zeros((0, 4, 3), dtype=np.int8)).shape == (0, 51)


class TestElementInvariants:
    def test_rejects_unreduced_coefficients(self):
        with pytest.raises(ValueError):
            AlgebraElement(ctx_of(6, 2), (5, 7, 9))
        with pytest.raises(ValueError):
            AlgebraElement(ctx_of(6, 2), (0, -1, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            AlgebraElement(ctx_of(6, 2), (1, 0))

    def test_rejects_non_integer_coefficients(self):
        for bad in ((True, 0, 0), (1.0, 0, 0), ("1", 0, 0)):
            with pytest.raises(ValueError):
                AlgebraElement(ctx_of(6, 2), bad)

    def test_from_coeffs_rejects_non_integers(self):
        ctx = ctx_of(6, 2)
        with pytest.raises(ValueError):
            ctx.from_coeffs([1.7, True, "2"])
        for bad in ([1.7, 0, 0], [True, 0, 0], ["2", 0, 0]):
            with pytest.raises(ValueError):
                ctx.from_coeffs(bad)
        assert ctx.from_coeffs([5, -1, 9]).coeffs == (2, 2, 0)

    def test_from_json_rejects_three_row_lambda(self):
        with pytest.raises(ValueError, match="two-row"):
            AlgebraElement.from_json({"lambda": [3, 2, 1], "p": 3, "coeffs": [1, 0, 0]})

    @pytest.mark.parametrize("data", [
        {"lambda": [2, 2], "p": 3},
        {"lambda": "22", "p": 3, "coeffs": [1, 0, 0]},
        {"lambda": [2, 2], "p": "3", "coeffs": [1, 0, 0]},
        {"lambda": [2, 2], "p": 3, "coeffs": 5},
    ])
    def test_from_json_rejects_malformed_input(self, data):
        with pytest.raises(ValueError):
            AlgebraElement.from_json(data)


class TestVectorOps:
    def test_add_zero(self):
        ctx = ctx_of(6, 2)
        x = ctx.from_coeffs([2, 1, 1])
        assert x + ctx.zero() == x

    def test_scale_by_characteristic(self):
        ctx = ctx_of(6, 2)
        x = ctx.from_coeffs([2, 1, 1])
        assert x.scale(3).is_zero()

    def test_two_is_minus_one(self):
        ctx = ctx_of(36, 13)
        assert 2 * ctx.basis(13) == -ctx.basis(13)
        assert (2 * ctx.basis(13)).coeffs[13] == 2

    def test_support_accessors(self):
        ctx = ctx_of(9, 5)
        x = ctx.from_coeffs([0, 0, 1, 0, 2, 0])
        assert (x.support_min(), x.support_max()) == (2, 4)
        assert ctx.zero().support_min() is None


class TestRendering:
    def test_signed_polynomial(self):
        ctx = ctx_of(4, 4)
        e = ctx.one() + ctx.basis(1) - ctx.basis(2)
        assert str(e) == "1 + b(1) - b(2)"

    def test_minus_leading(self):
        ctx = ctx_of(36, 13)
        assert str(2 * ctx.basis(13)) == "-b(13)"

    def test_zero(self):
        assert str(ctx_of(3, 1).zero()) == "0"

    def test_large_prime_coefficient(self):
        ctx = ctx_of(6, 2, 7)
        assert str(3 * ctx.basis(1)) == "3*b(1)"
        assert str(5 * ctx.basis(1)) == "-2*b(1)"


class TestJson:
    def test_schema_and_round_trip(self):
        ctx = ctx_of(36, 13)
        e = 2 * ctx.basis(13) + ctx.basis(1)
        blob = json.dumps(e.to_json())
        data = json.loads(blob)
        assert set(data) == {"lambda", "p", "coeffs"}
        assert data["lambda"] == [36, 13] and data["p"] == 3
        assert all(isinstance(c, int) and c >= 0 for c in data["coeffs"])
        assert AlgebraElement.from_json(data) == e

    @settings(max_examples=50, deadline=None)
    @given(any_contexts.flatmap(elements))
    def test_round_trip_fuzz(self, x):
        blob = json.dumps(x.to_json())
        assert AlgebraElement.from_json(json.loads(blob)) == x
