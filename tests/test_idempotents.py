"""The factor table, idempotent products, psi, and the closed-form squares."""

import math
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tworow.algebra import AlgebraContext, mul
from tworow.errors import UnsupportedCharacteristicError
from tworow.idempotents import (
    Factor,
    build,
    build_prefix,
    factor_element,
    factor_sequence_text,
    psi,
    psi_recursion_check,
    square_closed_form,
)
from tworow.padic import big_b, carry_sequence, digits, factor_digits

ADMISSIBLE = [(0, 0), (2, 1), (1, 0), (2, 2), (2, 0), (1, 1)]


def ctx3(l1, l2):
    return AlgebraContext(l1, l2, 3)


def valid_pairs(m_max, g_max):
    return [
        (m, g)
        for m in range(m_max + 1)
        for g in range(g_max + 1)
        if big_b(m, g, 3) != 0
    ]


class TestFactor:
    def test_admissible_set(self):
        admissible = {(a, b) for a in range(3) for b in range(3) if Factor(a, b).admissible}
        assert admissible == set(ADMISSIBLE)
        assert not Factor(1, 2).admissible
        assert not Factor(0, 1).admissible
        # the constant term is 1 exactly where b = 0, so a factor past
        # lambda2, where only that term survives, truncates to 1 or 0
        pairs = [(a, b) for a in range(3) for b in range(3)]
        assert [Factor(a, b).coeffs[0] for a, b in pairs] == [int(b == 0) for a, b in pairs]

    def test_class_pairs(self):
        # each residue class a-2b mod 3 contains exactly one I-side (b=0)
        # and one J-side (b>0) factor
        by_class = {}
        for a, b in ADMISSIBLE:
            by_class.setdefault((a - 2 * b) % 3, []).append(b > 0)
        assert set(by_class) == {0, 1, 2}
        for sides in by_class.values():
            assert sorted(sides) == [False, True]

    def test_digit_pairs_and_validity(self):
        pairs = factor_digits(23, 13, 3)
        assert pairs == [(1, 1), (1, 1), (2, 1), (1, 0)]
        assert all(Factor(a, b).admissible for a, b in pairs)
        assert big_b(23, 13, 3) != 0
        assert big_b(1, 1, 3) == 0


class TestFactorElement:
    def test_truncated_pair(self):
        ctx = ctx3(36, 13)
        elem = factor_element(ctx, 2, Factor(2, 1))
        assert elem == -ctx.basis(9)
        assert elem == ctx.basis(18) - ctx.basis(9)

    def test_everything_truncates_to_one(self):
        ctx = ctx3(36, 13)
        assert factor_element(ctx, 3, Factor(0, 0)) == ctx.one()

    def test_low_digit(self):
        ctx = ctx3(36, 13)
        assert factor_element(ctx, 0, Factor(1, 1)) == ctx.basis(1) - ctx.basis(2)

    def test_full_table(self):
        ctx = ctx3(20, 9)
        one, b3, b6 = ctx.one(), ctx.basis(3), ctx.basis(6)
        table = {
            (0, 0): one + b3 - b6,
            (2, 1): b6 - b3,
            (1, 0): one - b6,
            (2, 2): b6,
            (2, 0): one - b3 + b6,
            (1, 1): b3 - b6,
        }
        for pair, want in table.items():
            assert factor_element(ctx, 1, Factor(*pair)) == want

    def test_inadmissible_is_zero(self):
        ctx = ctx3(20, 9)
        assert factor_element(ctx, 1, Factor(1, 2)).is_zero()

    def test_char3_only(self):
        with pytest.raises(UnsupportedCharacteristicError):
            factor_element(AlgebraContext(6, 2, 5), 0, Factor(0, 0))


class TestBuild:
    def test_worked_example(self):
        ctx = ctx3(36, 13)
        assert build(ctx, 13) == 2 * ctx.basis(13)

    def test_row_module_is_identity(self):
        ctx = ctx3(5, 0)
        assert build(ctx, 0) == ctx.one()

    def test_small_square(self):
        ctx = ctx3(2, 2)
        assert build(ctx, 1) == ctx.basis(2) - ctx.basis(1)
        assert build(ctx, 0) == ctx.one() + ctx.basis(1) - ctx.basis(2)

    def test_degenerate_binomial_gives_zero(self):
        assert build(ctx3(2, 2), 2).is_zero()
        assert big_b(0, 2, 3) == 0

    def test_g_above_lambda2_gives_zero(self):
        # B(0,3) = C(6,3) = 20 is a unit mod 3, yet g exceeds lambda2
        assert big_b(0, 3, 3) != 0
        assert build(ctx3(2, 2), 3).is_zero()

    def test_char3_only(self):
        with pytest.raises(UnsupportedCharacteristicError):
            build(AlgebraContext(6, 2, 2), 0)

    def test_factor_sequence_text(self):
        assert factor_sequence_text(ctx3(36, 13), 13) == "(b(1) - b(2))(b(3) - b(6))(-b(9))"
        assert factor_sequence_text(ctx3(5, 0), 0) == "1"
        # past lambda2, one (0) per non-zero digit of g there
        low = "(b(1) - b(2))(b(3) - b(6))(-b(9))"
        assert factor_sequence_text(ctx3(5, 0), 1) == "(0)"
        assert factor_sequence_text(ctx3(36, 13), 40) == low + "(0)"
        assert factor_sequence_text(ctx3(36, 13), 148) == low + "(0)(0)"
        assert factor_sequence_text(ctx3(9, 2), 9) == "(1 - b(2))(0)"
        assert factor_sequence_text(ctx3(10**20 + 4, 4), 3**40 + 2) == "(b(2))(0)"


def product_of_factors(ctx, g, count=None):
    """The idempotent as the paper writes it: the product, through mul, of
    one factor per digit of m+2g and per u with 3^u <= lambda2 (or of the
    first `count` factors)."""
    pairs = factor_digits(ctx.m, g, 3)
    if count is None:
        count = len(pairs)
        while 3**count <= ctx.lambda2:
            count += 1
    kinds = [Factor(*pairs[u]) if u < len(pairs) else Factor(0, 0) for u in range(count)]
    return reduce(mul, [factor_element(ctx, u, kind) for u, kind in enumerate(kinds)], ctx.one())


def digit_disjoint(i, j, p):
    di, dj = digits(i, p), digits(j, p)
    return all(di[u] == 0 or dj[u] == 0 for u in range(max(len(di), len(dj))))


class TestExpansion:
    """build and build_prefix expand the factors without multiplying them;
    these compare the expansion with the product of the factors."""

    def test_build_is_the_product_for_every_small_partition(self):
        for r in range(61):
            for l2 in range(r // 2 + 1):
                ctx = ctx3(r - l2, l2)
                for g in range(l2 + 1):
                    assert build(ctx, g) == product_of_factors(ctx, g), (r - l2, l2, g)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(3**10, 10**12),
        st.integers(0, 300),
        st.integers(0, 300),
    )
    def test_build_is_the_product_at_large_m(self, m, l2, g):
        ctx = ctx3(m + l2, l2)
        g = g % (l2 + 1)
        assert build(ctx, g) == product_of_factors(ctx, g)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2**63, 10**30), st.integers(0, 300), st.data())
    @example(m=10**30, l2=40, data=None)
    def test_build_is_the_product_beyond_int64(self, m, l2, data):
        # g runs past lambda2, and most g are inadmissible at such m; both
        # give zero
        ctx = ctx3(m + l2, l2)
        gs = [0, l2, l2 + 1, l2 + 7]
        if data is not None:
            gs.append(data.draw(st.integers(0, l2 + 10)))
        for g in gs:
            e = build(ctx, g)
            assert e == product_of_factors(ctx, g)
            assert e.is_zero() == (g > l2 or math.comb(m + 2 * g, g) % 3 == 0)

    def test_prefix_is_the_product(self):
        # up to r = 20, g runs past lambda2 and past 3^w, so a prefix reaches
        # a position u >= w with g_u != 0
        for r in range(31):
            for l2 in range(r // 2 + 1):
                ctx = ctx3(r - l2, l2)
                for g in range(3 * l2 + 4 if r <= 20 else l2 + 1):
                    for t in range(4):
                        for inclusive in (True, False):
                            want = product_of_factors(ctx, g, t + 1 if inclusive else t)
                            got = build_prefix(ctx, g, t, inclusive)
                            assert got == want, (r - l2, l2, g, t, inclusive)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_digit_disjoint_basis_elements_multiply_by_addition(self, p):
        for m in (0, 1, 5, 3**10 + 7):
            ctx = AlgebraContext(m + 120, 120, p)
            for i in range(61):
                for j in range(61):
                    if digit_disjoint(i, j, p):
                        assert ctx.basis(i) * ctx.basis(j) == ctx.basis(i + j), (m, i, j)


class TestBuildPrefix:
    def test_exclusive_zero_is_identity(self):
        ctx = ctx3(36, 13)
        assert build_prefix(ctx, 13, 0, inclusive=False) == ctx.one()

    def test_prefix_matches_explicit_product(self):
        ctx = ctx3(36, 13)
        f0 = ctx.basis(1) - ctx.basis(2)
        f1 = ctx.basis(3) - ctx.basis(6)
        f2 = ctx.basis(18) - ctx.basis(9)
        assert build_prefix(ctx, 13, 2, inclusive=True) == f0 * f1 * f2

    def test_full_prefix_is_build(self):
        for l1, l2, g in [(36, 13, 13), (2, 2, 1), (9, 4, 3), (17, 8, 2)]:
            ctx = ctx3(l1, l2)
            t = 0
            while 3**t <= l2 or 3**t <= ctx.m + 2 * g:
                t += 1
            assert build_prefix(ctx, g, t, inclusive=True) == build(ctx, g)

    def test_prefix_idempotency(self):
        # inclusive prefixes are idempotent in the minimal truncation
        for u in (0, 1, 2):
            lam2 = 3 ** (u + 1) - 1
            for m, g in valid_pairs(20, 12):
                ctx = ctx3(m + lam2, lam2)
                e = build_prefix(ctx, g, u, inclusive=True)
                assert e * e == e, (m, g, u)

    def test_absorption(self):
        # v = prefix * next factor: v*w = v and v*(1-w) = 0
        for m, g in valid_pairs(15, 10):
            pairs = factor_digits(m, g, 3)
            for t in (0, 1):
                lam2 = 3 ** (t + 2) - 1
                ctx = ctx3(m + lam2, lam2)
                kind = Factor(*pairs[t + 1]) if t + 1 < len(pairs) else Factor(0, 0)
                w = factor_element(ctx, t + 1, kind)
                v = build_prefix(ctx, g, t + 1, inclusive=True)
                assert v == build_prefix(ctx, g, t, inclusive=True) * w
                assert v * w == v
                assert (v * (ctx.one() - w)).is_zero()


class TestNegativePosition:
    """A negative digit position is rejected by its name."""

    def test_build_prefix(self):
        for inclusive in (True, False):
            with pytest.raises(ValueError, match="t=-1"):
                build_prefix(ctx3(36, 13), 13, -1, inclusive)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ctx: psi(ctx, -1),
            lambda ctx: factor_element(ctx, -1, Factor(0, 0)),
            lambda ctx: square_closed_form(ctx, -1, "b3sq"),
        ],
        ids=["psi", "factor_element", "square_closed_form"],
    )
    def test_u(self, call):
        with pytest.raises(ValueError, match="u=-1"):
            call(ctx3(36, 13))


class TestNonIntegerInput:
    """A g, t or u whose type is not exactly int is rejected by its name."""

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda ctx: build(ctx, 1.0), "g=1.0"),
            (lambda ctx: build(ctx, True), "g=True"),
            (lambda ctx: build(ctx, np.int64(1)), f"g={np.int64(1)!r}"),
            (lambda ctx: build_prefix(ctx, 1.0, 1), "g=1.0"),
            (lambda ctx: build_prefix(ctx, 1, 1.5), "t=1.5"),
            (lambda ctx: factor_sequence_text(ctx, 2.0), "g=2.0"),
            (lambda ctx: psi(ctx, 1.0), "u=1.0"),
            (lambda ctx: factor_element(ctx, True, Factor(0, 0)), "u=True"),
            (lambda ctx: square_closed_form(ctx, 1.0, "b3sq"), "u=1.0"),
            (lambda ctx: psi_recursion_check(ctx, 1.5), "t=1.5"),
            (lambda ctx: psi_recursion_check(ctx, True), "t=True"),
        ],
        ids=["build-float", "build-bool", "build-numpy", "build_prefix-g",
             "build_prefix-t", "factor_sequence_text", "psi", "factor_element",
             "square_closed_form", "psi_recursion_check-float",
             "psi_recursion_check-bool"],
    )
    def test_rejected_by_name(self, call, name):
        with pytest.raises(ValueError, match=re.escape(f"{name} is not an integer")):
            call(ctx3(36, 13))


class TestPsi:
    def test_zero_at_origin(self):
        assert psi(ctx3(9, 4), 0).is_zero()

    def test_m1_u1(self):
        ctx = ctx3(5, 4)
        assert psi(ctx, 1) == ctx.basis(2)

    def test_vanishes_without_low_digits(self):
        # m = 9 has no digits below position 2
        assert psi(ctx3(13, 4), 1).is_zero()
        assert psi(ctx3(17, 8), 2).is_zero()

    def test_general_prime(self):
        # same formula at p = 5: sum_k C(3, 5-k) b(k) = b(2) + 3b(3) + 3b(4)
        ctx = AlgebraContext(9, 6, 5)
        expected = ctx.from_coeffs([0, 0, 1, 3, 3, 0, 0])
        assert psi(ctx, 1) == expected

    def test_explicit_definition(self):
        from tworow.padic import lucas_binom, truncate_below

        for m in (5, 23, 40):
            for u in (1, 2, 3):
                ctx = ctx3(m + 30, 30)
                got = psi(ctx, u)
                want = ctx.zero()
                for k in range(1, 3**u):
                    c = lucas_binom(truncate_below(m, 3, u), 3**u - k, 3)
                    want = want + c * ctx.basis(k)
                assert got == want


class TestClosedForms:
    def test_b3sq_m0(self):
        ctx = ctx3(4, 4)
        assert square_closed_form(ctx, 0, "b3sq") == 2 * ctx.basis(1) + ctx.basis(2)

    def test_b2sq_m1(self):
        ctx = ctx3(5, 4)
        assert square_closed_form(ctx, 0, "b2sq") == ctx.basis(2)

    def test_b3b2_m0(self):
        assert square_closed_form(ctx3(4, 4), 0, "b3b2").is_zero()

    def test_precondition(self):
        with pytest.raises(ValueError):
            square_closed_form(ctx3(4, 1), 0, "b3sq")
        with pytest.raises(ValueError):
            square_closed_form(ctx3(9, 5), 1, "b2sq")

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            square_closed_form(ctx3(4, 4), 0, "cube")

    @pytest.mark.parametrize("u", [0, 1])
    def test_agree_with_multiplication(self, u):
        for m in range(9):
            lam2 = 2 * 3**u
            ctx = ctx3(m + lam2, lam2)
            b3, b6 = ctx.basis(3**u), ctx.basis(2 * 3**u)
            assert square_closed_form(ctx, u, "b3sq") == b3 * b3
            assert square_closed_form(ctx, u, "b2sq") == b6 * b6
            assert square_closed_form(ctx, u, "b3b2") == b3 * b6


class TestPsiRecursion:
    def test_m1_t1(self):
        ctx = ctx3(5, 4)
        assert psi_recursion_check(ctx, 1)
        assert psi(ctx, 1) == ctx.basis(2)

    def test_m0_all_t(self):
        for t in (1, 2, 3):
            assert psi_recursion_check(ctx3(30, 30), t)
            assert psi(ctx3(30, 30), t).is_zero()

    def test_larger_parameters(self):
        assert psi_recursion_check(ctx3(36, 13), 2)

    def test_bad_t(self):
        with pytest.raises(ValueError):
            psi_recursion_check(ctx3(9, 4), 0)


class TestDichotomy:
    def test_small_sweep(self):
        # prefix*psi is 0 or the prefix itself, per the entering carry
        for t in range(4):
            lam2 = 2 * 3**t
            for m, g in valid_pairs(26, 13):
                ctx = ctx3(m + lam2, lam2)
                prefix = build_prefix(ctx, g, t, inclusive=False)
                product = prefix * psi(ctx, t)
                if carry_sequence(m, g, 3).entering(t) == 0:
                    assert product.is_zero(), (m, g, t)
                else:
                    assert product == prefix, (m, g, t)


class TestLeadingTerm:
    def test_small_sweep(self):
        for l1 in range(13):
            for l2 in range(l1 + 1):
                ctx = ctx3(l1, l2)
                m = ctx.m
                for g in range(l2 + 1):
                    e = build(ctx, g)
                    if big_b(m, g, 3) == 0:
                        assert e.is_zero()
                    else:
                        assert e.support_min() == g
                        assert e.coeffs[g] == big_b(m, g, 3)
                for g in range(l2 + 1, l2 + 6):
                    assert build(ctx, g).is_zero()


class TestZeroWithoutGuard:
    """build returns zero exactly where C(m+2g, g) = 0 mod 3 or g > lambda2,
    with no separate test of the binomial: an inadmissible digit pair gives a
    zero factor, and the product's lowest term is b(g)."""

    @staticmethod
    def expected_zero(m, l2, g):
        return g > l2 or math.comb(m + 2 * g, g) % 3 == 0

    def test_every_g_up_to_r_60(self):
        cases = 0
        for r in range(61):
            for l2 in range(r // 2 + 1):
                ctx = ctx3(r - l2, l2)
                for g in range(l2 + 3):
                    zero = self.expected_zero(ctx.m, l2, g)
                    assert build(ctx, g).is_zero() == zero, (r, l2, g)
                    cases += 1
        assert cases == 12338

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**12), st.integers(0, 40), st.data())
    def test_large_m(self, m, l2, data):
        g = data.draw(st.integers(0, l2 + 2))
        ctx = ctx3(m + l2, l2)
        assert build(ctx, g).is_zero() == self.expected_zero(m, l2, g)

    def test_negative_g_is_named(self):
        with pytest.raises(ValueError, match="g=-1"):
            build(ctx3(4, 2), -1)

    def test_negative_g_is_named_in_prefix_and_text(self):
        ctx = ctx3(4, 2)
        for call in (lambda: build_prefix(ctx, -1, 0), lambda: factor_sequence_text(ctx, -1)):
            with pytest.raises(ValueError, match="g=-1 must be non-negative"):
                call()
