"""Digit expansions, Lucas binomials, and carry sequences."""

import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworow.decompose import kostka
from tworow.errors import InvalidPrimeError
from tworow.padic import (
    big_b,
    carry_sequence,
    digits,
    factor_digits,
    lucas_binom,
    truncate_below,
)

PRIMES = (2, 3, 5, 7)


class TestDigits:
    def test_example_49(self):
        assert list(digits(49, 3)) == [1, 1, 2, 1]

    def test_zero_is_empty(self):
        assert list(digits(0, 3)) == []

    def test_example_13(self):
        assert list(digits(13, 3)) == [1, 1, 1]

    def test_padded_access(self):
        d = digits(13, 3)
        assert d[0] == 1 and d[5] == 0

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15])
    def test_invalid_prime(self, p):
        with pytest.raises(InvalidPrimeError):
            digits(10, p)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            digits(-1, 3)

    @given(st.integers(0, 10**12), st.sampled_from((2, 3, 5, 7, 11, 13)))
    def test_round_trip(self, a, p):
        d = digits(a, p)
        assert d.value() == a
        assert all(0 <= x < p for x in d)
        # normalized: no trailing zero
        assert not d.digits or d.digits[-1] != 0


class TestTruncateBelow:
    def test_example(self):
        assert truncate_below(23, 3, 2) == 5

    def test_empty_prefix(self):
        assert truncate_below(23, 3, 0) == 0

    def test_beyond_length(self):
        assert truncate_below(13, 3, 3) == 13

    @given(st.integers(0, 10**9), st.sampled_from(PRIMES), st.integers(0, 12))
    def test_matches_digits(self, a, p, s):
        d = digits(a, p)
        assert truncate_below(a, p, s) == sum(d[u] * p**u for u in range(s))


class TestLucasBinom:
    def test_worked_value(self):
        assert lucas_binom(49, 13, 3) == 2

    def test_choose_zero(self):
        assert lucas_binom(715, 0, 5) == 1

    def test_divisible(self):
        assert lucas_binom(6, 2, 3) == 0

    def test_b_above_a(self):
        assert lucas_binom(5, 9, 3) == 0

    def test_rejects_huge_prime_before_trial_division(self):
        # Trial division up to sqrt(10**18) would take minutes.
        with pytest.raises(InvalidPrimeError, match="2\\*\\*31"):
            lucas_binom(5, 2, 10**18 + 3)

    def test_exhaustive_small_vs_factorials(self):
        fact = [1]
        for i in range(1, 121):
            fact.append(fact[-1] * i)
        for a in range(121):
            for b in range(a + 1):
                c = fact[a] // (fact[b] * fact[a - b])
                for p in PRIMES:
                    assert lucas_binom(a, b, p) == c % p

    @given(st.integers(0, 3000), st.integers(0, 3000), st.sampled_from(PRIMES))
    def test_matches_comb(self, a, b, p):
        assert lucas_binom(a, b, p) == comb(a, b) % p


class TestModulusType:
    """A modulus whose type is not exactly int is rejected by name, also once
    the equal int has been checked: 3.0 == 3 hashes to the same cache key."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: kostka((4, 2), (4, 2), p),
            lambda p: kostka((5, 1), (4, 2), p),
            lambda p: lucas_binom(7, 3, p),
            lambda p: digits(10, p),
            lambda p: truncate_below(10, p, 1),
        ],
        ids=["kostka", "kostka-shortcut", "lucas_binom", "digits", "truncate_below"],
    )
    @pytest.mark.parametrize("p", [3.0, 3.5, True, np.int64(3)], ids=repr)
    def test_rejected_after_the_int_is_cached(self, call, p):
        call(3)
        with pytest.raises(InvalidPrimeError, match=re.escape(f"modulus {p!r} is not an int")):
            call(p)


class TestNaturalArguments:
    """A value that is not an int >= 0 is rejected by its name, never
    expanded into digits that are not those of a natural number."""

    @pytest.mark.parametrize(
        "call, name, bad",
        [
            (lambda x: digits(x, 3), "a", 2.5),
            (lambda x: digits(x, 3), "a", 3.0),
            (lambda x: digits(x, 3), "a", True),
            (lambda x: digits(x, 3), "a", -1),
            (lambda x: factor_digits(x, 1, 3), "m", 1.5),
            (lambda x: factor_digits(1, x, 3), "g", 1.0),
            (lambda x: factor_digits(x, 1, 3), "m", -3),
            (lambda x: carry_sequence(x, 1, 3), "m", 1.5),
            (lambda x: carry_sequence(1, x, 3), "g", np.int64(1)),
            (lambda x: truncate_below(10, 3, x), "s", -1),
            (lambda x: truncate_below(10, 3, x), "s", 1.0),
            (lambda x: truncate_below(x, 3, 1), "a", 10.0),
        ],
        ids=["digits-float", "digits-integral-float", "digits-bool", "digits-negative",
             "factor_digits-m", "factor_digits-g", "factor_digits-negative",
             "carry_sequence-m", "carry_sequence-numpy-g", "truncate_below-negative-s",
             "truncate_below-float-s", "truncate_below-float-a"],
    )
    def test_rejected_by_name(self, call, name, bad):
        with pytest.raises(ValueError, match=re.escape(f"{name}={bad!r} is not an integer >= 0")):
            call(bad)

    @pytest.mark.parametrize("p", [4, 1, 0])
    def test_truncate_below_checks_the_prime(self, p):
        with pytest.raises(InvalidPrimeError):
            truncate_below(10, p, 1)


class TestBigB:
    def test_worked_value(self):
        assert big_b(23, 13, 3) == 2

    def test_g_zero(self):
        assert big_b(71, 0, 3) == 1

    def test_divisible(self):
        assert big_b(1, 1, 3) == 0

    def test_is_central_binomial(self):
        for m in range(20):
            for g in range(20):
                assert big_b(m, g, 3) == comb(m + 2 * g, g) % 3


class TestCarrySequence:
    def test_worked_value(self):
        assert list(carry_sequence(23, 13, 3)) == [1, 1, 1, 0]

    def test_adding_zero(self):
        assert all(x == 0 for x in carry_sequence(923, 0, 3))

    def test_carry_block_family(self):
        # m = 3^mu, g = 3^nu - 3^mu + h with h < 3^mu and C(2h,h) nonzero:
        # no carry below mu, carries from mu through nu-1.
        for mu, nu, h in [(0, 1, 0), (0, 3, 0), (1, 3, 1), (2, 4, 4), (2, 5, 1)]:
            m, g = 3**mu, 3**nu - 3**mu + h
            x = carry_sequence(m, g, 3)
            for u in range(mu):
                assert x.leaving(u) == 0
            for u in range(mu, nu):
                assert x.leaving(u) == 1
            assert x.leaving(nu) == 0

    def test_virtual_leading_entry(self):
        assert carry_sequence(5, 7, 3).leaving(-1) == 0
        assert carry_sequence(5, 7, 3).entering(0) == 0

    @given(st.integers(0, 3**8), st.integers(0, 3**8), st.sampled_from(PRIMES))
    def test_carries_are_binary(self, m, g, p):
        assert set(carry_sequence(m, g, p).carries) <= {0, 1}

    @given(st.integers(0, 3**8), st.integers(0, 3**8), st.sampled_from(PRIMES))
    def test_recurrence(self, m, g, p):
        dm, dg, ds = digits(m, p), digits(g, p), digits(m + g, p)
        x = carry_sequence(m, g, p)
        for u in range(len(x.carries)):
            assert dm[u] + dg[u] + x.entering(u) == ds[u] + p * x.leaving(u)

    @settings(max_examples=300)
    @given(st.integers(0, 3**7), st.integers(0, 3**7), st.sampled_from(PRIMES))
    def test_digit_relation_when_b_nonzero(self, m, g, p):
        # (m+2g)_u - 2g_u = m_u + x_{u-1} mod p whenever big_b is a unit
        if big_b(m, g, p) == 0:
            return
        da, dg, dm = digits(m + 2 * g, p), digits(g, p), digits(m, p)
        x = carry_sequence(m, g, p)
        for u in range(max(len(da), len(dm)) + 1):
            assert (da[u] - 2 * dg[u]) % p == (dm[u] + x.entering(u)) % p

    @settings(max_examples=300)
    @given(st.integers(0, 3**7), st.integers(0, 3**7), st.sampled_from(PRIMES))
    def test_carry_free_when_b_nonzero(self, m, g, p):
        if big_b(m, g, p) == 0:
            return
        assert all(x == 0 for x in carry_sequence(m + g, g, p))


class TestFactorDigits:
    def test_worked_value(self):
        assert factor_digits(23, 13, 3) == [(1, 1), (1, 1), (2, 1), (1, 0)]

    def test_g_zero(self):
        m = 47
        assert factor_digits(m, 0, 3) == [(d, 0) for d in digits(m, 3)]

    def test_inadmissible_pair_surfaces(self):
        # m+2g = 4 = [1,1] base 3 while g = 2 = [2]: factor 0 is (1,2)
        assert factor_digits(0, 2, 3) == [(1, 2), (1, 0)]
        assert big_b(0, 2, 3) == 0
