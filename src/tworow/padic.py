"""Base-p digit arithmetic: expansions, Lucas binomials, and addition carries.

Digits are little-endian throughout: index u holds the coefficient of p**u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import InvalidPrimeError

__all__ = [
    "DigitVector",
    "CarrySequence",
    "digits",
    "truncate_below",
    "lucas_binom",
    "big_b",
    "carry_sequence",
    "factor_digits",
]


@lru_cache(maxsize=None, typed=True)
def _require_prime(p: int) -> int:
    # typed: 3.0 == 3, so an untyped cache would let a float past the check.
    # Residues are multiplied in int64, so two of them must fit: p < 2**31.
    # The bound also caps trial division, which is enough below it.
    if type(p) is not int:
        raise InvalidPrimeError(f"modulus {p!r} is not an int")
    if p >= 2**31:
        raise InvalidPrimeError(
            f"modulus {p} is not below 2**31, the bound for int64 residue products"
        )
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise InvalidPrimeError(f"modulus {p} is not a prime >= 2")
    return p


@dataclass(frozen=True)
class DigitVector:
    """Normalized little-endian base-p expansion of a natural number.

    The expansion of 0 is the empty sequence; otherwise the top digit is
    non-zero.
    """

    digits: tuple[int, ...]
    p: int

    def value(self) -> int:
        total = 0
        for d in reversed(self.digits):
            total = total * self.p + d
        return total

    def __getitem__(self, u: int) -> int:
        """Digit at position u, 0 beyond the stored length."""
        return self.digits[u] if 0 <= u < len(self.digits) else 0

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


@dataclass(frozen=True)
class CarrySequence:
    """Carries x_0, x_1, ... of a base-p addition, with x_{-1} = 0 implicit."""

    carries: tuple[int, ...]

    def leaving(self, u: int) -> int:
        """The carry x_u leaving column u; defined for u >= -1."""
        if u == -1:
            return 0
        return self.carries[u] if u < len(self.carries) else 0

    def entering(self, u: int) -> int:
        """The carry x_{u-1} entering column u."""
        return self.leaving(u - 1)

    def __iter__(self):
        return iter(self.carries)


def digits(a: int, p: int) -> DigitVector:
    """Little-endian base-p expansion of a >= 0."""
    _require_prime(p)
    if a < 0:
        raise ValueError(f"cannot expand negative value {a}")
    out = []
    while a:
        a, d = divmod(a, p)
        out.append(d)
    return DigitVector(tuple(out), p)


def truncate_below(a: int, p: int, s: int) -> int:
    """The part of a below p**s, i.e. the number with digits a_0..a_{s-1}."""
    return a % p**s


def lucas_binom(a: int, b: int, p: int) -> int:
    """C(a, b) mod p computed digit-wise (product of digit binomials).

    Returns a canonical residue in [0, p-1]; 0 whenever b > a.
    """
    _require_prime(p)
    if b < 0 or b > a:
        return 0
    result = 1
    while b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        if db > da:
            return 0
        result = result * comb(da, db) % p
    return result


def big_b(m: int, g: int, p: int) -> int:
    """The governing binomial C(m+2g, g) mod p."""
    return lucas_binom(m + 2 * g, g, p)


def carry_sequence(m: int, g: int, p: int) -> CarrySequence:
    """Carries of the base-p schoolbook addition m + g.

    The sequence is padded one column beyond the longer operand so the final
    carry (always 0) is explicit.
    """
    dm = digits(m, p)
    dg = digits(g, p)
    length = max(len(dm), len(dg)) + 1
    carries = []
    x = 0
    for u in range(length):
        x = (dm[u] + dg[u] + x) // p
        carries.append(x)
    return CarrySequence(tuple(carries))


def factor_digits(m: int, g: int, p: int) -> list[tuple[int, int]]:
    """Digit pairs ((m+2g)_u, g_u), one per digit position of m+2g."""
    da = digits(m + 2 * g, p)
    db = digits(g, p)
    return [(da[u], db[u]) for u in range(max(len(da), len(db)))]
