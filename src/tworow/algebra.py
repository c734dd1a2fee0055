"""The commutative endomorphism algebra of a two-row permutation module.

For a two-row partition (lambda1, lambda2) the algebra has canonical basis
b(0), ..., b(lambda2) over Z/p, with b(0) the identity and

    b(i)b(j) = sum_{h=max(i,j)}^{i+j} C(h,i) C(h,j) C(m+i+j, i+j-h) b(h),

where m = lambda1 - lambda2 and b(a) = 0 for a > lambda2.  Only m enters the
structure constants; lambda2 sets the truncation.

By Lucas's theorem C(h,i) vanishes mod p unless every base-p digit of i is at
most the matching digit of h, so almost every structure constant is zero.
Each context lists its non-zero ones once, and every product is a gather and
a reduction over that list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import ContextMismatchError
from .padic import _require_prime, lucas_binom

__all__ = [
    "AlgebraContext",
    "AlgebraElement",
    "structure_constant",
    "mul",
]


@dataclass(frozen=True)
class AlgebraContext:
    """A two-row partition together with the prime of the ground field."""

    lambda1: int
    lambda2: int
    p: int

    def __post_init__(self):
        if not (self.lambda1 >= self.lambda2 >= 0):
            raise ValueError(
                f"({self.lambda1},{self.lambda2}) is not a two-row partition"
            )
        _require_prime(self.p)

    @property
    def m(self) -> int:
        return self.lambda1 - self.lambda2

    @property
    def r(self) -> int:
        return self.lambda1 + self.lambda2

    @property
    def dim(self) -> int:
        return self.lambda2 + 1

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, (0,) * self.dim)

    def one(self) -> "AlgebraElement":
        return self.basis(0)

    def basis(self, i: int) -> "AlgebraElement":
        """b(i), or the zero element when i > lambda2 (truncation rule)."""
        if i < 0:
            raise ValueError(f"basis index {i} is negative")
        coeffs = [0] * self.dim
        if i <= self.lambda2:
            coeffs[i] = 1
        return AlgebraElement(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> "AlgebraElement":
        """Element with the given integer coefficients (length lambda2+1),
        reduced mod p."""
        reduced = []
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValueError(f"coefficient {c!r} is not an integer")
            reduced.append(int(c) % self.p)
        return AlgebraElement(self, tuple(reduced))

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The non-zero structure constants, as int64 arrays (i, j, c, starts).

        Entry n says that b(i[n])b(j[n]) has coefficient c[n] at b(h), where
        entries are grouped by h = 0..lambda2 and the group of h begins at
        starts[h].  No group is empty: b(0)b(h) = b(h).
        """
        p, m = self.p, self.m
        # below[h]: the (i, C(h,i) mod p) with C(h,i) != 0, i.e. the i whose
        # base-p digits are at most those of h.  Built from h // p by Lucas.
        below = [[(0, 1)]]
        rows_i, rows_j, rows_c, starts = [], [], [], []
        for h in range(self.dim):
            if h:
                low = h % p
                below.append([
                    (p * i + d, c * comb(low, d) % p)
                    for i, c in below[h // p]
                    for d in range(low + 1)
                ])
            starts.append(len(rows_c))
            mixed = {}  # C(m+i+j, i+j-h) mod p, by i+j
            below_h = below[h]
            for a, (i, ci) in enumerate(below_h):
                for j, cj in below_h[a:]:
                    s = i + j
                    if s < h:
                        continue
                    if s not in mixed:
                        mixed[s] = lucas_binom(m + s, s - h, p)
                    c = ci * cj * mixed[s] % p
                    if not c:
                        continue
                    rows_i.append(i)
                    rows_j.append(j)
                    rows_c.append(c)
                    if i != j:
                        rows_i.append(j)
                        rows_j.append(i)
                        rows_c.append(c)
        return tuple(
            np.array(rows, dtype=np.int64)
            for rows in (rows_i, rows_j, rows_c, starts)
        )


def structure_constant(ctx: AlgebraContext, i: int, j: int, h: int) -> int:
    """The coefficient of b(h) in b(i)b(j), as a residue in [0, p-1]."""
    if not (max(i, j) <= h <= i + j):
        raise ValueError(
            f"h={h} outside the support range [{max(i, j)}, {i + j}] of b({i})b({j})"
        )
    p = ctx.p
    return (
        lucas_binom(h, i, p)
        * lucas_binom(h, j, p)
        * lucas_binom(ctx.m + i + j, i + j - h, p)
        % p
    )


@dataclass(frozen=True)
class AlgebraElement:
    """A linear combination of the canonical basis, as a dense residue vector."""

    context: AlgebraContext
    coeffs: tuple[int, ...]

    def __post_init__(self):
        ctx = self.context
        if len(self.coeffs) != ctx.dim:
            raise ValueError(
                f"expected {ctx.dim} coefficients, got {len(self.coeffs)}"
            )
        p = ctx.p
        for c in self.coeffs:
            if type(c) is not int or not 0 <= c < p:
                raise ValueError(f"coefficient {c!r} is not a residue in [0, {p - 1}]")

    def _same_context(self, other: "AlgebraElement") -> AlgebraContext:
        if self.context != other.context:
            raise ContextMismatchError(
                f"cannot combine elements of {self.context} and {other.context}"
            )
        return self.context

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        ctx = self._same_context(other)
        return AlgebraElement(
            ctx, tuple((a + b) % ctx.p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        ctx = self._same_context(other)
        return AlgebraElement(
            ctx, tuple((a - b) % ctx.p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def scale(self, c: int) -> "AlgebraElement":
        p = self.context.p
        return AlgebraElement(self.context, tuple(c * a % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> list[int]:
        """Indices with non-zero coefficient, ascending."""
        return [i for i, c in enumerate(self.coeffs) if c]

    def support_min(self) -> int | None:
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def support_max(self) -> int | None:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return None

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def to_json(self) -> dict:
        ctx = self.context
        return {
            "lambda": [ctx.lambda1, ctx.lambda2],
            "p": ctx.p,
            "coeffs": list(self.coeffs),
        }

    @staticmethod
    def from_json(data: dict) -> "AlgebraElement":
        lam = data["lambda"]
        if len(lam) != 2:
            raise ValueError(f"lambda={lam!r} is not a two-row partition")
        l1, l2 = lam
        ctx = AlgebraContext(l1, l2, data["p"])
        return ctx.from_coeffs(data["coeffs"])

    def __str__(self) -> str:
        """Signed-coefficient polynomial in the b(i), e.g. '1 + b(1) - b(2)'."""
        p = self.context.p
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            signed = c if c <= p // 2 else c - p
            mag, neg = abs(signed), signed < 0
            term = "1" if i == 0 else f"b({i})"
            if mag != 1:
                term = f"{mag}*{term}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts) if parts else "0"


def mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the algebra, truncating basis indices above lambda2."""
    ctx = x._same_context(y)
    p = ctx.p
    i, j, c, starts = ctx._table
    xv = np.array(x.coeffs, dtype=np.int64)
    yv = np.array(y.coeffs, dtype=np.int64)
    # Each term is a residue below p < 2**31, reduced after every product, so
    # the int64 sums stay exact while the table has fewer than 2**32 entries.
    terms = c * xv[i] % p * yv[j] % p
    acc = np.add.reduceat(terms, starts) % p
    return AlgebraElement(ctx, tuple(acc.tolist()))
