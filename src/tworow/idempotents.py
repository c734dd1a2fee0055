"""The characteristic-3 idempotent construction.

Each base-3 digit position u of C(m+2g, g) contributes one factor: the digit
pair ((m+2g)_u, g_u) selects an algebra element supported on 1, b(3^u) and
b(2*3^u) via a fixed six-entry table, and the idempotent for (m, g) is the
product of these factors.  Digit pairs with g_u > (m+2g)_u (exactly the case
C(m+2g, g) = 0 mod 3) map to zero.

The product needs no multiplication.  When i and j share no non-zero base-3
digit position, C(h,i)C(h,j) != 0 mod 3 forces h = i + j (Lucas), and the
structure constant there is 1, so b(i)b(j) = b(i+j).  Factors at different
positions are therefore digit-disjoint, and truncation to b(0..lambda2) is a
ring map, so the coefficient of b(n) in the product is the product over u of
factor u's coefficient at the digit n_u, for n <= lambda2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import AlgebraContext, AlgebraElement
from .errors import UnsupportedCharacteristicError
from .padic import digits, truncate_below, lucas_binom

__all__ = [
    "Factor",
    "factor_element",
    "build",
    "build_prefix",
    "factor_sequence_text",
    "psi",
    "square_closed_form",
    "psi_recursion_check",
]


@dataclass(frozen=True)
class Factor:
    """A digit pair (a, b) = ((m+2g)_u, g_u) of the governing binomial."""

    a: int
    b: int

    @property
    def admissible(self) -> bool:
        return 0 <= self.b <= self.a <= 2

    @property
    def coeffs(self) -> tuple[int, int, int]:
        """Coefficients of (1, b(3^u), b(2*3^u)); zero for an inadmissible pair."""
        return _FACTOR_COEFFS.get((self.a, self.b), (0, 0, 0))


def _require_char3(ctx: AlgebraContext) -> None:
    if ctx.p != 3:
        raise UnsupportedCharacteristicError(
            f"construction is specific to characteristic 3, got p={ctx.p}"
        )


def _require_position(name: str, value: int) -> None:
    """Reject a digit position that is not an int >= 0, by its name."""
    if type(value) is not int:
        raise ValueError(f"digit position {name}={value!r} is not an integer")
    if value < 0:
        raise ValueError(f"digit position {name}={value} must be non-negative")


# Coefficients of (1, b(3^u), b(2*3^u)) in the factor for each admissible
# digit pair (a, b); every other pair gives the zero factor.
_FACTOR_COEFFS = {
    (0, 0): (1, 1, 2),  # 1 + b(3^u) - b(2*3^u)
    (2, 1): (0, 2, 1),  # b(2*3^u) - b(3^u)
    (1, 0): (1, 0, 2),  # 1 - b(2*3^u)
    (2, 2): (0, 0, 1),  # b(2*3^u)
    (2, 0): (1, 2, 1),  # 1 - b(3^u) + b(2*3^u)
    (1, 1): (0, 1, 2),  # b(3^u) - b(2*3^u)
}


def _element(ctx: AlgebraContext, u: int, coeffs: tuple[int, int, int]) -> AlgebraElement:
    """The factor at position u with the given coefficients, truncated."""
    out = [0] * ctx.dim
    for index, c in zip((0, 3**u, 2 * 3**u), coeffs):
        if index <= ctx.lambda2:
            out[index] = c
    return AlgebraElement(ctx, tuple(out))


def factor_element(ctx: AlgebraContext, u: int, kind: Factor) -> AlgebraElement:
    """The algebra element assigned to factor u, truncated to the context."""
    _require_char3(ctx)
    _require_position("u", u)
    return _element(ctx, u, kind.coeffs)


def _factor_coeffs(ctx: AlgebraContext, g: int, count: int | None = None):
    """The coefficient triple of each factor of the idempotent for (ctx.m, g),
    for u = 0, 1, ...

    By default the factors run over every digit of m+2g and every u with
    3^u <= lambda2: factors beyond the digit length are (0,0)-type, and
    reduce to 1 only once 3^u > lambda2.  With `count`, exactly the factors
    u < count.
    """
    _require_char3(ctx)
    if type(g) is not int:
        raise ValueError(f"g={g!r} is not an integer")
    if g < 0:
        raise ValueError(f"g={g} must be non-negative")
    a, b, u = ctx.m + 2 * g, g, 0
    while (a or 3**u <= ctx.lambda2) if count is None else u < count:
        (a, a_u), (b, b_u) = divmod(a, 3), divmod(b, 3)
        yield _FACTOR_COEFFS.get((a_u, b_u), (0, 0, 0))
        u += 1


def _expand(ctx: AlgebraContext, factors) -> AlgebraElement:
    """The product of the digit factors with the given coefficient triples,
    taken in order u = 0, 1, ..., by the digit-disjoint rule.

    Before position u the vector holds the coefficients of b(0..3^u - 1), cut
    to lambda2 + 1 entries; factor u moves the coefficient at n to each
    d*3^u + n, scaled by its d-th coefficient.  A factor with 3^u > lambda2
    keeps only its constant term, so those terms are multiplied into one
    scalar, applied once.
    """
    vec, scalar = [1], 1
    for u, (c0, c1, c2) in enumerate(factors):
        if 3**u <= ctx.lambda2:
            vec = [c * x % 3 for c in (c0, c1, c2) for x in vec][: ctx.dim]
        else:
            scalar = scalar * c0 % 3
    if scalar != 1:
        vec = [scalar * x % 3 for x in vec]
    return AlgebraElement(ctx, tuple(vec) + (0,) * (ctx.dim - len(vec)))


def build(ctx: AlgebraContext, g: int) -> AlgebraElement:
    """The idempotent for (ctx.m, g), or zero when it degenerates.

    Zero is returned (not raised) when C(m+2g, g) = 0 mod 3 or g > lambda2,
    matching the convention that such elements vanish.  Neither case needs a
    check of its own: by Lucas's theorem the first holds exactly when some
    digit pair is inadmissible, whose factor is zero, and in the second the
    product's lowest term b(g) lies past the truncation.
    """
    return _expand(ctx, _factor_coeffs(ctx, g))


def build_prefix(
    ctx: AlgebraContext, g: int, t: int, inclusive: bool = True
) -> AlgebraElement:
    """Product of the factors at digit positions u <= t (or u < t).

    The exclusive prefix at t = 0 is the empty product, i.e. the identity.
    """
    _require_position("t", t)
    return _expand(ctx, _factor_coeffs(ctx, g, t + 1 if inclusive else t))


def factor_sequence_text(ctx: AlgebraContext, g: int) -> str:
    """The non-trivial factors after truncation, e.g. '(b(1) - b(2))(-b(9))'."""
    one = ctx.one()
    parts = []
    for u, coeffs in enumerate(_factor_coeffs(ctx, g)):
        elem = _element(ctx, u, coeffs)
        if elem != one:
            parts.append(f"({elem})")
    return "".join(parts) if parts else "1"


def psi(ctx: AlgebraContext, u: int) -> AlgebraElement:
    """The correction element sum_{k=1}^{p^u - 1} C(m_{<u}, p^u - k) b(k).

    Defined at any prime; zero for u = 0 and whenever the low digits of m
    vanish.
    """
    _require_position("u", u)
    p = ctx.p
    m_low = truncate_below(ctx.m, p, u)
    top = p**u
    coeffs = [0] * ctx.dim
    for k in range(1, min(top - 1, ctx.lambda2) + 1):
        coeffs[k] = lucas_binom(m_low, top - k, p)
    return AlgebraElement(ctx, tuple(coeffs))


def square_closed_form(ctx: AlgebraContext, u: int, which: str) -> AlgebraElement:
    """Closed form for b(3^u)^2 ('b3sq'), b(2*3^u)^2 ('b2sq'), or the mixed
    product b(3^u)b(2*3^u) ('b3b2')."""
    _require_char3(ctx)
    _require_position("u", u)
    if ctx.lambda2 < 2 * 3**u:
        raise ValueError(
            f"closed forms assume lambda2 >= 2*3^u; got lambda2={ctx.lambda2}, u={u}"
        )
    m_u = digits(ctx.m, 3)[u]
    ps = psi(ctx, u)
    one = ctx.one()
    b3 = ctx.basis(3**u)
    b6 = ctx.basis(2 * 3**u)
    if which == "b3sq":
        return b3 * (comb(m_u + 2, 1) * one + ps) + b6
    if which == "b2sq":
        return b6 * (comb(m_u + 1, 2) * one + comb(m_u + 1, 1) * ps)
    if which == "b3b2":
        return b6 * (2 * comb(m_u, 1) * one - ps)
    raise ValueError(f"unknown closed form {which!r}")


def psi_recursion_check(ctx: AlgebraContext, t: int) -> bool:
    """Check the one-step recursion expressing psi at t through psi at t-1."""
    _require_char3(ctx)
    if t < 1:
        raise ValueError("recursion needs t >= 1")
    m_prev = digits(ctx.m, 3)[t - 1]
    one = ctx.one()
    b3 = ctx.basis(3 ** (t - 1))
    b6 = ctx.basis(2 * 3 ** (t - 1))
    rhs = psi(ctx, t - 1) * (
        comb(m_prev, 2) * one + comb(m_prev, 1) * b3 + b6
    ) + comb(m_prev, 2) * b3 + comb(m_prev, 1) * b6
    return psi(ctx, t) == rhs
