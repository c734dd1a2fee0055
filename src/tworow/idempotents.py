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

import numpy as np

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


def _require_label(g: int) -> None:
    """Reject a label g that is not an int >= 0, by its name."""
    if type(g) is not int:
        raise ValueError(f"g={g!r} is not an integer")
    if g < 0:
        raise ValueError(f"g={g} must be non-negative")


def _width(lambda2: int) -> int:
    """The number w of base-3 digits of lambda2: 3^u <= lambda2 exactly for u < w."""
    w = 0
    while 3**w <= lambda2:
        w += 1
    return w


# _FACTOR_COEFFS and C(a, b) mod 3 as arrays, indexed by the digit pair 3a + b.
_TRIPLES = np.array(
    [_FACTOR_COEFFS.get(divmod(pair, 3), (0, 0, 0)) for pair in range(9)], dtype=np.int8
)
_BINOM3 = np.array([[1, 0, 0], [1, 1, 0], [1, 2, 1]], dtype=np.int8)
_POWERS = 3 ** np.arange(40, dtype=np.int64)


def _factors(m: int, w: int, gs: np.ndarray):
    """The factors of the idempotents for (m, g), g in gs, an int64 array of
    labels below 3^w < 3^40.  Returns arrays (triples, b_values):

    - triples[k, u] holds the coefficients of (1, b(3^u), b(2*3^u)) in the
      factor of gs[k] at position u < w;
    - b_values[k] is B = C(m+2g, g) mod 3, the product of the digit binomials.

    The factors at u >= w are left out, with no scalar in their place.  Past
    lambda2 < 3^w only a factor's constant term survives, and by
    `_FACTOR_COEFFS` that is 1 for every digit pair (a, 0) and 0 for every
    (a, b) with b >= 1, whatever m is.  So the factor at u >= w truncates to
    1 where g_u = 0 and to 0 otherwise: to 1 for every g < 3^w.
    """
    low = m % 3**w + 2 * gs
    powers = _POWERS[:w]
    pairs = low[:, None] // powers % 3 * 3 + gs[:, None] // powers % 3
    b_values = _BINOM3.reshape(9)[pairs].prod(axis=1, dtype=np.int64) % 3
    return _TRIPLES[pairs], b_values


def _expand(triples: np.ndarray, n: int) -> np.ndarray:
    """The K × n int8 residue rows of the products of the factors with
    coefficient triples triples[k, u], u = 0, 1, ..., w - 1, by the
    digit-disjoint rule, for n <= 3^w.

    Before position u a row holds the coefficients of b(0..3^u - 1), cut to n
    entries; factor u moves the coefficient at h to each d*3^u + h, scaled by
    its d-th coefficient.
    """
    rows = np.ones((len(triples), 1), dtype=np.int8)
    for factor in triples.transpose(1, 0, 2):
        outer = factor[:, :, None] * rows[:, None, :]
        rows = outer.reshape(len(rows), 3 * rows.shape[1])[:, :n] % 3
    return rows


def _label_factors(ctx: AlgebraContext, g: int, count: int | None = None):
    """The factors of the idempotent for (ctx.m, g) at the positions u < count,
    or at every u by default: the 1 × w × 3 coefficient triples at u < w,
    with the identity (1, 0, 0) from count on, and the number of zero factors
    at u >= w, one per non-zero digit of g there (see `_factors`).  The
    factors at u < w read only m and g mod 3^w.
    """
    _require_char3(ctx)
    _require_label(g)
    w = _width(ctx.lambda2)
    scale = 3**w
    triples, _ = _factors(ctx.m, w, np.array([g % scale], dtype=np.int64))
    high = digits(g // scale, 3).digits
    if count is not None:
        triples[:, count:] = (1, 0, 0)
        high = high[: max(count - w, 0)]
    return triples, sum(map(bool, high))


def _product(ctx: AlgebraContext, g: int, count: int | None = None) -> AlgebraElement:
    """The product of the factors that `_label_factors` returns, truncated."""
    triples, zeros = _label_factors(ctx, g, count)
    (row,) = _expand(triples, ctx.dim) * (zeros == 0)
    return AlgebraElement(ctx, tuple(row.tolist()))


def build(ctx: AlgebraContext, g: int) -> AlgebraElement:
    """The idempotent for (ctx.m, g), or zero when it degenerates.

    Zero is returned (not raised) when C(m+2g, g) = 0 mod 3 or g > lambda2,
    matching the convention that such elements vanish.  Neither case needs a
    check of its own: by Lucas's theorem the first holds exactly when some
    digit pair is inadmissible, whose factor is zero, and in the second the
    product's lowest term b(g) lies past the truncation.
    """
    return _product(ctx, g)


def build_prefix(
    ctx: AlgebraContext, g: int, t: int, inclusive: bool = True
) -> AlgebraElement:
    """Product of the factors at digit positions u <= t (or u < t).

    The exclusive prefix at t = 0 is the empty product, i.e. the identity.
    """
    _require_position("t", t)
    return _product(ctx, g, t + 1 if inclusive else t)


def factor_sequence_text(ctx: AlgebraContext, g: int) -> str:
    """The non-trivial factors after truncation, e.g. '(b(1) - b(2))(-b(9))'."""
    triples, zeros = _label_factors(ctx, g)
    one = ctx.one()
    parts = []
    for u, coeffs in enumerate(triples[0].tolist()):
        elem = _element(ctx, u, coeffs)
        if elem != one:
            parts.append(f"({elem})")
    parts += ["(0)"] * zeros
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
    _require_position("t", t)
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
