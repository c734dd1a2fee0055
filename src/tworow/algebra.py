"""The commutative endomorphism algebra of a two-row permutation module.

For a two-row partition (lambda1, lambda2) the algebra has canonical basis
b(0), ..., b(lambda2) over Z/p, with b(0) the identity and

    b(i)b(j) = sum_{h=max(i,j)}^{i+j} C(h,i) C(h,j) C(m+i+j, i+j-h) b(h),

where m = lambda1 - lambda2 and b(a) = 0 for a > lambda2.  Only m enters the
structure constants; lambda2 sets the truncation.

Almost every structure constant is zero mod p.  Write t = i + j - h, so the
last binomial is C((m+h) + t, t).  By Lucas's theorem C(h,i) C(h,j) is non-zero
mod p only when the base-p digits of i and of j are at most those of h, one
by one.  By Kummer's theorem p divides C((m+h) + t, t) exactly when the base-p
sum (m+h) + t carries somewhere.  Without a carry, Lucas's theorem makes the
constant the product over digit positions u of

    C(h_u, i_u) C(h_u, j_u) C((m+h)_u + t_u, t_u) mod p,

and no factor is zero.  Each context lists its non-zero constants once,
grown digit by digit from the lowest, and every product is a gather and a
reduction over that list.  An element that is itself a product over digits,
as every idempotent is, squares without the list (`factored_squares`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .errors import ContextMismatchError, UnsupportedCharacteristicError
from .padic import _require_prime, digits, lucas_binom

__all__ = [
    "AlgebraContext",
    "AlgebraElement",
    "structure_constant",
    "products",
    "factored_squares",
    "mul",
]


@dataclass(frozen=True)
class AlgebraContext:
    """A two-row partition together with the prime of the ground field."""

    lambda1: int
    lambda2: int
    p: int

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "p"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name}={value!r} is not an integer")
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
        starts[h].  No group is empty: each begins with b(0)b(h) = b(h).

        The entries are those of the digit-wise product in the module
        docstring, grown one base-p position at a time from the lowest.  A
        partial entry holds the low digits of h, i and j, the product of
        their factors, and a state: the carry out of m + h and the borrow out
        of t = i + j - h.  Each position extends every partial entry by the
        steps `_steps` allows from its state.  The digits of lambda2 bound
        those of h, i, j and t, so above them t has no digit and every factor
        is 1.  A borrow out of the top digit would mean i + j < h.
        """
        p, m, n = self.p, self.m, self.lambda2
        positions = max(len(digits(n, p)), 1)
        h = i = j = np.zeros(1, dtype=np.int64)
        state = np.zeros(1, dtype=np.int8)
        c = np.ones(1, dtype=np.int64)
        for u in range(positions):
            scale = p**u
            last = u == positions - 1
            top = n // scale if last else p - 1
            ends, dh, di, dj, out, cs = _steps(p, top, m // scale % p, 4 if u else 1)
            # At the top digit of lambda2 an entry must stop borrowing, and h
            # may take that digit itself only if its lower digits are at most
            # those of lambda2.  Below it every step is allowed.
            cap = top + 1 - (h > n % scale) if last else top + 2
            first = ends[state, 0]
            counts = ends[state, cap] - first
            step = _ranges(first, counts)
            h = np.repeat(h, counts) + scale * dh[step]
            i = np.repeat(i, counts) + scale * di[step]
            j = np.repeat(j, counts) + scale * dj[step]
            c = np.repeat(c, counts) * cs[step] % p
            state = out[step]
        # Drop the last position's scratch: the sort's copies set the peak.
        del first, counts, step, state
        # Entries come out ordered by their steps, lowest digit first, and
        # (dh, 0, dh) leads the steps of each dh, so b(0)b(h) leads its group
        # under a stable sort.
        order = np.argsort(h, kind="stable")
        h = h[order]
        i = i[order]
        j = j[order]
        c = c[order]
        return i, j, c, np.searchsorted(h, np.arange(n + 1))


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges first[k] .. first[k] + counts[k] - 1, one after another."""
    index = np.repeat(first - np.cumsum(counts) + counts, counts)
    index += np.arange(len(index))
    return index


@lru_cache(maxsize=16)
def _steps(p: int, top: int, mu: int, states: int) -> tuple[np.ndarray, ...]:
    """The digit steps of `AlgebraContext._table` at one base-p position.

    At a position where m has digit mu and h has digits up to top, a step
    from a state (carry into m + h, borrow into i + j - h) is a digit triple
    (dh, di, dj) with di, dj <= dh <= top whose digit t of i + j - h adds
    to the digit a of m + h without a carry.  Its factor
    C(dh,di) C(dh,dj) C(a+t, t) mod p is then non-zero.

    A state is 2 * carry + borrow.  Returns the arrays (ends, dh, di, dj,
    out, c), with out the int8 state passed on and the rest int64.  The
    steps from state s < states are rows ends[s, 0]:ends[s, top+2]; those
    that pass on no borrow come first, and those of them with dh < k are
    rows ends[s, 0]:ends[s, k].  Among the steps of one dh, (dh, 0, dh)
    comes first.

    The lowest position asks for the start state alone (states = 1), the
    others for all 4.  The arrays are read-only and depend on these four
    integers alone: at p = 3 there are at most 15 keys, and all of them
    build in under 1 ms.  The cache holds at most 16.  The loops visit
    every digit triple, so at p = 2**31 - 1, where one position holds all
    of lambda2, a cold build takes about 3 ms at lambda2 = 20, 70 ms at 60
    and 2 s at 150.  No command builds an algebra at a prime other than 3.
    """
    steps, ends = [], []
    for state in range(states):
        carry_in, borrow_in = divmod(state, 2)
        marks = []
        for borrow in (0, 1):
            for dh in range(top + 1):
                marks.append(len(steps))
                carry, a = divmod(mu + dh + carry_in, p)
                for di in range(dh + 1):
                    for dj in range(dh + 1):
                        t = di + dj - dh - borrow_in + p * borrow
                        if 0 <= t < p - a:
                            c = comb(dh, di) * comb(dh, dj) * comb(a + t, t) % p
                            steps.append((dh, di, dj, 2 * carry + borrow, c))
        ends.append(marks[: top + 2] + [len(steps)])
    dh, di, dj, out, c = np.array(steps, dtype=np.int64).T.copy()
    tables = (np.array(ends, dtype=np.int64), dh, di, dj, out.astype(np.int8), c)
    for array in tables:
        array.flags.writeable = False
    return tables


def _step_tensors() -> np.ndarray:
    """`_steps(3, 2, mu, 4)` for mu = 0, 1, 2 scattered into a dense int8
    array S, with S[mu, (di, dj), (s, dh, s')] the factor of the step
    (dh, di, dj) from state s to state s', and 0 where no step is allowed.
    """
    dense = np.zeros((3, 3, 3, 4, 3, 4), dtype=np.int8)
    for mu in range(3):
        ends, dh, di, dj, out, c = _steps(3, 2, mu, 4)
        state = np.repeat(np.arange(4), ends[:, -1] - ends[:, 0])
        dense[mu, di, dj, state, dh, out] = c
    dense = dense.reshape(3, 9, 48)
    dense.flags.writeable = False
    return dense


# Formed once at import, so no call of `factored_squares` pays for it and
# the cost of one does not depend on which digits of m came before.
_STEP_TENSORS = _step_tensors()


def factored_squares(ctx: AlgebraContext, factors: np.ndarray) -> np.ndarray:
    """The residue rows of x_k·x_k, as a K × (lambda2 + 1) int8 array, for
    elements of a p = 3 context given as digit products: x_k is the product
    over u < w of sum_d factors[k, u, d] b(d 3^u), truncated, where
    3^w > lambda2 and factors is a K × w × 3 int8 array.  An idempotent's
    factors at u >= w truncate to 1 (`idempotents._factors`), so its w
    lowest factors are all of it.

    No structure constant is formed.  The constant at b(i)b(j) -> b(h) is a
    product over digits of the step factors along a path of states (module
    docstring), so the coefficient of b(h) in x·x is the start state times
    the 4 × 4 matrices M_u(h_u), summed over the states that pass on no
    borrow, where M_u(dh)[s, s'] = sum_{di, dj} f_u[di] f_u[dj] S[(di, dj),
    (s, dh, s')] for f_u = factors[k, u] and S = `_STEP_TENSORS` at the
    digit of m.  Every h is extended by one digit at a time, lowest first, and cut
    at lambda2: a constant at h <= lambda2 needs i, j <= h, so no i or j past
    lambda2 enters.  The cost is O(K · lambda2 · 16) products, all exact in
    int8: M_u sums 9 terms of at most 8, and each extension 4 of at most 4.
    """
    if ctx.p != 3:
        raise UnsupportedCharacteristicError(f"digit-product squares need p=3, got p={ctx.p}")
    m, n = ctx.m, ctx.dim
    k, w, _ = factors.shape
    pairs = (factors[:, :, :, None] * factors[:, :, None, :]).reshape(k, w, 9)
    tensors = _STEP_TENSORS[np.array([m // 3**u % 3 for u in range(w)], dtype=np.intp)]
    # steps[u, k, dh, s, s'] = M_u(dh)[s, s'] for the factors of row k
    steps = (pairs.transpose(1, 0, 2) @ tensors % 3).reshape(w, k, 4, 3, 4).swapaxes(2, 3)
    # paths[k, h, s']: the sum over the paths of the digits of h below u from
    # the start state 0 to s'
    paths = np.zeros((k, 1, 4), dtype=np.int8)
    paths[:, 0, 0] = 1
    for step in steps:
        # [k, dh, h, s'] is h + dh * 3^u in order
        paths = (paths[:, None] @ step % 3).reshape(k, 3 * paths.shape[1], 4)[:, :n]
    # the states 2 * carry + borrow that pass on no borrow: i + j >= h
    return (paths[:, :, 0] + paths[:, :, 2]) % 3


def structure_constant(ctx: AlgebraContext, i: int, j: int, h: int) -> int:
    """The coefficient of b(h) in b(i)b(j), as a residue in [0, p-1]."""
    if max(i, j, h) > ctx.lambda2:
        raise ValueError(
            f"b({i})b({j}) at b({h}): an index is above lambda2={ctx.lambda2}, "
            "where b(a) = 0"
        )
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

    def to_json(self) -> dict:
        ctx = self.context
        return {
            "lambda": [ctx.lambda1, ctx.lambda2],
            "p": ctx.p,
            "coeffs": list(self.coeffs),
        }

    @staticmethod
    def from_json(data: dict) -> "AlgebraElement":
        try:
            lam, p, coeffs = data["lambda"], data["p"], data["coeffs"]
        except (KeyError, TypeError):
            raise ValueError(f"{data!r} does not hold lambda, p and coeffs") from None
        if not isinstance(lam, (list, tuple)) or len(lam) != 2:
            raise ValueError(f"lambda={lam!r} is not a two-row partition")
        if not isinstance(coeffs, (list, tuple)):
            raise ValueError(f"coeffs={coeffs!r} is not a list")
        return AlgebraContext(lam[0], lam[1], p).from_coeffs(coeffs)

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


def products(ctx: AlgebraContext, xs, ys) -> np.ndarray:
    """The residue rows of xs[k]·ys[k], for stacks xs and ys of coefficient
    rows (residues, lambda2 + 1 per row), as a K × (lambda2 + 1) int64 array.

    Each row is one gather and one reduction over the context's table, so no
    K × entries buffer is ever formed.  A term x[i]·y[j]·c is at most
    (p-1)^3, which is 8 at p = 3, so while (p-1)^3 times the number of
    entries fits in int64 the terms and their sums are exact unreduced.  At
    larger p each product is reduced mod p: a residue below p < 2**31 times
    another fits in int64, and the sums stay exact while the table has fewer
    than 2**32 entries.
    """
    p = ctx.p
    i, j, c, starts = ctx._table
    exact = (p - 1) ** 3 * len(c) < 2**63
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    out = np.empty((len(xs), ctx.dim), dtype=np.int64)
    for x, y, row in zip(xs, ys, out):
        terms = x[i] * y[j] * c if exact else c * x[i] % p * y[j] % p
        np.add.reduceat(terms, starts, out=row)
    out %= p
    return out


def mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the algebra, truncating basis indices above lambda2."""
    ctx = x._same_context(y)
    (row,) = products(ctx, [x.coeffs], [y.coeffs])
    return AlgebraElement(ctx, tuple(row.tolist()))
