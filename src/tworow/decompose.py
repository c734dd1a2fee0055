"""Young-module decomposition of two-row permutation modules at p = 3.

The summands of the module for lambda are labelled by mu = (lambda1+g,
lambda2-g) for exactly those g <= lambda2 with C(m+2g, g) != 0 mod 3, each
with multiplicity one, and the idempotent built for (m, g) projects onto the
mu summand.

The characters chi_k(b(i)) = C(k,i) C(m+k+i, i), k = 0..lambda2, are ring
maps of the algebra over Z; their table is triangular with non-zero diagonal,
so the algebra sits inside Z^(lambda2+1), and by lying-over every maximal
ideal mod 3 is the kernel of some chi_k mod 3.  Hence an idempotent is zero
exactly when every chi_k kills it, and the characters certify orthogonality,
primitivity and the labels without multiplying idempotents pairwise.  Being
ring maps, they are fixed by their values at the generators b(3^u) and
b(2*3^u), and the table is the digit expansion of those values, formed as the
idempotents are (`idempotents._expand`).

Truncation to b(0..l) is a ring map sending 1 to 1, so for l <= L the
structure constants, each idempotent and the character table of (m+l, l) are
those of (m+L, L) cut to l+1 coefficients (the table to its top-left block),
and `verify_family` forms the squares, the sum and the table once per m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraContext, AlgebraElement, factored_squares, products
from .idempotents import _BINOM3, _POWERS, _expand, _factors, _require_char3, _width
from .padic import _require_natural, _require_prime, big_b

__all__ = [
    "SummandRecord",
    "VerificationReport",
    "summands",
    "kostka",
    "verify_complete_set",
    "verify_family",
    "character_table",
    "character_certificate",
    "two_row_partitions",
    "partitions_up_to",
]


@dataclass(frozen=True)
class SummandRecord:
    """One indecomposable summand: its label mu and projecting idempotent."""

    g: int
    mu: tuple[int, int]
    idempotent: AlgebraElement
    b_value: int

    def to_json(self) -> dict:
        return {
            "g": self.g,
            "mu": list(self.mu),
            "B": self.b_value,
            "idempotent": list(self.idempotent.coeffs),
        }


def summands(ctx: AlgebraContext) -> list[SummandRecord]:
    """All summand records, ordered by g ascending: the g <= lambda2 with
    B = C(m+2g, g) != 0 mod 3, their factors formed and expanded at once."""
    _require_char3(ctx)
    triples, b_values = _factors(ctx.m, _width(ctx.lambda2), np.arange(ctx.dim))
    (gs,) = np.nonzero(b_values)
    rows = _expand(triples[gs], ctx.dim)
    return [
        SummandRecord(
            g=g,
            mu=(ctx.lambda1 + g, ctx.lambda2 - g),
            idempotent=AlgebraElement(ctx, tuple(row.tolist())),
            b_value=b,
        )
        for g, b, row in zip(gs.tolist(), b_values[gs].tolist(), rows)
    ]


def _require_two_row(lam, mu) -> None:
    """Reject a lambda or mu that is not a two-row partition."""
    for name, part in (("lambda", lam), ("mu", mu)):
        for value in part:
            if type(value) is not int:
                raise ValueError(f"{name}={part} has a part {value!r} that is not an integer")
        if len(part) != 2 or not (part[0] >= part[1] >= 0):
            raise ValueError(f"{name}={part} is not a two-row partition")


def kostka(lam: tuple[int, int], mu: tuple[int, int], p: int) -> int:
    """Multiplicity (0 or 1) of the mu Young module inside the lambda
    permutation module, for two-row partitions of the same number."""
    _require_prime(p)
    _require_two_row(lam, mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"{lam} and {mu} are partitions of different numbers")
    if mu[1] > lam[1]:
        return 0
    return 1 if big_b(lam[0] - lam[1], lam[1] - mu[1], p) else 0


@dataclass
class VerificationReport:
    """Outcome of the complete-set verification for one context.

    Mathematical failures land in `checks` and `failures`, never exceptions,
    so sweeps can aggregate counterexamples.
    """

    context: AlgebraContext
    records: list[SummandRecord]
    checks: dict[str, bool]
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "lambda": [self.context.lambda1, self.context.lambda2],
            "p": self.context.p,
            "summands": [rec.to_json() for rec in self.records],
            "checks": dict(self.checks),
        }


def character_table(m: int, lambda2: int) -> np.ndarray:
    """X[k, i] = chi_k(b(i)) = C(k, i) C(m+k+i, i) mod 3 for k, i <= lambda2,
    as an int8 lower-triangular matrix.

    b(i) is the product of the b(i_u 3^u) over the base-3 positions u (the
    digit-disjoint rule of `idempotents`), and chi_k is a ring map, so row k
    is the digit expansion of chi_k's values at the generators b(d 3^u),
    d = 1, 2, u < w = `_width(lambda2)`.  By Lucas those are
    V[k, u, d] = C(k_u, d) C((m+k+d 3^u)_u, d) mod 3, which read only m mod
    3^w, and d = 0 gives chi_k(1) = 1.
    """
    _require_natural(m=m, lambda2=lambda2)
    n, w = lambda2 + 1, _width(lambda2)
    k = np.arange(n)[:, None, None]
    powers = _POWERS[:w, None]
    d = np.arange(3)
    total = (m % 3**w + k + d * powers) // powers % 3
    return _expand(_BINOM3[k // powers % 3, d] * _BINOM3[total, d] % 3, n)


def character_certificate(values: np.ndarray, distinct: int, gs: list[int],
                          squares_ok: bool) -> tuple[list[str], list[str]]:
    """The orthogonality and the count/label failures of the idempotents
    e(g), g in `gs`, read off values = X E mod 3, where X is the character
    table, column g of E is e(g), and X has `distinct` distinct rows.

    With every e(g) idempotent, each chi_k(e(g)) is 0 or 1, and the support
    S_g of column g meets S_h exactly when e(g)e(h) != 0, so orthogonality is
    at most one 1 per row (a row without one has chi_k(sum) = 0, which the
    sum check catches).  There are as many primitive idempotents as maximal
    ideals, i.e. as distinct rows of X.  chi_k is the character of the Specht
    factor (lambda1+k, lambda2-k), and the least dominant factor of the Young
    module Y^mu is mu itself, so the label of e(g) is min S_g.
    """
    if not squares_ok:
        orthogonal = ["orthogonality not certified: an e(g) is not idempotent"]
    elif values.max() > 1:
        orthogonal = ["a character takes the value 2 on an idempotent"]
    else:
        # more than one 1 in a row: those idempotents share a character
        shared = values[values.sum(axis=1) > 1]
        orthogonal = []
        if len(shared):
            pairs = zip(*np.nonzero(np.triu(shared.T @ shared, 1)))
            orthogonal = [f"e(g={gs[a]})*e(g={gs[b]}) != 0" for a, b in pairs]

    nonzero = values.any(axis=0)
    count = []
    if distinct != len(gs) or not nonzero.all():
        count.append("summand count / nonzero-idempotent mismatch")
    lowest = (values != 0).argmax(axis=0)
    count += [f"e(g={g}) has lowest character chi_{k}, not chi_{g}"
              for g, k, seen in zip(gs, lowest.tolist(), nonzero.tolist()) if seen and k != g]
    return orthogonal, count


def _squares(ctx: AlgebraContext, gs: list[int], coeffs: np.ndarray) -> np.ndarray:
    """The residue rows of e·e for the rows e of coeffs, the records'
    idempotents e(g), g in gs.

    A row that equals the expansion of the factors of its label is a digit
    product, so `factored_squares` squares it from those factors.  Any other
    row, such as a record that was changed after it was built, is squared by
    `products` instead.
    """
    triples, _ = _factors(ctx.m, _width(ctx.lambda2), np.array(gs, dtype=np.int64))
    squares = factored_squares(ctx, triples)
    changed = (_expand(triples, ctx.dim) != coeffs).any(axis=1)
    if changed.any():
        squares[changed] = products(ctx, coeffs[changed], coeffs[changed])
    return squares


def _reports(ctx: AlgebraContext, rungs) -> list[VerificationReport]:
    """Reports of the truncations (ctx.m + l, l) of ctx for l in rungs.

    The squares, the sums totals[k] of the first k idempotents, the character
    values V = X E mod 3 and the count distinct[j] of distinct rows among
    X[:j+1] are formed once, at ctx, and rung l reads their prefixes.  This is
    exact for any records: X is lower triangular (C(k, i) = 0 for i > k), so
    V[:n, :k] = X[:n, :n] E[:k, :n]^T, and as row j of X is zero past column
    j, two rows of X[:n, :n] are equal exactly when the full rows are.
    """
    records = summands(ctx)
    gs = [rec.g for rec in records]
    # entries of X and E are at most 2, so each int32 sum of V is at most 4(lambda2+1)
    coeffs = np.array([rec.idempotent.coeffs for rec in records], dtype=np.int32)
    squares = _squares(ctx, gs, coeffs)
    totals = np.zeros((len(coeffs) + 1, ctx.dim), dtype=np.int32)
    np.cumsum(coeffs, axis=0, out=totals[1:])
    totals %= 3
    table = character_table(ctx.m, ctx.lambda2)
    values = table @ coeffs.T % 3
    rows, distinct = set(), []
    for row in map(bytes, table):
        rows.add(row)
        distinct.append(len(rows))
    reports = []
    for l in rungs:
        n, rung, kept = l + 1, ctx, records
        if l != ctx.lambda2:
            rung = AlgebraContext(ctx.m + l, l, 3)
            kept = [SummandRecord(rec.g, (rung.lambda1 + rec.g, l - rec.g),
                                  AlgebraElement(rung, rec.idempotent.coeffs[:n]), rec.b_value)
                    for rec in records if rec.g <= l]
        k = len(kept)
        square_ok = (squares[:k, :n] == coeffs[:k, :n]).all(axis=1).tolist()
        failures = [f"e(g={g}) is not idempotent" for g, ok in zip(gs, square_ok) if not ok]
        orthogonal, count = character_certificate(values[:n, :k], distinct[l], gs[:k],
                                                  not failures)
        sum_ok = totals[k, :n].tolist() == [1] + [0] * l
        failures += orthogonal + ([] if sum_ok else ["sum of idempotents != 1"]) + count
        checks = {"idempotent": all(square_ok), "orthogonal": not orthogonal,
                  "sum_to_one": sum_ok, "count_match": not count}
        reports.append(VerificationReport(rung, kept, checks, failures))
    return reports


def verify_complete_set(ctx: AlgebraContext) -> VerificationReport:
    """Check that the constructed idempotents are a complete set of primitive
    orthogonal idempotents, each with its Young-module label.

    The squares e^2 = e are checked by `_squares` and the sum 1 by adding the
    records, and orthogonality, primitivity and the labels by
    `character_certificate`, which cannot decide orthogonality unless every
    square holds.
    """
    return _reports(ctx, [ctx.lambda2])[0]


def verify_family(m: int, top: int) -> list[VerificationReport]:
    """The `verify_complete_set` reports of (m+l, l) for l = 0..top, in order
    of l, all read off the one context (m+top, top) by truncation."""
    _require_natural(m=m, top=top)
    return _reports(AlgebraContext(m + top, top, 3), range(top + 1))


def two_row_partitions(r: int) -> list[tuple[int, int]]:
    """All partitions of r with at most two parts, largest first."""
    _require_natural(r=r)
    return [(r - k, k) for k in range(r // 2 + 1)]


def partitions_up_to(n: int) -> list[tuple[int, int]]:
    """All two-row partitions with total at most n, ordered by (r, lambda2)."""
    _require_natural(n=n)
    out = []
    for r in range(n + 1):
        out.extend(two_row_partitions(r))
    return out
