"""Young-module decomposition of two-row permutation modules at p = 3.

The summands of the module for lambda are labelled by mu = (lambda1+g,
lambda2-g) for exactly those g <= lambda2 with C(m+2g, g) != 0 mod 3, each
with multiplicity one, and the idempotent built for (m, g) projects onto the
mu summand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import AlgebraContext, AlgebraElement
from .idempotents import _require_char3, build
from .padic import big_b

__all__ = [
    "SummandRecord",
    "VerificationReport",
    "summands",
    "kostka",
    "verify_complete_set",
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
    """All summand records, ordered by g ascending."""
    _require_char3(ctx)
    out = []
    for g in range(ctx.lambda2 + 1):
        b = big_b(ctx.m, g, 3)
        if b:
            out.append(
                SummandRecord(
                    g=g,
                    mu=(ctx.lambda1 + g, ctx.lambda2 - g),
                    idempotent=build(ctx, g),
                    b_value=b,
                )
            )
    return out


def _require_two_row(lam, mu) -> None:
    """Reject a lambda or mu that is not a two-row partition."""
    for name, part in (("lambda", lam), ("mu", mu)):
        if len(part) != 2 or not (part[0] >= part[1] >= 0):
            raise ValueError(f"{name}={part} is not a two-row partition")


def kostka(lam: tuple[int, int], mu: tuple[int, int], p: int) -> int:
    """Multiplicity (0 or 1) of the mu Young module inside the lambda
    permutation module, for two-row partitions of the same number."""
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


def verify_complete_set(ctx: AlgebraContext) -> VerificationReport:
    """Check that the constructed idempotents are a complete orthogonal set.

    Verifies e^2 = e for each, pairwise products zero, sum equal to the
    identity, and the count identity that certifies primitivity (nonzero
    orthogonal idempotents summing to 1, as many as there are summands).
    """
    _require_char3(ctx)
    records = summands(ctx)
    failures = []

    idem_ok = True
    for rec in records:
        e = rec.idempotent
        if e * e != e:
            idem_ok = False
            failures.append(f"e(g={rec.g}) is not idempotent")

    orth_ok = True
    for i, ra in enumerate(records):
        for rb in records[i + 1 :]:
            if not (ra.idempotent * rb.idempotent).is_zero():
                orth_ok = False
                failures.append(f"e(g={ra.g})*e(g={rb.g}) != 0")

    total = ctx.zero()
    for rec in records:
        total = total + rec.idempotent
    sum_ok = total == ctx.one()
    if not sum_ok:
        failures.append("sum of idempotents != 1")

    expected = sum(1 for g in range(ctx.lambda2 + 1) if big_b(ctx.m, g, 3))
    count_ok = len(records) == expected and all(
        not rec.idempotent.is_zero() for rec in records
    )
    if not count_ok:
        failures.append("summand count / nonzero-idempotent mismatch")

    return VerificationReport(
        context=ctx,
        records=records,
        checks={
            "idempotent": idem_ok,
            "orthogonal": orth_ok,
            "sum_to_one": sum_ok,
            "count_match": count_ok,
        },
        failures=failures,
    )


def two_row_partitions(r: int) -> list[tuple[int, int]]:
    """All partitions of r with at most two parts, largest first."""
    return [(r - k, k) for k in range(r // 2 + 1)]


def partitions_up_to(n: int) -> list[tuple[int, int]]:
    """All two-row partitions with total at most n, ordered by (r, lambda2)."""
    out = []
    for r in range(n + 1):
        out.extend(two_row_partitions(r))
    return out
