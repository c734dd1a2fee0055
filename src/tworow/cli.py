"""Command-line front end.

Subcommands:
    decompose     summands of one permutation module
    idempotent    print/export a single idempotent
    verify        complete-set verification sweep over all lambda up to a size
    kostka-table  CSV table of two-row multiplicities
    oracle-check  tensor-space cross-validation
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .algebra import AlgebraContext
from .decompose import (
    kostka,
    summands,
    two_row_partitions,
    verify_family,
)
from .errors import InvalidPrimeError
from .idempotents import build, factor_sequence_text
from .oracle import cross_validate
from .padic import _require_prime, big_b

__all__ = ["main"]


# Failing partitions that `verify` lists in full; the rest are only counted.
_MAX_REPORTED = 10
# The largest lambda2 accepted, in a verify sweep too; m is unbounded (README).
_MAX_LAMBDA2 = 10**4
# The largest oracle-check --max-r: memory doubles with each r past it (README).
_MAX_ORACLE_R = 16


def _partition(text: str) -> tuple[int, int]:
    try:
        l1, l2 = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers, got {text!r}"
        )
    if not (l1 >= l2 >= 0):
        raise argparse.ArgumentTypeError(
            f"({l1},{l2}) is not a partition: need lambda1 >= lambda2 >= 0"
        )
    if l2 > _MAX_LAMBDA2:
        raise argparse.ArgumentTypeError(f"lambda2={l2} is above the bound {_MAX_LAMBDA2}")
    return l1, l2


def _integer(low: int, high: float = float("inf")):
    """Argument type: an integer in [low, high]."""
    def parse(text: str) -> int:
        try:
            if low <= int(text) <= high:
                return int(text)
        except ValueError:
            pass
        bound = f">= {low}" if high == float("inf") else f"in [{low}, {high}]"
        raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {text!r}")

    return parse


def _prime(text: str) -> int:
    try:
        return _require_prime(_integer(2)(text))
    except InvalidPrimeError as err:
        raise argparse.ArgumentTypeError(str(err))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworow",
        description="Idempotent decompositions of two-row permutation modules at p=3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="list the Young-module summands of M^lambda")
    dec.add_argument("--lambda", dest="lam", type=_partition, required=True,
                     metavar="L1,L2")
    dec.add_argument("--json", action="store_true")

    idm = sub.add_parser("idempotent", help="print one idempotent e_{m,g}")
    idm.add_argument("--lambda", dest="lam", type=_partition, required=True,
                     metavar="L1,L2")
    idm.add_argument("--g", type=_integer(0), required=True)
    idm.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="complete-set verification sweep")
    ver.add_argument("--max-r", type=_integer(0, 2 * _MAX_LAMBDA2), default=60)

    kos = sub.add_parser("kostka-table", help="CSV of two-row p-Kostka numbers")
    kos.add_argument("--max-r", type=_integer(0), required=True)
    kos.add_argument("--p", type=_prime, default=3)

    orc = sub.add_parser("oracle-check", help="tensor-space cross-validation")
    orc.add_argument("--max-r", type=_integer(0, _MAX_ORACLE_R), default=8)

    return parser


def _cmd_decompose(args) -> int:
    l1, l2 = args.lam
    ctx = AlgebraContext(l1, l2, 3)
    recs = summands(ctx)
    if args.json:
        payload = {
            "lambda": [l1, l2],
            "p": 3,
            "summands": [rec.to_json() for rec in recs],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"M^({l1},{l2}) = direct sum of {len(recs)} Young modules (p=3, m={ctx.m}):")
    for rec in recs:
        print(
            f"  g={rec.g:<3d} mu=({rec.mu[0]},{rec.mu[1]})"
            f"  B={rec.b_value}  e_{{{ctx.m},{rec.g}}} = {rec.idempotent}"
        )
    return 0


def _cmd_idempotent(args) -> int:
    l1, l2 = args.lam
    g = args.g
    ctx = AlgebraContext(l1, l2, 3)
    elem = build(ctx, g)
    if args.json:
        print(json.dumps(elem.to_json()))
        return 0
    m = ctx.m
    if g > l2:
        print(f"g={g} exceeds lambda2={l2}, so e_{{{m},{g}}} = 0 in this algebra")
        return 0
    if big_b(m, g, 3) == 0:
        print(
            f"C({m + 2 * g},{g}) is divisible by 3, so e_{{{m},{g}}} = 0 "
            f"and ({l1 + g},{l2 - g}) is not a summand of M^({l1},{l2})"
        )
        return 0
    print(f"factors: {factor_sequence_text(ctx, g)}")
    print(f"e_{{{m},{g}}} = {elem}")
    return 0


def _cmd_verify(args) -> int:
    results = []
    for m in range(args.max_r + 1):
        for report in verify_family(m, (args.max_r - m) // 2):
            ctx = report.context
            results.append(((ctx.lambda1, ctx.lambda2), report.ok, report.failures))
    results.sort(key=lambda item: (sum(item[0]), item[0][1]))
    bad = [item for item in results if not item[1]]
    print(f"verified {len(results)} partitions with r <= {args.max_r}")
    if bad:
        more = f"; the first {_MAX_REPORTED}" if len(bad) > _MAX_REPORTED else ""
        print(f"FAIL: {len(bad)} partitions failed{more}:")
        for lam, _, failures in bad[:_MAX_REPORTED]:
            print(f"lambda={lam}:")
            for line in failures:
                print(f"  {line}")
        return 1
    print("PASS: complete orthogonal idempotent sets everywhere")
    return 0


def _cmd_kostka(args) -> int:
    writer = csv.writer(sys.stdout)
    print("# kostka-table v1: lambda1,lambda2,mu1,mu2,kostka")
    for r in range(args.max_r + 1):
        parts = two_row_partitions(r)
        for lam in parts:
            for mu in parts:
                writer.writerow([lam[0], lam[1], mu[0], mu[1], kostka(lam, mu, args.p)])
    return 0


def _cmd_oracle(args) -> int:
    report = cross_validate(args.max_r)
    for name, passed in report.checks.items():
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    for line in report.failures:
        print(f"  {line}")
    print(f"oracle-check r <= {report.r_max}: {'PASS' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "decompose": _cmd_decompose,
        "idempotent": _cmd_idempotent,
        "verify": _cmd_verify,
        "kostka-table": _cmd_kostka,
        "oracle-check": _cmd_oracle,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
