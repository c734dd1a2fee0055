"""The benchmark's workloads: inputs drawn from a seed, the timed calls into
tworow's public functions, and output checks that do not reuse tworow code.

Every verify output is checked three ways: the report's own checks pass; the
summand labels g equal those with C(m+2g, g) != 0 mod 3, computed with exact
big-integer binomials; and the idempotent coefficient vectors hash to the
digest recorded in digests.json.  The oracle report must hash to its
recorded digest as well.

Digests are keyed by (m mod 3^6, lambda2).  For lambda2 < 365 every index
i + j and every binomial C(m+i+j, k) or C(m+2g, g) the algebra uses has
k < 3^6, so by Lucas's theorem the structure constants, the summands and the
idempotents depend on m only through its six lowest base-3 digits.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from math import comb
from pathlib import Path
from time import perf_counter

DIGESTS = Path(__file__).resolve().parent / "digests.json"
LOW_DIGITS = 3**6
_LAMBDA = re.compile(r"lambda=\(\d+, \d+\)")

# verify_large: m = 3^6 * q + LARGE_RESIDUE with q drawn from the seed, so m
# lies in [3^10, 3^11).  The residue and lambda2 values are fixed because cost
# varies about 10x with the low digits of m and steeply with lambda2; the
# high digits change no product, no summand and no cost (see module doc).
LARGE_RESIDUE = 0
LARGE_Q = range(3**10 // LOW_DIGITS, 3**11 // LOW_DIGITS)

SIZES = {
    # workload: (full size, smoke size)
    "verify_sweep": ({"r_max": 100}, {"r_max": 20}),
    "verify_large": ({"ms": 2, "lambda2": [128, 150]}, {"ms": 1, "lambda2": [128]}),
    "oracle_check": ({"r_max": 12}, {"r_max": 6}),
}


def partitions(r_max: int) -> list[tuple[int, int]]:
    """All two-row partitions with r <= r_max, in the order `tworow verify` uses."""
    return [(r - k, k) for r in range(r_max + 1) for k in range(r // 2 + 1)]


def make_inputs(workload: str, seed: int, smoke: bool) -> dict:
    size = SIZES[workload][smoke]
    if workload == "verify_sweep":
        return {"contexts": partitions(size["r_max"])}
    if workload == "verify_large":
        qs = random.Random(seed).sample(LARGE_Q, size["ms"])
        ms = [LOW_DIGITS * q + LARGE_RESIDUE for q in qs]
        return {"contexts": [(m + l2, l2) for m in ms for l2 in size["lambda2"]], "m": ms}
    return {"r_max": size["r_max"]}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def idempotent_key(l1: int, l2: int) -> str:
    return f"{(l1 - l2) % LOW_DIGITS},{l2}"


def idempotent_digest(records) -> str:
    return digest([[rec.g, list(rec.idempotent.coeffs)] for rec in records])


def verify_problem(l1: int, l2: int, report, expected: dict) -> str | None:
    """Why one verify report is wrong, or None when it is right."""
    if not report.ok:
        return f"lambda=({l1},{l2}): report failed: {report.failures[:3]}"
    m = l1 - l2
    labels = [g for g in range(l2 + 1) if comb(m + 2 * g, g) % 3]
    if [rec.g for rec in report.records] != labels:
        return f"lambda=({l1},{l2}): summands differ from the exact C(m+2g,g) mod 3 count"
    if idempotent_digest(report.records) != expected.get(idempotent_key(l1, l2)):
        return f"lambda=({l1},{l2}): idempotent digest differs from the recorded one"
    return None


def run_verify(contexts, expected: dict) -> dict:
    """Time verify_complete_set on each context; check each outside the timer."""
    import tworow.decompose as decompose
    from tworow.algebra import AlgebraContext

    item_s, problems = [], []
    for l1, l2 in contexts:
        start = perf_counter()
        report = decompose.verify_complete_set(AlgebraContext(l1, l2, 3))
        item_s.append(perf_counter() - start)
        problem = verify_problem(l1, l2, report, expected)
        del report
        if problem:
            problems.append(problem)
    return {
        "item_s": item_s,
        "wall_s": sum(item_s),
        "failed": len(problems),
        "problems": problems[:10],
    }


class _MarkedList(list):
    """A list that timestamps each element as it is iterated."""

    marks: list

    def __iter__(self):
        for item in list.__iter__(self):
            self.marks.append((perf_counter(), item))
            yield item


def _mark_partitions(oracle, marks: list) -> None:
    """Timestamp each partition the oracle checks iterate, and each check's end.

    cross_validate is one call, so per-partition times come from these
    marks: a partition's time runs from its mark to the next one.
    """
    def listing(fn):
        def wrapper(*args):
            out = _MarkedList(fn(*args))
            out.marks = marks
            return out
        return wrapper

    def ending(fn):
        def wrapper(*args):
            try:
                return fn(*args)
            finally:
                marks.append((perf_counter(), None))
        return wrapper

    for name in ("two_row_partitions", "partitions_up_to"):
        if hasattr(oracle, name):
            setattr(oracle, name, listing(getattr(oracle, name)))
    for name in dir(oracle):
        if name.startswith("check_"):
            setattr(oracle, name, ending(getattr(oracle, name)))


def run_oracle(r_max: int, expected: dict) -> dict:
    import tworow.oracle as oracle

    marks: list = []
    _mark_partitions(oracle, marks)
    start = perf_counter()
    report = oracle.cross_validate(r_max)
    wall_s = perf_counter() - start

    per_partition: dict = {}
    for (t0, lam), (t1, _) in zip(marks, marks[1:]):
        if lam is not None:
            per_partition[lam] = per_partition.get(lam, 0.0) + t1 - t0
    if sorted(per_partition) != sorted(partitions(r_max)):
        raise RuntimeError("could not see the partition boundaries inside cross_validate")

    problems = list(report.failures)
    if report.ok and digest(report.to_json()) != expected.get(str(r_max)):
        problems.append("oracle report digest differs from the recorded one")
    named = {m.group(0) for m in map(_LAMBDA.match, report.failures) if m}
    failed = len(named) or (len(per_partition) if problems else 0)
    return {
        "item_s": list(per_partition.values()),
        "wall_s": wall_s,
        "failed": failed,
        "problems": problems[:10],
    }


def run(workload: str, inputs: dict) -> dict:
    expected = json.loads(DIGESTS.read_text())
    if workload == "oracle_check":
        return run_oracle(inputs["r_max"], expected["oracle"])
    return run_verify(inputs["contexts"], expected["verify"])
