"""In-memory span tracer for one benchmark repetition, and the analysis of
the spans it writes out.

`Tracer.install` puts wrappers from this file around tworow's public
functions.  A wrapper is bound at every module-level name under which tworow
code looks the function up (for example `tworow.decompose.build` and
`tworow.oracle.build`), so calls between modules pass through it.  Each
wrapped call records a span (name, start, end, parent); the p-adic functions
run millions of times, so they are counted, not spanned.  `layer_metrics`
turns the written spans into per-layer calls, self times and work counts.
"""

from __future__ import annotations

import importlib
import json
import sys
import weakref
from collections import Counter
from time import perf_counter

# (span name, defining module, function name)
SPANNED = (
    ("algebra.mul", "tworow.algebra", "mul"),
    ("idempotents.build", "tworow.idempotents", "build"),
    ("decompose.summands", "tworow.decompose", "summands"),
    ("decompose.verify", "tworow.decompose", "verify_complete_set"),
    ("oracle.divided", "tworow.oracle", "divided_e"),
    ("oracle.divided", "tworow.oracle", "divided_f"),
    ("oracle.realize_b", "tworow.oracle", "realize_b"),
    ("oracle.element_matrix", "tworow.oracle", "element_matrix"),
    ("oracle.check.basis_products", "tworow.oracle", "check_basis_products"),
    ("oracle.check.idempotent_matrices", "tworow.oracle", "check_idempotent_matrices"),
    ("oracle.check.j_commutation", "tworow.oracle", "check_j_commutation"),
    ("oracle.check.specht_labels", "tworow.oracle", "check_specht_labels"),
)
COUNTED = (
    ("padic.lucas_binom", "tworow.padic", "lucas_binom"),
    ("padic.big_b", "tworow.padic", "big_b"),
)
ORACLE_CHECKS = tuple(name for name, _, _ in SPANNED if name.startswith("oracle.check."))

# Work counts that must repeat exactly between two traced runs of one input.
EXACT_COUNTS = (
    "padic.lucas_binom.calls",
    "padic.big_b.calls",
    "algebra.context.calls",
    "algebra.mul.calls",
    "algebra.mul.pairs",
    "idempotents.build.calls",
    "oracle.divided.calls",
    "oracle.realize_b.calls",
    "oracle.element_matrix.calls",
    "oracle.element_matrix.cells",
)


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name id, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # id(context) -> weak reference, to spot the first product in each
        # fresh context without keeping contexts (and their caches) alive.
        self._seen: dict[int, weakref.ref] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _record(self, name_id: int, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = [name_id, start, end, parent]

    def spanned(self, name: str, fn):
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            return self._record(name_id, fn, args, kwargs)

        return wrapper

    def counted(self, name: str, fn):
        key, counts = f"{name}.calls", self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul(self, fn):
        plain, first = self._name_id("algebra.mul"), self._name_id("algebra.mul.first")
        counts, seen = self.counts, self._seen

        def wrapper(x, y):
            counts["algebra.mul.pairs"] += len(x.support()) * len(y.support())
            ctx = x.context
            ref = seen.get(id(ctx))
            is_first = ref is None or ref() is not ctx
            if is_first:
                seen[id(ctx)] = weakref.ref(ctx)
            return self._record(first if is_first else plain, fn, (x, y), {})

        return wrapper

    def _element_matrix(self, fn):
        name_id, counts = self._name_id("oracle.element_matrix"), self.counts

        def wrapper(x):
            mat = self._record(name_id, fn, (x,), {})
            counts["oracle.element_matrix.cells"] += mat.shape[0] * mat.shape[1]
            return mat

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every tworow name bound to it."""
        from tworow.algebra import AlgebraContext

        special = {"algebra.mul": self._mul, "oracle.element_matrix": self._element_matrix}
        for name, module, attr in SPANNED:
            fn = getattr(importlib.import_module(module), attr)
            make = special.get(name)
            _rebind(fn, make(fn) if make else self.spanned(name, fn))
        for name, module, attr in COUNTED:
            fn = getattr(importlib.import_module(module), attr)
            _rebind(fn, self.counted(name, fn))
        AlgebraContext.__init__ = self.spanned("algebra.context", AlgebraContext.__init__)

    def dump(self, path) -> None:
        doc = {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _rebind(original, wrapper) -> None:
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "tworow" and not mod_name.startswith("tworow."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"{original.__qualname__} is bound under no tworow name")


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer calls, self times (s) and work counts from a dumped trace.

    A span's self time is its duration minus the durations of its direct
    children; spans nest, since the traced program is single-threaded.
    """
    names, spans, counts = doc["names"], doc["spans"], Counter(doc["counts"])
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own = Counter(), Counter(), Counter()
    for index, (name_id, start, end, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[index]

    def mul(table):
        return table["algebra.mul"] + table["algebra.mul.first"]

    out = {
        "padic.lucas_binom.calls": counts["padic.lucas_binom.calls"],
        "padic.big_b.calls": counts["padic.big_b.calls"],
        "algebra.context.calls": calls["algebra.context"],
        "algebra.context.s": own["algebra.context"],
        "algebra.mul.first_s": total["algebra.mul.first"],
        "algebra.mul.calls": mul(calls),
        "algebra.mul.s": mul(own),
        "algebra.mul.pairs": counts["algebra.mul.pairs"],
        "idempotents.build.calls": calls["idempotents.build"],
        "idempotents.build.s": own["idempotents.build"],
        "decompose.summands.s": own["decompose.summands"],
        "decompose.verify.s": own["decompose.verify"],
        "oracle.checks.self_s": sum(own[name] for name in ORACLE_CHECKS),
    }
    for layer in ("oracle.divided", "oracle.realize_b", "oracle.element_matrix"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.s"] = own[layer]
    cells = counts["oracle.element_matrix.cells"]
    out["oracle.element_matrix.cells"] = cells
    # Computed, not measured: the int64 result matrices written.
    out["oracle.element_matrix.bytes"] = 8 * cells
    for name in ORACLE_CHECKS:
        out[f"{name}.s"] = total[name]
    return out
