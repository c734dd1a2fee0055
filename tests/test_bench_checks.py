"""The benchmark's output checks (bench/workloads.py) compare each verify
report with the exact C(m+2g, g) labels and with an idempotent digest
recorded in bench/digests.json.  A change to the records that those checks
refuse would fail every benchmark run, so tier-1 runs them on a few
contexts.  The workloads module is loaded from its file and not changed."""

import importlib.util
import json
from pathlib import Path

import pytest

from tworow.algebra import AlgebraContext
from tworow.decompose import verify_complete_set

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
EXPECTED = json.loads(workloads.DIGESTS.read_text())["verify"]
LARGE = workloads.make_inputs("verify_large", 1, smoke=True)["contexts"]


@pytest.mark.parametrize("l1, l2", [(0, 0), (9, 0), (4, 2), (36, 13), (70, 30), (50, 50), *LARGE])
def test_verify_report_passes_the_benchmark_checks(l1, l2):
    report = verify_complete_set(AlgebraContext(l1, l2, 3))
    assert workloads.verify_problem(l1, l2, report, EXPECTED) is None
