"""Tests of the benchmark itself, on its smoke sizes:

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from tworow.algebra import AlgebraContext  # noqa: E402
from tworow.decompose import verify_complete_set  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "5", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def per_workload(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    assert len(lines) == len(NAMES) + 1
    return dict(zip(NAMES, map(json.loads, lines)))


@pytest.fixture(scope="module")
def traced():
    proc = run_bench("--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    return per_workload(proc.stdout)


def test_untraced_smoke_reports_every_end_to_end_metric():
    proc = run_bench("--smoke")
    assert proc.returncode == 0, proc.stderr
    for name, result in per_workload(proc.stdout).items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, name
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(v["value"] > 0 for v in result["metrics"].values()), name
    assert proc.stdout.count("fail_ratio") == len(NAMES)


def test_traced_smoke_reports_every_layer_metric(traced):
    for name, result in traced.items():
        assert result["correct"], name
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_idle_layers_show_zero_spans(traced):
    for name in ("verify_sweep", "verify_large"):
        metrics = {k: v["value"] for k, v in traced[name]["metrics"].items()}
        assert metrics["algebra.mul.calls"] > 0
        assert all(v == 0 for k, v in metrics.items() if k.startswith("oracle.")), name
    oracle = {k: v["value"] for k, v in traced["oracle_check"]["metrics"].items()}
    assert oracle["oracle.element_matrix.calls"] > 0 and oracle["oracle.divided.calls"] > 0
    assert oracle["decompose.verify.s"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--smoke", root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_self_time_excludes_direct_children():
    doc = {
        "names": ["decompose.verify", "decompose.summands", "idempotents.build", "algebra.mul"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1], [3, 2.5, 2.75, 2],
                  [3, 5.0, 6.0, 0]],
        "counts": {"algebra.mul.pairs": 7},
    }
    out = tracer.layer_metrics(doc)
    assert out["decompose.verify.s"] == 6.0
    assert out["decompose.summands.s"] == 2.0
    assert out["idempotents.build.s"] == 0.75
    assert out["algebra.mul.calls"] == 2 and out["algebra.mul.s"] == 1.25
    assert out["algebra.mul.pairs"] == 7 and out["oracle.divided.calls"] == 0


def test_wrong_outputs_are_caught():
    expected = json.loads(workloads.DIGESTS.read_text())["verify"]
    report = verify_complete_set(AlgebraContext(9, 4, 3))
    assert workloads.verify_problem(9, 4, report, expected) is None
    tampered = dict(expected, **{workloads.idempotent_key(9, 4): "0" * 16})
    assert "digest" in workloads.verify_problem(9, 4, report, tampered)
    report.records.pop()
    assert "exact" in workloads.verify_problem(9, 4, report, expected)


def test_large_inputs_depend_on_the_seed_only_above_the_low_digits():
    a = workloads.make_inputs("verify_large", 1, smoke=False)
    b = workloads.make_inputs("verify_large", 2, smoke=False)
    assert a == workloads.make_inputs("verify_large", 1, smoke=False) and a["m"] != b["m"]
    for m in a["m"] + b["m"]:
        assert 3**10 <= m < 3**11 and m % workloads.LOW_DIGITS == workloads.LARGE_RESIDUE
