"""tworow benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --smoke --trace 1

Run from the root of a checkout.  Each repetition of a workload runs in a
fresh interpreter (bench/rep.py), so tworow's module caches start cold as in
a CLI call, with BLAS threads capped at the number of usable CPUs.
Repetitions continue until --seconds have passed (at least three), and each
metric is the median over them; set-up is also sampled in set-up-only
processes.  With --trace 1 the repetitions alternate traced and untraced, and
the per-layer metrics come from the traced ones (at least two, whose work
counts must agree exactly).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The workloads, metrics and bounds are those
declared in BENCHMARK.json; README.md in this directory says what each
per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "tworow-bench"
sys.path.insert(0, str(BENCH))

from tracer import EXACT_COUNTS, layer_metrics  # noqa: E402

MIN_REPS = 3
SETUP_SAMPLES = 9
REP_TIMEOUT_S = 60
# Stop starting repetitions after this long, so a slow machine still ends
# well inside the 180 s a run may take.
RUN_CAP_S = 100


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tworow" / "__init__.py").is_file():
        raise BenchError(f"no tworow sources under {ROOT / 'src'}")
    return json.loads(path.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(spec: dict) -> dict:
    spec = dict(spec, t_spawn=time.monotonic())
    proc = subprocess.run(
        [sys.executable, "-I", str(BENCH / "rep.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"repetition of {spec['workload']} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def traced_rep(base: dict) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{base['workload']}-{os.getpid()}.json"
    rep = spawn(dict(base, trace=True, spans_path=str(path)))
    try:
        rep["layers"] = layer_metrics(json.loads(path.read_text()))
    finally:
        path.unlink(missing_ok=True)
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    base = {"workload": workload, "seed": seed, "smoke": smoke, "trace": False,
            "setup_only": False, "spans_path": None}
    need = {"plain": 1 if trace or smoke else MIN_REPS, "traced": 2 if trace else 0}
    reps = {"plain": [], "traced": []}
    durations = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        short = [kind for kind in ("traced", "plain") if len(reps[kind]) < need[kind]]
        if not short and (smoke or elapsed > RUN_CAP_S
                          or elapsed + statistics.median(durations) > seconds):
            break
        if short:
            kind = short[0]
        else:  # alternate, so both kinds see the same machine load
            kind = "plain" if len(reps["traced"]) > len(reps["plain"]) or not trace else "traced"
        t0 = time.monotonic()
        reps[kind].append(traced_rep(base) if kind == "traced" else spawn(base))
        durations.append(time.monotonic() - t0)

    setup = [rep["setup_s"] for rep in reps["plain"]]
    while not (trace or smoke) and len(setup) < SETUP_SAMPLES:
        setup.append(spawn(dict(base, setup_only=True))["setup_s"])
    if trace:
        check_counts_repeat(workload, reps["traced"])
    return {"workload": workload, "reps": reps, "setup": setup, "elapsed_s": time.monotonic() - start}


def check_counts_repeat(workload: str, traced: list[dict]) -> None:
    first = {key: traced[0]["layers"][key] for key in EXACT_COUNTS}
    for rep in traced[1:]:
        other = {key: rep["layers"][key] for key in EXACT_COUNTS}
        if other != first:
            diff = {k: (first[k], other[k]) for k in EXACT_COUNTS if first[k] != other[k]}
            raise BenchError(f"{workload}: work counts differ between traced runs: {diff}")


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n items beyond it, or 100."""
    for q in (99.9, 99, 95, 90, 75):
        if n * (1 - q / 100) >= 10:
            return q
    return 100.0


def end_to_end(run: dict) -> dict[str, float]:
    plain = run["reps"]["plain"]
    # Each item's median over the repetitions, so that one slow repetition
    # of an item does not reorder the items the percentiles fall between.
    items = sorted(statistics.median(times) for times in zip(*(rep["item_s"] for rep in plain)))
    return {
        "setup_s": statistics.median(run["setup"]),
        "wall_s": median_of(plain, "wall_s"),
        "items_per_s": statistics.median(rep["items"] / rep["wall_s"] for rep in plain),
        "item_ms_p50": 1e3 * percentile(items, 50),
        "item_ms_tail": 1e3 * percentile(items, tail_percentile(len(items))),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }


def per_layer(run: dict) -> dict[str, float]:
    traced = run["reps"]["traced"]
    out = {key: statistics.median(rep["layers"][key] for rep in traced)
           for key in traced[0]["layers"]}
    out.update({key: traced[0]["layers"][key] for key in EXACT_COUNTS})  # equal in every rep
    out["trace_overhead_s"] = median_of(traced, "wall_s") - median_of(run["reps"]["plain"], "wall_s")
    return out


def report(run: dict, spec: dict, seed: int, trace: bool) -> dict:
    """Print one workload's metrics by name with units; return its JSON line."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(run) if trace else end_to_end(run)
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                         "are measured but not declared, or declared but not measured")
    reps = run["reps"]["plain"] + run["reps"]["traced"]
    attempted = sum(rep["items"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    first = reps[0]
    print(f"== {run['workload']}  seed {seed}  {len(run['reps']['plain'])} untraced, "
          f"{len(run['reps']['traced'])} traced repetitions in {run['elapsed_s']:.1f} s")
    print(f"   inputs {json.dumps(first['inputs'])}")
    print(f"   env {json.dumps(dict(first['env'], seed=seed))}")
    for m in declared:
        note = f"  (p{tail_percentile(first['items']):g} of {first['items']} items)" \
            if m["name"] == "item_ms_tail" else ""
        print(f"   {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}{note}")
    print(f"   {'fail_ratio':<40} {failed / attempted:>16.6g} ({failed}/{attempted})")
    for rep in reps:
        for problem in rep["problems"]:
            print(f"   FAIL {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, seed=seed, trace=trace, inputs=first["inputs"], env=first["env"],
                  reps=[{k: v for k, v in rep.items() if k not in ("inputs", "env", "item_s")}
                        for rep in reps],
                  setup_samples=run["setup"])
    (OUT / f"result-{run['workload']}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one repetition of each kind, for a quick check")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
        chosen = names if args.workload == "all" else [args.workload]
        results = []
        for name in chosen:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            results.append(report(run, spec, args.seed, bool(args.trace)))
            if len(chosen) > 1:
                print(json.dumps(results[-1]))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{key}": value for name, r in zip(chosen, results)
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
