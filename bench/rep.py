"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this file as `python3 -I bench/rep.py SPEC`, where SPEC is a
JSON object with the keys workload, seed, smoke, trace, setup_only, t_spawn
(time.monotonic() just before the spawn) and spans_path.  A fresh process
starts with tworow's module caches cold, as every `tworow` CLI call does.
The repetition prints one JSON line with its measurements.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def environment() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "machine": platform.machine(),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    # The cold start a CLI call pays: every tworow module, and numpy.
    import tworow.cli  # noqa: F401
    import tworow

    if not Path(tworow.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported tworow from {tworow.__file__}, not from {ROOT / 'src'}")
    import workloads

    inputs = workloads.make_inputs(spec["workload"], spec["seed"], spec["smoke"])
    setup_s = time.monotonic() - spec["t_spawn"]
    if spec["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = workloads.run(spec["workload"], inputs)
    if tracer:
        tracer.dump(spec["spans_path"])

    import resource

    items = len(result["item_s"])
    print(json.dumps({
        **result,
        "setup_s": setup_s,
        "items": items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "inputs": {k: v for k, v in inputs.items() if k != "contexts"}
        | {"items": items, **workloads.SIZES[spec["workload"]][spec["smoke"]]},
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
