"""Write digests.json: the outputs the benchmark checks tworow against.

    python3 bench/record_digests.py

The digests were recorded once, from the tworow commit that added this
benchmark; tworow's outputs must stay byte for byte the same, so re-recording
them to make a run pass would hide a real change in the program's results.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from tworow.algebra import AlgebraContext  # noqa: E402
from tworow.decompose import verify_complete_set  # noqa: E402
from tworow.oracle import cross_validate  # noqa: E402


def main() -> None:
    sweep, _ = workloads.SIZES["verify_sweep"]
    large, _ = workloads.SIZES["verify_large"]
    m_large = workloads.LOW_DIGITS * workloads.LARGE_Q[0] + workloads.LARGE_RESIDUE
    contexts = workloads.partitions(sweep["r_max"])
    contexts += [(m_large + l2, l2) for l2 in large["lambda2"]]
    verify = {}
    for l1, l2 in contexts:
        report = verify_complete_set(AlgebraContext(l1, l2, 3))
        if not report.ok:
            raise SystemExit(f"lambda=({l1},{l2}) fails its own checks: {report.failures}")
        verify[workloads.idempotent_key(l1, l2)] = workloads.idempotent_digest(report.records)
    oracle = {}
    for size in workloads.SIZES["oracle_check"]:
        report = cross_validate(size["r_max"])
        if not report.ok:
            raise SystemExit(f"cross_validate({size['r_max']}) fails: {report.failures}")
        oracle[str(size["r_max"])] = workloads.digest(report.to_json())
    workloads.DIGESTS.write_text(
        json.dumps({"verify": verify, "oracle": oracle}, indent=0, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
