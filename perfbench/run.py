"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload decode-b1 --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``).  The last line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment block, and the full record (percentiles used, sample
counts, request counts, errors) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.envstamp import env_block, pin_cpus, pin_environment  # noqa: E402

pin_environment()  # before anything imports numpy
pin_cpus()

import argparse  # noqa: E402
import json  # noqa: E402


def main() -> int:
    from perfbench import tracing, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-sim-golden", action="store_true",
                        help="re-pin the simulated statistics sim-phi3med checks against")
    args = parser.parse_args()

    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"expected repro from {ROOT / 'src'}, found {repro.__file__}")
    if args.write_sim_golden:
        workloads.write_sim_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    units = dict(row[:2] for row in (tracing.LAYER_METRICS if args.trace else workloads.END_TO_END))
    metrics = {name: {"value": float(result.metrics[name]), "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env_block(ROOT), "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": metrics, "detail": result.detail,
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")
    for error in result.detail.get("errors", []):
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "record": str(out.relative_to(ROOT))}))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
