"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (spans recorded from outside the program, written under
``.perfbench-work/spans/``).  The metric names and units come from
``BENCHMARK.json``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A per-layer metric
reads 0 on a workload that does not exercise its layer.

Exit status: 0 when every checked output was right, 1 when any was
wrong (the result is still printed), 2 when the run could not be made
(no program in the checkout, bad arguments, a crash) -- then nothing is
printed on standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import traceback

import common

WORKLOADS = {
    "debug-session": "w_debug",
    "bigtrace-1m": "w_bigtrace",
    "serve-open": "w_serve",
}
#: traced runs whose layer spans must explain the untraced operation time
ACCOUNTED_RANGE = (0.7, 1.4)
#: set and dict iteration orders inside the program follow the string
#: hash seed; left random, it moved one debug session's time by up to
#: 25 % between identical runs, so every run (and every child) pins it
HASH_SEED = "0"


def load_spec() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the hash seed is fixed at interpreter start: restart this
        # process (same pid, no child) with it pinned
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        common.use_program()
    except (OSError, ValueError, common.ProgramMissing) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    module = importlib.import_module(WORKLOADS[args.workload])
    checks = common.Checks()
    work = common.work_dir(args.workload)
    try:
        values = module.run(args.seed, args.seconds, bool(args.trace), work,
                            checks)
    except Exception:
        traceback.print_exc()
        print("perfbench: the run crashed", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace and args.workload != "serve-open":
        ratio = values["tracing.accounted_ratio"]
        lo, hi = ACCOUNTED_RANGE
        checks.op(None if lo <= ratio <= hi else
                  f"layer spans explain {ratio:.2f} of the untraced time")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if not args.trace and name not in values:
            raise KeyError(f"workload produced no {name}")
        metrics[name] = {"value": float(values.get(name, 0.0)),
                         "unit": metric["unit"]}
    for problem in checks.problems:
        print(f"perfbench: wrong output: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
