#!/usr/bin/env python3
"""Record the outputs the benchmark's checks compare against (pins.json).

    python3 perfbench/pin.py --size full --workload support_mixed --seeds 0-15

Runs one round of each (workload, seed) and stores every job's observed
record under pins.json[size][workload][seed].  A seed whose round fails any
check (for support_mixed, an ensemble without an interior gap) is refused.
Re-pin only when a change is meant to alter results, and say so in
CHANGES.md: the pins guard the Philox streams and the support edges.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)
import workloads  # noqa: E402

PINS = Path(__file__).resolve().parent / "pins.json"


def pin(workload, seed, size) -> dict:
    run.import_specgap()
    plan = workloads.generate(workload, seed, size)
    work = run.OUT / f"pin-{workload}-s{seed}-p{os.getpid()}"
    try:
        cfg = workloads.write_configs(plan, work / "configs")
        job_list = workloads.jobs(plan, cfg, work / "out")
        rnd = run.run_round(plan, job_list, work / "out", pins=None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rnd.failed or rnd.problems:
        raise SystemExit(f"refusing to pin {workload} seed {seed}: "
                         f"{rnd.failed or rnd.problems}")
    return rnd.observations


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    parser.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    args = parser.parse_args()
    for workload in args.workload or workloads.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            observed = pin(workload, seed, args.size)
            pins = json.loads(PINS.read_text())
            pins.setdefault(args.size, {}).setdefault(workload, {})[str(seed)] = observed
            tmp = PINS.with_suffix(".tmp")
            tmp.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, PINS)  # readers never see a half-written file
            print(f"pinned {args.size} {workload} seed {seed}", flush=True)


if __name__ == "__main__":
    main()
