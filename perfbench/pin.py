"""Regenerate ``perfbench/pins.json``: the fingerprint digest of every
panel entry of every workload at the pinned seeds.

    PYTHONPATH=src python3 perfbench/pin.py

Re-pin only when a change is meant to alter simulated results; the
default-seed pins must keep matching ``perf_report.BASELINE`` and
``FLEET_SWEEP_4X12_PIN`` (``run.py`` refuses to run otherwise).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import run_op, set_up  # noqa: E402

PINNED_SEEDS = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)


def pin(workload):
    set_up(workload)
    pins = {}
    for seed in PINNED_SEEDS:
        digests, first = [], None
        for k in range(workloads.PANEL_SIZE[workload]):
            record = run_op(workload, workloads.panel_seed(seed, k))
            if "error" in record or record["problems"]:
                raise SystemExit(f"{workload} seed {seed} k={k}: {record}")
            if k == 0:
                first = record["fingerprint"]
            digests.append(workloads.digest(record["fingerprint"]))
        pins[str(seed)] = {"first": first, "digests": digests}
    return pins


def main():
    pins = {}
    for workload in sorted(workloads.WORKLOADS):
        pins[workload] = pin(workload)
        print(f"pinned {workload}", file=sys.stderr)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
