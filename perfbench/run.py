"""CloudSkulk reproduction benchmark: user workflows, host time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {detect_io,fleet_sweep,probe_score} \
        --seed N --seconds S --trace {0,1}

A run of ``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``)
runs a fixed number of operations, whole cycles of the seed's input
panel sized to last about that long on a 2-core box, so a slower
program is timed on the same inputs as a faster one.  It splits them
over :data:`SETUP_SAMPLES` fresh worker interpreters started one after
another (``perfbench/worker.py``), each of which imports ``repro`` and
then runs its share in forked children.  One operation at a time,
closed loop, ``shards=1``, no pool.

The last line of stdout is one JSON object::

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the run's
operations / workers); ``--trace 1`` runs each operation untraced and
then traced (``perfbench/layers.py``) and reports the per-layer metrics.
An operation fails when it raises, breaks a seed-independent
expectation, differs from its pin (pinned seeds, ``perfbench/pins.json``)
or from an earlier run of the same input in the same benchmark run.
See ``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Fresh interpreters per untraced run: each gives one ``setup_s`` sample.
SETUP_SAMPLES = 5


def load_spec():
    """``BENCHMARK.json``: the metric catalogue and the run length."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = lambda group: {metric["name"]: metric["unit"] for metric in spec[group]}
    return units("end_to_end"), units("per_layer"), spec["run_seconds"]


def load_pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Judges each operation record; counts attempts and failures."""

    def __init__(self, workload, seed, pins):
        self.pin = pins.get(workload, {}).get(str(seed))
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def judge(self, record):
        self.attempted += 1
        problem = self._problem(record)
        if problem:
            self.failed += 1
            self.messages.append(f"op k={record.get('k')} seed={record.get('sim_seed')}: {problem}")

    def _problem(self, record):
        if "error" in record:
            return record["error"].strip().splitlines()[-1]
        if record["problems"]:
            return "; ".join(record["problems"])
        fingerprint_digest = workloads.digest(record["fingerprint"])
        k = record["k"]
        if self.pin is not None:
            expected = self.pin["digests"][k % len(self.pin["digests"])]
            if fingerprint_digest != expected:
                return f"fingerprint {fingerprint_digest} differs from pin {expected}"
        earlier = self.seen.setdefault(record["sim_seed"], fingerprint_digest)
        if earlier != fingerprint_digest:
            return f"fingerprint {fingerprint_digest} differs from earlier run {earlier}"
        return None


def check_external_pins(pins):
    """The default-seed pins must equal the repository's own pins for the
    same scenarios, so the two sets cannot drift apart silently.

    Compares only when those files are present (they are in a checkout).
    """
    root = os.path.dirname(HERE)
    problems = []
    perf_report = os.path.join(root, "benchmarks", "perf_report.py")
    fleet_helpers = os.path.join(root, "tests", "fleet_helpers.py")
    default = str(workloads.DEFAULT_SEED)
    if os.path.exists(perf_report):
        namespace = _load(perf_report)
        expected = namespace["BASELINE"]["detection_under_io"]["fingerprint"]
        if pins["detect_io"][default]["first"] != expected:
            problems.append("detect_io pin differs from perf_report BASELINE")
    if os.path.exists(fleet_helpers):
        expected = _load(fleet_helpers)["FLEET_SWEEP_4X12_PIN"]
        first = pins["fleet_sweep"][default]["first"]
        if {key: first[key] for key in expected} != expected:
            problems.append("fleet_sweep pin differs from FLEET_SWEEP_4X12_PIN")
    return problems


def _load(path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("_pinned", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return vars(module)


def run_workers(workload, seed, seconds, trace, checker):
    """Run the operations a run of ``seconds`` holds (a fixed count, see
    :func:`workloads.operations`), split over fresh worker interpreters
    started one after another; returns their records."""
    root = os.path.dirname(HERE)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    count = workloads.operations(workload, seconds)
    # The traced pass runs each operation twice, once with the wrappers
    # (up to twice as slow), so it takes the first third of the panel.
    workers, count = (1, max(1, count // 3)) if trace else (SETUP_SAMPLES, count)
    setups, ops, traced = [], [], []
    for index in range(workers):
        first = count * index // workers
        command = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--first", str(first), "--count", str(count * (index + 1) // workers - first),
        ]
        if trace:
            command.append("--trace")
        spawned_at = time.monotonic()
        with subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True) as proc:
            for line in proc.stdout:
                record = json.loads(line)
                kind = record.pop("kind")
                if kind == "setup":
                    record["setup_s"] = record["built_at"] - spawned_at
                    setups.append(record)
                else:
                    # A traced operation repeats the untraced one's input,
                    # so the checker also holds it to that fingerprint.
                    checker.judge(record)
                    (ops if kind == "op" else traced).append(record)
        if proc.returncode != 0 or not setups:
            raise SystemExit(f"perfbench: worker exited with status {proc.returncode}")
    return setups, ops, traced


def end_to_end(setups, ops):
    good = [op for op in ops if "error" not in op]
    if not good:
        return {}
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_cpu_s": statistics.median(op["cpu_s"] for op in good),
        "run_wall_s": statistics.median(op["wall_s"] for op in good),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in good),
    }


def per_layer(setups, ops, traced):
    """Mean per traced operation of every layer metric."""
    pairs = [
        (op, tr) for op, tr in zip(ops, traced)
        if "error" not in op and "error" not in tr
    ]
    if not pairs:
        return {}
    out = {
        name: statistics.fmean(tr["layers"][name] for _, tr in pairs)
        for name in pairs[0][1]["layers"]
    }
    out["imports.s"] = statistics.median(s["imports_s"] for s in setups)
    out["trace.overhead_s"] = statistics.median(tr["cpu_s"] for _, tr in pairs) - statistics.median(
        op["cpu_s"] for op, _ in pairs
    )
    out["sim.cpu_per_event_us"] = statistics.fmean(
        op["cpu_s"] / tr["layers"]["sim.events"] * 1e6 for op, tr in pairs
    )
    return out


def write_spans(workload, seed, traced):
    out_dir = os.path.join(os.path.dirname(HERE), "build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-s{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            [
                {"k": tr["k"], "sim_seed": tr["sim_seed"], "spans": tr["spans"]}
                for tr in traced
                if "error" not in tr
            ],
            handle,
        )
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description="CloudSkulk reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print(f"perfbench: no repro sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units, run_seconds = load_spec()
    seconds = run_seconds if args.seconds is None else args.seconds
    pins = load_pins()
    drift = check_external_pins(pins)
    if drift:
        print("perfbench: " + "; ".join(drift), file=sys.stderr)
        return 2

    checker = Checker(args.workload, args.seed, pins)
    setups, ops, traced = run_workers(args.workload, args.seed, seconds, args.trace, checker)
    for message in checker.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    if args.trace:
        values = per_layer(setups, ops, traced)
        units = per_layer_units
        print(f"perfbench: spans written to {write_spans(args.workload, args.seed, traced)}", file=sys.stderr)
    else:
        values = end_to_end(setups, ops)
        units = end_to_end_units
    result = {
        "correct": checker.failed == 0 and set(values) >= set(units),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
