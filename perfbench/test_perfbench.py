"""Self-tests of the benchmark (not part of the tier-1 suite; they take a
few minutes of CPU)::

    PYTHONPATH=src python3 -m pytest perfbench -q

* the default-seed pins equal the repository's own pins;
* operations reproduce their pins;
* the traced pass balances and its layer shares match the predictions
  in ``perfbench/README.md``;
* a known slowdown injected into one layer (``PageStore.intern``) is
  flagged on ``fleet_sweep``, attributed to ``hardware``, and stays
  within bound on ``detect_io`` — the two workloads ``BENCHMARK.json``
  lists.
"""

import json
import os
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from layers import wrapper_cost  # noqa: E402
from worker import run_op, set_up  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _handle:
    BOUNDS = {m["name"]: m["bound"] for m in json.load(_handle)["end_to_end"]}

#: Busy-wait added to every ``PageStore.intern`` call by the sensitivity
#: test.  A 4x12 fleet interns ~135k pages per operation (+~0.7s on a
#: ~1.5s operation); the detector scenario ~43k (+~0.2s on ~6s).
INJECTED_INTERN_COST_S = 5e-6


@pytest.fixture(scope="module", autouse=True)
def imported():
    for workload in workloads.WORKLOADS:
        set_up(workload)
    # As a traced worker does: one calibration shared by every child,
    # so plain and injected operations subtract the same wrapper cost.
    wrapper_cost()


def test_default_pins_match_repository_pins():
    assert run.check_external_pins(run.load_pins()) == []


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
def test_fleet_sweep_reproduces_pin(seed):
    pin = run.load_pins()["fleet_sweep"][str(seed)]
    record = run_op("fleet_sweep", workloads.panel_seed(seed, 1))
    assert record["problems"] == []
    assert workloads.digest(record["fingerprint"]) == pin["digests"][1]


def _traced(workload, seed=workloads.DEFAULT_SEED, hook=None):
    record = run_op(workload, seed, trace=True, hook=hook)
    assert "error" not in record, record.get("error")
    assert record["problems"] == []
    return record


def _group(layers, names):
    return sum(layers[f"{name}.share"] for name in names)


def test_traced_shares_match_predictions():
    shares = {}
    for workload in workloads.WORKLOADS:
        layers = _traced(workload)["layers"]
        # Layer self times plus unattributed time add up to the total.
        assert layers["trace.balance_error_s"] <= 1e-6 * layers["trace.total_s"]
        shares[workload] = layers
    detect, fleet, probe = shares["detect_io"], shares["fleet_sweep"], shares["probe_score"]
    assert _group(detect, ("guest", "hypervisor")) > 0.5
    assert _group(detect, ("guest", "hypervisor")) > 5 * _group(detect, ("hardware", "ksm"))
    assert _group(fleet, ("hardware", "ksm")) > 0.4
    assert _group(fleet, ("hardware", "ksm")) > 3 * _group(fleet, ("guest", "hypervisor"))
    assert probe["snapshot.self_s"] > 0 and probe["fork.pages_shared"] > 0
    for layers in (detect, fleet):
        assert layers["snapshot.self_s"] == 0 and layers["fork.pages_shared"] == 0


def _slow_intern():
    from repro.hardware.page_store import PageStore

    intern = PageStore.intern
    clock = time.perf_counter

    def slow_intern(self, content):
        until = clock() + INJECTED_INTERN_COST_S
        while clock() < until:
            pass
        return intern(self, content)

    PageStore.intern = slow_intern


def _cpu_ratio(workload, pairs):
    """Median injected / median plain CPU, over interleaved operations
    on the same inputs (so both sides see the same machine load)."""
    plain, slow = [], []
    for k in range(pairs):
        sim_seed = workloads.panel_seed(workloads.DEFAULT_SEED, k)
        plain.append(run_op(workload, sim_seed)["cpu_s"])
        slow.append(run_op(workload, sim_seed, hook=_slow_intern)["cpu_s"])
    return statistics.median(slow) / statistics.median(plain)


def test_injected_hardware_slowdown_is_flagged_and_attributed():
    bound = BOUNDS["run_cpu_s"]
    assert _cpu_ratio("fleet_sweep", pairs=7) > 1 + bound
    assert _cpu_ratio("detect_io", pairs=3) < 1 + bound

    # Traced, interleaved, medians: the rise lands in ``hardware``.
    plain, slow = [], []
    for _ in range(3):
        plain.append(_traced("fleet_sweep")["layers"])
        slow.append(_traced("fleet_sweep", hook=_slow_intern)["layers"])

    def rise(name):
        return statistics.median(r[name] for r in slow) - statistics.median(r[name] for r in plain)

    injected = INJECTED_INTERN_COST_S * plain[0]["page_store.interns"]
    assert rise("hardware.self_s") > 0.8 * injected
    assert rise("hardware.self_s") > 0.6 * rise("trace.total_s")
    for layer in ("sim", "guest", "hypervisor", "ksm", "migration", "cloud", "probes"):
        assert rise(f"{layer}.self_s") < 0.25 * rise("hardware.self_s")
