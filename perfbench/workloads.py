"""The benchmark's workflows: inputs, timed bodies, fingerprints.

Each workload turns a benchmark seed into a *panel* of simulator seeds
(``panel_seed``), runs one operation per panel entry, and fingerprints
the operation's virtual-time results.  A run of the benchmark cycles
through the panel, so a run averages over many simulated inputs instead
of timing one lucky or unlucky seed, and every panel entry visited
twice must reproduce its own fingerprint.

Operation ``k == 0`` of a panel uses the benchmark seed itself as the
simulator seed, so ``--seed 42`` reproduces the scenarios pinned in
``benchmarks/perf_report.py`` (``detection_under_io``) and
``tests/fleet_helpers.py`` (``FLEET_SWEEP_4X12_PIN``).
"""

import hashlib
import json

#: The seed whose first operation is the scenario pinned elsewhere in
#: the repository (``perf_report.BASELINE``, ``FLEET_SWEEP_4X12_PIN``).
DEFAULT_SEED = 42

#: A seed kept out of the benchmark's tuning; its pins let a later
#: claim be re-checked on inputs nobody optimised against.
HELD_OUT_SEED = 271828

#: Simulator seeds per benchmark seed, per workload.  A run of more
#: than one panel cycle starts the panel again, and each repeat must
#: reproduce the first visit's fingerprint.
PANEL_SIZE = {"detect_io": 7, "fleet_sweep": 26, "probe_score": 8}

#: Host seconds of one operation on a 2-core x86 VM (CPython 3, the
#: seed-42 panels).  Sizes a run; never measured against.
OP_SECONDS = {"detect_io": 6.0, "fleet_sweep": 1.6, "probe_score": 5.3}

#: The modules a workload's operations use, imported during set-up so
#: the timed body never pays for a first import.
IMPORTS = {
    "detect_io": (
        "repro.scenarios",
        "repro.core.detection.dedup_detector",
        "repro.workloads.filebench",
    ),
    "fleet_sweep": ("repro.cloud", "repro.cloud.fleet"),
    "probe_score": ("repro.probes.score", "repro.sim.snapshot"),
}

#: ``fleet_sweep``: a cold 4x12 fleet run — churn, one rebalance
#: migration, one CloudSkulk campaign and one ``ksm_timing`` sweep.
#: Identical to ``FLEET_4X12`` in ``tests/fleet_helpers.py`` but for
#: the seed.
FLEET_PARAMS = dict(
    hosts=4,
    tenants=12,
    churn_operations=6,
    rebalance_moves=1,
    campaigns=1,
    sweeps=1,
    file_pages=12,
    wait_seconds=10.0,
)

#: ``detect_io``: File-A size for the §VI protocol under Filebench I/O,
#: as in ``scenario_detection_io`` of ``benchmarks/perf_report.py``.
DETECT_FILE_PAGES = 30
FILEBENCH_DURATION = 10_000.0


def panel_seed(seed, k):
    """The simulator seed of panel entry ``k`` for benchmark ``seed``."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"perfbench:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def operations(workload, seconds):
    """Operations in a run of ``seconds``: whole panel cycles, at least
    one.  A fixed count, so how many operations a run times, and on
    which inputs, does not depend on how fast the machine or the
    program is."""
    panel = PANEL_SIZE[workload]
    return panel * max(1, round(seconds / (panel * OP_SECONDS[workload])))


def digest(fingerprint):
    """Short stable digest of a fingerprint (canonical JSON)."""
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_detect_io(sim_seed):
    """The §VI dedup detector on one host, clean then nested, while a
    Filebench workload hammers the guest (the Figs 5/6 path)."""
    from repro import scenarios
    from repro.core.detection.dedup_detector import DedupDetector
    from repro.workloads.filebench import FilebenchWorkload

    fingerprint = {}
    for nested in (False, True):
        host, cloud, _ksm, locator = scenarios.detection_setup(
            nested=nested, seed=sim_seed
        )
        workload = FilebenchWorkload()
        workload.start(locator(), duration=FILEBENCH_DURATION)
        detector = DedupDetector(host, cloud, file_pages=DETECT_FILE_PAGES)
        report = host.engine.run(host.engine.process(detector.run()))
        workload.stop()
        verdict = report.verdict
        fingerprint["nested" if nested else "clean"] = {
            "verdict": verdict.verdict,
            "median_t0": verdict.median_t0,
            "median_t1": verdict.median_t1,
            "median_t2": verdict.median_t2,
            "virtual_now": host.engine.now,
        }
    return fingerprint


def check_detect_io(fingerprint):
    """Seed-independent expectations: the detector gets both hosts right."""
    problems = []
    if fingerprint["clean"]["verdict"] != "clean":
        problems.append(f"clean host judged {fingerprint['clean']['verdict']}")
    if fingerprint["nested"]["verdict"] != "nested":
        problems.append(
            f"nested host judged {fingerprint['nested']['verdict']}"
        )
    return problems


def run_fleet_sweep(sim_seed):
    """A cold ``run_fleet`` of 4 hosts x 12 tenants."""
    from repro.cloud import run_fleet

    result = run_fleet(seed=sim_seed, **FLEET_PARAMS)
    engine = result.datacenter.engine
    sweep = result.monitor.reports[0]
    return {
        "virtual_now": engine.now,
        "placements": engine.perf.cloud_placements,
        "migrations": engine.perf.cloud_migrations,
        "tenants_probed": sweep.tenants_probed,
        "compromised": [f"{t}@{h}" for t, h in sweep.compromised],
        "recall": result.recall,
        "attacked": sorted(
            f"{e.tenant_name}@{e.host_name}" for e in result.campaign.events
        ),
    }


def check_fleet_sweep(fingerprint):
    """Seed-independent expectations: the sweep flags exactly the
    CloudSkulk victims and nothing else."""
    problems = []
    if fingerprint["recall"] != 1.0:
        problems.append(f"recall {fingerprint['recall']}")
    if sorted(fingerprint["compromised"]) != fingerprint["attacked"]:
        problems.append(
            f"flagged {fingerprint['compromised']} but attacked "
            f"{fingerprint['attacked']}"
        )
    return problems


def run_probe_score(sim_seed):
    """The default ``ScoreMatrix`` (``repro probes score``): one warm
    4x12 fleet, one copy-on-write fork per attack, whole catalog."""
    from repro.probes.score import ScoreMatrix

    report = ScoreMatrix(seed=sim_seed).run()
    census = {}
    for cell in report.cells:
        census[f"{cell['attack']}/{cell['probe']}"] = [
            cell["true_positives"],
            cell["false_positives"],
            cell["tenants_probed"],
        ]
    return {
        "census": census,
        "ledger_rows": len(report.ledger),
        "report_sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
    }


#: The probe that must catch each attack (the catalog's diagonal).
DIAGONAL = {
    "cloudskulk": "ksm_timing",
    "vmi_subversion": "vmi_invariance",
    "dedup_spy": "dedup_spy",
}


def check_probe_score(fingerprint):
    """Seed-independent expectations: each probe catches its own attack
    and no probe flags a tenant nobody attacked."""
    problems = []
    for key, (true_pos, false_pos, _probed) in fingerprint["census"].items():
        attack, probe = key.split("/")
        if false_pos:
            problems.append(f"{key}: {false_pos} false positive(s)")
        if DIAGONAL.get(attack) == probe and true_pos < 1:
            problems.append(f"{key}: attack missed")
    return problems


#: Every workload ``run.py`` accepts.  ``BENCHMARK.json`` lists
#: ``detect_io`` and ``fleet_sweep`` only: the benchmark's time budget
#: is shared by its workloads, three leave each run too short to be
#: steady on a shared 2-vCPU box, and of the two fleet workloads
#: ``fleet_sweep`` is the one where the memory data plane dominates.
#: ``probe_score`` stays runnable by hand, pinned and traced.
WORKLOADS = {
    "detect_io": (run_detect_io, check_detect_io),
    "fleet_sweep": (run_fleet_sweep, check_fleet_sweep),
    "probe_score": (run_probe_score, check_probe_score),
}
