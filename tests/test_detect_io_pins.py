"""Exit accounting of the §VI detector under Filebench I/O, pinned.

The nested half of the ``detect_io`` benchmark workload (seed 42): a
CloudSkulk-nested victim runs the Filebench fileserver mix while the
dedup detector times its KSM write faults.  No verdict or median
fingerprint covers how many VM exits of each reason the run accounts —
the L2 victim's own exits and the Turtles PRIV_INSTRUCTION trampolines
charged to the L1 parent — so this pins every per-reason counter, in
insertion order and to the last float bit, together with the engine's
event accounting (timeout elision must count exactly like the queued
path).
"""

from repro import scenarios
from repro.core.detection.dedup_detector import DedupDetector
from repro.workloads.filebench import FilebenchWorkload

EXIT_COUNTS = {
    "guestx": [
        ("timer", 3631.25),
        ("priv_instruction", 5535632.55999946),
        ("virtio_kick", 1.0),
    ],
    "guest0": [
        ("invept", 109264.04000009225),
        ("virtio_kick", 250371.0),
    ],
}

ENGINE = {
    "now": 131.31306111988857,
    "events_dispatched": 126197,
    "heap_pushes": 126199,
    "processes_resumed": 124882,
    "timer_fast_path": 576,
    "next_sequence": 126199,
}


def _exit_census(system):
    census = {}
    if system.kvm is None:
        return census
    for name, vm in system.kvm.vms.items():
        census[name] = [(r.value, n) for r, n in vm.vmcs[0].exit_counts.items()]
        if vm._qemu_vm.guest is not None:
            census.update(_exit_census(vm._qemu_vm.guest))
    return census


def test_nested_detect_io_exit_counts_are_pinned():
    host, cloud, _ksm, locator = scenarios.detection_setup(nested=True, seed=42)
    workload = FilebenchWorkload()
    workload.start(locator(), duration=10_000.0)
    detector = DedupDetector(host, cloud, file_pages=30)
    engine = host.engine
    report = engine.run(engine.process(detector.run()))
    workload.stop()
    assert report.verdict.verdict == "nested"
    assert _exit_census(host) == EXIT_COUNTS
    perf = engine.perf
    assert {
        "now": engine.now,
        "events_dispatched": perf.events_dispatched,
        "heap_pushes": perf.heap_pushes,
        "processes_resumed": perf.processes_resumed,
        "timer_fast_path": perf.timer_fast_path,
        "next_sequence": next(engine._sequence),
    } == ENGINE
