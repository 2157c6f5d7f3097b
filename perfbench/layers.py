"""Per-layer host-time attribution for the traced pass.

The traced pass wraps the public entry points of each ``repro`` layer
from outside the package (nothing under ``src/`` knows it is being
measured) and reads the engines' :class:`~repro.sim.perf.PerfCounters`.

Two kinds of boundary:

* **hot** boundaries (``Engine.step``, ``Kernel.syscall_cost``,
  ``PageStore.intern``, ... — up to millions of calls per operation)
  only bump per-boundary ``calls`` / ``self_s`` / ``total_s``
  accumulators;
* **coarse** boundaries (``Engine.run``, snapshot capture and fork,
  placement, fleet sweeps) do the same and also keep one span record
  each — name, layer, parent span, start, end — in memory, written out
  when the benchmark ends.

Self time is a span's duration minus the time covered by its child
spans.  Every boundary pushes a child-time accumulator on one shared
stack, so the self times of all layers plus the root's self time add up
to the root's duration (less the wrappers' own cost, below).  The
root's self time, together with ``Process._resume`` (the engine handing
control to generator bodies that sit behind no wrapped boundary, such
as the workloads' own loops), is reported as *unattributed* rather than
guessed.

The wrappers cost host time of their own, part of it inside the interval
they time and part in their caller's.  :func:`wrapper_cost` times a
wrapped no-op against a bare one to estimate both parts per timed
interval, and every wrapper takes them out of the self times it
charges.  Their sum over all intervals is reported as
``trace.wrapper_s``, so layer self times, unattributed time and wrapper
time add up to the traced total.

Generator functions (``DedupDetector.run``, ``FleetMonitor.sweep_fleet``,
the migration streams, ``run_probe``) are wrapped by an outer generator
that times each resumption as one boundary call and counts one
``calls`` per generator created.
"""

import math
import sys
import time
from importlib import import_module

clock = time.perf_counter

#: (boundary, layer, kind).  ``boundary`` is ``module:Owner.attr`` or
#: ``module:function``; kind is ``hot``, ``coarse`` or ``gen``.
BOUNDARIES = (
    ("repro.sim.engine:Engine.run", "sim", "coarse"),
    ("repro.sim.engine:Engine.step", "sim", "hot"),
    ("repro.sim.engine:Process._resume", "resume", "hot"),
    ("repro.guest.kernel:Kernel.syscall_cost", "guest", "hot"),
    ("repro.guest.kernel:Kernel.charge_syscalls", "guest", "hot"),
    ("repro.guest.kernel:Kernel.charge_cpu", "guest", "hot"),
    ("repro.guest.kernel:Kernel.write_page", "guest", "hot"),
    ("repro.hypervisor.kvm:KvmVm.record_exit", "hypervisor", "hot"),
    ("repro.hypervisor.vmcs:Vmcs.record_exit", "hypervisor", "hot"),
    ("repro.hypervisor.ept:GuestMemory.write", "hypervisor", "hot"),
    ("repro.hypervisor.ept:GuestMemory.read_many", "hypervisor", "hot"),
    ("repro.hypervisor.ept:GuestMemory.allocate", "hypervisor", "hot"),
    ("repro.hardware.memory:PhysicalMemory.allocate", "hardware", "hot"),
    ("repro.hardware.memory:PhysicalMemory.write", "hardware", "hot"),
    ("repro.hardware.memory:PhysicalMemory.free", "hardware", "hot"),
    ("repro.hardware.memory:PhysicalMemory.read_many", "hardware", "hot"),
    ("repro.hardware.page_store:PageStore.intern", "hardware", "hot"),
    ("repro.hardware.page_store:PageStore.release", "hardware", "hot"),
    # ksmd's only public surface is start/stop; each wake-up scans one
    # batch, so the wake callback is the layer boundary.
    ("repro.hypervisor.ksm:KsmDaemon._wake", "ksm", "hot"),
    ("repro.migration.precopy:PreCopyMigration._run", "migration", "gen"),
    ("repro.migration.precopy:MigrationDestination._run", "migration", "gen"),
    ("repro.migration.postcopy:PostCopyMigration._run", "migration", "gen"),
    ("repro.migration.postcopy:PostCopyDestination._run", "migration", "gen"),
    ("repro.migration.dirty_tracking:DirtyTracker.sync", "migration", "hot"),
    ("repro.cloud.fleet_monitor:FleetMonitor.sweep_fleet", "cloud", "gen"),
    ("repro.cloud.placement:BinPackingPlacer.place", "cloud", "coarse"),
    ("repro.core.detection.dedup_detector:DedupDetector.run", "probes", "gen"),
    ("repro.probes.base:run_probe", "probes", "gen"),
    ("repro.sim.engine:Engine.snapshot", "snapshot", "coarse"),
    ("repro.sim.snapshot:EngineSnapshot.fork", "snapshot", "coarse"),
    ("repro.sim.snapshot:EngineSnapshot.dispose", "snapshot", "coarse"),
    ("repro.sim.snapshot:Fork.dispose", "snapshot", "coarse"),
    ("repro.cloud.fleet:WarmFleet.branch", "snapshot", "coarse"),
)

#: Layers reported with a self time and a share of the traced total.
LAYERS = (
    "sim",
    "guest",
    "hypervisor",
    "hardware",
    "ksm",
    "migration",
    "cloud",
    "probes",
    "snapshot",
)


def _resolve(boundary):
    module_name, _, path = boundary.partition(":")
    owner = import_module(module_name)
    *owner_path, attr = path.split(".")
    for name in owner_path:
        owner = getattr(owner, name)
    return owner, attr


_wrapper_cost = None


def wrapper_cost():
    """Host seconds a hot wrapper adds per timed interval, as (inside
    the interval it times, outside it), measured once per process.

    Times a wrapped no-op against a bare one in short rounds spread over
    about three seconds and keeps each side's fastest round, so a burst
    of contention on a shared machine does not inflate the estimate.
    Call it before forking so every traced child shares the figure.
    """
    global _wrapper_cost
    if _wrapper_cost is None:

        def noop(_self, _value):
            return None

        probe = _Boundary("calibration", "calibration")
        wrapped = LayerTrace()._wrap_call(noop, probe, coarse=False)
        loop = range(5_000)
        bare, inside, whole = [], [], []
        for _ in range(30):
            start = clock()
            for _ in loop:
                noop(None, 1)
            bare.append(clock() - start)
            probe.total_s = 0.0
            start = clock()
            for _ in loop:
                wrapped(None, 1)
            whole.append(clock() - start)
            inside.append(probe.total_s)
            time.sleep(0.1)
        cost_in = max(0.0, min(inside) - min(bare)) / len(loop)
        cost_out = max(0.0, min(whole) - min(bare)) / len(loop) - cost_in
        _wrapper_cost = (cost_in, max(0.0, cost_out))
    return _wrapper_cost


class _Boundary:
    """Accumulators of one wrapped entry point."""

    __slots__ = ("name", "layer", "calls", "intervals", "self_s", "total_s", "lifetime_s")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.calls = 0
        #: Timed intervals: one per call, or per generator resumption.
        self.intervals = 0
        self.self_s = 0.0
        self.total_s = 0.0
        #: Generators only: host seconds from first resumption to return.
        self.lifetime_s = 0.0


class LayerTrace:
    """Wraps the layer boundaries; collects accumulators and spans.

    Use :meth:`install` before building the workload's objects, run the
    operation inside :meth:`root`, then read :meth:`metrics` and call
    :meth:`uninstall`.
    """

    def __init__(self):
        self.boundaries = {}
        #: Coarse spans: [name, layer, parent index or -1, start, end].
        self.spans = []
        self.root_s = 0.0
        self._unattributed_root = 0.0
        self._stack = [0.0]
        self._open_spans = []
        self._undo = []
        #: (PerfCounters, baseline dict) of every engine the run drove.
        self._engines = []
        #: Wrapper seconds per timed interval inside it / in its caller.
        self.cost_in = self.cost_out = 0.0

    # -- wrapping ----------------------------------------------------------

    def install(self):
        self.cost_in, self.cost_out = wrapper_cost()
        for boundary, layer, kind in BOUNDARIES:
            owner, attr = _resolve(boundary)
            if isinstance(owner, type):
                original = owner.__dict__[attr]  # defined here, not inherited
            else:
                original = getattr(owner, attr)
            record = self.boundaries[boundary] = _Boundary(boundary, layer)
            if kind == "gen":
                wrapper = self._wrap_generator(original, record)
            else:
                wrapper = self._wrap_call(original, record, kind == "coarse")
            self._patch(owner, attr, original, wrapper)
        self._patch_engine_registration()

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        if isinstance(owner, type):
            return
        # A module-level function may also be bound by name in modules
        # that imported it (``from repro.probes.base import run_probe``).
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if module is owner or not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_call(self, fn, record, coarse):
        stack = self._stack
        spans = self.spans
        open_spans = self._open_spans
        cost_in, cost_out = self.cost_in, self.cost_out

        if not coarse:

            def hot(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    record.calls += 1
                    record.intervals += 1
                    record.total_s += elapsed
                    record.self_s += elapsed - stack.pop() - cost_in
                    stack[-1] += elapsed + cost_out

            return hot

        def coarse_span(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            span = [record.name, record.layer, parent, 0.0, 0.0]
            open_spans.append(len(spans))
            spans.append(span)
            stack.append(0.0)
            start = span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = span[4] = clock()
                elapsed = end - start
                open_spans.pop()
                record.calls += 1
                record.intervals += 1
                record.total_s += elapsed
                record.self_s += elapsed - stack.pop() - cost_in
                stack[-1] += elapsed + cost_out

        return coarse_span

    def _wrap_generator(self, fn, record):
        stack = self._stack
        cost_in, cost_out = self.cost_in, self.cost_out

        def resume(method, value):
            stack.append(0.0)
            start = clock()
            try:
                return method(value)
            finally:
                elapsed = clock() - start
                record.intervals += 1
                record.total_s += elapsed
                record.self_s += elapsed - stack.pop() - cost_in
                stack[-1] += elapsed + cost_out

        def drive(inner):
            first = None
            value = None
            method = inner.send
            while True:
                if first is None:
                    first = clock()
                try:
                    yielded = resume(method, value)
                except StopIteration as stop:
                    record.lifetime_s += clock() - first
                    return stop.value
                try:
                    value = yield yielded
                    method = inner.send
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # delivered into the inner generator
                    value = exc
                    method = inner.throw

        def generator_function(*args, **kwargs):
            inner = fn(*args, **kwargs)
            record.calls += 1
            outer = drive(inner)
            # Process names default to the generator's __name__.
            outer.__name__ = inner.__name__
            outer.__qualname__ = inner.__qualname__
            return outer

        return generator_function

    def _patch_engine_registration(self):
        """Track every engine the operation runs, for its counters.

        Fresh engines count from zero.  A forked engine starts as a copy
        of the snapshot's counters, so it counts from that copy — plus
        the pages the fork adopted, which belong to the branch.
        """
        from repro.sim.engine import Engine
        from repro.sim.snapshot import EngineSnapshot

        engines = self._engines
        init = Engine.__init__
        fork = EngineSnapshot.fork

        def registering_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            engines.append((engine.perf, {}))

        def registering_fork(snapshot, *args, **kwargs):
            branch = fork(snapshot, *args, **kwargs)
            baseline = branch.engine.perf.snapshot()
            baseline["fork_pages_shared"] -= branch.pages_shared
            engines.append((branch.engine.perf, baseline))
            return branch

        self._patch(Engine, "__init__", init, registering_init)
        self._patch(EngineSnapshot, "fork", fork, registering_fork)

    # -- running -----------------------------------------------------------

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span; returns its result."""
        if len(self._stack) != 1:
            raise RuntimeError("root span already open")
        self._stack[0] = 0.0
        start = clock()
        try:
            return fn(*args)
        finally:
            self.root_s = clock() - start
            self._unattributed_root = self.root_s - self._stack[0]

    def counters(self):
        """Summed counter increments over every engine the run drove."""
        totals = {}
        for perf, baseline in self._engines:
            for name, value in perf.snapshot().items():
                totals[name] = totals.get(name, 0) + value - baseline.get(name, 0)
        return totals

    # -- reporting ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of everything run under :meth:`root`."""
        perf = self.counters()
        b = self.boundaries
        by_layer = {layer: 0.0 for layer in LAYERS}
        by_layer["resume"] = 0.0
        for record in b.values():
            by_layer[record.layer] += record.self_s
        unattributed = self._unattributed_root + by_layer.pop("resume")
        wrapper = math.fsum(r.intervals for r in b.values()) * (self.cost_in + self.cost_out)
        total = self.root_s
        attributed = math.fsum(by_layer.values())

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        out = {
            "sim.events": perf["events_dispatched"],
            "sim.heap_pushes": perf["heap_pushes"],
            "sim.immediate_resume_ratio": ratio(
                perf["immediate_resumes"], perf["processes_resumed"]
            ),
            "guest.syscall_calls": b["repro.guest.kernel:Kernel.syscall_cost"].calls,
            "hypervisor.exits": b["repro.hypervisor.kvm:KvmVm.record_exit"].calls,
            "hypervisor.ept_writes": b["repro.hypervisor.ept:GuestMemory.write"].calls,
            "hardware.allocs": b["repro.hardware.memory:PhysicalMemory.allocate"].calls,
            "hardware.writes": b["repro.hardware.memory:PhysicalMemory.write"].calls,
            "page_store.interns": b["repro.hardware.page_store:PageStore.intern"].calls,
            "page_store.hit_ratio": ratio(
                perf["page_store_hits"],
                perf["page_store_hits"] + perf["page_store_interns"],
            ),
            "ksm.pages_scanned": perf["ksm_pages_scanned"],
            "ksm.passes": perf["ksm_passes"],
            "ksm.merge_ratio": ratio(
                perf["ksm_bucket_merges"], perf["ksm_pages_scanned"]
            ),
            "migration.pages": perf["migration_pages"],
            "migration.dirty_words_scanned": perf["dirty_words_scanned"],
            "cloud.placements": perf["cloud_placements"],
            "cloud.sweep_s": b[
                "repro.cloud.fleet_monitor:FleetMonitor.sweep_fleet"
            ].lifetime_s,
            "detect.runs": b["repro.core.detection.dedup_detector:DedupDetector.run"].calls,
            "probes.calls": b["repro.probes.base:run_probe"].calls,
            "snapshot.capture_s": b["repro.sim.engine:Engine.snapshot"].total_s,
            "snapshot.fork_s": b["repro.sim.snapshot:EngineSnapshot.fork"].total_s,
            "fork.pages_shared": perf["fork_pages_shared"],
            "fork.cow_ratio": ratio(
                perf["fork_cow_breaks"], perf["fork_pages_shared"]
            ),
            "unattributed_s": unattributed,
            "trace.total_s": total,
            "trace.wrapper_s": wrapper,
            "trace.balance_error_s": abs(attributed + unattributed + wrapper - total),
        }
        # Shares of the traced program time: layers plus unattributed.
        program = total - wrapper
        for layer in LAYERS:
            out[f"{layer}.self_s"] = by_layer[layer]
            out[f"{layer}.share"] = ratio(by_layer[layer], program)
        out["unattributed.share"] = ratio(unattributed, program)
        return out

    def span_records(self):
        """Coarse spans as dicts (seconds relative to the first span)."""
        origin = self.spans[0][3] if self.spans else 0.0
        return [
            {
                "id": index,
                "name": name,
                "layer": layer,
                "parent": parent,
                "start_s": start - origin,
                "end_s": end - origin,
            }
            for index, (name, layer, parent, start, end) in enumerate(self.spans)
        ]
