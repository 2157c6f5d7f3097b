"""Workload plumbing.

A workload is a simulation process driven by a generator.  Between
operations it (a) respects VM pause state — migration downtime and
auto-converge throttling must actually affect it — and (b) yields its
accumulated operation cost as a timeout.

Workloads are *snapshot-resumable* (see :mod:`repro.sim.snapshot`):
run-loop state lives on the instance rather than in generator locals,
and :meth:`Workload.__resume__` rebuilds a continuation generator for
an engine fork.  The pacing helper records which of its yields is in
flight so the rebuilt generator can splice back into a half-finished
pace.
"""

from repro.errors import GuestError


class WorkloadResult:
    """Outcome of one workload run."""

    def __init__(self, name, system_name):
        self.name = name
        self.system_name = system_name
        self.started_at = None
        self.finished_at = None
        self.metrics = {}
        self.stopped_early = False

    @property
    def elapsed(self):
        if self.started_at is None or self.finished_at is None:
            raise GuestError(f"workload {self.name} has not finished")
        return self.finished_at - self.started_at

    def __repr__(self):
        return f"<WorkloadResult {self.name}@{self.system_name} {self.metrics}>"


class _SchedulerRelease:
    """Process-completion callback freeing the workload's core slot.

    A class rather than a closure so engine snapshots rebind it to the
    *copied* workload and scheduler through the copy memo — a closure
    is atomic to :mod:`copy` and would keep pointing into the parent.
    """

    __slots__ = ("workload", "scheduler")

    def __init__(self, workload, scheduler):
        self.workload = workload
        self.scheduler = scheduler

    def __call__(self, _event):
        workload = self.workload
        if workload.cpu_bound and self.scheduler.is_busy(workload):
            self.scheduler.release(workload)


class Workload:
    """Base class: pacing helpers and start/stop control."""

    name = "workload"

    def __init__(self):
        self._stop_requested = False
        #: In-flight :meth:`_pace` yield: None, ("paused", cost), or
        #: ("timeout", cost).  Snapshot resume replays the pace tail
        #: from here.
        self._pace_point = None
        #: The System the current run targets (set by :meth:`run`).
        self._r_system = None

    #: Set False for workloads that mostly wait (idle) rather than burn
    #: CPU; they do not occupy a core slot.
    cpu_bound = True

    def start(self, system, **kwargs):
        """Run in the background; returns the engine Process.

        CPU-bound workloads occupy one scheduler slot for their
        lifetime, so co-resident busy guests stretch each other once
        the package's logical CPUs are oversubscribed.
        """
        scheduler = system.machine.scheduler
        if self.cpu_bound:
            scheduler.occupy(self)
        process = system.engine.process(
            self.run(system, **kwargs),
            name=f"{self.name}@{system.name}",
            resumable=self,
        )
        process.callbacks.append(_SchedulerRelease(self, scheduler))
        return process

    def stop(self):
        """Ask the workload to wind down at the next operation boundary."""
        self._stop_requested = True

    def run(self, system, **kwargs):
        raise NotImplementedError

    # -- snapshot resume protocol -------------------------------------------

    def __resume__(self):
        """Rebuild the run continuation for a forked engine.

        Called on the *copied* workload after a snapshot fork; returns
        a generator whose first yield is bare and side-effect-free (the
        copied pending event redelivers into it) and which then
        continues the run loop from the instance state.
        """
        if self._r_system is None:
            raise GuestError(f"workload {self.name} was never started")
        return self._body(self._r_system, resuming=True)

    def _body(self, system, resuming=False):
        raise GuestError(f"workload {self.name} is not snapshot-resumable")

    # -- helpers for subclasses ---------------------------------------------

    def _pace(self, system, cost):
        """Generator: wait out a pause (if any), then consume ``cost``.

        Reads ``system.qemu_vm`` dynamically — after a live migration
        the same guest System continues under a different VM (possibly
        at a different depth), and pacing must follow it.
        """
        vm = system.qemu_vm
        if vm is not None and vm.paused:
            self._pace_point = ("paused", cost)
            yield vm.wait_if_paused()
        if cost > 0:
            engine = system.engine
            # Most cost timeouts fire before anything else is due: the
            # engine then advances the clock in place (elide_timeout).
            if not engine.elide_timeout(cost):
                self._pace_point = ("timeout", cost)
                yield engine.timeout(cost)
        self._pace_point = None

    def _resume_pace(self, system):
        """Generator: splice back into an in-flight :meth:`_pace`.

        The first yield is bare — the copied pending event (pause wake
        or cost timeout) delivers into it exactly as it would have into
        the original pace generator — and the remainder replays the
        pace tail from the recorded point.
        """
        kind, cost = self._pace_point
        yield
        if kind == "paused" and cost > 0:
            self._pace_point = ("timeout", cost)
            yield system.engine.timeout(cost)
        self._pace_point = None

    def _begin(self, system):
        result = WorkloadResult(self.name, system.name)
        result.started_at = system.engine.now
        return result

    def _finish(self, system, result):
        result.finished_at = system.engine.now
        result.stopped_early = self._stop_requested
        return result
