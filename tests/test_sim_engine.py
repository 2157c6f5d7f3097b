"""The discrete-event engine: events, processes, composition, time."""

from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event, Interrupt, Timeout
from repro.workloads.base import Workload


def test_clock_starts_at_zero(engine):
    assert engine.now == 0.0


def test_timeout_advances_clock(engine):
    fired = []

    def proc(e):
        yield e.timeout(2.5)
        fired.append(e.now)
        return "done"

    result = engine.run(engine.process(proc(engine)))
    assert result == "done"
    assert fired == [2.5]


def test_timeouts_fire_in_order(engine):
    order = []
    for delay in (3.0, 1.0, 2.0):
        engine.call_later(delay, order.append, delay)
    engine.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fifo(engine):
    order = []
    for tag in range(5):
        engine.call_later(1.0, order.append, tag)
    engine.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_timeout_rejected(engine):
    with pytest.raises(SimulationError):
        engine.timeout(-0.1)


def test_event_succeed_value(engine):
    event = engine.event()

    def waiter(e, ev):
        value = yield ev
        return value * 2

    proc = engine.process(waiter(engine, event))
    engine.call_later(1.0, event.succeed, 21)
    assert engine.run(proc) == 42


def test_event_double_trigger_rejected(engine):
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_propagates_into_process(engine):
    event = engine.event()

    def waiter(e, ev):
        try:
            yield ev
        except ValueError as error:
            return f"caught {error}"

    proc = engine.process(waiter(engine, event))
    engine.call_later(0.5, event.fail, ValueError("boom"))
    assert engine.run(proc) == "caught boom"


def test_event_fail_requires_exception(engine):
    event = engine.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")


def test_process_exception_surfaces_via_run(engine):
    def exploder(e):
        yield e.timeout(1.0)
        raise RuntimeError("kaput")

    proc = engine.process(exploder(engine))
    with pytest.raises(RuntimeError, match="kaput"):
        engine.run(proc)


def test_process_requires_generator(engine):
    with pytest.raises(SimulationError):
        engine.process(lambda: None)


def test_process_yielding_non_event_is_error(engine):
    def bad(e):
        yield 42

    proc = engine.process(bad(engine))
    with pytest.raises(SimulationError):
        engine.run(proc)


def test_nested_processes(engine):
    def inner(e):
        yield e.timeout(1.0)
        return "inner-done"

    def outer(e):
        result = yield e.process(inner(e))
        yield e.timeout(1.0)
        return result + "+outer"

    assert engine.run(engine.process(outer(engine))) == "inner-done+outer"
    assert engine.now == 2.0


def test_yield_already_processed_event(engine):
    marker = engine.timeout(0.5, value="early")

    def late_waiter(e):
        yield e.timeout(2.0)
        value = yield marker  # fired long ago
        return value

    assert engine.run(engine.process(late_waiter(engine))) == "early"
    assert engine.now == 2.0  # no extra wait


def test_interrupt(engine):
    def sleeper(e):
        try:
            yield e.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, e.now)
        return "slept"

    proc = engine.process(sleeper(engine))
    engine.call_later(1.0, proc.interrupt, "wake up")
    assert engine.run(proc) == ("interrupted", "wake up", 1.0)


def test_interrupt_finished_process_rejected(engine):
    def quick(e):
        yield e.timeout(0.1)

    proc = engine.process(quick(engine))
    engine.run(proc)
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_all_of_waits_for_everything(engine):
    def waiter(e):
        results = yield e.all_of([e.timeout(1.0, "a"), e.timeout(3.0, "b")])
        return (e.now, sorted(results))

    assert engine.run(engine.process(waiter(engine))) == (3.0, ["a", "b"])


def test_any_of_fires_on_first(engine):
    def waiter(e):
        value = yield e.any_of([e.timeout(5.0, "slow"), e.timeout(1.0, "fast")])
        return (e.now, value)

    assert engine.run(engine.process(waiter(engine))) == (1.0, "fast")


def test_any_of_empty_rejected(engine):
    with pytest.raises(SimulationError):
        engine.any_of([])


def test_run_until_absolute_time(engine):
    hits = []
    for delay in (1.0, 2.0, 3.0):
        engine.call_later(delay, hits.append, delay)
    engine.run(until=2.5)
    assert hits == [1.0, 2.0]
    assert engine.now == 2.5
    engine.run()
    assert hits == [1.0, 2.0, 3.0]


def test_run_backwards_rejected(engine):
    engine.run(until=5.0)
    with pytest.raises(SimulationError):
        engine.run(until=1.0)


def test_run_until_event_exhausted_queue_is_error(engine):
    never = engine.event()
    with pytest.raises(SimulationError):
        engine.run(never)


def test_call_at(engine):
    stamps = []
    engine.call_at(4.0, stamps.append, "x")
    engine.run()
    assert stamps == ["x"]
    assert engine.now == 4.0


def test_call_at_past_rejected(engine):
    engine.run(until=2.0)
    with pytest.raises(SimulationError):
        engine.call_at(1.0, lambda: None)


def test_determinism_two_engines():
    def trace(engine):
        log = []

        def ticker(e, tag, period):
            for _ in range(5):
                yield e.timeout(period)
                log.append((round(e.now, 9), tag))

        engine.process(ticker(engine, "a", 0.3))
        engine.process(ticker(engine, "b", 0.7))
        engine.run()
        return log

    assert trace(Engine()) == trace(Engine())


def test_unwaited_failed_event_raises_loudly(engine):
    event = engine.event()
    event.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        engine.run()


def test_timeout_carries_value(engine):
    timeout = Timeout(engine, 1.0, value="payload")

    def waiter(e, t):
        value = yield t
        return value

    assert engine.run(engine.process(waiter(engine, timeout))) == "payload"


def test_event_value_before_trigger_rejected(engine):
    event = Event(engine)
    with pytest.raises(SimulationError):
        _ = event.value


def test_yield_already_processed_event_resumes_inline(engine):
    marker = engine.timeout(0.5, value="early")

    def late_waiter(e):
        yield e.timeout(2.0)
        value = yield marker  # fired long ago; delivered inline
        return value

    before = engine.perf.immediate_resumes
    assert engine.run(engine.process(late_waiter(engine))) == "early"
    assert engine.perf.immediate_resumes == before + 1


def test_yield_already_processed_failed_event_throws(engine):
    boom = engine.event()
    boom.fail(RuntimeError("late boom"))

    def absorber(e):
        try:
            yield boom
        except RuntimeError:
            return "absorbed"

    def late(e):
        yield e.timeout(1.0)
        yield boom  # processed and failed: the exception is thrown inline
        return "unreachable"

    engine.process(absorber(engine))
    late_proc = engine.process(late(engine))
    with pytest.raises(RuntimeError, match="late boom"):
        engine.run(late_proc)


def test_any_of_mixed_processed_and_pending(engine):
    early = engine.timeout(0.5, value="early")
    never = engine.event()

    def waiter(e):
        yield e.timeout(2.0)  # let `early` fire and be processed
        value = yield e.any_of([early, never])
        return (value, e.now)

    assert engine.run(engine.process(waiter(engine))) == ("early", 2.0)


def test_all_of_mixed_processed_and_pending(engine):
    early = engine.timeout(0.5, value="a")

    def waiter(e):
        yield e.timeout(2.0)  # `early` is already processed here
        late = e.timeout(1.0, value="b")
        results = yield e.all_of([early, late])
        return (sorted(results), e.now)

    assert engine.run(engine.process(waiter(engine))) == (["a", "b"], 3.0)


def test_stale_interrupt_after_completion_is_benign(engine):
    proc_holder = []

    def rival(e):
        yield e.timeout(1.0)
        # The target is still alive at this instant; its own timeout
        # (same timestamp, later in FIFO order) completes it before the
        # interrupt event is dispatched.
        proc_holder[0].interrupt("stale")

    def sleeper(e):
        yield e.timeout(1.0)
        return "slept"

    engine.process(rival(engine))
    proc_holder.append(engine.process(sleeper(engine)))
    assert engine.run(proc_holder[0]) == "slept"
    engine.run()  # drain the stale interrupt event; must not raise


def test_bare_timeout_uses_timer_fast_path(engine):
    engine.timeout(1.0)
    engine.run()
    assert engine.perf.timer_fast_path == 1
    assert engine.perf.events_dispatched == 1
    assert engine.now == 1.0


# -- in-place timeout elision (Engine.elide_timeout via Workload._pace) ------


class _Paced(Workload):
    """Paces through ``costs``, recording the clock after each op."""

    def __init__(self, costs):
        super().__init__()
        self.costs = costs
        self.seen = []

    def run(self, system):
        for cost in self.costs:
            yield from self._pace(system, cost)
            self.seen.append(system.engine.now)
        return len(self.seen)


class _GateOnly:
    """A shard governor stand-in that never brakes."""

    def gate(self, _head):
        pass


def _paced_engine():
    engine = Engine()
    created = []
    make = engine.timeout

    def counting_timeout(delay, value=None):
        created.append(delay)
        return make(delay, value)

    engine.timeout = counting_timeout
    return engine, created, SimpleNamespace(qemu_vm=None, engine=engine)


def test_elision_fires_for_a_lone_paced_process():
    engine, created, system = _paced_engine()
    workload = _Paced([0.25] * 8)
    engine.process(workload.run(system))
    engine.run()
    assert workload.seen == [0.25 * k for k in range(1, 9)]
    assert created == []
    assert engine.perf.events_dispatched == 1 + 8 + 1  # init, paces, exit


def test_run_until_never_passes_its_deadline():
    engine, created, system = _paced_engine()
    workload = _Paced([0.3] * 10)
    engine.process(workload.run(system))
    engine.run(until=1.0)
    assert engine.now == 1.0
    assert workload.seen == [0.3, 0.6, 0.8999999999999999]
    assert created == [0.3]  # the pace that would end past 1.0 is queued
    engine.run(until=2.0)
    assert max(workload.seen) <= 2.0 and engine.now == 2.0


def test_queued_event_at_the_same_time_goes_first():
    engine, created, system = _paced_engine()
    order = []

    def paced():
        yield from _Paced([0.5])._pace(system, 0.5)
        order.append("process")

    engine.call_at(0.5, order.append, "timer")
    engine.process(paced())
    engine.run()
    assert order == ["timer", "process"]
    assert created == [0.5]


def test_bare_step_never_elides():
    engine, created, system = _paced_engine()
    workload = _Paced([0.5] * 4)
    engine.process(workload.run(system))
    while engine.step():
        pass
    assert len(created) == 4
    assert workload.seen == [0.5, 1.0, 1.5, 2.0]


def test_multi_callback_wake_disables_elision():
    engine, created, system = _paced_engine()
    gate = engine.event()
    workload = _Paced([0.5, 0.5])

    def waiter():
        yield gate
        yield from workload.run(system)

    engine.process(waiter())
    gate._add_callback(lambda _event: None)  # a second callback on the wake
    engine.call_at(1.0, gate.succeed)
    engine.run()
    # The pace right after the two-callback wake is queued; the next one
    # is resumed by its lone timeout and elides.
    assert created == [0.5]
    assert workload.seen == [1.5, 2.0]


@pytest.mark.parametrize("observer", ["tracer", "governor"])
def test_tracer_or_governor_disables_elision(observer):
    engine, created, system = _paced_engine()
    if observer == "tracer":
        engine.tracer.enabled = True
    else:
        engine.governor = _GateOnly()
    workload = _Paced([0.25] * 5)
    engine.process(workload.run(system))
    engine.run()
    assert len(created) == 5


def _mixed_run(elide):
    """Two paced processes, timer callbacks and chunked runs."""
    engine, created, system = _paced_engine()
    if not elide:
        engine.elide_timeout = lambda delay: False
    log = []
    fast = _Paced([0.01 * (1 + k % 7) for k in range(120)])
    slow = _Paced([0.4] * 12)
    engine.process(fast.run(system))
    slow_proc = engine.process(slow.run(system))
    for k in range(9):
        engine.call_at(0.37 * k + 0.05, log.append, k)
    engine.run(until=1.3)
    engine.run(until=2.75)
    result = engine.run(slow_proc)
    engine.run()
    return {
        "perf": engine.perf.as_dict(),
        "sequence": next(engine._sequence),
        "now": engine.now,
        "fast": fast.seen,
        "slow": slow.seen,
        "log": log,
        "result": result,
        "queued_timeouts": len(created),
    }


def test_elision_preserves_counters_sequence_and_results():
    elided = _mixed_run(elide=True)
    queued = _mixed_run(elide=False)
    assert elided["queued_timeouts"] < queued["queued_timeouts"] == 132
    del elided["queued_timeouts"], queued["queued_timeouts"]
    assert elided == queued
