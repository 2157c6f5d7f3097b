"""The per-kernel syscall table against the plain reference path.

``syscall_oracle`` charges every syscall the straightforward way.  The
differential runs one random op sequence twice from the same state —
through ``Kernel.syscall_cost``/``syscall_costs``/``charge_syscalls``,
then through the oracle — at depths 0-2, with taps, throttle, post-copy
latency, jitter settings, tracer toggling and mid-sequence swaps of the
VM handle and the cost model, and requires bit-equal costs, RNG stream
states, exit counters (values and key order), tap hits and trace
accounting.
"""

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.guest.kernel import SyscallTap
from repro.guest.syscalls import SYSCALL_PROFILES
from repro.hypervisor.exits import CostModel
from repro.sim.rng import RngRegistry
from tests import syscall_oracle


@lru_cache(maxsize=None)
def _env():
    host, report = scenarios.nested_environment(seed=42)
    guestx = report.guestx_vm.guest
    victim = report.nested_vm.guest
    vms = (guestx.vm_handle, victim.vm_handle)
    # Per depth: the system, and a foreign VM to swap its handle to.
    systems = {0: (host, vms[0]), 1: (guestx, vms[1]), 2: (victim, vms[0])}
    alt_model = CostModel()
    alt_model.base_exit_cost *= 1.7
    alt_model.syscall_depth_tax *= 0.6
    return host, systems, vms, alt_model


class _Fast:
    cost = staticmethod(lambda kernel, name, jitter: kernel.syscall_cost(name, jitter))
    costs = staticmethod(lambda kernel, names, jitter: kernel.syscall_costs(names, jitter))
    charge = staticmethod(lambda kernel, name, times: kernel.charge_syscalls(name, times))


class _Oracle:
    cost = staticmethod(syscall_oracle.syscall_cost)
    costs = staticmethod(syscall_oracle.syscall_costs)
    charge = staticmethod(
        lambda kernel, name, times: syscall_oracle.syscall_cost(kernel, name) * times
    )


def _observe(host, vms, kernel):
    registry = host.machine.rng
    tracer = host.engine.tracer
    return {
        "streams": {n: s.getstate() for n, s in registry._streams.items()},
        "exits": [list(vm.vmcs[0].exit_counts.items()) for vm in vms],
        "trace_pending": {k: list(v) for k, v in tracer._exit_pending.items()},
        "trace_events": [e[:6] + e[7:] for e in tracer._events],
        "tap_hits": [tap.hits for tap in kernel.syscall_taps],
    }


def _restore(host, vms, saved):
    registry = host.machine.rng
    for name, stream in registry._streams.items():
        state = saved["streams"].get(name)
        if state is None:
            state = RngRegistry(registry.seed).stream(name).getstate()
        stream.setstate(state)
    for vm, items in zip(vms, saved["exits"]):
        counts = vm.vmcs[0].exit_counts
        counts.clear()
        counts.update(items)
    tracer = host.engine.tracer
    tracer._exit_pending.clear()
    tracer._exit_pending.update({k: list(v) for k, v in saved["trace_pending"].items()})
    while len(tracer._events) > len(saved["trace_events"]):
        tracer._events.pop()


def _run(impl, depth, ops):
    host, systems, vms, alt_model = _env()
    system, foreign = systems[depth]
    kernel = system.kernel
    machine = system.machine
    tracer = host.engine.tracer
    knobs = (
        kernel.cpu_throttle,
        kernel.extra_op_latency,
        kernel.jitter_rsd,
        list(kernel.syscall_taps),
        system.vm_handle,
        machine.cost_model,
        tracer.enabled,
    )
    saved = _observe(host, vms, kernel)
    out, taps = [], []
    try:
        for op in ops:
            kind = op[0]
            if kind == "call":
                out.append(impl.cost(kernel, op[1], op[2]))
            elif kind == "batch":
                out.extend(impl.costs(kernel, op[1], op[2]))
            elif kind == "charge":
                out.append(impl.charge(kernel, op[1], op[2]))
            elif kind == "tap":
                callback = (lambda _s, n: out.append(f"tap:{n}")) if op[2] else None
                taps.append(kernel.install_tap(SyscallTap(op[1], callback)))
            elif kind == "untap" and taps:
                kernel.remove_tap(taps.pop(0))
            elif kind == "throttle":
                kernel.cpu_throttle = op[1]
            elif kind == "latency":
                kernel.extra_op_latency = op[1]
            elif kind == "rsd":
                kernel.jitter_rsd = op[1]
            elif kind == "trace":
                tracer.enabled = op[1]
            elif kind == "handle":
                system.vm_handle = (knobs[4], None, foreign)[op[1]]
            elif kind == "cost_model":
                machine.cost_model = alt_model if op[1] else knobs[5]
        observed = _observe(host, vms, kernel)
        observed["tap_hits"] = [tap.hits for tap in taps]
        observed["costs"] = [c.hex() if isinstance(c, float) else c for c in out]
        return observed
    finally:
        (
            kernel.cpu_throttle,
            kernel.extra_op_latency,
            kernel.jitter_rsd,
            kernel.syscall_taps[:],
            system.vm_handle,
            machine.cost_model,
            tracer.enabled,
        ) = knobs
        _restore(host, vms, saved)


_names = st.sampled_from(sorted(SYSCALL_PROFILES))
_ops = st.one_of(
    st.tuples(st.just("call"), _names, st.booleans()),
    st.tuples(st.just("batch"), st.lists(_names, min_size=1, max_size=7), st.booleans()),
    st.tuples(st.just("charge"), _names, st.integers(1, 16)),
    st.tuples(st.just("tap"), _names, st.booleans()),
    st.tuples(st.just("untap")),
    st.tuples(st.just("throttle"), st.sampled_from([0.0, 0.3, 0.75])),
    st.tuples(st.just("latency"), st.sampled_from([0.0, 4.5e-5])),
    st.tuples(st.just("rsd"), st.sampled_from([0.0, 0.02, 0.1])),
    st.tuples(st.just("trace"), st.booleans()),
    st.tuples(st.just("handle"), st.integers(0, 2)),
    st.tuples(st.just("cost_model"), st.booleans()),
)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(depth=st.integers(0, 2), ops=st.lists(_ops, max_size=30))
def test_syscall_table_matches_reference(depth, ops):
    fast = _run(_Fast, depth, ops)
    oracle = _run(_Oracle, depth, ops)
    assert fast == oracle


def test_filebench_batch_matches_reference():
    """The Filebench iteration batch, nested, with every exit path on."""
    from repro.workloads.filebench import ITERATION_SYSCALLS

    ops = [("batch", list(ITERATION_SYSCALLS), True)] * 3
    ops += [("trace", True), ("batch", list(ITERATION_SYSCALLS), True)]
    fast = _run(_Fast, 2, ops)
    assert fast == _run(_Oracle, 2, ops)
    assert len(fast["costs"]) == 4 * len(ITERATION_SYSCALLS)
    assert fast["trace_pending"] or fast["trace_events"]
