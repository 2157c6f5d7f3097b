"""Reference syscall charging: the plain per-call path, kept as an oracle.

``Kernel.syscall_cost``/``syscall_costs`` resolve each syscall once per
configuration into a table entry and apply exit counts as direct dict
adds.  The functions here compute the same thing the straightforward
way — profile lookup, every exit through ``KvmVm.record_exit``, the
trampoline through the parent's ``record_exit``, then taps, post-copy
latency, jitter and throttle — and the differential tests in
``test_guest_syscall_table.py`` require bit-equal results.
"""

from repro.errors import GuestError
from repro.guest.syscalls import SYSCALL_PROFILES
from repro.hypervisor.exits import ExitReason


def throttled(kernel, cost):
    if kernel.cpu_throttle:
        if not 0.0 <= kernel.cpu_throttle < 1.0:
            raise GuestError(f"bad cpu_throttle {kernel.cpu_throttle}")
        return cost / (1.0 - kernel.cpu_throttle)
    return cost


def jitter(kernel, cost, label):
    if kernel.jitter_rsd <= 0:
        return cost
    system = kernel.system
    rng = system.rng.stream(f"{system.name}:{label}")
    sample = rng.gauss(cost, abs(kernel.jitter_rsd * cost))
    floor = 0.1 * abs(cost)
    return sample if sample >= floor else floor


def syscall_cost(kernel, name, jitter_on=True):
    """Cost of one syscall, charged the plain way."""
    profile = SYSCALL_PROFILES.get(name)
    if profile is None:
        raise GuestError(f"unknown syscall profile: {name!r}")
    system = kernel.system
    cm = system.cost_model
    depth = system.depth
    cost = cm.cpu_cost(profile.cpu_seconds, depth, profile.mem_intensity)
    cost += profile.per_depth_cpu * depth
    cost += cm.syscall_depth_tax * depth
    exits = []
    if depth >= 1:
        for reason, n in profile.exits.items():
            cost += n * cm.exit_cost(reason, depth)
            exits.append(
                (reason, n, n * cm.nested_priv_ops.get(reason, 0) if depth >= 2 else 0)
            )
        if depth >= 2:
            for reason, n in profile.nested_exits.items():
                cost += n * cm.exit_cost(reason, depth)
                exits.append((reason, n, n * cm.nested_priv_ops.get(reason, 0)))
    handle = system.vm_handle
    parent_handle = None
    if depth >= 2 and system.parent is not None:
        parent_handle = system.parent.vm_handle
    for reason, n, trampoline in exits:
        if handle is not None:
            handle.record_exit(reason, n)
        if trampoline and parent_handle is not None:
            parent_handle.record_exit(ExitReason.PRIV_INSTRUCTION, trampoline)
    for tap in kernel.syscall_taps:
        if tap.syscall_name == name:
            tap.hits += 1
            cost += cm.exit_cost(tap.extra_exit, max(depth, 1))
            if tap.callback is not None:
                tap.callback(system, name)
    cost += kernel.extra_op_latency
    if jitter_on:
        cost = jitter(kernel, cost, f"sys:{name}")
    return throttled(kernel, cost)


def syscall_costs(kernel, names, jitter_on=True):
    return [syscall_cost(kernel, name, jitter_on) for name in names]
