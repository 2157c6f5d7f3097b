"""The per-system KVM facade.

A :class:`Kvm` instance corresponds to the pair of kernel modules
(`kvm.ko` + `kvm-intel.ko`) loaded in one operating system.  The host's
OS has one; an L1 guest that will host nested VMs loads its own,
provided the parent exposed VMX into the guest (KVM's ``nested=1``).

:class:`KvmVm` bundles what the kernel keeps per VM: the guest memory
slot, one VMCS per vCPU (materialized as real signature-bearing pages —
see :mod:`repro.hypervisor.vmcs`), and exit counters.
"""

from repro.errors import HypervisorError
from repro.hypervisor.ept import GuestMemory
from repro.hypervisor.vmcs import Vmcs, allocate_vpid


class KvmVm:
    """Kernel-side state for one virtual machine."""

    def __init__(self, kvm, name, vcpus, memory_mb, expose_vmx):
        self.kvm = kvm
        self.name = name
        self.vcpus = vcpus
        self.expose_vmx = expose_vmx
        self._tracer = kvm.system.engine.tracer
        self.memory = GuestMemory(
            kvm.system.memory, memory_mb, name=f"{name}-ram", mergeable=True
        )
        self.vmcs = []
        for index in range(vcpus):
            vpid = allocate_vpid(kvm._vpids)
            kvm._vpids.add(vpid)
            self.vmcs.append(
                Vmcs(
                    kvm.system.memory,
                    name,
                    index,
                    vpid,
                    cpu_vendor=kvm.system.cpu.vendor,
                )
            )
        self.destroyed = False

    @property
    def depth(self):
        """Virtualization depth of the guest this VM hosts."""
        return self.memory.nesting_depth

    def record_exit(self, reason, count=1.0):
        """Account ``count`` exits of ``reason`` against vCPU 0."""
        self.vmcs[0].record_exit(reason, count)
        tracer = self._tracer
        if tracer.enabled:
            tracer.vm_exit(self.name, reason, count, self.depth)

    @property
    def traced(self):
        """Whether :meth:`record_exit` currently emits trace events."""
        return self._tracer.enabled

    def exit_sink(self):
        """The dict :meth:`record_exit` bumps (vCPU 0's ``exit_counts``).

        ``sink[reason] = sink.get(reason, 0.0) + n`` is exactly
        ``record_exit(reason, n)`` while :attr:`traced` is off; batching
        callers add to it directly and call ``record_exit`` otherwise.
        """
        return self.vmcs[0].exit_counts

    @property
    def total_exits(self):
        return sum(v.total_exits for v in self.vmcs)

    def exit_count(self, reason):
        return sum(v.exit_counts.get(reason, 0) for v in self.vmcs)

    def destroy(self):
        """Release VMCS pages and guest memory."""
        if self.destroyed:
            return
        self.destroyed = True
        for vmcs in self.vmcs:
            self.kvm._vpids.discard(vmcs.vpid)
            vmcs.release()
        self.memory.release()
        self.kvm.vms.pop(self.name, None)

    def __repr__(self):
        return f"<KvmVm {self.name} vcpus={self.vcpus} depth={self.depth}>"


class Kvm:
    """The KVM module loaded inside one operating system."""

    def __init__(self, system):
        if not system.cpu.vmx:
            raise HypervisorError(
                "kvm-intel: VMX unavailable "
                "(CPU lacks VT-x or parent did not expose nested virtualization)"
            )
        self.system = system
        self.vms = {}
        self._vpids = set()

    def create_vm(self, name, vcpus=1, memory_mb=1024, expose_vmx=False):
        """Create kernel state for a VM (QEMU's KVM_CREATE_VM path)."""
        faults = self.system.engine.faults
        if faults is not None:
            faults.check_vm_create(self.system)
        if name in self.vms:
            raise HypervisorError(f"VM name already in use: {name!r}")
        if vcpus < 1:
            raise HypervisorError("VM needs at least one vCPU")
        vm = KvmVm(self, name, vcpus, memory_mb, expose_vmx)
        self.vms[name] = vm
        return vm

    def destroy_vm(self, name):
        vm = self.vms.get(name)
        if vm is None:
            raise HypervisorError(f"no such VM: {name!r}")
        vm.destroy()

    @property
    def nesting_depth(self):
        """Depth of guests created by this KVM instance."""
        return self.system.memory.nesting_depth + 1

    def __repr__(self):
        return f"<Kvm on {self.system.name!r} vms={list(self.vms)}>"
