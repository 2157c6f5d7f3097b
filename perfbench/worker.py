"""One benchmark worker: a fresh interpreter that sets up once, then runs
a fixed number of operations back to back, each in a child forked from
the set-up state.

Forking gives every operation the state a fresh ``repro`` process has
after its imports — no cache, memo or heap warmed by an earlier
operation — without paying the import again.  CPU time, wall time and
peak RSS are taken inside the child around the operation alone.

Run by ``perfbench/run.py``; writes one JSON object per line to stdout::

    python3 perfbench/worker.py --workload W --seed N --first K \
        --count N [--trace]
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _measure(workload, sim_seed, trace, hook):
    """Run one operation in this (child) process; returns its record."""
    run, check = workloads.WORKLOADS[workload]
    if hook is not None:
        hook()
    tracer = None
    if trace:
        from layers import LayerTrace

        tracer = LayerTrace()
        tracer.install()
    children_before = _children_cpu()
    cpu_before = time.process_time()
    wall_before = time.perf_counter()
    if tracer is None:
        fingerprint = run(sim_seed)
    else:
        fingerprint = tracer.root(run, sim_seed)
    wall = time.perf_counter() - wall_before
    # Children too (a pool or shard worker must not hide its work).
    cpu = time.process_time() - cpu_before + _children_cpu() - children_before
    record = {
        "sim_seed": sim_seed,
        "cpu_s": cpu,
        "wall_s": wall,
        # ru_maxrss is in KiB on Linux.
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint,
        "problems": check(fingerprint),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["spans"] = tracer.span_records()
        tracer.uninstall()
    return record


def run_op(workload, sim_seed, trace=False, hook=None):
    """Fork a child, run one operation there, return its record.

    ``hook`` runs in the child before the operation (the benchmark's
    self-test uses it to inject a known slowdown).  A child that raises
    returns ``{"error": traceback}``.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        try:
            os.close(read_fd)
            # stdout carries the worker's records; the workload's own
            # output goes to stderr.
            os.dup2(2, 1)
            try:
                payload = json.dumps(_measure(workload, sim_seed, trace, hook))
            except BaseException:  # reported to the parent as a failed op
                payload = json.dumps({"sim_seed": sim_seed, "error": traceback.format_exc()})
            with os.fdopen(write_fd, "w") as out:
                out.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return json.loads(payload)
    except ValueError:
        return {"sim_seed": sim_seed, "error": f"child died (wait status {status})"}


def set_up(workload):
    """Import what the workload runs; returns the import seconds."""
    from importlib import import_module

    started = time.perf_counter()
    import_module("repro")
    for module in workloads.IMPORTS[workload]:
        import_module(module)
    return time.perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, required=True, help="first panel index")
    parser.add_argument("--count", type=int, required=True, help="operations to run")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    imports_s = set_up(args.workload)
    panel = workloads.PANEL_SIZE[args.workload]
    seeds = [workloads.panel_seed(args.seed, k) for k in range(panel)]
    emit = lambda record: print(json.dumps(record), flush=True)
    emit({"kind": "setup", "built_at": time.monotonic(), "imports_s": imports_s})
    if args.trace:
        from layers import wrapper_cost

        wrapper_cost()  # once, before forking, shared by every traced child
    for k in range(args.first, args.first + args.count):
        sim_seed = seeds[k % panel]
        emit({"kind": "op", "k": k, **run_op(args.workload, sim_seed)})
        if args.trace:
            # The traced repeat of the same input gives the tracing
            # overhead and checks that tracing changes no result.
            emit({"kind": "traced", "k": k, **run_op(args.workload, sim_seed, trace=True)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
