"""One workload in one fresh interpreter; prints one JSON result line.

Launched by ``run.py`` as ``python3 -m perfbench.worker`` with ``src`` and
the checkout root on ``PYTHONPATH``.  Modes:

* ``--setup-only``: import and set up, report when the first timed
  operation would start, exit (set-up time probes);
* ``--iterations 0``: loop whole iterations until ``--seconds`` of host
  time have been measured (at least one);
* ``--iterations N``: exactly N iterations (the traced comparison);
* ``--trace``: additionally record layer spans and report their reduction.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext

from perfbench.metrics import LatencyHistogram, fastest_chunks
from perfbench.probe import (LAYERS, REFERENCE_NOMINAL_S, Measurement, SpanRecorder,
                             SyscallMeter, install_scheduler_counters, merge_counters,
                             reference_seconds)
from perfbench.workloads import Checks, WORKLOADS

#: At most this many failure messages are carried in the result.
MAX_MESSAGES = 20
#: Speed readings taken right after set-up; the fastest scales set-up time.
SETUP_SPEED_SAMPLES = 3


class Context:
    """What a workload may reach: the current iteration's measurement and
    the span recorder (``None`` untraced)."""

    def __init__(self, recorder: SpanRecorder | None) -> None:
        self.recorder = recorder
        self.measurement = Measurement()


def fingerprint(outputs: dict, measurement: Measurement) -> str:
    """Digest of an iteration's virtual output: its deterministic outputs,
    virtual time, unit count and every model counter."""
    blob = json.dumps({"outputs": outputs,
                       "virtual_ns": measurement.odometer.total_ns,
                       "units": measurement.odometer.units,
                       "counters": measurement.counters},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--iterations", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    meter = SyscallMeter()
    meter.install()
    recorder = None
    if args.trace:
        recorder = SpanRecorder(None)
        recorder.install()
    ctx = Context(recorder)
    install_scheduler_counters(lambda: ctx.measurement)
    workload = WORKLOADS[args.workload](args.seed, ctx)

    if recorder is not None:
        recorder.odometer = ctx.measurement.odometer
        recorder.active = True
    with recorder.span("setup") if recorder is not None else nullcontext():
        workload.setup()
    first_op = time.monotonic()
    # The machine's speed just after set-up, read before anything else runs.
    setup_speed = min(reference_seconds() for _ in range(SETUP_SPEED_SAMPLES))
    setup_speed_factor = setup_speed / REFERENCE_NOMINAL_S
    if args.setup_only:
        print(json.dumps({"first_op_monotonic": first_op,
                          "setup_speed_factor": setup_speed_factor}))
        return 0

    iterations, prints, counters = [], [], {}
    checks = Checks()
    timed_ns = elapsed_ns = 0
    walks = advances = 0
    records = []
    roots = []
    virtual_sum = 0
    budget_ns = int(args.seconds * 1e9)
    while True:
        if recorder is not None:
            recorder.active = False
        # The previous iteration's kernels are cyclic garbage; collect it
        # outside the timed region so every iteration starts alike.
        gc.collect()
        workload.prepare()
        measurement = ctx.measurement = Measurement()
        if recorder is not None:
            recorder.odometer = measurement.odometer
            recorder.active = True
            walks0, advances0 = recorder.walks, recorder.advances
            roots.append(recorder.open(LAYERS.index("workload")))
        t0 = time.perf_counter_ns()
        # Traced runs take no speed readings: they would land in the spans.
        meter.begin(lambda m=measurement: time.perf_counter_ns() - m.bookkeeping_ns,
                    (lambda m=measurement: m.bookkeep(reference_seconds))
                    if recorder is None else None)
        meter.active = True
        it = workload.run()
        elapsed = time.perf_counter_ns() - t0
        meter.active = False
        record = meter.end()
        if recorder is not None:
            recorder.close(roots[-1])
            recorder.active = False
            walks += recorder.walks - walks0
            advances += recorder.advances - advances0
        elapsed_ns += elapsed
        timed_ns += elapsed - measurement.bookkeeping_ns
        records.append(record)
        workload.check(it, checks)
        iterations.append(it)
        if len(iterations) == 1:
            # Peak RSS through set-up and one iteration: later iterations
            # repeat the same work, and reading the peak after a
            # time-dependent number of them would let anything the program
            # retains per iteration turn speed into memory.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        prints.append(fingerprint(it.outputs, measurement))
        virtual_sum += measurement.odometer.total_ns
        merge_counters(counters, measurement.counters)
        done = len(iterations)
        if args.iterations:
            if done >= args.iterations:
                break
        elif timed_ns >= budget_ns:
            break

    if len(set(prints)) != 1:
        checks.expect(False, f"virtual fingerprints differ across iterations: {prints}")
    # A syscall that escapes a workload with an errno is a failure.
    checks.attempted += meter.calls
    for _ in range(meter.errors):
        checks.failures.append("unexpected errno from a syscall")

    speed_metrics = {}
    if recorder is None:     # traced runs take no speed readings
        try:
            speed_metrics = end_to_end_metrics(records)
        except ValueError as exc:
            checks.expect(False, str(exc))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(iterations),
        "first_op_monotonic": first_op,
        "setup_speed_factor": setup_speed_factor,
        "timed_ns": timed_ns,
        "elapsed_ns": elapsed_ns,
        "syscalls": meter.calls,
        "syscall_errors": meter.errors,
        **speed_metrics,
        "peak_rss_mb": peak_rss_kb / 1024,
        "fingerprint": prints[0],
        "virtual_ns": virtual_sum // len(iterations),
        "counters": counters,
        "checks_attempted": checks.attempted,
        "checks_failed": len(checks.failures),
        "failures": checks.failures[:MAX_MESSAGES],
        "summary": workload.summary(iterations, timed_ns / 1e9),
    }
    if recorder is not None:
        result["trace"] = trace_report(recorder, roots, workload, virtual_sum)
        result["trace"].update(walks=walks, advances=advances)
        if args.spans_out:
            recorder.dump(args.spans_out)
    print(json.dumps(result, sort_keys=True))
    return 0


def end_to_end_metrics(records: list) -> dict:
    """Syscalls per second and p50/p99 latency of one iteration assembled
    from each chunk's fastest run, at the reference speed and raw
    (``raw.*``).

    Picking each chunk's fastest run also leaves out the first iteration's
    cold start (adaptive bytecode, allocator arenas, lazy imports) wherever
    a later iteration ran the chunk warm.
    """
    raw, scaled = LatencyHistogram(), LatencyHistogram()
    raw_ns = scaled_ns = 0.0
    for ns, latencies, speed in fastest_chunks(
            records, SyscallMeter.CHUNK_CALLS, SyscallMeter.SPEED_STRIDE):
        factor = speed / REFERENCE_NOMINAL_S
        raw_ns += ns
        scaled_ns += ns / factor
        for latency in latencies:
            raw.add(latency)
            scaled.add(round(latency / factor))
    fastest = min(speed for _lat, _stamps, speeds in records for speed in speeds)
    metrics = {"latency_samples": scaled.total,
               "speed_factor": fastest / REFERENCE_NOMINAL_S}
    for prefix, histogram, total_ns in (("", scaled, scaled_ns), ("raw.", raw, raw_ns)):
        metrics[f"{prefix}ops_per_s"] = histogram.total * 1e9 / total_ns
        metrics[f"{prefix}op_us_p50"] = histogram.percentile(0.50) / 1e3
        metrics[f"{prefix}op_us_p99"] = histogram.percentile(0.99) / 1e3
    return metrics


def trace_report(recorder: SpanRecorder, roots: list[int], workload,
                 virtual_sum: int) -> dict:
    """Reduce the spans: per-layer self times over the timed roots and
    totals over the set-up root."""
    timed: dict[str, dict[str, int]] = {}
    for root in roots:
        for layer, entry in recorder.reduce(root).items():
            into = timed.setdefault(layer, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
    setup = recorder.reduce(0)           # span 0 is the set-up root
    report = {
        "layers": timed,
        "setup_layers": setup,
        "spans": len(recorder),
        "host_self_sum_ns": sum(e["host_self_ns"] for e in timed.values()),
        "virt_self_sum_ns": sum(e["virt_self_ns"] for e in timed.values()),
        "virtual_ns": virtual_sum,
    }
    attach_host = getattr(workload, "attach_host_ns", None)
    if attach_host is not None:
        report["attach_host_ns"] = attach_host
        report["attach_virtual_ns"] = workload.attach_virtual_ns
    return report


if __name__ == "__main__":
    sys.exit(main())
