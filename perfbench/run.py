"""Benchmark entry point: one workload, end-to-end or per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <paper|stream|tenants> \\
        --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` spawns set-up probes and one measuring worker, each a fresh
interpreter, and reports the end-to-end metrics listed in BENCHMARK.json.
``peak_rss_mb`` is reported as measured.  Host times are reported at the
reference machine speed.  The shared host this runs on moves between
speed levels up to 1.8x apart, in spells from seconds to minutes long, and
only ever adds time.  So the worker takes each chunk of an iteration's
syscalls from the iteration that ran it fastest, and divides its time by
how much slower than nominal a fixed pure-Python reference task ran at
its fastest at that point of the work (``metrics.fastest_chunks``,
``probe.reference_seconds``); ``setup_s`` divides each set-up sample by
the task's time just after it.  The raw values, and the task's fastest
time over nominal (``speed_factor``), are printed in the table.
``--trace 1`` runs one iteration untraced and one iteration with layer
spans, each in a fresh interpreter, checks the trace identities, the
traced-versus-untraced fingerprint and the layer coverage, and reports the
per-layer metrics.  Both print a human-readable table, then as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every output check passed, 1 when one failed or a worker
did not finish, 2 when the command line is wrong or the program to measure
(``src/repro``) is missing.

The ``BENCH_*.json`` files at the repository root stay the virtual-time
history of their own harnesses; this benchmark does not replace them.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import selftest  # noqa: E402
from perfbench.metrics import median, ratio  # noqa: E402

WORKLOAD_NAMES = ("paper", "stream", "tenants")
#: Set-up probes per untraced run; with the measuring worker's own set-up
#: that makes five samples, whose median is reported.
SETUP_PROBES = 4
#: Every worker of one invocation must finish within this many seconds.
DEADLINE_S = 170
#: Where traced runs leave their raw span table and full report.
OUT_DIR = ROOT / ".perfbench"

#: The end-to-end metrics, in BENCHMARK.json order: name -> unit.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_us_p50": "us",
              "op_us_p99": "us", "peak_rss_mb": "MB"}

#: Layer coverage: what each workload must (and must not) exercise, checked
#: on every traced run of one iteration.  Paper's timed part is the only one
#: that forks snapshots (43 per iteration); the walk bounds keep stream's
#: path walks per syscall far below paper's.
COVERAGE = {
    "paper": [("sched.picks", "==", 0), ("memcg.throttle_events", "==", 0),
              ("memcg.reclaims", "==", 0), ("fuse.queue.congestion_waits", "==", 0),
              ("fork.calls", ">", 0), ("vfs.walks_per_syscall", ">=", 0.15)],
    "stream": [("sched.picks", "==", 0), ("memcg.throttle_events", "==", 0),
               ("memcg.reclaims", "==", 0), ("fuse.queue.congestion_waits", "==", 0),
               ("vfs.walks_per_syscall", "<=", 0.015)],
    "tenants": [("sched.picks", ">", 0), ("memcg.throttle_events", ">", 0),
                ("memcg.reclaims", ">", 0), ("fuse.queue.congestion_waits", ">", 0)],
}

_OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


class WorkerError(Exception):
    """A worker crashed, timed out or printed no result."""


def run_worker(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run ``python -m perfbench.worker argv``; return its result and the
    monotonic time just before it was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", *argv],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {' '.join(argv)} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {' '.join(argv)} printed nothing")
    return json.loads(lines[-1]), started


# ---------------------------------------------------------------------------
# --trace 0
# ---------------------------------------------------------------------------
def end_to_end(args, deadline: float):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []                      # (seconds, speed factor just after)
    for _ in range(SETUP_PROBES):
        probe, started = run_worker(base + ["--setup-only"], deadline)
        setups.append((probe["first_op_monotonic"] - started, probe["setup_speed_factor"]))
    result, started = run_worker(base + ["--seconds", str(args.seconds)], deadline)
    setups.append((result["first_op_monotonic"] - started, result["setup_speed_factor"]))
    raw = {"setup_s": median([seconds for seconds, _ in setups])}
    raw.update((name, result[f"raw.{name}"]) for name in ("ops_per_s", "op_us_p50", "op_us_p99"))
    metrics = {
        "setup_s": median([seconds / factor for seconds, factor in setups]),
        **{name: result[name] for name in ("ops_per_s", "op_us_p50", "op_us_p99")},
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = {
        **{f"raw.{name}": (value, END_TO_END[name]) for name, value in raw.items()},
        "speed_factor": (result["speed_factor"], "ratio"),
        "op_fail_frac": (ratio(result["checks_failed"], result["checks_attempted"]),
                         "ratio"),
        "latency_samples": (result["latency_samples"], "count"),
        "iterations": (result["iterations"], "count"),
        "timed_s": (result["timed_ns"] / 1e9, "s"),
        "virtual_ms": (result["virtual_ns"] / 1e6, "virt_ms"),
        **{name: tuple(value) for name, value in result["summary"].items()},
    }
    lines = [f"fingerprint {result['fingerprint']}"]
    return metrics, extra, lines, result


# ---------------------------------------------------------------------------
# --trace 1
# ---------------------------------------------------------------------------
def layer_metrics(traced: dict, untraced: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, in BENCHMARK.json order."""
    trace = traced["trace"]
    layers = trace["layers"]
    setup_layers = trace["setup_layers"]
    c = traced["counters"]

    def layer(name: str, key: str) -> int:
        return layers.get(name, {}).get(key, 0)

    def host_ms(name: str) -> tuple[float, str]:
        return layer(name, "host_self_ns") / 1e6, "ms"

    def virt_ms(name: str) -> tuple[float, str]:
        return layer(name, "virt_self_ns") / 1e6, "virt_ms"

    syscalls = layer("syscalls", "calls")
    walks = trace["walks"]
    hits, misses = c.get("dcache.hits", 0), c.get("dcache.misses", 0)
    pc_hits, pc_misses = c.get("pagecache.hits", 0), c.get("pagecache.misses", 0)
    requests = c.get("fuse.requests_total", 0)
    fuse_bytes = c.get("fuse.bytes_to_server", 0) + c.get("fuse.bytes_from_server", 0)
    commits = c.get("journal.commits", 0)
    records = c.get("journal.records_committed", 0)
    advances = trace["advances"]
    untraced_s = untraced["timed_ns"] / 1e9
    traced_s = traced["timed_ns"] / 1e9

    def both(name: str, key: str) -> int:
        return (layers.get(name, {}).get(key, 0)
                + setup_layers.get(name, {}).get(key, 0))

    metrics = {
        "syscalls.calls": (syscalls, "count"),
        "syscalls.errors": (layer("syscalls", "errors"), "count"),
        "syscalls.self_host_ms": host_ms("syscalls"),
        "syscalls.self_virtual_ms": virt_ms("syscalls"),
        "vfs.calls": (layer("vfs", "calls"), "count"),
        "vfs.self_host_ms": host_ms("vfs"),
        "vfs.self_virtual_ms": virt_ms("vfs"),
        "vfs.walks": (walks, "count"),
        "vfs.walks_per_syscall": (ratio(walks, syscalls), "ratio"),
        "vfs.dcache.hits": (hits, "count"),
        "vfs.dcache.misses": (misses, "count"),
        "vfs.dcache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "pagecache.calls": (layer("pagecache", "calls"), "count"),
        "pagecache.hits": (pc_hits, "count"),
        "pagecache.misses": (pc_misses, "count"),
        "pagecache.hit_ratio": (ratio(pc_hits, pc_hits + pc_misses), "ratio"),
        "pagecache.evictions": (c.get("pagecache.evictions", 0), "count"),
        "pagecache.self_host_ms": host_ms("pagecache"),
        "pagecache.self_virtual_ms": virt_ms("pagecache"),
        "fuse_client.calls": (layer("fuse_client", "calls"), "count"),
        "fuse_client.self_host_ms": host_ms("fuse_client"),
        "fuse_client.self_virtual_ms": virt_ms("fuse_client"),
        "fuse.requests": (requests, "count"),
        "fuse.requests_per_syscall": (ratio(requests, syscalls), "ratio"),
        "fuse.bytes": (fuse_bytes, "B"),
        "fuse.bytes_per_request": (ratio(fuse_bytes, requests), "B"),
        "fuse.errors": (c.get("fuse.errors", 0), "count"),
        "fuse.self_host_ms": host_ms("fuse"),
        "fuse.self_virtual_ms": virt_ms("fuse"),
        "fuse.queue.congestion_waits": (c.get("fuse.queue.congestion_waits", 0), "count"),
        "fuse.queue.congestion_wait_ms": (c.get("fuse.queue.congestion_wait_ns", 0) / 1e6,
                                          "virt_ms"),
        "fuse.queue.max_depth": (c.get("fuse.queue.max_depth", 0), "count"),
        "cntrfs.handled": (c.get("cntrfs.handled", 0), "count"),
        "cntrfs.errors": (c.get("cntrfs.errors", 0), "count"),
        "cntrfs.lookups": (c.get("cntrfs.lookups", 0), "count"),
        "cntrfs.self_host_ms": host_ms("cntrfs"),
        "cntrfs.self_virtual_ms": virt_ms("cntrfs"),
        "ext4.self_host_ms": host_ms("ext4"),
        "ext4.self_virtual_ms": virt_ms("ext4"),
        "journal.commits": (commits, "count"),
        "journal.records": (records, "count"),
        "journal.records_per_commit": (ratio(records, commits), "ratio"),
        "blockdev.writes": (c.get("blockdev.writes", 0), "count"),
        "blockdev.flushes": (c.get("blockdev.flushes", 0), "count"),
        "blockdev.seeks": (c.get("blockdev.seeks", 0), "count"),
        "tmpfs.self_host_ms": host_ms("tmpfs"),
        "tmpfs.self_virtual_ms": virt_ms("tmpfs"),
        "writeback.flushes": (c.get("writeback.flushes", 0), "count"),
        "writeback.flushed_mb": (c.get("writeback.flushed_bytes", 0) / 1e6, "MB"),
        "writeback.self_host_ms": host_ms("writeback"),
        "writeback.self_virtual_ms": virt_ms("writeback"),
        "bdi.busy_ms": (c.get("bdi.busy_ns", 0) / 1e6, "virt_ms"),
        "writeback.dirty_throttle_ms": (c.get("writeback.dirty_throttle_ns", 0) / 1e6,
                                        "virt_ms"),
        "memcg.throttle_events": (c.get("memcg.throttle_events", 0), "count"),
        "memcg.throttle_stall_ms": (c.get("memcg.throttle_stall_ns", 0) / 1e6, "virt_ms"),
        "memcg.reclaims": (c.get("memcg.reclaims", 0), "count"),
        "memcg.self_host_ms": host_ms("memcg"),
        "memcg.self_virtual_ms": virt_ms("memcg"),
        "sched.picks": (c.get("sched.picks", 0), "count"),
        "sched.context_switches": (c.get("sched.context_switches", 0), "count"),
        "sched.wait_ms": (c.get("sched.wait_ns", 0) / 1e6, "virt_ms"),
        "sched.self_host_ms": host_ms("sched"),
        "sched.self_virtual_ms": virt_ms("sched"),
        "attach.calls": (both("attach", "calls"), "count"),
        "attach.host_ms": (trace.get("attach_host_ns", 0) / 1e6, "ms"),
        "attach.virtual_ms": (trace.get("attach_virtual_ns", 0) / 1e6, "virt_ms"),
        "fork.calls": (layer("fork", "calls"), "count"),
        "fork.host_ms": (layer("fork", "host_total_ns") / 1e6, "ms"),
        "snapshot.calls": (both("snapshot", "calls"), "count"),
        "snapshot.host_ms": (both("snapshot", "host_total_ns") / 1e6, "ms"),
        "workload.self_host_ms": host_ms("workload"),
        "workload.self_virtual_ms": virt_ms("workload"),
        "virtual_ms": (trace["virtual_ns"] / 1e6, "virt_ms"),
        "clock.advances": (advances, "count"),
        "host_us_per_advance": (ratio(untraced_s * 1e6, advances), "us"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_frac": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
        "trace.spans": (trace["spans"], "count"),
    }
    return metrics


def contract_mismatch() -> str | None:
    """Why BENCHMARK.json and this script disagree on the metrics, if they do."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    if declared != list(END_TO_END.items()):
        return f"end_to_end {declared} != {list(END_TO_END.items())}"
    empty = {"trace": {"layers": {}, "setup_layers": {}, "walks": 0, "advances": 0,
                       "virtual_ns": 0, "spans": 0},
             "counters": {}, "timed_ns": 0}
    produced = [(name, unit) for name, (_v, unit) in layer_metrics(empty, empty).items()]
    declared = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    if declared != produced:
        return "per_layer names or units differ from layer_metrics()"
    return None


def per_layer(args, deadline: float):
    base = ["--workload", args.workload, "--seed", str(args.seed), "--iterations", "1"]
    untraced, _ = run_worker(base, deadline)
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = OUT_DIR / f"{args.workload}-spans.bin"
    traced, _ = run_worker(base + ["--trace", "--spans-out", str(spans_out)], deadline)
    (OUT_DIR / f"{args.workload}-trace.json").write_text(
        json.dumps({"traced": traced, "untraced": untraced}, indent=1, sort_keys=True))
    metrics = layer_metrics(traced, untraced)
    trace = traced["trace"]
    identities = [
        (traced["fingerprint"] == untraced["fingerprint"],
         f"traced fingerprint {traced['fingerprint'][:16]} != untraced "
         f"{untraced['fingerprint'][:16]}"),
        # Against the untraced worker's units, which no span touched.
        (trace["virt_self_sum_ns"] == untraced["virtual_ns"],
         f"virtual self times {trace['virt_self_sum_ns']} != untraced workload "
         f"virtual {untraced['virtual_ns']}"),
        # Against the worker's own clock reads around the iteration, a few
        # statements outside the root span.
        (abs(trace["host_self_sum_ns"] - traced["elapsed_ns"]) <= 100_000,
         f"host self times {trace['host_self_sum_ns']} ns vs worker wall "
         f"{traced['elapsed_ns']} ns"),
    ]
    for name, op, bound in COVERAGE[args.workload]:
        value = metrics[name][0]
        identities.append((_OPS[op](value, bound),
                           f"coverage: {name} = {value}, expected {op} {bound}"))
    failures = [message for ok, message in identities if not ok]
    # The model-output fingerprint extended by every layer's virtual self
    # time: deterministic, so equal across runs of an unchanged model.
    layer_virtual = sorted((name, entry["virt_self_ns"])
                           for name, entry in trace["layers"].items())
    layer_print = hashlib.sha256(
        json.dumps([traced["fingerprint"], layer_virtual]).encode()).hexdigest()
    lines = [f"fingerprint {traced['fingerprint']}",
             f"layer virtual fingerprint {layer_print}",
             f"trace identities and coverage: {len(identities) - len(failures)}"
             f"/{len(identities)} hold"]
    return metrics, failures, len(identities), lines, (traced, untraced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # Byte-compile the program as its first run would, so that every fresh
    # interpreter's set-up loads cached bytecode, whatever
    # PYTHONDONTWRITEBYTECODE says.
    for package in (ROOT / "src", ROOT / "perfbench"):
        compileall.compile_dir(package, quiet=1)
    mismatch = contract_mismatch()
    if mismatch:
        print(f"perfbench: BENCHMARK.json disagrees with run.py: {mismatch}",
              file=sys.stderr)
        return 2
    failed_selftests = selftest.run()
    if failed_selftests:
        print(f"perfbench: self-tests failed: {', '.join(failed_selftests)}",
              file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            table, failures, n_checks, lines, workers = per_layer(args, deadline)
            attempted = n_checks + sum(w["checks_attempted"] for w in workers)
            failed = len(failures) + sum(w["checks_failed"] for w in workers)
            failures += [m for w in workers for m in w["failures"]]
            reported = table
        else:
            metrics, extra, lines, result = end_to_end(args, deadline)
            attempted = result["checks_attempted"]
            failed = result["checks_failed"]
            failures = result["failures"]
            reported = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
            table = {**reported, **extra}
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    for name, (value, unit) in table.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    for message in failures:
        print(f"  FAILED: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": max(1, attempted),
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in reported.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
