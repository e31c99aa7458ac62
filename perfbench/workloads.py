"""The three benchmark workloads.

Each workload has an untimed ``setup`` (imports are already done; boots,
pre-booted snapshots and container starts happen here), an untimed
``prepare`` before every iteration, and a timed ``run`` that returns the
iteration's deterministic outputs plus its host-side phase timings.  Every
iteration does identical simulated work, so its virtual fingerprint must
repeat exactly.  All load comes from this single process and every
simulated client is a closed loop: it issues its next syscall only after the
previous one returned.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from perfbench.metrics import direction_agreement, mean_log_error, median

# Figure 3 reference values, from the paper notes in ``repro.bench.harness``
# (Figure 3a "~10x", 3c "~2.5x", 3d "~5%").  3b is left out: the paper gives
# it relative to native, not as a before/after ratio.
FIG3_PAPER = {"read_cache": 10.0, "batching": 2.5, "splice_read": 1.05}


@dataclass
class Iteration:
    """What one timed iteration produced."""

    outputs: dict
    #: Host seconds of named phases inside the iteration (not fingerprinted).
    phases: dict = field(default_factory=dict)


class Checks:
    """Output checks of one iteration: each is attempted, some may fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        self.attempted += 1
        if not condition:
            self.failures.append(message)


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


class Workload:
    """Base class; see the module docstring for the life cycle."""

    name = ""

    def __init__(self, seed: int, context) -> None:
        self.seed = seed
        self.ctx = context

    def setup(self) -> None:
        """Untimed, once per process."""

    def prepare(self) -> None:
        """Untimed, before every iteration."""

    def run(self) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration, checks: Checks) -> None:
        raise NotImplementedError

    def summary(self, iterations: list[Iteration], timed_s: float) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        return {}


# ---------------------------------------------------------------------------
# paper: Figures 2-4 as a user regenerates them
# ---------------------------------------------------------------------------
class Paper(Workload):
    """Figures 2-4 once per iteration; the seed is only recorded."""

    name = "paper"

    def setup(self) -> None:
        from repro.bench import harness

        self.harness = harness
        run_in = harness._run_in   # noqa: SLF001 - the per-measurement step
        ctx = self.ctx

        def unit_run_in(env, workload, through_cntr):
            with ctx.measurement.unit(env.machine.kernel):
                return run_in(env, workload, through_cntr)

        # Every native or CntrFS measurement (prepare + measured phase) runs
        # on one environment's kernel: that is the unit whose virtual time
        # and counters the fingerprint sums.
        harness._run_in = unit_run_in   # noqa: SLF001

    def prepare(self) -> None:
        # Each iteration starts from an empty environment cache, as a fresh
        # `figure*` run does, so every iteration boots the same kernels.
        self.harness._ENV_SNAPSHOTS.clear()   # noqa: SLF001

    def run(self) -> Iteration:
        h = self.harness
        fig2 = h.figure2_phoronix_overheads()
        fig3 = h.figure3_optimization_effects()
        fig4 = h.figure4_thread_sweep()
        return Iteration(outputs={
            "fig2": [[r.workload, r.native_ns, r.cntr_ns, r.paper_overhead]
                     for r in fig2],
            "fig3": [[e.name, e.before, e.after] for e in fig3],
            "fig4": [[p.threads, p.duration_ns, p.throughput_mb_s] for p in fig4],
        })

    def check(self, it: Iteration, checks: Checks) -> None:
        out = it.outputs
        checks.expect(len(out["fig2"]) == 20, "figure 2 has 20 workloads")
        for name, native_ns, cntr_ns, _paper in out["fig2"]:
            checks.expect(_positive(native_ns), f"fig2 {name}: native time")
            checks.expect(_positive(cntr_ns), f"fig2 {name}: cntr time")
        effects = {name: (before, after) for name, before, after in out["fig3"]}
        for name, (before, after) in effects.items():
            checks.expect(_positive(before) and _positive(after),
                          f"fig3 {name}: finite positive throughput")
        gain = {name: after / before for name, (before, after) in effects.items()
                if _positive(before) and _positive(after)}
        # The shape gates of benchmarks/test_bench_figure3_optimizations.py.
        checks.expect(gain.get("read_cache", 0) > 1.5, "fig3a read cache > 1.5x")
        checks.expect(gain.get("writeback_cache", 0) > 1.2, "fig3b writeback > 1.2x")
        checks.expect(gain.get("batching", 0) > 1.05, "fig3c batching > 1.05x")
        checks.expect(0.7 < gain.get("splice_read", 0) < 1.5, "fig3d splice small")
        points = out["fig4"]
        for threads, duration_ns, mb_s in points:
            checks.expect(_positive(duration_ns) and _positive(mb_s),
                          f"fig4 {threads} threads: finite positive")
        # The shape gates of benchmarks/test_bench_figure4_multithreading.py.
        speeds = [mb_s for _t, _d, mb_s in points]
        if all(_positive(s) for s in speeds) and speeds:
            drop = 1.0 - speeds[-1] / speeds[0]
            checks.expect(0.0 <= drop <= 0.25, "fig4 1->16 thread drop in [0, 25%]")
            checks.expect(all(a >= b * 0.98 for a, b in zip(speeds, speeds[1:])),
                          "fig4 throughput non-increasing")

    def summary(self, iterations: list[Iteration], timed_s: float) -> dict:
        out = iterations[0].outputs
        fig2 = [(cntr / native, paper) for _n, native, cntr, paper in out["fig2"]]
        gains = {name: after / before for name, before, after in out["fig3"]}
        fig3 = [(gains[name], paper) for name, paper in FIG3_PAPER.items()]
        return {
            "fig2_log_err": (mean_log_error(fig2), "ln"),
            "fig2_agree": (direction_agreement(fig2), "count"),
            "fig3_log_err": (mean_log_error(fig3), "ln"),
        }


# ---------------------------------------------------------------------------
# stream: one file through CntrFS in 4 KiB records
# ---------------------------------------------------------------------------
class Stream(Workload):
    """Buffered write + fsync, cold read, warm read of one cached file."""

    name = "stream"
    RECORD = 4096                    # IOzone's record size
    SIZE = 24 << 20                  # fits the 2 GiB page cache many times over

    def setup(self) -> None:
        from repro.bench.harness import BenchEnvironment
        from repro.fs.constants import OpenFlags

        self.flags = OpenFlags
        env = BenchEnvironment()
        self.snapshot = env.machine.kernel.snapshot(env)
        self.payload = b"w" * self.RECORD

    def prepare(self) -> None:
        _kernel, (self.env,) = self.snapshot.fork()

    def _read_all(self, sc, path: str) -> int:
        fd = sc.open(path, self.flags.O_RDONLY)
        total = 0
        while True:
            data = sc.read(fd, self.RECORD)
            if not data:
                break
            total += len(data)
        sc.close(fd)
        return total

    def run(self) -> Iteration:
        env = self.env
        kernel = env.machine.kernel
        sc, base = env.cntr_access()
        path = f"{base}/stream.dat"
        measurement = self.ctx.measurement

        def clock() -> float:
            # Host seconds less the benchmark's own bookkeeping so far.
            return (time.perf_counter_ns() - measurement.bookkeeping_ns) / 1e9

        with measurement.unit(kernel):
            v0 = kernel.clock.now_ns
            t0 = clock()
            fd = sc.open(path, self.flags.O_CREAT | self.flags.O_WRONLY, 0o644)
            written = 0
            payload = self.payload
            while written < self.SIZE:
                written += sc.write(fd, payload)
            sc.fsync(fd)
            sc.close(fd)
            t1 = clock()
            v1 = kernel.clock.now_ns
            env.drop_fuse_caches()
            v2 = kernel.clock.now_ns
            t2 = clock()
            cold = self._read_all(sc, path)
            t3 = clock()
            v3 = kernel.clock.now_ns
            warm = self._read_all(sc, path)
            t4 = clock()
            v4 = kernel.clock.now_ns
        virtual = {"write": v1 - v0, "read_cold": v3 - v2, "read_warm": v4 - v3}
        return Iteration(
            outputs={"written": written, "read_cold": cold, "read_warm": warm,
                     "virtual_ns": virtual},
            phases={"write": t1 - t0, "read_cold": t3 - t2, "read_warm": t4 - t3})

    def check(self, it: Iteration, checks: Checks) -> None:
        out = it.outputs
        checks.expect(out["written"] == self.SIZE, "write phase wrote the file")
        checks.expect(out["read_cold"] == out["written"], "cold read returned every byte")
        checks.expect(out["read_warm"] == out["written"], "warm read returned every byte")

    def summary(self, iterations: list[Iteration], timed_s: float) -> dict:
        mb = self.SIZE / 1e6
        return {f"{phase}_mb_s": (median([mb / it.phases[phase] for it in iterations]),
                                  "MB/s")
                for phase in ("write", "read_cold", "read_warm")}


# ---------------------------------------------------------------------------
# tenants: attached Cntr sessions under cgroup limits, interleaved
# ---------------------------------------------------------------------------
class Tenants(Workload):
    """PostMark plus a dirtying stream in each of several limited containers.

    Every proportion comes from a workload the repository already has.  The
    small-file part is ``repro.bench.phoronix.PostMark``: a pool of 120
    2 KiB files, then 500 transactions split 30/25/25/20 into create (a
    2 KiB file), delete, append (224 bytes) and read (4 KiB records).  The
    dirtying stream is one ``repro.bench.scale`` tenant's write phase: 96
    records of 64 KiB, then fsync.  Tenant count, ``max_background`` and
    the ``cpu.max`` cap (2 ms per 10 ms) are ``repro.bench.scale``'s too.
    What is added here are the knobs the other workloads leave unset:
    ``cpu.weight`` 100/200 and a ``memory.high``/``memory.max`` pair below
    the stream's 6 MiB.
    """

    name = "tenants"
    TENANTS = 4
    #: PostMark's transaction split: (op, share of ``transactions``).
    POSTMARK_SPLIT = (("create", 0.30), ("unlink", 0.25), ("append", 0.25),
                      ("read", 0.20))
    POSTMARK_FILE = 2048
    POSTMARK_APPEND = b"appended line\n" * 16
    POSTMARK_READ = 4096
    MEMORY_HIGH = 2 << 20
    MEMORY_MAX = 4 << 20

    def setup(self) -> None:
        from repro.bench import scale
        from repro.bench.phoronix import PostMark
        from repro.container import DockerEngine, ImageBuilder
        from repro.core.attach import AttachOptions, attach
        from repro.fs.constants import OpenFlags
        from repro.fuse.options import FuseMountOptions
        from repro.kernel.cgroups import CgroupLimits
        from repro.kernel.machine import boot

        self.flags = OpenFlags
        postmark = PostMark()
        self.pool, self.transactions = postmark.pool, postmark.transactions
        self.records, self.record = scale.RECORDS, scale.RECORD_KB << 10
        machine = boot(store_data=False)
        host = machine.syscalls
        docker = DockerEngine(machine)
        image = (ImageBuilder("svc", "1.0")
                 .add_file("/usr/sbin/svc", size=200_000, mode=0o755)
                 .entrypoint("/usr/sbin/svc").build())
        options = AttachOptions(fuse_options=FuseMountOptions.paper_defaults()
                                .with_overrides(max_background=scale.MAX_BACKGROUND))
        # repro.bench.scale's writeback knobs: dirty data accumulates, so
        # flushes leave in multi-MiB bursts that overflow the bounded queue.
        for knob, value in (("dirty_background_bytes", 64 << 20),
                            ("dirty_bytes", 128 << 20)):
            fd = host.open(f"/proc/sys/vm/{knob}", OpenFlags.O_WRONLY)
            host.write(fd, f"{value}\n".encode())
            host.close(fd)
        tools = []
        self.cgroup_paths = []
        self.attach_host_ns = 0
        self.attach_virtual_ns = 0
        recorder = self.ctx.recorder
        for i in range(self.TENANTS):
            limits = CgroupLimits(
                cpu_shares=1024 * (1 + i % 2),
                # Odd tenants are capped at 20% of the CPU (cpu.max).
                cpu_quota_us=2_000 if i % 2 else None, cpu_period_us=10_000,
                memory_limit_bytes=self.MEMORY_MAX, memory_high_bytes=self.MEMORY_HIGH)
            host.makedirs(f"/srv/tenant{i}")
            t0, v0 = time.perf_counter_ns(), machine.clock.now_ns
            with recorder.span("attach") if recorder is not None else nullcontext():
                container = docker.run(image, name=f"tenant{i}", limits=limits)
                session = attach(machine, docker, f"tenant{i}", options=options)
            self.attach_host_ns += time.perf_counter_ns() - t0
            self.attach_virtual_ns += machine.clock.now_ns - v0
            tools.append(session.exec_tool("/bin/bash"))
            self.cgroup_paths.append(container.cgroup_path)
        self.snapshot = machine.kernel.snapshot(machine, tools)

    def prepare(self) -> None:
        _kernel, (self.machine, self.tools) = self.snapshot.fork()

    def _body(self, i: int, sc, tally: dict):
        """One tenant's closed loop; ``yield`` is a preemption point between
        syscalls."""
        from repro.sim.rng import DeterministicRandom

        flags = self.flags
        rng = DeterministicRandom(self.seed).substream(f"tenant{i}")
        base = f"/srv/tenant{i}"
        sizes: dict[str, int] = {}

        def create(path):
            fd = sc.open(path, flags.O_CREAT | flags.O_WRONLY, 0o644)
            yield None
            sizes[path] = sc.write(fd, b"c" * self.POSTMARK_FILE)
            yield None
            sc.close(fd)
            yield None

        for serial in range(self.pool):
            yield from create(f"{base}/msg{serial:05d}")
        names = list(sizes)
        serial = self.pool
        stream_fd = sc.open(f"{base}/stream.dat", flags.O_CREAT | flags.O_WRONLY, 0o644)
        yield None
        record = b"s" * self.record
        streamed = 0
        # A fixed multiset of operations in a seeded order: the seed moves
        # the interleaving and the targets, not the amount of work.
        mix = [op for op, share in self.POSTMARK_SPLIT
               for _ in range(round(share * self.transactions))]
        mix += ["record"] * self.records
        rng.shuffle(mix)
        for op in mix:
            if op == "create" or (op != "record" and not names):
                path = f"{base}/msg{serial:05d}"
                serial += 1
                yield from create(path)
                names.append(path)
            elif op == "unlink":
                path = names.pop(rng.randrange(len(names)))
                sc.unlink(path)
                yield None
                del sizes[path]
            elif op == "append":
                path = names[rng.randrange(len(names))]
                fd = sc.open(path, flags.O_WRONLY | flags.O_APPEND)
                yield None
                sizes[path] += sc.write(fd, self.POSTMARK_APPEND)
                yield None
                sc.close(fd)
                yield None
            elif op == "read":
                path = names[rng.randrange(len(names))]
                fd = sc.open(path, flags.O_RDONLY)
                yield None
                got = 0
                while True:
                    data = sc.read(fd, self.POSTMARK_READ)
                    yield None
                    if not data:
                        break
                    got += len(data)
                sc.close(fd)
                yield None
                tally["reads"] += 1
                if got != sizes[path]:
                    tally["mismatches"] += 1
            else:
                streamed += sc.write(stream_fd, record)
                yield None
        sc.fsync(stream_fd)
        yield None
        sc.close(stream_fd)
        tally["files"] = len(names)
        tally["bytes_live"] = sum(sizes.values())
        tally["streamed"] = streamed

    def run(self) -> Iteration:
        from repro.sim.rng import DeterministicRandom

        kernel = self.machine.kernel
        controller = kernel.cpu_controller(rng=DeterministicRandom(self.seed))
        tallies = []
        for i, tool in enumerate(self.tools):
            tally = {"reads": 0, "mismatches": 0}
            tallies.append(tally)
            controller.spawn(tool.process, self._body(i, tool, tally), name=f"tenant{i}")
        with self.ctx.measurement.unit(kernel):
            stats = controller.run()
        digest = hashlib.sha256(",".join(stats.pick_trace).encode()).hexdigest()
        return Iteration(outputs={"tenants": tallies, "completions": stats.completions,
                                  "pick_digest": digest})

    def check(self, it: Iteration, checks: Checks) -> None:
        checks.expect(it.outputs["completions"] == self.TENANTS, "every tenant finished")
        for i, tally in enumerate(it.outputs["tenants"]):
            checks.expect(tally["mismatches"] == 0,
                          f"tenant{i}: {tally['mismatches']} read-back size mismatches")
            checks.expect(tally["reads"] > 0, f"tenant{i}: read something back")
            checks.expect(tally["streamed"] == self.records * self.record,
                          f"tenant{i}: streamed {tally['streamed']} bytes")
        host = self.machine.syscalls
        for path in self.cgroup_paths:
            fd = host.open(f"/sys/fs/cgroup{path}/cpu.stat", self.flags.O_RDONLY)
            text = host.read(fd, 1 << 14).decode()
            host.close(fd)
            stat = dict(line.split() for line in text.splitlines())
            checks.expect(int(stat.get("usage_usec", 0)) > 0, f"{path}: usage_usec > 0")


WORKLOADS = {w.name: w for w in (Paper, Stream, Tenants)}
