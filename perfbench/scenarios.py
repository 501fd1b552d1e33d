"""The benchmark's three workloads, driven through public ``repro`` APIs.

Each workload builds a fresh system from a pinned configuration, draws
its op stream from the seed, runs the measured phase (client ops, the
snapshots they trigger, a power cut and §4.2 recovery), and checks the
outputs against an oracle rebuilt from the seed alone.

The load generators — the closed-loop client coroutines and the
open-loop sessions — live in this file, so the outside tracer books
their own frames to the ``workloads`` layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import LoggingPolicy, SnapshotKind, SystemConfig, build_baseline, build_slimio
from repro.flash import FlashGeometry, FtlConfig, NandTiming
from repro.imdb import ClientOp, ServerConfig
from repro.imdb.resp import encode
from repro.net import (
    MIXES,
    BackpressurePolicy,
    NetConfig,
    NetFrontend,
    OpStream,
    PoissonArrivals,
)
from repro.workloads import UniformKeys, make_key, make_value

MB = 1024 * 1024


def derive_seed(seed: int, sub: int, stream: int) -> int:
    """Independent seed for one purpose (key draw, arrivals, ...) of
    sub-episode ``sub`` of the run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, sub, stream]).generate_state(1)[0])


def pinned_config(device_mb: int, policy: LoggingPolicy,
                  wal_trigger_mb: int = 10) -> SystemConfig:
    """Bench-scale system, pinned here so that retuning the repository's
    scale presets never moves this benchmark's inputs."""
    return SystemConfig(
        geometry=FlashGeometry.scaled(mb=device_mb, channels=8,
                                      dies_per_channel=8, pages_per_block=8),
        nand=NandTiming(block_erase=2e-3 * 8 / 256.0),
        ftl=FtlConfig(op_ratio=0.20, gc_trigger_segments=5,
                      gc_stop_segments=10, gc_reserve_segments=2),
        server=ServerConfig(set_cpu=14e-6, get_cpu=7e-6,
                            wal_snapshot_trigger_bytes=wal_trigger_mb * MB,
                            snapshot_chunk_entries=64),
        policy=policy,
        snapshot_fraction=0.30,
        wal_flush_interval=0.002,
        dirty_limit_bytes=max(4 * MB, device_mb * MB // 4),
        wal_buffer_limit_bytes=4 * MB,
        fs_extent_pages=64,
    )


def _reference_steps(n: int):
    table = {}
    for i in range(n):
        table[i & 63] = i
        yield i


class Calibrator:
    """Interleaved reference timing for the host's current speed.

    A host that shares its cores can drift in speed by ±20% over tens of
    seconds (measured on a 2-vCPU VM). Every ``every``-th op the load
    generator runs a fixed interpreter-bound snippet (generator resumes
    and dict stores, like the simulator's hot loop) and times it, so
    the snippet samples the same slowdowns as the ops around it. The
    snippet's time is removed from the measured phase and reported
    alongside it; ``every=0`` turns it off.
    """

    STEPS = 1500

    def __init__(self, every: int = 0):
        self.every = every
        self.count = 0
        self.runs = 0
        self.total_s = 0.0

    def tick(self) -> None:
        self.count += 1
        if self.every and self.count % self.every == 0:
            t0 = time.perf_counter()
            for _ in _reference_steps(self.STEPS):
                pass
            self.total_s += time.perf_counter() - t0
            self.runs += 1

    @property
    def mean_us(self) -> float:
        return self.total_s / self.runs * 1e6 if self.runs else 0.0


def percentile_ms(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if len(samples) else 0.0


def counter_sum(snapshot: dict, name: str, field_name: str = "value") -> float:
    """Sum one instrument of ``system.obs.snapshot()`` over all its labels."""
    total = 0.0
    for key, inst in snapshot.items():
        if key == name or key.startswith(name + "{"):
            total += float(inst.get(field_name, 0.0))
    return total


#: simulated per-layer counts: (benchmark name, obs instrument, field)
OBS_COUNTS = (
    ("kernel.iouring.submitted", "uring_submitted_total", "value"),
    ("kernel.iouring.enter_syscalls", "uring_enter_syscalls_total", "value"),
    ("persist.wal_group_commits", "wal_group_commits_total", "value"),
    ("persist.wal_flush_bytes", "wal_flush_bytes", "sum"),
    ("core.readahead_hits", "readahead_hits_total", "value"),
    ("kernel.pagecache.writeback_pages", "pagecache_writeback_pages_total",
     "value"),
    ("kernel.blocklayer.cmds", "block_cmds_total", "value"),
    ("kernel.fs.journal_commits", "fs_journal_commits_total", "value"),
    ("kernel.iouring.completion_wait_s", "uring_completion_seconds", "sum"),
    ("imdb.wal_buffer_stall_s", "server_wal_buffer_stall_seconds", "sum"),
    ("kernel.fs.commit_lock_wait_s", "fs_commit_lock_wait_seconds", "sum"),
    ("kernel.pagecache.throttle_wait_s", "pagecache_throttle_wait_seconds",
     "sum"),
)


@dataclass
class Episode:
    """One fresh system and one pass of a workload over it."""

    seed: int
    #: which of the run's sub-seeds this episode draws its inputs from
    sub: int = 0
    trace_replies: bool = False
    #: run the reference snippet every this many ops (0 = never)
    calibrate_every: int = 0
    setup_s: dict = field(default_factory=dict)
    #: simulated end-to-end outputs (deterministic in the seed)
    sim: dict = field(default_factory=dict)
    #: simulated per-layer counts over the measured phase
    counts: dict = field(default_factory=dict)
    #: simulated latencies (s) by command, for pooling across episodes
    latency: dict = field(default_factory=dict)
    snapshot_durations: list = field(default_factory=list)
    #: failed output checks, one line each
    failures: list = field(default_factory=list)
    ops: int = 0
    failed_ops: int = 0
    wall_s: float = 0.0
    #: filled in by the runner: the episode's fingerprint, and for
    #: traced episodes the per-layer results and root span time
    digest: str = ""
    layers: dict = field(default_factory=dict)
    root_s: float = 0.0

    system = None

    # -- shared pieces -------------------------------------------------
    def _begin_counts(self) -> None:
        env, st = self.system.env, self.system.device.ftl.stats
        self._c0 = (env.events_processed, env.events_absorbed,
                    st.host_pages_written, st.gc_pages_copied,
                    st.segments_erased, self.system.obs.snapshot())

    def _end_counts(self) -> None:
        env, st = self.system.env, self.system.device.ftl.stats
        ev0, ab0, host0, gc0, er0, obs0 = self._c0
        obs1 = self.system.obs.snapshot()
        c = self.counts
        c["sim.events"] = env.events_processed - ev0
        c["sim.events_absorbed"] = env.events_absorbed - ab0
        c["flash.host_pages_written"] = st.host_pages_written - host0
        c["flash.gc_pages_copied"] = st.gc_pages_copied - gc0
        c["flash.segments_erased"] = st.segments_erased - er0
        for name, inst, fld in OBS_COUNTS:
            c[name] = counter_sum(obs1, inst, fld) - counter_sum(obs0, inst, fld)
        c["sim.events_per_op"] = (c["sim.events"] + c["sim.events_absorbed"]) \
            / max(self.ops, 1)

    def _settle(self) -> None:
        env, server = self.system.env, self.system.server

        def settle():
            while server.snapshot_in_progress:
                yield env.idle_wait(1e-3)

        env.run(until=env.process(settle(), name="bench-settle"))

    def _power_cut_and_recover(self):
        """Stop, cut power (volatile state lost), run §4.2 recovery."""
        system, env = self.system, self.system.env
        system.stop()
        system.crash()
        return env.run(until=env.process(
            system.recover(SnapshotKind.WAL_TRIGGERED), name="bench-recover"))

    def _outputs(self, sets: np.ndarray, gets: np.ndarray) -> None:
        self.latency = {"SET": sets, "GET": gets}
        self.sim["sim_set_mean_ms"] = float(sets.mean()) * 1e3
        self.sim["sim_set_p50_ms"] = percentile_ms(sets, 50)
        self.sim["sim_set_p99_ms"] = percentile_ms(sets, 99)
        self.sim["sim_set_p999_ms"] = percentile_ms(sets, 99.9)
        self.sim["set_samples"] = len(sets)
        self.sim["sim_get_p999_ms"] = percentile_ms(gets, 99.9)
        self.sim["get_samples"] = len(gets)
        self.sim["waf"] = float(self.system.waf)
        self.sim["sim_recovery_s"] = float(self.recovered.duration)
        snaps = self.system.metrics.snapshots
        self.snapshot_durations = [float(s.duration) for s in snaps]
        self.sim["sim_snapshot_s"] = (
            float(np.mean(self.snapshot_durations)) if snaps else 0.0)
        self.sim["snapshots"] = len(snaps)
        self.sim["ondemand_snapshots"] = sum(
            1 for s in snaps if s.kind is SnapshotKind.ON_DEMAND)
        self.sim["wal_snapshots"] = sum(
            1 for s in snaps if s.kind is SnapshotKind.WAL_TRIGGERED)

    def _check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def measure(self) -> None:
        """Run the measured phase, timing it with the host wall clock
        (less the interleaved reference snippets)."""
        self.calib = Calibrator(self.calibrate_every)
        self._begin_counts()
        t0 = time.perf_counter()
        self.run_measured()
        self.wall_s = time.perf_counter() - t0 - self.calib.total_s
        self._end_counts()

    def release(self) -> None:
        self.system = None


# ---------------------------------------------------------------------------
# closed loop, GC pressure, Always-Log: SlimIO and the baseline
# ---------------------------------------------------------------------------

class ClosedLoopGc(Episode):
    """redis-benchmark shape: SET-only, 4 KB values, uniform keys, 50
    closed-loop clients on a 64 MB device, so FTL GC runs."""

    builder = None
    clients = 50
    #: with the run's eight sub-seeds this pools 256,000 SET latencies:
    #: the tail of this closed loop is set by stall batches, and fewer
    #: samples leave the p99 swinging by over 7% between seeds
    ops_total = 32_000
    keys = 1_200
    value_size = 4096
    device_mb = 64
    #: the on-demand snapshot is requested here and re-requested until
    #: accepted; placed before the first WAL-triggered snapshot, since
    #: at this load those run back to back afterwards
    ondemand_at = 1_000

    def draw_keys(self) -> np.ndarray:
        return UniformKeys(self.keys, seed=derive_seed(self.seed, self.sub, 1)).draw(
            self.ops_total)

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.system = self.builder(config=pinned_config(
            self.device_mb, LoggingPolicy.ALWAYS))
        self.system.attach_obs()
        t1 = time.perf_counter()
        ops = []
        for k in self.draw_keys():
            key = make_key(int(k))
            ops.append(ClientOp("SET", key, make_value(key, self.value_size)))
        self.op_list = ops
        t2 = time.perf_counter()
        self.setup_s = {"build": t1 - t0, "fill": 0.0, "draw": t2 - t1}

    def run_measured(self) -> None:
        system, env = self.system, self.system.env
        server, ops = system.server, self.op_list
        n, ondemand_at = len(ops), self.ondemand_at
        tick = self.calib.tick
        state = {"next": 0, "ondemand": False}

        def client():
            while True:
                i = state["next"]
                if i >= n:
                    return
                state["next"] = i + 1
                yield from server.execute(ops[i])
                tick()
                if i >= ondemand_at and not state["ondemand"]:
                    if server.start_snapshot(SnapshotKind.ON_DEMAND) is not None:
                        state["ondemand"] = True

        procs = [env.process(client(), name=f"bench-client-{c}")
                 for c in range(self.clients)]
        env.run(until=env.all_of(procs))
        self._settle()
        self.ops = n
        self.live = server.store.as_dict()
        self.recovered = self._power_cut_and_recover()

    def oracle(self) -> dict:
        """Expected keyspace from the seed alone: every SET to a key
        writes ``make_value(key, size)``, and Always-Log makes each
        acknowledged SET durable."""
        expected = {}
        for k in np.unique(self.draw_keys()):
            key = make_key(int(k))
            expected[key] = make_value(key, self.value_size)
        return expected

    def finish(self) -> None:
        m = self.system.metrics
        sets = np.asarray(m.set_latency.samples, dtype=float)
        self.sim["sim_rps"] = float(m.phase_rps()["average"])
        self._outputs(sets, np.empty(0))
        self.counts["net.peak_inflight"] = 0
        self.counts["workloads.late_sends"] = 0
        self.counts["workloads.max_send_lateness_ms"] = 0.0

        expected = self.oracle()
        self._check(len(sets) == self.ops, "a SET did not complete")
        self._check(self.live == expected,
                    "live keyspace differs from the seeded oracle")
        self._check(self.recovered.data == expected,
                    "recovered keyspace differs from the seeded oracle")
        self._check(self.sim["ondemand_snapshots"] == 1,
                    "the on-demand snapshot did not run")
        self._check(self.sim["wal_snapshots"] >= 1,
                    "no WAL-triggered snapshot ran")
        self.failed_ops = self.ops if self.failures else 0
        self.live = self.recovered = self.op_list = None


class SlimioAlwaysGc(ClosedLoopGc):
    builder = staticmethod(build_slimio)


class BaselineAlwaysGc(ClosedLoopGc):
    builder = staticmethod(build_baseline)


# ---------------------------------------------------------------------------
# open loop, YCSB-A through repro.net, Periodical-Log, no GC pressure
# ---------------------------------------------------------------------------

class YcsbOpenLoop(Episode):
    """YCSB-A (50/50 GET/SET, zipfian, 2 KB values) arriving as a
    Poisson stream below the saturation knee, through RESP-framed,
    pipelined connections with BLOCK backpressure."""

    clients = 32
    pipeline = 8
    rate = 45_000.0
    arrivals_target = 16_000
    keys = 3_000
    value_size = 2048
    device_mb = 256
    #: on, so a longer schedule rotates the WAL instead of filling its
    #: region, but above this run's ~23 MB of WAL: no generation is
    #: retired, so nothing is trimmed and the FTL erases nothing
    wal_trigger_mb = 64
    snapshot_at = 0.35

    def setup(self) -> None:
        t0 = time.perf_counter()
        self.system = build_slimio(config=pinned_config(
            self.device_mb, LoggingPolicy.PERIODICAL, self.wal_trigger_mb))
        self.system.attach_obs()
        t1 = time.perf_counter()
        self._fill()
        self.system.server.reset_metrics()
        t2 = time.perf_counter()
        env = self.system.env
        self.duration = self.arrivals_target / self.rate
        self.times = PoissonArrivals(
            self.rate, seed=derive_seed(self.seed, self.sub, 2)).times(
                self.duration, t0=env.now)
        self.stream = OpStream(MIXES["ycsb_a"], len(self.times), self.keys,
                               value_size=self.value_size,
                               seed=derive_seed(self.seed, self.sub, 3))
        t3 = time.perf_counter()
        self.setup_s = {"build": t1 - t0, "fill": t2 - t1, "draw": t3 - t2}

    def _fill(self) -> None:
        """Preload every key through the server (pays sim time, builds WAL)."""
        env, server = self.system.env, self.system.server
        size = self.value_size

        def filler():
            for i in range(self.keys):
                key = make_key(i)
                yield from server.execute(ClientOp("SET", key, make_value(key, size)))

        env.run(until=env.process(filler(), name="bench-fill"))

    def run_measured(self) -> None:
        system, env = self.system, self.system.env
        server, stream, times = system.server, self.stream, self.times
        n = len(times)
        fe = NetFrontend(env, server, NetConfig(
            pipeline_depth=self.pipeline, conn_queue=16, max_inflight=256,
            policy=BackpressurePolicy.BLOCK,
            capture_replies=self.trace_replies))
        late = {"count": 0, "max": 0.0}
        conns = [None] * self.clients
        tick = self.calib.tick

        def session(k):
            conn = None
            for i in range(k, n, self.clients):
                t_int = float(times[i])
                if env.now < t_int:
                    yield env.timeout(t_int - env.now)
                while conn is None or conn.closed:
                    conn = yield from fe.listener.connect()
                    if conn is None:
                        yield env.timeout(100e-6)
                    conns[k] = conn
                lateness = env.now - t_int
                if lateness > 1e-9:
                    late["count"] += 1
                    late["max"] = max(late["max"], lateness)
                yield from conn.send(stream.group(i), t_int)
                tick()
            if conn is not None and not conn.closed:
                yield from conn.drain()
                yield from conn.close()

        snap_at = env.now + self.snapshot_at * self.duration

        def ondemand():
            yield env.timeout(snap_at - env.now)
            while server.start_snapshot(SnapshotKind.ON_DEMAND) is None:
                yield env.timeout(100e-6)

        env.process(ondemand(), name="bench-ondemand")
        sessions = [env.process(session(k), name=f"bench-session-{k}")
                    for k in range(self.clients)]
        env.run(until=env.all_of(sessions))
        fe.close()
        self._settle()

        def flush():
            yield from system.wal.flush_now()

        env.run(until=env.process(flush(), name="bench-flush"))
        self.ops = sum(len(stream.group(i)) for i in range(n))
        self.fe, self.late, self.conns = fe, late, conns
        self.live = server.store.as_dict()
        self.recovered = self._power_cut_and_recover()

    def oracle(self) -> dict:
        """Every key keeps its fill value unless the stream SET it, in
        which case it holds the stream's value for that key."""
        expected = {}
        for i in range(self.keys):
            key = make_key(i)
            expected[key] = make_value(key, self.value_size)
        stream = OpStream(MIXES["ycsb_a"], len(self.times), self.keys,
                          value_size=self.value_size,
                          seed=derive_seed(self.seed, self.sub, 3))
        for i in range(len(stream)):
            for op in stream.group(i):
                if op.op == "SET":
                    expected[op.key] = op.value
        return expected

    def _check_replies(self, expected: dict) -> None:
        """Traced runs only: every reply on every connection matches its
        command — ``+OK`` for a SET, and for a GET the key's fill value
        or the stream's value for that key."""
        ok_reply = encode("OK")
        fill = {}
        bad = 0
        for k, conn in enumerate(self.conns):
            cmds = [op for i in range(k, len(self.times), self.clients)
                    for op in self.stream.group(i)]
            if conn is None or len(conn.replies) != len(cmds):
                bad += len(cmds)
                continue
            for op, reply in zip(cmds, conn.replies):
                if op.op == "SET":
                    bad += reply != ok_reply
                    continue
                if op.key not in fill:
                    fill[op.key] = make_value(op.key, self.value_size)
                allowed = (encode(fill[op.key]), encode(expected[op.key]))
                bad += reply not in allowed
        self._check(bad == 0, f"{bad} GET/SET replies did not match")

    def finish(self) -> None:
        fe = self.fe
        comp = fe.completions
        t_int = np.array([c[0] for c in comp])
        t_done = np.array([c[1] for c in comp])
        kinds = np.array([c[2] for c in comp])
        lat = t_done - t_int
        sets, gets = lat[kinds == "SET"], lat[kinds == "GET"]
        span = float(t_done.max() - t_int.min()) if len(comp) else 0.0
        self.sim["sim_rps"] = len(comp) / span if span > 0 else 0.0
        self._outputs(sets, gets)
        st = fe.stats()
        self.counts["net.peak_inflight"] = int(st["peak_inflight"])
        self.counts["workloads.late_sends"] = self.late["count"]
        self.counts["workloads.max_send_lateness_ms"] = self.late["max"] * 1e3

        lost = (self.ops - len(comp)) + int(
            st["shed"] + st["dropped_cmds"] + st["refused"] + st["unsent"])
        expected = self.oracle()
        self._check(lost == 0 and len(comp) == self.ops,
                    f"{lost} of {self.ops} arrivals did not complete")
        self._check(self.live == expected,
                    "live keyspace differs from the seeded oracle")
        self._check(self.recovered.data == expected,
                    "recovered keyspace differs from the seeded oracle")
        self._check(self.sim["ondemand_snapshots"] == 1,
                    "the on-demand snapshot did not run")
        if self.trace_replies:
            self._check_replies(expected)
        self.failed_ops = self.ops if self.failures else min(lost, self.ops)
        self.live = self.recovered = self.fe = self.conns = None
        self.stream = self.times = None


def pooled_outputs(episodes) -> dict:
    """The simulated end-to-end outputs of a run's sub-seed episodes:
    percentiles over their pooled samples, means of the rest."""
    sets = np.concatenate([e.latency["SET"] for e in episodes])
    gets = np.concatenate([e.latency["GET"] for e in episodes])
    snaps = [d for e in episodes for d in e.snapshot_durations]
    return {
        "sim_rps": float(np.mean([e.sim["sim_rps"] for e in episodes])),
        "sim_set_mean_ms": float(sets.mean()) * 1e3,
        "sim_set_p50_ms": percentile_ms(sets, 50),
        "sim_set_p99_ms": percentile_ms(sets, 99),
        "sim_set_p999_ms": percentile_ms(sets, 99.9),
        "sim_get_p999_ms": percentile_ms(gets, 99.9),
        "set_samples": len(sets),
        "get_samples": len(gets),
        "waf": float(np.mean([e.sim["waf"] for e in episodes])),
        "sim_snapshot_s": float(np.mean(snaps)) if snaps else 0.0,
        "sim_recovery_s": float(np.mean(
            [e.sim["sim_recovery_s"] for e in episodes])),
        "wal_snapshots": sum(e.sim["wal_snapshots"] for e in episodes),
        "ondemand_snapshots": sum(e.sim["ondemand_snapshots"]
                                  for e in episodes),
    }


WORKLOADS = {
    "slimio-always-gc": SlimioAlwaysGc,
    "baseline-always-gc": BaselineAlwaysGc,
    "ycsb-openloop": YcsbOpenLoop,
}
