"""The two live-wire workloads: ``wire-getset`` and ``wire-setpipe``.

Each pass spawns a fresh ``repro-serve`` (async engine), drives it from
this single asyncio process over two connections, samples the server's
CPU at the measured window's edges and at every BGSAVE inside it, checks
every reply, and ends with ``SHUTDOWN NOSAVE``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import loadgen
import spans
from loadgen import BULK, Outcome, command, key_name
from server import Server
from speed import Speedometer

CONNS = 2
#: Load runs this long before the measured window opens.
WARMUP_S = 1.0
#: Requests due within this long after a BGSAVE's due (or send) time
#: count as snapshot-window requests.
SNAP_WINDOW_NS = 100_000_000

GETSET = {
    "serve": ["--keys", "4096", "--value-size", "512"],
    "keys": 4096,
    "value_size": 512,
    "rate": 4000.0,
    "get_share": 0.9,
    # Every 4000th request of connection 0: one BGSAVE per ~2 s.
    "bgsave_every": 4000,
}
SETPIPE = {
    "serve": ["--keys", "16384"],
    "keys": 16384,
    "value_size": 512,
    "depth": 64,
    # One BGSAVE per 16384 SETs of connection 0.
    "bgsave_every": 16384,
}


@dataclass
class WirePass:
    """Everything one server run measured."""

    #: (spawned, ready) perf-counter ns of every server started.
    spawns: list[tuple[int, int]]
    window_ns: tuple[int, int]
    #: Marks at the window's edges and at every BGSAVE inside it:
    #: perf-counter ns, server CPU s, replies received so far.
    mark_ns: np.ndarray
    mark_cpu_s: np.ndarray
    mark_done: np.ndarray
    client_cpu_s: float
    outcomes: list[Outcome]
    bgsave_ns: list[int]
    base_ns: int
    closed_loop: bool = False
    #: Traced launcher output (fork stats, bridge counters), if any.
    capture: Optional[dict] = None
    spans_file: Optional[Path] = None

    @property
    def ops(self) -> int:
        return int(self.mark_done[-1] - self.mark_done[0])

    @property
    def server_cpu_s(self) -> float:
        return float(self.mark_cpu_s[-1] - self.mark_cpu_s[0])

    def slices(self) -> list[tuple[int, int]]:
        """Index pairs of consecutive BGSAVE marks: each slice holds one
        whole snapshot cycle.  A window with fewer than two BGSAVEs is one
        slice."""
        last = len(self.mark_ns) - 1
        inner = list(range(1, last))
        if len(inner) < 2:
            return [(0, last)]
        return list(zip(inner[:-1], inner[1:]))

    @property
    def window_s(self) -> float:
        return (self.window_ns[1] - self.window_ns[0]) / 1e9

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def e2e(self, meter: Speedometer) -> dict[str, float]:
        """End-to-end metrics, scaled to the reference CPU speed.

        CPU per op and closed-loop throughput are the medians over the
        snapshot-cycle slices, each scaled by the CPU speed measured over
        that slice.  The open loop's throughput is set by its schedule,
        so it is the plain window rate.
        """
        t, cpu, done = self.mark_ns, self.mark_cpu_s, self.mark_done
        cpu_per_op, rate = [], []
        for a, b in self.slices():
            speed = meter.factor(int(t[a]), int(t[b]))
            ops = done[b] - done[a]
            cpu_per_op.append((cpu[b] - cpu[a]) * 1e6 / ops * speed)
            rate.append(ops / ((t[b] - t[a]) / 1e9) / speed)
        ops_per_s = (statistics.median(rate) if self.closed_loop
                     else self.ops / self.window_s)
        return {
            "setup_s": statistics.median(
                (ready - spawned) / 1e9 * meter.factor(spawned, ready)
                for spawned, ready in self.spawns
            ),
            "cpu_us_per_op": statistics.median(cpu_per_op),
            "ops_per_s": ops_per_s,
            "run_s": 1e4 / ops_per_s,
        }

    def latency(self) -> dict[str, tuple[float, int]]:
        """Ungated latency figures: name -> (value ms, sample count).

        Counted over requests due (or sent) inside the measured window,
        split by whether they fall within ``SNAP_WINDOW_NS`` after a
        BGSAVE.
        """
        lat = np.concatenate([o.latency_ns() for o in self.outcomes])
        due = np.concatenate([np.asarray(o.due_ns) for o in self.outcomes])
        lo, hi = (w - self.base_ns for w in self.window_ns)
        inside = (due >= lo) & (due < hi)
        starts = np.sort(np.asarray(self.bgsave_ns, dtype=np.int64))
        snap = np.zeros(len(due), dtype=bool)
        if len(starts):
            prev = np.searchsorted(starts, due, side="right") - 1
            ok = prev >= 0
            snap[ok] = due[ok] - starts[prev[ok]] < SNAP_WINDOW_NS
        calm = lat[inside & ~snap] / 1e6
        stormy = lat[inside & snap] / 1e6

        def pct(sample, q):
            return (float(np.percentile(sample, q)) if len(sample) else 0.0,
                    len(sample))

        return {
            "p50_ms": pct(calm, 50),
            "p99_ms": pct(calm, 99),
            "snap_p99_ms": pct(stormy, 99),
        }

    def loadgen(self) -> dict[str, float]:
        late = np.concatenate(
            [np.asarray(o.late_ns, dtype=np.int64) for o in self.outcomes]
        )
        return {
            "loadgen.late_p99_ms": (
                float(np.percentile(late, 99)) / 1e6 if len(late) else 0.0
            ),
            "loadgen.cpu_frac": self.client_cpu_s / self.window_s,
        }


async def _connect(server: Server):
    host, port = server.address
    return [await asyncio.open_connection(host, port) for _ in range(CONNS)]


async def _close(conns) -> None:
    for _, writer in conns:
        writer.close()
        await writer.wait_closed()


def _mark(server: Server) -> tuple[int, float, float]:
    """(perf-counter ns, server CPU s, own CPU s) now."""
    return time.perf_counter_ns(), server.cpu_s(), time.process_time()


async def _marks_at(server: Server, times_ns: list[int]):
    """A :func:`_mark` at each absolute time in ``times_ns``."""
    marks = []
    for at_ns in sorted(times_ns):
        delay = (at_ns - time.perf_counter_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        marks.append(_mark(server))
    return marks


def _done_by(outcomes: list[Outcome], edges_ns: np.ndarray) -> np.ndarray:
    """Replies received by each edge time (relative ns), all connections."""
    done = np.sort(np.concatenate([np.asarray(o.done_ns) for o in outcomes]))
    return np.searchsorted(done, edges_ns, side="right")


async def _drive(name: str, server: Server, seed: int, seconds: float,
                 probe: bool):
    conns = await _connect(server)
    span = WARMUP_S + seconds
    if name == "wire-getset":
        cfg = GETSET
        schedules = [
            loadgen.getset_schedule(
                seed, c, CONNS, cfg["rate"], span, cfg["keys"],
                cfg["value_size"], cfg["get_share"], cfg["bgsave_every"],
            )
            for c in range(CONNS)
        ]
        base = time.perf_counter_ns() + 20_000_000
        bgsaves = [t for s in schedules for t in s.bgsave_due_ns]
        lo, hi = int(WARMUP_S * 1e9), int(span * 1e9)
        sampler = asyncio.create_task(_marks_at(server, [
            base + t for t in [lo, hi, *bgsaves] if lo <= t <= hi]))
        outcomes = await asyncio.gather(*(
            loadgen.open_loop(r, w, s, base)
            for (r, w), s in zip(conns, schedules)
        ))
    else:
        cfg = SETPIPE
        models = [dict() for _ in range(CONNS)]
        base = time.perf_counter_ns()
        lo, hi = base + int(WARMUP_S * 1e9), base + int(span * 1e9)
        sampler = asyncio.create_task(_marks_at(server, [lo, hi]))
        inner = []

        def on_bgsave() -> None:
            if lo <= time.perf_counter_ns() <= hi:
                inner.append(_mark(server))

        outcomes = await asyncio.gather(*(
            loadgen.closed_loop(
                r, w, seed, c, CONNS, cfg["keys"], cfg["depth"],
                cfg["bgsave_every"], int(span * 1e9), base, models[c],
                on_bgsave,
            )
            for c, (r, w) in enumerate(conns)
        ))
        bgsaves = [t for o in outcomes for t in o.bgsave_ns]
    samples = sorted(await sampler + (inner if name == "wire-setpipe" else []))
    if name == "wire-setpipe":
        # Every key of each connection's range must read back as the
        # model says: its last SET, or the startup value if untouched.
        per_conn = cfg["keys"] // CONNS
        for c, (r, w) in enumerate(conns):
            lo = c * per_conn
            expected = {k: bytes(cfg["value_size"])
                        for k in range(lo, lo + per_conn)}
            expected.update(models[c])
            await loadgen.verify_keys(r, w, sorted(expected), expected,
                                      outcomes[c])
    if probe:
        await _probe(*conns[0], outcomes[0])
    await _close(conns)
    return samples, outcomes, bgsaves, base


async def _call(reader, writer, replies, *args):
    writer.write(command(*args))
    while True:
        data = await reader.read(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        got = replies.feed(data)
        if got:
            return got[0]


async def _wait_idle(reader, writer, replies, out: Outcome) -> None:
    for _ in range(100_000):
        kind, text = await _call(reader, writer, replies, b"INFO")
        if kind == BULK and b"rdb_bgsave_in_progress:0" in text:
            return
    out.fail("snapshot never finished")


async def _probe(reader, writer, out: Outcome) -> None:
    """A serial BGSAVE + SET sequence on one connection.

    With the other connection idle, the server sees the same commands in
    the same order on every run, so the simulated counts this snapshot
    produces must be identical with and without tracing.
    """
    replies = loadgen.ReplyReader()
    await _wait_idle(reader, writer, replies, out)
    reply = await _call(reader, writer, replies, b"BGSAVE")
    if reply != loadgen.BGSAVE_REPLIES[0]:
        out.fail(f"probe BGSAVE got {reply!r}")
    for i in range(64):
        reply = await _call(reader, writer, replies, b"SET",
                            key_name(i * 31), loadgen.set_value(9, i))
        if reply != loadgen.OK:
            out.fail(f"probe SET got {reply!r}")
    await _wait_idle(reader, writer, replies, out)


def run_pass(
    name: str,
    root: Path,
    workdir: Path,
    seed: int,
    seconds: float,
    mode: Optional[str] = None,
    spawns: int = 1,
) -> WirePass:
    """One measured server run; ``mode`` selects the traced launcher
    (``capture`` or ``trace``) instead of ``python -m repro.net.cli``."""
    cfg = GETSET if name == "wire-getset" else SETPIPE
    max_runtime = WARMUP_S + seconds + 120
    setups = []
    for i in range(spawns - 1):
        extra = Server(root, workdir, f"{name}-setup{i}", cfg["serve"],
                       max_runtime).start()
        setups.append((extra.spawned_ns, extra.ready_ns))
        extra.shutdown()
    tag = f"{name}-{mode or 'plain'}"
    launcher = None
    out_prefix = workdir / tag
    if mode is not None:
        launcher = ["perfbench/traced_server.py", str(out_prefix), mode]
    server = Server(root, workdir, tag, cfg["serve"], max_runtime, launcher)
    server.start()
    setups.append((server.spawned_ns, server.ready_ns))
    try:
        samples, outcomes, bgsaves, base = asyncio.run(
            _drive(name, server, seed, seconds, probe=mode is not None)
        )
    except BaseException:
        server.kill()
        raise
    server.shutdown()
    t, cpu, ccpu = (np.array(col) for col in zip(*samples))
    result = WirePass(setups, (int(t[0]), int(t[-1])), t, cpu,
                      _done_by(outcomes, t - base),
                      float(ccpu[-1] - ccpu[0]), list(outcomes), bgsaves,
                      base, closed_loop=name == "wire-setpipe")
    if mode is not None:
        result.capture = json.loads(Path(f"{out_prefix}.json").read_text())
        if mode == "trace":
            result.spans_file = Path(f"{out_prefix}.npz")
    return result


def probe_counts(capture: dict) -> dict[str, int]:
    """Simulated counts of the probe snapshot (the run's last fork)."""
    last = capture["forks"][-1]
    counts = {k: v for k, v in last.items() if k != "sim_busy_before"}
    counts["bridge_sim_ns"] = (
        capture["bridge"]["sim_busy_ns"] - last["sim_busy_before"]
    )
    return counts


def layer_metrics(traced: WirePass) -> dict[str, float]:
    """Per-layer figures from a traced pass's spans and capture."""
    with np.load(traced.spans_file) as data:
        arrays = {k: data[k] for k in data.files}
    s = spans.Spans(arrays, *traced.window_ns)
    cmds = s.n("net.core.dispatch")
    reads = s.n("net.app.read")
    stall_ns, requested = s.select("net.bridge.stall")
    stalled = requested > 0
    cap = traced.capture
    forks = cap["forks"]
    traced_ns = s.root_ns - float(stall_ns.sum())
    cpu_ns = traced.server_cpu_s * 1e9
    return {
        "net.app.cmds_per_read": cmds / reads if reads else 0.0,
        "net.app.residual_us_per_op": (cpu_ns - traced_ns) / cmds / 1e3,
        "net.protocol.parse_us_per_cmd": s.per_us("net.protocol.parse", cmds),
        "net.protocol.scan_bytes_per_cmd":
            float(s.extra.get("net.protocol.parse", 0)) / cmds,
        "net.protocol.encode_us_per_reply":
            s.per_call_us("net.protocol.encode"),
        "net.core.dispatch_self_us": s.per_call_us("net.core.dispatch"),
        "net.bridge.stalls": int(stalled.sum()),
        "net.bridge.requested_ms": float(requested[stalled].sum()) / 1e6,
        "net.bridge.overshoot_ms": (
            float((stall_ns[stalled] - requested[stalled]).mean()) / 1e6
            if stalled.any() else 0.0
        ),
        "mem.faults": cap["faults"],
        **spans.kvs_layers(s),
        **spans.fork_stat_metrics(forks),
    }

