"""Spans recorded by the benchmark around calls into each layer.

The program itself is not instrumented: :func:`install` replaces each
layer's public function at the name its caller looks it up by with a
wrapper that records one span per call (name, start, end, parent span,
request id) into flat in-memory arrays.  :func:`layer_metrics` turns the
spans into per-layer figures; a span's self time is its duration minus
the time its child spans cover.

The same wrappers serve the traced server launcher (``traced_server.py``)
and the in-process ``sim-figures`` run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Optional

import numpy as np

_now = time.perf_counter_ns


class Recorder:
    """Flat span store; nothing is recorded until :attr:`on` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in
                     ("start", "end", "parent", "name", "req", "extra",
                          "aux")}
        self._stack: list[int] = []
        self.on = False
        #: Request id given to new spans; ``net.core.dispatch`` bumps it.
        self.request = 0
        #: ``(before(), result)`` of every fork call, read after the run:
        #: a fork's stats keep accumulating after the call returns.
        self.forks: list[tuple[int, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str,
        extra: Optional[Callable] = None,
        after: Optional[Callable] = None,
        aux: Optional[Callable] = None,
        new_request: bool = False,
    ) -> Callable:
        """``fn`` recording a span per call while :attr:`on`.

        ``extra(*args)`` is stored with the span at entry, or
        ``after(result)`` at exit; ``aux(result)`` fills a second
        per-span number.
        """
        nid = self.name_id(name)
        cols = self.cols
        start, end, parent = cols["start"], cols["end"], cols["parent"]
        names, reqs, extras = cols["name"], cols["req"], cols["extra"]
        auxes = cols["aux"]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if new_request:
                self.request += 1
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            reqs.append(self.request)
            extras.append(extra(*args) if extra is not None else 0)
            auxes.append(0)
            end.append(0)
            stack.append(idx)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
            if after is not None:
                extras[idx] = after(result)
            if aux is not None:
                auxes[idx] = aux(result)
            return result

        return traced

    def keep_forks(self, fn: Callable, before: Callable) -> Callable:
        """``fn`` that also appends ``(before(), result)`` to
        :attr:`forks`."""

        @functools.wraps(fn)
        def keeping(*args, **kwargs):
            ahead = before()
            result = fn(*args, **kwargs)
            self.forks.append((ahead, result))
            return result

        return keeping

    def arrays(self) -> dict[str, np.ndarray]:
        out = {c: np.frombuffer(a, dtype=np.int64).copy()
               for c, a in self.cols.items()}
        out["names"] = np.array(self.names)
        return out


def _patch(path: str, wrapper: Callable[[Callable], Callable]) -> None:
    module_name, _, attr = path.rpartition(":")
    owner = importlib.import_module(module_name)
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    setattr(owner, last, wrapper(getattr(owner, last)))


_FORK_ENGINES = (
    "repro.core.async_fork:AsyncFork.fork",
    "repro.kernel.forks.default:DefaultFork.fork",
    "repro.kernel.forks.odf:OnDemandFork.fork",
)


def install_capture(rec: Recorder, before: Callable = _now) -> None:
    """Keep every fork result, so its ``ForkStats`` can be read at the end.

    Costs one list append per fork; this is all the untraced run installs.
    """
    for path in _FORK_ENGINES:
        _patch(path, lambda fn: rec.keep_forks(fn, before))


def _pending(parser, *_):
    return parser.pending_bytes


def _stall_request(bridge):
    pending = bridge.pending_ns
    return pending if pending >= bridge.min_stall_ns else 0


def _parsed(result):
    # 1 for a complete value, 0 for the "need more bytes" sentinel.
    return 0 if type(result).__name__ == "_Incomplete" else 1


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    w = rec.wrap
    # Class attributes are patched in place (every instance looks them up
    # there); module-level functions at the importing module's name.
    patches = {
        "repro.net.protocol:StreamParser.feed": lambda f: w(
            f, "net.app.read", extra=lambda p, data: len(data)),
        "repro.net.protocol:StreamParser.parse_one": lambda f: w(
            f, "net.protocol.parse", extra=_pending),
        "repro.net.app:encode": lambda f: w(f, "net.protocol.encode"),
        "repro.net.core:NetSession.dispatch": lambda f: w(
            f, "net.core.dispatch", new_request=True),
        "repro.net.bridge:ClockBridge.stall": lambda f: w(
            f, "net.bridge.stall", extra=_stall_request),
        "repro.kvs.server:CommandServer.handle": lambda f: w(
            f, "kvs.server.handle"),
        "repro.kvs.engine:ForkJob.step_child": lambda f: w(
            f, "kvs.server.cron"),
        "repro.kvs.engine:KvEngine.get": lambda f: w(f, "kvs.engine.get"),
        "repro.kvs.engine:KvEngine.set": lambda f: w(f, "kvs.engine.set"),
        "repro.mem.address_space:AddressSpace.read_memory": lambda f: w(
            f, "mem.read_memory"),
        "repro.mem.address_space:AddressSpace.write_memory": lambda f: w(
            f, "mem.write_memory"),
        "repro.kvs.rdb:dump": lambda f: w(
            f, "kvs.rdb.dump", after=lambda snap: snap.size,
            aux=lambda snap: snap.entry_count),
        "repro.experiments.common:simulate_snapshot": lambda f: w(
            f, "sim.simulate_snapshot"),
        "repro.cluster.client:ClusterClient.execute": lambda f: w(
            f, "cluster.client.execute"),
        "repro.cluster.migrate:SlotMigrator.tick": lambda f: w(
            f, "cluster.migrate.tick"),
        "repro.kvs.resp:Parser.parse_one": lambda f: w(
            f, "kvs.resp.parse", after=_parsed),
        "repro.kvs.resp:encode": lambda f: w(f, "kvs.resp.encode"),
        "repro.cluster.client:encode_command": lambda f: w(
            f, "kvs.resp.encode"),
        "repro.cluster.migrate:encode_command": lambda f: w(
            f, "kvs.resp.encode"),
    }
    for path in _FORK_ENGINES:
        patches[path] = lambda f: w(f, "fork.call")
    for path, wrapper in patches.items():
        _patch(path, wrapper)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


class Spans:
    """Per-name totals over the spans that start inside a window."""

    def __init__(self, arrays: dict, lo: int = 0, hi: int = 1 << 62):
        names = [str(n) for n in arrays["names"]]
        start, end = arrays["start"], arrays["end"]
        parent = arrays["parent"]
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_ns = dur - covered
        mask = (start >= lo) & (start < hi)
        ids = arrays["name"][mask]
        width = len(names)
        self.count = dict(zip(names, np.bincount(ids, minlength=width)))
        self.total_ns = dict(zip(names, np.bincount(
            ids, weights=dur[mask], minlength=width)))
        self.self_ns = dict(zip(names, np.bincount(
            ids, weights=self_ns[mask], minlength=width)))
        self.extra = dict(zip(names, np.bincount(
            ids, weights=arrays["extra"][mask], minlength=width)))
        self.aux = dict(zip(names, np.bincount(
            ids, weights=arrays["aux"][mask], minlength=width)))
        self._arrays, self._mask, self._dur = arrays, mask, dur
        self._ids = {n: i for i, n in enumerate(names)}
        #: Spans with no parent: time spent inside any traced call.
        self.root_ns = float(dur[mask & ~has_parent].sum())

    def n(self, name: str) -> int:
        return int(self.count.get(name, 0))

    def per_call_us(self, name: str, own: bool = True) -> float:
        """Mean self (or total) time per call, µs; 0 when never called."""
        n = self.n(name)
        if not n:
            return 0.0
        table = self.self_ns if own else self.total_ns
        return float(table[name]) / n / 1e3

    def per_us(self, name: str, per: int, own: bool = True) -> float:
        """Summed self (or total) time divided by ``per`` calls, µs."""
        if not per:
            return 0.0
        table = self.self_ns if own else self.total_ns
        return float(table.get(name, 0.0)) / per / 1e3

    def select(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(durations, extras) of every in-window span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(0), np.zeros(0)
        m = self._mask & (self._arrays["name"] == nid)
        return self._dur[m], self._arrays["extra"][m]


FORK_STATS = ("parent_call_ns", "child_tables_copied", "proactive_syncs",
              "table_faults")


def fork_stats(results: list) -> list[dict[str, int]]:
    """The simulated ``ForkStats`` counters of each kept fork result."""
    return [{k: getattr(r.stats, k) for k in FORK_STATS} for r in results]


def fork_stat_metrics(forks: list[dict]) -> dict[str, float]:
    """``fork.*`` simulated counters over a run's forks."""
    n = len(forks)
    total = {k: sum(f[k] for f in forks) for k in FORK_STATS}
    return {
        "fork.sim_call_us": total["parent_call_ns"] / n / 1e3 if n else 0.0,
        "fork.child_tables_copied": total["child_tables_copied"],
        "fork.proactive_syncs": total["proactive_syncs"],
        "fork.table_faults": total["table_faults"],
    }


def kvs_layers(s: Spans) -> dict[str, float]:
    """Figures of the layers both the wire and the simulator cross."""
    dumps = s.n("kvs.rdb.dump")
    fork_wall, _ = s.select("fork.call")
    return {
        "kvs.server.handle_self_us": s.per_call_us("kvs.server.handle"),
        "kvs.server.cron_us_per_cmd": s.per_us(
            "kvs.server.cron", s.n("kvs.server.handle"), own=False),
        "kvs.engine.get_us": s.per_call_us("kvs.engine.get"),
        "kvs.engine.set_us": s.per_call_us("kvs.engine.set"),
        "kvs.engine.calls": s.n("kvs.engine.get") + s.n("kvs.engine.set"),
        "mem.write_memory_us": s.per_call_us("mem.write_memory"),
        "mem.read_memory_us": s.per_call_us("mem.read_memory"),
        "mem.read_memory_calls": s.n("mem.read_memory"),
        "kvs.rdb.dump_ms": s.per_call_us("kvs.rdb.dump", own=False) / 1e3,
        "kvs.rdb.dump_us_per_key": (
            float(s.total_ns.get("kvs.rdb.dump", 0))
            / max(1.0, float(s.aux.get("kvs.rdb.dump", 0))) / 1e3
        ),
        "kvs.rdb.bytes": (
            float(s.extra.get("kvs.rdb.dump", 0)) / dumps if dumps else 0.0
        ),
        "fork.call_wall_ms": (
            float(fork_wall.mean()) / 1e6 if len(fork_wall) else 0.0
        ),
    }
