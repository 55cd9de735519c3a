"""The benchmark's own RESP client side: request encoder, reply reader and
the two load shapes (open loop from a schedule, closed pipelined loop).

The generator deliberately shares no code with ``repro.net``: if it parsed
replies with the server's ``StreamParser``, a parser change would move the
client's cost too and bias the throughput it measures.
"""

from __future__ import annotations

import asyncio
import bisect
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Reply kinds returned by :class:`ReplyReader` as ``(kind, payload)``.
SIMPLE, ERROR, INTEGER, BULK = b"+", b"-", b":", b"$"

OK = (SIMPLE, b"OK")
#: The two replies a BGSAVE may legally get while snapshots repeat.
BGSAVE_REPLIES = (
    (SIMPLE, b"Background saving started"),
    (ERROR, b"ERR Background save already in progress"),
)


def command(*args: bytes) -> bytes:
    """Encode one request as a RESP array of bulk strings."""
    out = [b"*%d\r\n" % len(args)]
    for arg in args:
        out.append(b"$%d\r\n%s\r\n" % (len(arg), arg))
    return b"".join(out)


class ReplyReader:
    """Incremental reader for the flat reply shapes the benchmark sends for.

    Handles simple strings, errors, integers and bulk strings (arrays are
    never requested).  Keeps a read offset and compacts once per feed, so
    a long pipeline costs linear time.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    def feed(self, data: bytes) -> list[tuple[bytes, object]]:
        buf = self._buf
        if self._pos:
            del buf[: self._pos]
            self._pos = 0
        buf += data
        out = []
        pos = 0
        end = len(buf)
        while pos < end:
            eol = buf.find(b"\r\n", pos)
            if eol < 0:
                break
            kind = buf[pos : pos + 1]
            if kind == BULK:
                size = int(buf[pos + 1 : eol])
                if size < 0:
                    out.append((BULK, None))
                    pos = eol + 2
                    continue
                stop = eol + 2 + size
                if stop + 2 > end:
                    break
                out.append((BULK, bytes(buf[eol + 2 : stop])))
                pos = stop + 2
            elif kind in (SIMPLE, ERROR, INTEGER):
                out.append((bytes(kind), bytes(buf[pos + 1 : eol])))
                pos = eol + 2
            else:
                raise ValueError(f"unexpected reply type {bytes(kind)!r}")
        self._pos = pos
        return out


def key_name(index: int) -> bytes:
    """The server's startup key naming (``repro.net.app.build_backend``)."""
    return b"key:%012d" % index


def set_value(conn: int, seq: int, size: int = 64) -> bytes:
    """A SET value that names its connection and sequence number."""
    return (b"c%d:%d;" % (conn, seq)).ljust(size, b".")


@dataclass
class Outcome:
    """What one connection's load produced."""

    #: Per request: its due (open loop) or send (closed loop) time, and
    #: when its reply arrived, ns; latency is the difference.
    due_ns: list[int] = field(default_factory=list)
    done_ns: list[int] = field(default_factory=list)
    #: Per send: how late the write went out after its first request's
    #: due time, ns (open loop only).
    late_ns: list[int] = field(default_factory=list)
    #: Send times of BGSAVEs in a closed loop, ns.
    bgsave_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def latency_ns(self) -> np.ndarray:
        return np.asarray(self.done_ns) - np.asarray(self.due_ns)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 5:
            self.mismatches.append(why)


# ---------------------------------------------------------------------------
# open loop: wire-getset
# ---------------------------------------------------------------------------


@dataclass
class Schedule:
    """One connection's precomputed requests, due times and expectations."""

    due_ns: list[int]
    requests: list[bytes]
    #: Expected reply per request (``None``: any legal BGSAVE reply).
    expected: list[object]
    #: Due times of this connection's BGSAVEs.
    bgsave_due_ns: list[int]


def getset_schedule(
    seed: int,
    conn: int,
    conns: int,
    rate: float,
    duration_s: float,
    keys: int,
    value_size: int,
    get_share: float,
    bgsave_every: int,
) -> Schedule:
    """Seeded Poisson arrivals over this connection's own key range.

    Each connection owns ``keys // conns`` consecutive keys, so its model
    of their values is exact without knowing what the other connection
    sent.  Every ``bgsave_every``-th request of connection 0 is a BGSAVE.
    """
    rng = random.Random(seed * 1_000_003 + conn)
    per_conn = keys // conns
    lo = conn * per_conn
    model = {k: bytes(value_size) for k in range(lo, lo + per_conn)}
    due, requests, expected, bgsaves = [], [], [], []
    t = 0.0
    horizon = duration_s * 1e9
    mean_gap = 1e9 * conns / rate
    seq = 0
    while True:
        t += rng.expovariate(1.0) * mean_gap
        if t >= horizon:
            break
        due_at = int(t)
        seq += 1
        due.append(due_at)
        if conn == 0 and seq % bgsave_every == 0:
            requests.append(command(b"BGSAVE"))
            expected.append(None)
            bgsaves.append(due_at)
            continue
        k = rng.randrange(lo, lo + per_conn)
        if rng.random() < get_share:
            requests.append(command(b"GET", key_name(k)))
            expected.append((BULK, model[k]))
        else:
            value = set_value(conn, seq)
            model[k] = value
            requests.append(command(b"SET", key_name(k), value))
            expected.append(OK)
    return Schedule(due, requests, expected, bgsaves)


def check_reply(out: Outcome, reply, expected) -> None:
    if expected is None:
        if reply not in BGSAVE_REPLIES:
            out.fail(f"BGSAVE got {reply!r}")
    elif reply != expected:
        out.fail(f"expected {expected!r:.60}, got {reply!r:.60}")


async def open_loop(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    schedule: Schedule,
    base_ns: int,
) -> Outcome:
    """Send everything due in one write per wake-up; time from due time."""
    out = Outcome(attempted=len(schedule.due_ns))
    due = schedule.due_ns
    n = len(due)

    async def send() -> None:
        i = 0
        while i < n:
            now = time.perf_counter_ns() - base_ns
            if due[i] > now:
                await asyncio.sleep((due[i] - now) / 1e9)
                continue
            j = bisect.bisect_right(due, now, i)
            writer.write(b"".join(schedule.requests[i:j]))
            out.late_ns.append(now - due[i])
            i = j
            await writer.drain()

    sender = asyncio.create_task(send())
    replies = ReplyReader()
    got = 0
    try:
        while got < n:
            data = await reader.read(1 << 16)
            if not data:
                break
            now = time.perf_counter_ns() - base_ns
            for reply in replies.feed(data):
                check_reply(out, reply, schedule.expected[got])
                out.due_ns.append(due[got])
                out.done_ns.append(now)
                got += 1
    finally:
        await sender
    for _ in range(n - got):
        out.fail("request never answered")
    return out


# ---------------------------------------------------------------------------
# closed loop: wire-setpipe
# ---------------------------------------------------------------------------


async def closed_loop(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    seed: int,
    conn: int,
    conns: int,
    keys: int,
    depth: int,
    bgsave_every: int,
    stop_ns: int,
    base_ns: int,
    model: dict[int, bytes],
    on_bgsave: Callable[[], None],
) -> Outcome:
    """Keep one pipeline of ``depth`` SETs in flight until ``stop_ns``.

    Connection 0 appends a BGSAVE to the pipeline each time its SET count
    crosses a multiple of ``bgsave_every``, and calls ``on_bgsave()``
    once it is sent.  ``model`` receives the last value written to every
    key this connection touched.
    """
    rng = random.Random(seed * 1_000_003 + conn)
    per_conn = keys // conns
    lo = conn * per_conn
    out = Outcome()
    replies = ReplyReader()
    seq = 0
    while time.perf_counter_ns() - base_ns < stop_ns:
        parts, expected = [], []
        bgsave = False
        for _ in range(depth):
            seq += 1
            k = rng.randrange(lo, lo + per_conn)
            value = set_value(conn, seq)
            model[k] = value
            parts.append(command(b"SET", key_name(k), value))
            expected.append(OK)
            if conn == 0 and seq % bgsave_every == 0:
                parts.append(command(b"BGSAVE"))
                expected.append(None)
                bgsave = True
        sent = time.perf_counter_ns() - base_ns
        writer.write(b"".join(parts))
        if bgsave:
            out.bgsave_ns.append(sent)
            on_bgsave()
        out.attempted += len(parts)
        got = 0
        while got < len(parts):
            data = await reader.read(1 << 16)
            if not data:
                break
            now = time.perf_counter_ns() - base_ns
            for reply in replies.feed(data):
                check_reply(out, reply, expected[got])
                out.due_ns.append(sent)
                out.done_ns.append(now)
                got += 1
        if got < len(parts):
            for _ in range(len(parts) - got):
                out.fail("request never answered")
            break
    return out


async def verify_keys(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    indices: list[int],
    expected: dict[int, bytes],
    out: Outcome,
    batch: int = 256,
) -> None:
    """GET every key in ``indices`` and compare with the model."""
    replies = ReplyReader()
    for start in range(0, len(indices), batch):
        chunk = indices[start : start + batch]
        writer.write(b"".join(command(b"GET", key_name(k)) for k in chunk))
        got: list = []
        while len(got) < len(chunk):
            data = await reader.read(1 << 16)
            if not data:
                break
            got.extend(replies.feed(data))
        out.attempted += len(chunk)
        for k, reply in zip(chunk, got):
            check_reply(out, reply, (BULK, expected[k]))
        for _ in range(len(chunk) - len(got)):
            out.fail("verification GET never answered")
