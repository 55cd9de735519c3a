"""Measure the loopback noise floor that wire latency figures sit on.

A bare asyncio server answers ``+PONG`` to each ``PING`` with no other
work, in its own process on the program's CPU.  The benchmark's own
open-loop generator drives it over 2 connections at a few fixed rates,
timing each request from its due time exactly as ``wire-getset`` does.
Latency deltas smaller than the spread seen here cannot be resolved on
the same machine.

Usage, from the repository root on an otherwise idle machine::

    python perfbench/noise_floor.py [--seconds 5] [--runs 3]

Writes ``perfbench/noise_floor.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import speed  # noqa: E402

PING = loadgen.command(b"PING")
PONG = b"+PONG\r\n"
RATES = (1000, 4000, 8000)
CONNS = 2


async def _echo(reader, writer) -> None:
    pending = 0
    while data := await reader.read(1 << 16):
        pending += len(data)
        count, pending = divmod(pending, len(PING))
        if count:
            writer.write(PONG * count)
            await writer.drain()
    writer.close()


async def _serve(ready_file: str) -> None:
    server = await asyncio.start_server(_echo, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    Path(ready_file).write_text(f"{host} {port}\n")
    async with server:
        await server.serve_forever()


def _schedule(seed: int, conn: int, rate: float, seconds: float):
    import random

    rng = random.Random(seed * 1_000_003 + conn)
    due, t, gap = [], 0.0, 1e9 * CONNS / rate
    while (t := t + rng.expovariate(1.0) * gap) < seconds * 1e9:
        due.append(int(t))
    return loadgen.Schedule(due, [PING] * len(due),
                            [(loadgen.SIMPLE, b"PONG")] * len(due), [])


async def _drive(address, rate: float, seconds: float, seed: int):
    conns = [await asyncio.open_connection(*address) for _ in range(CONNS)]
    base = time.perf_counter_ns() + 20_000_000
    outs = await asyncio.gather(*(
        loadgen.open_loop(r, w, _schedule(seed, c, rate, seconds), base)
        for c, (r, w) in enumerate(conns)
    ))
    for _, writer in conns:
        writer.close()
    lat = np.concatenate([o.latency_ns() for o in outs]) / 1e6
    late = np.concatenate([np.asarray(o.late_ns) for o in outs]) / 1e6
    if any(o.failed for o in outs):
        raise RuntimeError(f"echo replies did not match: {outs[0].mismatches}")
    return {
        "rate": rate,
        "n": int(len(lat)),
        "p50_ms": round(float(np.percentile(lat, 50)), 4),
        "p99_ms": round(float(np.percentile(lat, 99)), 4),
        "late_p99_ms": round(float(np.percentile(late, 99)), 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--serve", metavar="READY_FILE")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    if args.serve:
        asyncio.run(_serve(args.serve))
        return 0

    # The same CPU placement as the wire workloads.
    speed.pin(speed.LOADGEN_CPU)
    ready = HERE.parent / ".perfbench_work" / f"echo-{os.getpid()}.ready"
    ready.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for run in range(args.runs):
        ready.unlink(missing_ok=True)
        proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(ready)],
            preexec_fn=lambda: speed.pin(speed.PROGRAM_CPU))
        try:
            while not (ready.exists() and ready.read_text().endswith("\n")):
                time.sleep(0.01)
            host, port = ready.read_text().split()
            for rate in RATES:
                row = asyncio.run(
                    _drive((host, int(port)), rate, args.seconds, run))
                rows.append({"run": run, **row})
                print(row, flush=True)
        finally:
            proc.terminate()
            proc.wait()
            ready.unlink(missing_ok=True)
    out = {
        "what": "bare asyncio PING/PONG server, own process pinned to the "
                "program CPU, open loop over 2 loopback connections from "
                "the load generator CPU, latency from due time",
        "machine": f"{os.cpu_count()} vCPU, {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "seconds_per_rate": args.seconds,
        "rows": rows,
    }
    (HERE / "noise_floor.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
