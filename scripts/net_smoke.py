#!/usr/bin/env python
"""End-to-end wire-latency smoke for the live RESP frontend (CI gate).

For each fork engine this script:

1. launches ``repro-serve`` as a *subprocess* on an ephemeral port
   (``--port 0`` + ``--ready-file`` handshake, ``--max-runtime`` hang
   protection so a wedged server kills itself instead of the job);
2. drives it with the same paced asyncio load loop as the ``figx-live``
   experiment — concurrent GET/SET workers plus a periodic ``BGSAVE``
   snapshotter — and records client-observed wall-clock latencies;
3. sends a 70 KiB line with no CRLF on one connection, which must be
   answered ``-ERR Protocol error`` and closed while a concurrent
   connection's ``SET``/``GET`` still succeed (hostile framing);
4. pipelines 16 MiB of ``GET`` on one connection and reads nothing for
   a second, while a concurrent connection's ``SET``/``GET`` must still
   be served; the slow connection then drains and must receive exactly
   one reply per request (write backpressure);
5. sends ``SHUTDOWN`` and asserts the server exits cleanly (code 0).

It then asserts the paper's headline result on the wire: the default
fork's p99 **and** max latency exceed Async-fork's.  Per-engine
percentiles land in a CSV (uploaded as a CI artifact) so a failing run
can be diagnosed from the numbers alone.

Exit codes: 0 ok, 1 latency gate failed, 2 server misbehaved.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.experiments.figx_live import LoadStats, drive_load  # noqa: E402
from repro.net.client import wait_for_port  # noqa: E402

ENGINES = ("default", "odf", "async")


def launch_server(engine: str, ready_file: str, max_runtime_s: float):
    """Start ``repro-serve`` on an ephemeral port; return the process."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.net.cli",
            "--engine", engine,
            "--port", "0",
            "--ready-file", ready_file,
            "--max-runtime", str(max_runtime_s),
        ],
        env={**os.environ, "PYTHONPATH": "src"},
    )


def read_ready(ready_file: str, proc, timeout_s: float = 20.0):
    """Wait for the ready-file handshake; return (host, port)."""
    deadline = time.monotonic() + timeout_s  # lint: allow(wall-clock)
    while time.monotonic() < deadline:  # lint: allow(wall-clock)
        if proc.poll() is not None:
            raise RuntimeError(
                f"repro-serve exited early with code {proc.returncode}"
            )
        try:
            with open(ready_file) as handle:
                text = handle.read().strip()
            if text:
                host, port = text.split()
                return host, int(port)
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    raise TimeoutError("repro-serve never wrote its ready file")


#: Longer than the server's 64 KiB cap on an unterminated line.
HOSTILE_LINE = b"x" * (70 * 1024)


async def hostile_framing(host: str, port: int) -> list[str]:
    """Send an unterminated 70 KiB line; returns what went wrong."""
    from repro.kvs.resp import RespError
    from repro.net.client import AsyncRespClient

    problems = []
    hostile = await AsyncRespClient.connect(host, port)
    other = await AsyncRespClient.connect(host, port)
    try:
        await hostile.send_raw(HOSTILE_LINE)
        try:
            reply = await asyncio.wait_for(hostile.read_reply(), 10)
        except asyncio.TimeoutError:
            problems.append("hostile line got no reply in 10 s")
        else:
            if not (isinstance(reply, RespError)
                    and reply.message.startswith("ERR Protocol error")):
                problems.append(f"hostile line answered {reply!r}")
            try:
                await asyncio.wait_for(hostile.execute("PING"), 10)
            except ConnectionError:
                pass
            else:
                problems.append("hostile connection left open")
        await other.execute("SET", "smoke:hostile", "still-served")
        if await other.execute("GET", "smoke:hostile") != b"still-served":
            problems.append("concurrent SET/GET lost its value")
    finally:
        await hostile.close()
        await other.close()
    return problems


#: Bytes of pipelined GETs the slow reader sends before reading.
SLOW_PIPELINE_BYTES = 16 * 1024 * 1024
SLOW_KEY = b"smoke:slow"
SLOW_VALUE = b"s" * 512


async def slow_reader(host: str, port: int) -> list[str]:
    """Pipeline GETs without reading; returns what went wrong."""
    from repro.net.client import AsyncRespClient
    from repro.net.protocol import encode_command

    problems = []
    other = await AsyncRespClient.connect(host, port)
    await other.execute("SET", SLOW_KEY, SLOW_VALUE)
    request = encode_command(b"GET", SLOW_KEY)
    count = -(-SLOW_PIPELINE_BYTES // len(request))
    reply = b"$%d\r\n%s\r\n" % (len(SLOW_VALUE), SLOW_VALUE)
    expected = count * len(reply)
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request * count)
        await asyncio.sleep(1.0)
        try:
            await asyncio.wait_for(
                other.execute("SET", "smoke:slow-other", "still-served"), 5
            )
            got = await asyncio.wait_for(
                other.execute("GET", "smoke:slow-other"), 5
            )
        except asyncio.TimeoutError:
            problems.append("concurrent SET/GET not served in 5 s")
        else:
            if got != b"still-served":
                problems.append("concurrent SET/GET lost its value")
        pattern = reply * ((1 << 20) // len(reply) + 2)
        received = 0
        while received < expected:
            try:
                chunk = await asyncio.wait_for(
                    reader.read(min(1 << 20, expected - received)), 60
                )
            except asyncio.TimeoutError:
                break
            if not chunk:
                break
            offset = received % len(reply)
            if chunk != pattern[offset:offset + len(chunk)]:
                problems.append(f"slow reader got a wrong reply near "
                                f"byte {received}")
                break
            received += len(chunk)
        if received < expected:
            problems.append(
                f"slow reader got {received // len(reply)} of {count} "
                "replies"
            )
    finally:
        writer.close()
        await other.close()
    return problems


async def smoke_engine(
    engine: str, duration_s: float, max_runtime_s: float
) -> tuple[LoadStats, list[str], list[str], int]:
    """One engine's full lifecycle.

    Returns (stats, hostile-line problems, slow-reader problems, exit
    code).
    """
    with tempfile.TemporaryDirectory() as tmp:
        ready_file = os.path.join(tmp, "ready")
        proc = launch_server(engine, ready_file, max_runtime_s)
        try:
            host, port = read_ready(ready_file, proc)
            await wait_for_port(host, port)
            stats = await drive_load(
                host, port, duration_s, keys=512
            )
            hostile = await hostile_framing(host, port)
            slow = await slow_reader(host, port)
            # Clean shutdown: SHUTDOWN drops the connection without a
            # reply; the server must exit 0 on its own.
            from repro.net.client import AsyncRespClient

            control = await AsyncRespClient.connect(host, port)
            try:
                await control.execute("SHUTDOWN", "NOSAVE", check=False)
            except ConnectionError:
                pass
            await control.close()
            code = proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return stats, hostile, slow, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=2.0, metavar="SECONDS",
        help="measured load window per engine (default 2.0)",
    )
    parser.add_argument(
        "--max-runtime", type=float, default=120.0, metavar="SECONDS",
        help="per-server watchdog budget passed to repro-serve",
    )
    parser.add_argument(
        "--csv", default="net-smoke.csv", metavar="PATH",
        help="latency digest output (CI artifact; default net-smoke.csv)",
    )
    args = parser.parse_args(argv)

    rows = {}
    problems: dict[str, list[str]] = {}
    for engine in ENGINES:
        print(f"== {engine}: launching repro-serve ==", flush=True)
        stats, hostile, slow, code = asyncio.run(
            smoke_engine(engine, args.duration, args.max_runtime)
        )
        p50 = stats.percentile(0.50)
        p99 = stats.percentile(0.99)
        mx = max(stats.latencies_ms)
        rows[engine] = (len(stats.latencies_ms), p50, p99, mx,
                        stats.bgsaves, code)
        problems[engine] = hostile + slow
        print(
            f"   {engine}: n={len(stats.latencies_ms)} p50={p50:.2f}ms "
            f"p99={p99:.2f}ms max={mx:.2f}ms bgsaves={stats.bgsaves} "
            f"exit={code} hostile-line="
            f"{'ok' if not hostile else 'FAIL'} slow-reader="
            f"{'ok' if not slow else 'FAIL'}",
            flush=True,
        )

    with open(args.csv, "w") as handle:
        handle.write("engine,samples,p50_ms,p99_ms,max_ms,bgsaves,exit\n")
        for engine in ENGINES:
            n, p50, p99, mx, bg, code = rows[engine]
            handle.write(
                f"{engine},{n},{p50:.3f},{p99:.3f},{mx:.3f},{bg},{code}\n"
            )
    print(f"wrote {args.csv}")

    failures = []
    for engine in ENGINES:
        n, _, _, _, bg, code = rows[engine]
        if code != 0:
            failures.append(f"{engine}: unclean shutdown (exit {code})")
        if n < 100:
            failures.append(f"{engine}: only {n} samples")
        if bg < 1:
            failures.append(f"{engine}: no BGSAVE completed")
        failures.extend(f"{engine}: {p}" for p in problems[engine])
    if failures:
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 2

    default_p99, async_p99 = rows["default"][2], rows["async"][2]
    default_max, async_max = rows["default"][3], rows["async"][3]
    if not (default_p99 > async_p99 and default_max > async_max):
        print(
            "FAIL wire-latency gate: expected default-fork p99/max > "
            f"Async-fork's, got p99 {default_p99:.2f} vs {async_p99:.2f}"
            f" ms, max {default_max:.2f} vs {async_max:.2f} ms",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: default p99 {default_p99:.2f}ms > async p99 "
        f"{async_p99:.2f}ms; default max {default_max:.2f}ms > "
        f"async max {async_max:.2f}ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
