"""End-to-end tests: real sockets against the asyncio RESP server.

Each test runs its own event loop (``asyncio.run``): a ReproServer on an
ephemeral port, AsyncRespClient connections driving it, everything torn
down before the assertion dust settles.  The latency-contrast test runs
the server in its own thread so the client's clock keeps ticking while
the server's loop is stalled (see figx_live's coordinated-omission
note).
"""

from __future__ import annotations

import asyncio
import logging
import socket
import threading
from asyncio import selector_events

import pytest

from repro.kvs.resp import RespError, SimpleString
from repro.net import app
from repro.net.app import (
    FORK_ENGINES,
    ReproServer,
    ServerConfig,
    WireCostModel,
    build_backend,
)
from repro.net.bridge import ClockBridge
from repro.net.client import AsyncRespClient, ReplyError
from repro.net.protocol import encode_command

#: Tiny, fast server config for functional tests: no cost emulation
#: (sim_size_gb=0) and no wall stalls worth noticing.
FAST = dict(port=0, keys=64, value_size=64, sim_size_gb=0.0)


def make_server(engine: str = "async", **overrides) -> ReproServer:
    config = ServerConfig(engine=engine, **{**FAST, **overrides})
    backend = build_backend(config)
    bridge = ClockBridge(
        backend.engine.clock,
        scale=config.time_scale,
        min_stall_ns=config.min_stall_ns,
    )
    return ReproServer(backend, bridge, config)


def serve_and_run(server: ReproServer, scenario) -> object:
    """Start ``server``, run ``scenario(host, port)``, stop, return result."""

    async def _main():
        host, port = await server.start()
        try:
            return await scenario(host, port)
        finally:
            await server.stop()

    return asyncio.run(_main())


class TestCommands:
    @pytest.mark.parametrize("engine", sorted(FORK_ENGINES))
    def test_ping_set_get_del_bgsave(self, engine):
        server = make_server(engine)

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            assert await client.execute("PING") == SimpleString(b"PONG")
            assert await client.execute("SET", "k", "v") == (
                SimpleString(b"OK")
            )
            assert await client.execute("GET", "k") == b"v"
            assert await client.execute("DEL", "k") == 1
            assert await client.execute("GET", "k") is None
            assert await client.execute("BGSAVE") == SimpleString(
                b"Background saving started"
            )
            # Drive commands until the background child is reaped.
            for _ in range(64):
                await client.execute("PING")
                if server.backend.engine._active_job is None:
                    break
            assert server.backend.engine._active_job is None
            # LASTSAVE reports whole sim-seconds (0 at tiny sim times);
            # the ns-level record must show the completed save.
            assert await client.execute("LASTSAVE") >= 0
            assert server.backend._last_save_ns > 0
            await client.close(quit=True)

        serve_and_run(server, scenario)

    def test_error_reply_keeps_connection(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            with pytest.raises(ReplyError, match="unknown command"):
                await client.execute("NOSUCHCMD")
            reply = await client.execute("NOSUCHCMD", check=False)
            assert isinstance(reply, RespError)
            assert await client.execute("PING") == SimpleString(b"PONG")
            await client.close()

        serve_and_run(server, scenario)

    def test_inline_commands(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            await client.send_raw(b"PING\r\n")
            assert await client.read_reply() == SimpleString(b"PONG")
            await client.send_raw(b"SET inline-key inline-value\r\n")
            assert await client.read_reply() == SimpleString(b"OK")
            assert await client.execute("GET", "inline-key") == (
                b"inline-value"
            )
            await client.close()

        serve_and_run(server, scenario)

    def test_pipelining(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            replies = await client.pipeline(
                [("SET", f"p{i}", f"v{i}") for i in range(10)]
                + [("GET", f"p{i}") for i in range(10)]
            )
            assert replies[:10] == [SimpleString(b"OK")] * 10
            assert replies[10:] == [b"v%d" % i for i in range(10)]
            await client.close()

        serve_and_run(server, scenario)

    def test_wait_and_info(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            assert await client.execute("WAIT", 0, 100) == 0
            info = await client.execute("INFO")
            text = info.decode()
            assert "connected_clients:1" in text
            assert "net_bridge_stalls:" in text
            await client.close()

        serve_and_run(server, scenario)


class TestHello:
    def test_hello_3_switches_proto(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            hello = await client.execute("HELLO", 3)
            client.proto = 3
            assert hello[b"proto"] == 3
            assert hello[b"server"] == b"repro-asyncfork"
            assert hello[b"role"] == b"master"
            # RESP3 nil is the `_` frame; the client decodes it to None.
            assert await client.execute("GET", "missing") is None
            await client.close()

        serve_and_run(server, scenario)

    def test_hello_rejects_unknown_proto(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            with pytest.raises(ReplyError, match="NOPROTO"):
                await client.execute("HELLO", 4)
            await client.close()

        serve_and_run(server, scenario)

    def test_connect_helper_upgrades(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port, proto=3)
            assert client.proto == 3
            assert await client.execute("PING") == SimpleString(b"PONG")
            await client.close()

        serve_and_run(server, scenario)


class TestProtocolErrors:
    def test_bad_frame_gets_error_then_close(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            await client.send_raw(b"*abc\r\n")
            reply = await client.read_reply()
            assert isinstance(reply, RespError)
            assert "Protocol error" in reply.message
            with pytest.raises(ConnectionError):
                await client.execute("PING")
            await client.close()

        serve_and_run(server, scenario)


    def test_unterminated_line_closes_only_that_connection(self):
        server = make_server()

        async def scenario(host, port):
            hostile = await AsyncRespClient.connect(host, port)
            other = await AsyncRespClient.connect(host, port)
            await hostile.send_raw(b"a" * (70 * 1024))
            reply = await asyncio.wait_for(hostile.read_reply(), 10)
            assert isinstance(reply, RespError)
            assert reply.message == (
                "ERR Protocol error: too big inline request"
            )
            with pytest.raises(ConnectionError):
                await hostile.execute("PING")
            assert await other.execute("PING") == SimpleString(b"PONG")
            await hostile.close()
            await other.close()
            return server._proto_errors.value

        assert serve_and_run(server, scenario) == 1


class TestInfoCounters:
    def test_total_commands_counts_connection_commands(self):
        server = make_server()

        async def scenario(host, port):
            client = await AsyncRespClient.connect(host, port)
            replies = await client.pipeline(
                [("HELLO", 3)] + [("SET", f"c{i}", "v") for i in range(3)]
                + [("INFO",)]
            )
            # Counted after it runs: INFO sees itself only next time,
            # and connection-scoped commands count like any other.
            later = await client.pipeline([("CLIENT", "GETNAME"), ("INFO",)])
            await client.close()
            return replies[-1], later[-1]

        first, later = serve_and_run(server, scenario)
        assert b"total_commands_processed:4\r\n" in first
        assert b"total_commands_processed:6\r\n" in later


class TestConnections:
    def test_connection_beyond_max_clients_is_refused(self, monkeypatch):
        monkeypatch.setattr(app, "MAX_CLIENTS", 2)
        server = make_server()

        async def scenario(host, port):
            first = await AsyncRespClient.connect(host, port)
            second = await AsyncRespClient.connect(host, port)
            # Both accepted before the third arrives.
            for client in (first, second):
                assert await client.execute("PING") == SimpleString(b"PONG")
            third = await AsyncRespClient.connect(host, port)
            reply = await asyncio.wait_for(third.read_reply(), 5)
            assert isinstance(reply, RespError)
            assert reply.message == "ERR max number of clients reached"
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(third.read_reply(), 5)
            await third.close()
            for client in (first, second):
                assert await client.execute("PING") == SimpleString(b"PONG")
            info = (await first.execute("INFO")).decode()
            await first.close()
            await second.close()
            return info

        info = serve_and_run(server, scenario)
        assert "rejected_connections:1\r\n" in info
        assert "connected_clients:2\r\n" in info
        assert "total_connections_received:2\r\n" in info

    def test_engine_bug_closes_only_that_connection(self, caplog):
        server = make_server()
        handle = server.backend.handle

        def buggy_handle(command):
            if command[0] == b"BOOM":
                raise RuntimeError("engine bug")
            return handle(command)

        server.backend.handle = buggy_handle

        async def scenario(host, port):
            victim = await AsyncRespClient.connect(host, port)
            other = await AsyncRespClient.connect(host, port)
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(victim.execute("BOOM"), 5)
            await victim.close()
            assert await other.execute("PING") == SimpleString(b"PONG")
            info = (await other.execute("INFO")).decode()
            await other.close()
            return info

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            info = serve_and_run(server, scenario)
        assert "connected_clients:1\r\n" in info
        logged = [r.exc_info[1] for r in caplog.records if r.exc_info]
        assert any(isinstance(e, RuntimeError) and str(e) == "engine bug"
                   for e in logged)


async def wait_until_stalled(server: ReproServer) -> int:
    """Wait until the server stops taking bytes; returns bytes taken."""
    seen = 0
    for _ in range(100):
        await asyncio.sleep(0.3)
        now = server._bytes_in.value
        if now and now == seen:
            return now
        seen = now
    raise AssertionError("server never stopped reading")


def send_in_background(sock: socket.socket, data: bytes) -> threading.Thread:
    """``sock.sendall(data)`` on a daemon thread (it blocks on a stall)."""

    def send() -> None:
        try:
            sock.sendall(data)
        except OSError:
            pass  # the server aborted the connection

    thread = threading.Thread(target=send, daemon=True)
    thread.start()
    return thread


class TestBackpressure:
    """A client that pipelines but reads nothing stops being read."""

    #: Requests sent: at least this many bytes of GET commands.
    PIPELINE_BYTES = 32 * 1024 * 1024
    #: The most reply bytes the server may queue for one connection.
    WRITE_BUFFER_BOUND = 16 * 1024 * 1024

    def test_unread_replies_bound_the_write_buffer(self, monkeypatch):
        keys, value_size = 64, 512
        server = make_server(keys=keys, value_size=value_size)
        # Largest reply backlog any server transport holds after a write
        # (the client side uses plain sockets, the PING client ~nothing).
        peak = [0]
        write = selector_events._SelectorSocketTransport.write

        def tracking_write(transport, data):
            write(transport, data)
            peak[0] = max(peak[0], transport.get_write_buffer_size())

        monkeypatch.setattr(
            selector_events._SelectorSocketTransport, "write",
            tracking_write,
        )
        gets = [encode_command(b"GET", b"key:%012d" % i)
                for i in range(keys)]
        count = -(-self.PIPELINE_BYTES // len(gets[0]))
        pipeline = b"".join(gets[i % keys] for i in range(count))
        # Every startup value is value_size zero bytes.
        reply = b"$%d\r\n%s\r\n" % (value_size, bytes(value_size))
        expected = count * len(reply)

        def drain(sock: socket.socket) -> int:
            """Read every reply, checking each byte; return bytes read."""
            pattern = reply * ((1 << 20) // len(reply) + 2)
            got = 0
            while got < expected:
                chunk = sock.recv(min(1 << 20, expected - got))
                if not chunk:
                    break
                offset = got % len(reply)
                assert chunk == pattern[offset:offset + len(chunk)]
                got += len(chunk)
            return got

        async def scenario(host, port):
            slow = socket.create_connection((host, port))
            slow.settimeout(60)
            sender = send_in_background(slow, pipeline)
            try:
                # Stalled: the server stops taking bytes before the end.
                assert await wait_until_stalled(server) < len(pipeline)
                other = await AsyncRespClient.connect(host, port)
                pong = await asyncio.wait_for(other.execute("PING"), 1.0)
                assert pong == SimpleString(b"PONG")
                await other.close()
                got = await asyncio.to_thread(drain, slow)
                await asyncio.to_thread(sender.join, 60)
                assert not sender.is_alive()
                # Nothing beyond one reply per request is queued.
                slow.sendall(b"PING\r\n")
                tail = await asyncio.to_thread(slow.recv, 64)
            finally:
                slow.close()
            return got, tail

        got, tail = serve_and_run(server, scenario)
        assert peak[0] <= self.WRITE_BUFFER_BOUND
        assert got == expected
        assert tail == b"+PONG\r\n"

    def test_stop_aborts_a_connection_that_never_reads(self):
        server = make_server(keys=64, value_size=512)
        request = encode_command(b"GET", b"key:%012d" % 0)
        pipeline = request * ((4 << 20) // len(request))

        async def _main():
            host, port = await server.start()
            slow = socket.create_connection((host, port))
            sender = send_in_background(slow, pipeline)
            try:
                await wait_until_stalled(server)
                loop = asyncio.get_running_loop()
                began = loop.time()
                await server.stop()
                elapsed = loop.time() - began
            finally:
                slow.close()
            await asyncio.to_thread(sender.join, 10)
            assert not sender.is_alive()
            return elapsed, server._active.value, server._closed.value

        elapsed, active, closed = asyncio.run(_main())
        assert elapsed < app.STOP_GRACE_S + 1.0
        assert (active, closed) == (0, 1)


class TestShutdown:
    def test_shutdown_command_stops_server(self):
        server = make_server()

        async def _main():
            host, port = await server.start()
            client = await AsyncRespClient.connect(host, port)
            serve_task = asyncio.create_task(
                server.serve_until_shutdown()
            )
            try:
                await client.execute("SHUTDOWN", "NOSAVE")
            except ConnectionError:
                pass  # the server closes without a reply, like Redis
            await asyncio.wait_for(serve_task, timeout=5)
            assert server.shutdown_event.is_set()
            await client.close()

        asyncio.run(_main())

    def test_quit_closes_only_the_connection(self):
        server = make_server()

        async def scenario(host, port):
            first = await AsyncRespClient.connect(host, port)
            assert await first.execute("QUIT", check=False) == (
                SimpleString(b"OK")
            )
            await first.close()
            second = await AsyncRespClient.connect(host, port)
            assert await second.execute("PING") == SimpleString(b"PONG")
            await second.close()
            assert not server.shutdown_event.is_set()

        serve_and_run(server, scenario)


class TestCostEmulation:
    def test_sim_size_scales_fork_costs(self):
        small = build_backend(
            ServerConfig(engine="default", port=0, keys=64,
                         value_size=64, sim_size_gb=8.0)
        )
        costs = small.engine.fork_engine.costs
        assert isinstance(costs, WireCostModel)
        # Inflated: the size-proportional per-entry terms.
        assert costs.pte_entry_copy_ns > 33
        # Physical: per-event interruption cost stays calibrated.
        assert costs.table_fault_ns() < 25_000
        # Disabled emulation keeps the calibrated model untouched.
        plain = build_backend(
            ServerConfig(engine="default", port=0, keys=64,
                         value_size=64, sim_size_gb=0.0)
        )
        assert plain.engine.fork_engine.costs.pte_entry_copy_ns == 33

    def test_default_fork_stalls_wire_more_than_async(self):
        """The tentpole claim, at the bridge: one BGSAVE's kernel-busy
        wall time under the default fork dwarfs Async-fork's."""
        stall_wall = {}
        for engine in ("default", "async"):
            config = ServerConfig(engine=engine, port=0, keys=256,
                                  value_size=256, sim_size_gb=8.0)
            backend = build_backend(config)
            slept = []
            bridge = ClockBridge(
                backend.engine.clock, scale=1.0, sleep=slept.append
            )
            server = ReproServer(backend, bridge, config)

            async def scenario(host, port):
                client = await AsyncRespClient.connect(host, port)
                await client.execute("BGSAVE")
                for _ in range(64):
                    await client.execute("PING")
                    if server.backend.engine._active_job is None:
                        break
                await client.close()

            serve_and_run(server, scenario)
            stall_wall[engine] = sum(slept)
        # ~70 ms vs well under 1 ms at 8 GiB emulated.
        assert stall_wall["default"] > 0.01
        assert stall_wall["async"] < 0.005
        assert stall_wall["default"] > 10 * stall_wall["async"]


class TestWireLatencyContrast:
    """Client-observed wall-clock latency, server in its own thread."""

    @staticmethod
    def measure(engine: str) -> float:
        from repro.experiments.figx_live import measure_engine

        result = measure_engine(engine, duration_s=0.8)
        assert result.bgsaves >= 1
        assert result.samples > 50
        return result.max_ms

    def test_default_spikes_async_stays_flat(self):
        default_max = self.measure("default")
        async_max = self.measure("async")
        # The default fork's ~70 ms emulated page-table copy must be
        # visible at the wire max; Async-fork must stay well below it.
        assert default_max > 30.0
        assert default_max > 2 * async_max
