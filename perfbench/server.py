"""One fresh ``repro-serve`` subprocess per run: spawn, ready file, CPU,
clean shutdown."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import speed
from loadgen import command

_TICKS = os.sysconf("SC_CLK_TCK")
READY_TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    """The server did not start, or did not exit cleanly."""


class Server:
    """A ``python -m repro.net.cli`` process (or the traced launcher).

    ``launcher`` replaces ``-m repro.net.cli`` with a script that takes
    the same arguments after its own.
    """

    def __init__(
        self,
        root: Path,
        workdir: Path,
        tag: str,
        serve_args: list[str],
        max_runtime_s: float,
        launcher: Optional[list[str]] = None,
    ) -> None:
        self.root = root
        self.ready_file = workdir / f"{tag}.ready"
        self.log_file = workdir / f"{tag}.log"
        self.args = [
            "--engine", "async", "--port", "0",
            "--ready-file", str(self.ready_file),
            "--max-runtime", str(max_runtime_s),
            *serve_args,
        ]
        self.prefix = launcher or ["-m", "repro.net.cli"]
        self.proc: Optional[subprocess.Popen] = None
        self.address: tuple[str, int] = ("", 0)
        #: Perf-counter ns at spawning the process and at its ready file.
        self.spawned_ns = self.ready_ns = 0

    def start(self) -> "Server":
        if self.ready_file.exists():
            self.ready_file.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), str(self.root / "perfbench")]
        )
        with open(self.log_file, "wb") as log:
            self.spawned_ns = time.perf_counter_ns()
            self.proc = subprocess.Popen(
                [sys.executable, *self.prefix, *self.args],
                cwd=self.root, env=env, stdout=log, stderr=log,
                preexec_fn=lambda: speed.pin(speed.PROGRAM_CPU),
            )
        while True:
            if self.ready_file.exists():
                text = self.ready_file.read_text()
                if text.endswith("\n"):
                    self.ready_ns = time.perf_counter_ns()
                    host, port = text.split()
                    self.address = (host, int(port))
                    return self
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode} before "
                    f"ready; see {self.log_file}"
                )
            waited_s = (time.perf_counter_ns() - self.spawned_ns) / 1e9
            if waited_s > READY_TIMEOUT_S:
                self.kill()
                raise ServerError("server not ready in time")
            time.sleep(0.002)

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of stat(5); the split
        # above starts at field 3.
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def shutdown(self, timeout_s: float = 60.0) -> None:
        """``SHUTDOWN NOSAVE``; the process must exit with code 0."""
        try:
            with socket.create_connection(self.address,
                                          timeout=timeout_s) as conn:
                conn.sendall(command(b"SHUTDOWN", b"NOSAVE"))
                while conn.recv(4096):
                    pass
            code = self.proc.wait(timeout=timeout_s)
        except (OSError, subprocess.TimeoutExpired) as exc:
            self.kill()
            raise ServerError(f"shutdown failed: {exc}") from None
        if code != 0:
            raise ServerError(
                f"server exited with code {code}"
                + (" (watchdog)" if code == 3 else "")
                + f"; see {self.log_file}"
            )

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
