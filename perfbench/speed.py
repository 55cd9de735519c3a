"""How fast the measured CPU was running, measured while it ran.

On a shared 2-vCPU box each vCPU's speed swings by up to 2x over
seconds (other tenants), and the two vCPUs swing independently.  So the
program under test is pinned to :data:`PROGRAM_CPU`, and a calibrator
pinned to the same CPU runs a fixed pure-Python loop in short bursts
(:data:`BURST_S` of CPU every :data:`GAP_S`) for the whole run.  Its rate
over any interval tracks the program's speed on that CPU over the same
interval, and time metrics are scaled to :data:`REFERENCE_RATE`:

    reported = measured * rate / REFERENCE_RATE      (times)
    reported = measured * REFERENCE_RATE / rate      (throughputs)

Run as a script it is the calibrator itself::

    python perfbench/speed.py CPU OUT_FILE
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PROGRAM_CPU = 0
#: The benchmark's own process (load generator) stays off the program's CPU.
LOADGEN_CPU = 1
BURST_S = 0.001
GAP_S = 0.024
#: Calibration work units per CPU second taken as speed 1.0; a round
#: figure near this box's typical rate, fixed so every run and commit
#: scales by the same constant.
REFERENCE_RATE = 70_000.0


def _unit() -> int:
    s = 0
    for i in range(250):
        s += i * i
    return s


def _calibrate(cpu: int, out: Path) -> None:
    pin(cpu)
    rows: list[tuple[int, int, int]] = []
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    clock = time.thread_time_ns
    burst_ns = int(BURST_S * 1e9)
    parent = os.getppid()
    # Ends on SIGTERM, or by itself should the benchmark die first.
    while not stop and os.getppid() == parent:
        c0 = clock()
        n = 0
        while clock() - c0 < burst_ns:
            _unit()
            n += 1
        rows.append((time.perf_counter_ns(), n, clock() - c0))
        time.sleep(GAP_S)
    np.save(out, np.array(rows, dtype=np.int64))


def pin(cpu: int) -> None:
    """Pin this process to ``cpu``, if the box has it."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


class Speedometer:
    """The calibrator subprocess for one benchmark run."""

    def __init__(self, workdir: Path) -> None:
        self.out = workdir / "speed.npy"
        self.rows = np.zeros((0, 3), dtype=np.int64)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(PROGRAM_CPU), str(self.out)]
        )

    def stop(self) -> None:
        """End calibration; :meth:`rate` works from here on."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)
        if self.out.exists():
            self.rows = np.load(self.out)

    def rate(self, lo_ns: int, hi_ns: int) -> float:
        """Calibration units per CPU second over bursts ending in
        ``[lo_ns, hi_ns]`` (perf-counter ns)."""
        rows = self.rows
        inside = rows[(rows[:, 0] >= lo_ns) & (rows[:, 0] <= hi_ns)]
        if len(inside) < 5:
            raise RuntimeError("too few calibration bursts in the interval")
        return float(inside[:, 1].sum()) / (inside[:, 2].sum() / 1e9)

    def factor(self, lo_ns: int, hi_ns: int) -> float:
        """Measured speed over the interval relative to the reference."""
        return self.rate(lo_ns, hi_ns) / REFERENCE_RATE


if __name__ == "__main__":
    _calibrate(int(sys.argv[1]), Path(sys.argv[2]))
