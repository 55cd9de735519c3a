"""Self-test of the benchmark's output checks.

Run from the repository root::

    python perfbench/selftest.py

It runs short benchmark passes in-process and requires that

* an untouched ``wire-getset`` run passes (exit code 0);
* the same run with one expected GET value corrupted fails (exit 1);
* a ``sim-figures`` run with one pinned digest corrupted fails (exit 1).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import loadgen  # noqa: E402
import run  # noqa: E402
import sim  # noqa: E402


def _run(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _corrupt_first_get(make):
    def corrupted(*args, **kwargs):
        schedule = make(*args, **kwargs)
        for i, want in enumerate(schedule.expected):
            if want is not None and want[0] == loadgen.BULK:
                schedule.expected[i] = (loadgen.BULK, b"not-" + want[1])
                break
        return schedule
    return corrupted


def _corrupt_digest(expected):
    def corrupted(seed):
        digests = dict(expected(seed))
        digests["cluster"] = "0" * 32
        return digests
    return corrupted


def main() -> int:
    wire_args = ["--workload", "wire-getset", "--seed", "7",
                 "--seconds", "2"]
    failures = []

    code, result = _run(wire_args)
    if code != 0 or not result["correct"]:
        failures.append(f"clean wire-getset run: exit {code}, {result}")

    make = loadgen.getset_schedule
    loadgen.getset_schedule = _corrupt_first_get(make)
    try:
        code, result = _run(wire_args)
    finally:
        loadgen.getset_schedule = make
    if code != 1 or result["correct"] or result["failed"] < 1:
        failures.append(f"corrupted GET not caught: exit {code}, {result}")

    expected = sim.expected_digests
    sim.expected_digests = _corrupt_digest(expected)
    try:
        code, result = _run(["--workload", "sim-figures", "--seed", "7",
                             "--seconds", "1"])
    finally:
        sim.expected_digests = expected
    if code != 1 or result["correct"]:
        failures.append(f"corrupted digest not caught: exit {code}, {result}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
