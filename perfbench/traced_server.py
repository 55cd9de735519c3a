"""Run ``repro-serve`` with the benchmark's wrappers installed.

Usage::

    python perfbench/traced_server.py OUT {trace|capture} <repro-serve args>

``capture`` keeps only each fork's result (the untraced run); ``trace``
also records a span around every layer call, from the moment the
startup keys are populated until ``SHUTDOWN``.  On exit it writes
``OUT.json`` (fork stats, bridge counters, page faults) and, when
tracing, ``OUT.npz`` (the spans).
"""

from __future__ import annotations

import json
import sys

import numpy as np

import spans


def main(argv: list[str]) -> int:
    out, mode, serve_args = argv[0], argv[1], argv[2:]
    if mode not in ("trace", "capture"):
        raise SystemExit(f"unknown mode {mode!r}")
    import repro.net.app as app
    from repro.net.cli import main as serve_main

    rec = spans.Recorder()
    seen: dict = {}

    def sim_busy_ns() -> int:
        bridge = seen.get("bridge")
        return bridge.metrics.get("sim_busy_ns").value if bridge else 0

    spans.install_capture(rec, before=sim_busy_ns)
    if mode == "trace":
        spans.install(rec)

    build_backend, clock_bridge = app.build_backend, app.ClockBridge

    def build_and_start(config):
        backend = build_backend(config)
        seen["engine"] = backend.engine
        seen["faults0"] = _faults(backend.engine)
        rec.on = mode == "trace"
        return backend

    def keep_bridge(*args, **kwargs):
        seen["bridge"] = clock_bridge(*args, **kwargs)
        return seen["bridge"]

    app.build_backend = build_and_start
    app.ClockBridge = keep_bridge
    code = serve_main(serve_args)
    rec.on = False

    bridge = seen["bridge"].metrics
    report = {
        "forks": [
            {"sim_busy_before": before, **stats}
            for (before, _), stats in zip(
                rec.forks, spans.fork_stats([r for _, r in rec.forks]))
        ],
        "bridge": {
            name: bridge.get(name).value
            for name in ("sections", "sim_busy_ns", "stalls", "stall_wall_ns")
        },
        "faults": _faults(seen["engine"]) - seen["faults0"],
    }
    with open(out + ".json", "w") as handle:
        json.dump(report, handle)
    if mode == "trace":
        np.savez(out + ".npz", **rec.arrays())
    return code


def _faults(engine) -> int:
    return int(engine.metrics_snapshot().get("mm.faults", 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
