"""The repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (see ``WORKLOADS.md`` for why each exists and which layers it
loads):

``wire-getset``   open-loop 90/10 GET/SET at ~4k req/s over 2 connections
                  to a fresh ``repro-serve``, BGSAVE every ~2 s;
``wire-setpipe``  closed loop, 2 connections each keeping 64 pipelined
                  SETs in flight, BGSAVE every 16384 SETs;
``sim-figures``   Figure 4/5 sweep + one figx-cluster run + one
                  figx-reshard run, in-process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload untraced and then traced (over at most
``TRACE_SECONDS``), reports the per-layer metrics from the traced run's
spans, and checks that tracing left the simulated counts unchanged.

Every reply and every simulator output is checked; the last stdout line
is one JSON object ``{correct, attempted, failed, metrics}`` and the exit
code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("wire-getset", "wire-setpipe", "sim-figures")


@functools.cache
def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in
    ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}

#: Measured window of each pass of a traced run (both passes alike).
TRACE_SECONDS = 10
#: Wall seconds one sim-figures pass takes on a 2-vCPU box; a run makes
#: ``round(seconds / SIM_PASS_S)`` passes (at least one), a count fixed
#: by ``--seconds`` alone so both sides of a comparison do equal work.
SIM_PASS_S = 10.0
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


@dataclass
class Result:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    #: Human-readable lines printed ahead of the JSON line.
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        })


def _per_layer(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never enters is 0."""
    unknown = set(values) - set(units("per_layer"))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in units("per_layer")}


# ---------------------------------------------------------------------------
# wire workloads
# ---------------------------------------------------------------------------


def _wire(name: str, seed: int, seconds: float, trace: bool,
          workdir: Path, meter) -> Result:
    import speed
    import wire

    speed.pin(speed.LOADGEN_CPU)
    if not trace:
        run = wire.run_pass(name, ROOT, workdir, seed, seconds,
                            spawns=SETUP_REPEATS)
        meter.stop()
        result = Result(run.e2e(meter), units("end_to_end"), run.attempted,
                        run.failed)
        result.notes += _wire_notes(run)
        result.notes.append(
            f"  setup_s over {len(run.spawns)} spawns; per-op metrics "
            f"over {run.ops} ops in {run.window_s:.1f} s"
        )
        for outcome in run.outcomes:
            result.problems += outcome.mismatches
        return result

    seconds = min(seconds, TRACE_SECONDS)
    plain = wire.run_pass(name, ROOT, workdir, seed, seconds, mode="capture")
    traced = wire.run_pass(name, ROOT, workdir, seed, seconds, mode="trace")
    meter.stop()
    base, cost = plain.e2e(meter), traced.e2e(meter)
    values = wire.layer_metrics(traced)
    values.update(plain.loadgen())
    values.update({k: v for k, (v, _) in plain.latency().items()})
    values["trace.overhead_frac"] = (
        cost["cpu_us_per_op"] / base["cpu_us_per_op"] - 1
    )
    result = Result(_per_layer(values), units("per_layer"),
                    plain.attempted + traced.attempted,
                    plain.failed + traced.failed)
    for run in (plain, traced):
        for outcome in run.outcomes:
            result.problems += outcome.mismatches
    result.notes += _wire_notes(plain)
    result.notes += _overhead_notes(base, cost)
    counts = [wire.probe_counts(r.capture) for r in (plain, traced)]
    result.notes.append(f"  probe snapshot sim counts: {counts[0]}")
    if counts[0] != counts[1]:
        result.problems.append(
            f"tracing changed the probe's simulated counts: {counts[0]} "
            f"untraced vs {counts[1]} traced"
        )
    return result


def _wire_notes(run) -> list[str]:
    notes = [
        f"  {name} = {value:.4f} ms (n={count}, not gated: loopback noise)"
        for name, (value, count) in run.latency().items()
    ]
    notes += [f"  {name} = {value:.4f}" for name, value in
              run.loadgen().items()]
    return notes


def _overhead_notes(base: dict, cost: dict) -> list[str]:
    return [
        f"  tracing overhead {name}: {cost[name] - base[name]:+.4f} "
        f"{units('end_to_end')[name]} ({base[name]:.4f} untraced)"
        for name in units("end_to_end") if name != "setup_s"
    ]


# ---------------------------------------------------------------------------
# sim-figures
# ---------------------------------------------------------------------------


def _sim_setups(seed: int) -> list[tuple[int, int]]:
    """(start, end) ns of fresh interpreters importing and building the
    plan on the program's CPU."""
    import speed

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    intervals = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter_ns()
        subprocess.run(
            [sys.executable, "-c", f"import sim; sim.build({seed})"],
            cwd=ROOT, env=env, check=True,
            preexec_fn=lambda: speed.pin(speed.PROGRAM_CPU),
        )
        intervals.append((started, time.perf_counter_ns()))
    return intervals


def _scaled_s(passes, meter, cpu: bool = False) -> float:
    """Seconds of wall (or CPU) time for the point set at reference speed.

    Each part of the point set is scaled by the speed measured over its
    own interval, and costs its median over the passes.
    """
    total = 0.0
    for i in range(len(passes[0].parts_ns)):
        costs = []
        for p in passes:
            lo, hi = p.parts_ns[i]
            raw = p.parts_cpu_s[i] if cpu else (hi - lo) / 1e9
            costs.append(raw * meter.factor(lo, hi))
        total += statistics.median(costs)
    return total


def _sim(seed: int, seconds: float, trace: bool, workdir: Path,
         meter) -> Result:
    import sim
    import spans
    import speed

    speed.pin(speed.PROGRAM_CPU)
    expected = sim.expected_digests(seed)
    if not trace:
        setups = _sim_setups(seed)
        plan = sim.build(seed)
        passes = [sim.run_pass(plan, workdir)
                  for _ in range(max(1, round(seconds / SIM_PASS_S)))]
        meter.stop()
        run_s, ops = _scaled_s(passes, meter), passes[0].ops
        result = Result(
            {
                "setup_s": statistics.median(
                    (end - start) / 1e9 * meter.factor(start, end)
                    for start, end in setups),
                "cpu_us_per_op": _scaled_s(passes, meter, cpu=True)
                * 1e6 / ops,
                "ops_per_s": ops / run_s,
                "run_s": run_s,
            },
            units("end_to_end"), attempted=ops * len(passes), failed=0,
        )
        for p in passes:
            result.problems += sim.check(p, expected)
        result.notes.append(
            f"  setup_s over {len(setups)} interpreters; run_s over "
            f"{len(passes)} passes of {ops} simulated ops"
        )
        result.failed = len(result.problems)
        return result

    rec = spans.Recorder()
    spans.install_capture(rec)
    forks = rec.forks
    plan = sim.build(seed)
    plain = sim.run_pass(plan, workdir, forks=forks)
    spans.install(rec)
    rec.on = True
    traced = sim.run_pass(plan, workdir, traced=rec.wrap, forks=forks)
    rec.on = False
    meter.stop()
    cost = [_scaled_s([p], meter) for p in (plain, traced)]
    s = spans.Spans(rec.arrays())
    stats = [spans.fork_stats(p.forks) for p in (plain, traced)]
    values = {
        **spans.kvs_layers(s),
        **spans.fork_stat_metrics(stats[1]),
        "mem.faults": traced.faults,
        "sim.simulate_snapshot_ms":
            s.per_call_us("sim.simulate_snapshot", own=False) / 1e3,
        "workload.cluster_self_s":
            float(s.self_ns.get("workload.cluster", 0)) / 1e9,
        "workload.reshard_self_s":
            float(s.self_ns.get("workload.reshard", 0)) / 1e9,
        "cluster.client.execute_us": s.per_call_us("cluster.client.execute"),
        "cluster.migrate.tick_ms":
            s.per_call_us("cluster.migrate.tick") / 1e3,
        "kvs.resp.parse_us_per_cmd": s.per_us(
            "kvs.resp.parse", int(s.extra.get("kvs.resp.parse", 0))),
        "kvs.resp.encode_us": s.per_call_us("kvs.resp.encode"),
        "trace.overhead_frac": cost[1] / cost[0] - 1,
    }
    result = Result(_per_layer(values), units("per_layer"),
                    attempted=plain.ops + traced.ops, failed=0)
    for p in (plain, traced):
        result.problems += sim.check(p, expected)
    if stats[0] != stats[1] or plain.faults != traced.faults:
        result.problems.append(
            "tracing changed the simulated fork stats or fault counts")
    result.failed = len(result.problems)
    result.notes.append(
        f"  tracing overhead run_s: {cost[1] - cost[0]:+.4f} s "
        f"({cost[0]:.4f} untraced); fork stats and faults "
        f"{'equal' if stats[0] == stats[1] else 'DIFFER'} "
        f"over {len(stats[0])} forks"
    )
    return result


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> Result:
    from speed import Speedometer

    meter = Speedometer(workdir)
    try:
        if name == "sim-figures":
            return _sim(seed, seconds, trace, workdir, meter)
        return _wire(name, seed, seconds, trace, workdir, meter)
    finally:
        meter.stop()


def _print(name: str, result: Result) -> None:
    print(f"{name}: correct={result.correct} attempted={result.attempted} "
          f"failed={result.failed}")
    for metric, value in result.metrics.items():
        print(f"  {metric} = {value:.6g} {result.units[metric]}")
    for line in result.notes:
        print(line)
    for problem in result.problems[:10]:
        print(f"  CHECK FAILED: {problem}")
    print(result.json(), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "net" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), workdir)
            _print(name, result)
            ok = ok and result.correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
