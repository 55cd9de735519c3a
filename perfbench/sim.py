"""The ``sim-figures`` workload: the figure harness, in-process.

One pass runs a fixed point set through the public entry points:

* the Figure 4/5 sweep at the quick profile with one repeat
  (``run_point`` for every size x {none, default, odf});
* one ``figx-cluster`` run: async fork, staggered BGSAVEs, through
  ``run_cluster_workload``;
* one ``figx-reshard`` run: async fork, through ``run_reshard_workload``.

Every output is compared with digests captured from the code this
benchmark was written against (``digests.json``, made by
``capture_digests.py``).  The cluster and reshard runs take their seed
from ``--seed`` modulo :data:`SEEDS`, the number of pinned seeds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

#: Seeds with pinned digests; ``--seed n`` runs seed ``n % SEEDS``.
SEEDS = 16
DIGESTS = Path(__file__).with_name("digests.json")

# Shapes of the figx-cluster and figx-reshard runs at the quick profile
# (see repro.experiments.figX_cluster / figx_reshard).
CLUSTER_SHARDS = 4
CLUSTER_ROUNDS = 5
RESHARD_SIZE_GB = 8.0
RESHARD_TICK_STRIDE = 16


def _untraced(fn: Callable, name: str) -> Callable:
    return fn


def _blake(*parts: bytes) -> str:
    return hashlib.blake2b(b"|".join(parts), digest_size=16).hexdigest()


@dataclass
class Plan:
    """Everything built before the first point."""

    seed: int
    profile: object
    cluster_workload: object
    reshard_workload: object


@dataclass
class PassResult:
    #: Per part of the point set (fig4-5, cluster, reshard): perf-counter
    #: ns at its start and end, and process CPU seconds.
    parts_ns: list[tuple[int, int]]
    parts_cpu_s: list[float]
    ops: int
    digests: dict[str, str]
    lost: int
    stale: int
    #: Simulated page faults summed over the cluster and reshard shards.
    faults: int
    #: Fork results of this pass (their stats are final once it ends).
    forks: list = field(default_factory=list)


def build(seed: int) -> Plan:
    """Imports and workload construction (what ``setup_s`` times)."""
    from repro.config import QUICK_PROFILE
    from repro.workload.cluster import (
        ClusterWorkloadSpec,
        build_cluster_workload,
    )
    import repro.experiments.fig04_05_def_latency  # noqa: F401
    import repro.workload.reshard  # noqa: F401

    seed %= SEEDS
    profile = QUICK_PROFILE.scaled(repeats=1)
    count = min(40_000, max(6_000, profile.query_count // 50))
    cluster = ClusterWorkloadSpec(
        count=count, n_keys=2 * count,
        rate_per_sec=float(profile.set_rate_per_sec), seed=seed,
    )
    count = min(20_000, max(2_000, profile.query_count // 60))
    reshard = ClusterWorkloadSpec(
        count=count, n_keys=count,
        rate_per_sec=float(profile.set_rate_per_sec), value_size=512,
        seed=seed,
    )
    return Plan(seed, profile, build_cluster_workload(cluster),
                build_cluster_workload(reshard))


def fig45_run(plan: Plan, scratch: Path) -> tuple[str, int]:
    from repro.experiments import fig04_05_def_latency as fig45
    from repro.experiments.common import clear_cache

    clear_cache()
    report = fig45.run(plan.profile)
    out = scratch / "fig4-5"
    shutil.rmtree(out, ignore_errors=True)
    parts = []
    for name in sorted(report.save_csv(out)):
        parts += [name.encode(), (out / name).read_bytes()]
    points = len(fig45.points(plan.profile))
    return _blake(*parts), points * plan.profile.query_count


def cluster_run(plan: Plan, traced: Callable = _untraced):
    from repro.cluster.cluster import SimCluster
    from repro.cluster.coordinator import SnapshotCoordinator, make_policy
    from repro.workload.cluster import prepopulate, run_cluster_workload

    workload = plan.cluster_workload
    spec = workload.spec
    cluster = SimCluster(n_shards=CLUSTER_SHARDS, method="async")
    prepopulate(cluster, workload)
    duration = int(workload.arrivals_ns[-1])
    writes_per_shard = int(spec.count * spec.set_ratio) // CLUSTER_SHARDS
    policy = make_policy(
        "staggered",
        period_ns=duration // CLUSTER_ROUNDS,
        n_shards=CLUSTER_SHARDS,
        dirty_threshold=max(1, writes_per_shard // CLUSTER_ROUNDS),
    )
    result = traced(run_cluster_workload, "workload.cluster")(
        cluster, workload, coordinator=SnapshotCoordinator(cluster, policy)
    )
    return _blake(result.merged.latencies_ns.tobytes()), cluster


def reshard_run(plan: Plan, traced: Callable = _untraced):
    from repro.cluster.cluster import SimCluster
    from repro.cluster.slots import NUM_SLOTS
    from repro.net.app import emulation_costs
    from repro.units import PAGES_PER_GIB
    from repro.workload.reshard import (
        ReshardSpec,
        prepopulate_versioned,
        run_reshard_workload,
    )

    workload = plan.reshard_workload
    cluster = SimCluster(n_shards=CLUSTER_SHARDS, method="async")
    expected = prepopulate_versioned(cluster, workload)
    target_pages = int(RESHARD_SIZE_GB * PAGES_PER_GIB / CLUSTER_SHARDS)
    for shard in cluster.shards:
        resident = max(1, shard.engine.process.mm.rss)
        shard.engine.fork_engine.costs = emulation_costs(
            shard.engine.fork_engine.costs, max(1.0, target_pages / resident)
        )
    reshard = ReshardSpec(tick_stride=RESHARD_TICK_STRIDE)
    min_window = (NUM_SLOTS // CLUSTER_SHARDS // reshard.slots_per_tick
                  * RESHARD_TICK_STRIDE)
    snapshot_at = (int(workload.spec.count * reshard.start_fraction)
                   + min_window // 2)
    result = traced(run_reshard_workload, "workload.reshard")(
        cluster, workload, reshard, expected=expected,
        snapshot_rounds=(snapshot_at,),
    )
    # The same digest figx-reshard compares across replays.
    digest = _blake(
        result.latencies.tobytes(),
        str(result.window).encode(),
        str(result.stats.slots_finalized).encode(),
        str(result.stats.keys_moved).encode(),
        str(result.stats.bytes_shipped).encode(),
        str(result.ask_redirects).encode(),
        str(result.moved_redirects).encode(),
    )
    return digest, result, cluster


def run_pass(
    plan: Plan,
    scratch: Path,
    traced: Callable = _untraced,
    forks: Optional[list] = None,
) -> PassResult:
    """One timed pass over the point set.

    ``traced(fn, name)`` wraps the two workload entry points in spans;
    ``forks`` is the capture list fork results are appended to.
    """
    first_fork = len(forks) if forks is not None else 0
    marks = [(time.perf_counter_ns(), time.process_time())]

    def mark() -> None:
        marks.append((time.perf_counter_ns(), time.process_time()))

    fig_digest, ops = fig45_run(plan, scratch)
    mark()
    cluster_digest, cluster = cluster_run(plan, traced)
    mark()
    reshard_digest, reshard, reshard_cluster = reshard_run(plan, traced)
    mark()
    ops += plan.cluster_workload.spec.count + plan.reshard_workload.spec.count
    faults = sum(
        shard.engine.metrics_snapshot().get("mm.faults", 0)
        for c in (cluster, reshard_cluster) for shard in c.shards
    )
    return PassResult(
        parts_ns=[(a[0], b[0]) for a, b in zip(marks, marks[1:])],
        parts_cpu_s=[b[1] - a[1] for a, b in zip(marks, marks[1:])],
        ops=ops,
        digests={"fig4-5": fig_digest, "cluster": cluster_digest,
                 "reshard": reshard_digest},
        lost=reshard.lost_reads, stale=reshard.stale_reads,
        faults=int(faults),
        forks=[r for _, r in (forks or [])[first_fork:]],
    )


def expected_digests(seed: int) -> dict[str, str]:
    pinned = json.loads(DIGESTS.read_text())
    key = str(seed % SEEDS)
    return {"fig4-5": pinned["fig4-5"], "cluster": pinned["cluster"][key],
            "reshard": pinned["reshard"][key]}


def check(result: PassResult, expected: dict[str, str]) -> list[str]:
    """Mismatches between one pass's outputs and the pinned digests."""
    problems = [
        f"{name} digest {result.digests[name]} != pinned {want}"
        for name, want in expected.items() if result.digests[name] != want
    ]
    if result.lost or result.stale:
        problems.append(
            f"reshard lost={result.lost} stale={result.stale}, expected 0"
        )
    return problems
