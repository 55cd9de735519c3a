"""Cluster-aware open-loop workload and its queueing model.

One merged arrival stream (the open-loop contract of §3/§6.1: clients
submit at a fixed aggregate rate no matter how stalled the server is)
is routed key-by-key through a :class:`~repro.cluster.client.
ClusterClient`.  Latency accounting extends the single-instance model
of :mod:`repro.sim.snapshot_sim` with the two machine-level couplings
the §7 story needs:

* **per-shard queues** — each shard is single-threaded, so a query
  starts at ``max(arrival, shard.free_at)``; a stalled shard grows its
  own queue while its neighbours keep serving;
* **machine-wide kernel serialization** — simulated kernel time (fork
  calls the coordinator triggers, CoW/proactive-sync work the serving
  shard performs) runs under one big kernel lock: a query needing
  kernel time also waits for ``kernel_busy``.  Simultaneous fork calls
  therefore stall *every* shard back-to-back, which is exactly why the
  simultaneous policy hurts cluster-wide p99 under the default fork
  and barely registers under Async-fork.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.determinism import seeded_rng
from repro.errors import KvsError
from repro.metrics.latency import LatencySample, merge
from repro.sim.network import NetworkLink, ProductionEnvironment
from repro.sim.queueing import solve_timeline
from repro.workload.openloop import arrival_times

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import SimCluster
    from repro.cluster.coordinator import SnapshotCoordinator


@dataclass(frozen=True)
class ClusterWorkloadSpec:
    """Shape of one cluster run's load."""

    #: Total routed commands (across all shards).
    count: int = 8_000
    #: Distinct keys; each shard holds roughly ``n_keys / n_shards``.
    n_keys: int = 16_000
    #: Aggregate open-loop arrival rate.
    rate_per_sec: float = 50_000.0
    clients: int = 50
    #: Fraction of SETs (the write-intensive mix of §6.2).
    set_ratio: float = 0.8
    value_size: int = 4_096
    #: Base single-query service time before jitter.
    base_service_ns: int = 10_000
    service_sigma: float = 0.15
    seed: int = 0


@dataclass
class ClusterWorkload:
    """Materialized arrivals, ops and service times for one run."""

    spec: ClusterWorkloadSpec
    arrivals_ns: np.ndarray
    is_set: np.ndarray
    key_index: np.ndarray
    service_ns: np.ndarray
    keys: list[bytes] = field(repr=False)

    def __len__(self) -> int:
        return len(self.arrivals_ns)


def build_cluster_workload(
    spec: ClusterWorkloadSpec,
    environment: Optional[ProductionEnvironment] = None,
) -> ClusterWorkload:
    """Generate the deterministic load for one run.

    ``environment`` applies the cloud modifiers (virtualized-CPU service
    inflation, noisy-neighbour jitter) the Figure 16 production runs use.
    """
    rng = seeded_rng(spec.seed)
    arrivals = arrival_times(
        spec.count, spec.rate_per_sec, clients=spec.clients, rng=rng
    )
    is_set = rng.random(spec.count) < spec.set_ratio
    key_index = rng.integers(0, spec.n_keys, size=spec.count)
    base = spec.base_service_ns
    sigma = spec.service_sigma
    if environment is not None:
        base = int(base * environment.service_inflation)
        sigma += environment.extra_jitter_sigma
    service = (base * rng.lognormal(0.0, sigma, spec.count)).astype(np.int64)
    keys = [b"key:%08d" % i for i in range(spec.n_keys)]
    return ClusterWorkload(spec, arrivals, is_set, key_index, service, keys)


def prepopulate(cluster: "SimCluster", workload: ClusterWorkload) -> None:
    """Load every key straight into its owner shard (no latency cost).

    Mirrors the experiments' warm-up phase: the dataset exists before
    measurement starts, and the dirty counters are cleared so the first
    snapshot round reflects measured-phase writes only.
    """
    value = b"\x00" * workload.spec.value_size
    for key in workload.keys:
        cluster.shard_for_key(key).engine.set(key, value)
    for shard in cluster.shards:
        shard.engine.store.dirty_since_save = 0


@dataclass
class ClusterRunResult:
    """Latency samples and counters from one cluster run."""

    #: Per-shard samples (indexed by shard id), as served.
    per_shard: dict[int, LatencySample]
    #: The cluster-wide view: every query, one merged sample.
    merged: LatencySample
    #: Snapshot windows per shard (fork start -> persist end).
    snapshot_windows: dict[int, list[tuple[int, int]]]
    #: Snapshots completed per shard during the run.
    snapshots_completed: dict[int, int]
    #: MOVED hops the client followed.
    moved_redirects: int
    #: Commands refused by MISCONF-style write refusal.
    refused_writes: int
    #: Total simulated kernel time the machine serialized.
    kernel_ns: int


def run_cluster_workload(
    cluster: "SimCluster",
    workload: ClusterWorkload,
    coordinator: Optional["SnapshotCoordinator"] = None,
    link: Optional[NetworkLink] = None,
) -> ClusterRunResult:
    """Drive the merged stream through the cluster; measure per query."""
    client = cluster.client(link=link)
    clock = cluster.clock
    n = len(workload)
    shard_ids = np.empty(n, dtype=np.int32)
    arrivals = workload.arrivals_ns
    service = workload.service_ns
    value = b"v" * workload.spec.value_size
    # Phase 1 — drive the engines in arrival order and record, per
    # query, everything the queueing model needs: kernel time consumed,
    # the serving shard, the reply RTT, refusals, and the coordinator's
    # fork events.  None of the engine side effects read queueing state
    # (they advance on the *arrival* clock), so the per-shard ``free_at``
    # chains and the machine-wide ``kernel_busy`` lock can be solved
    # afterwards — vectorized between coupling points (see DESIGN.md §14).
    kerns = np.zeros(n, dtype=np.int64)
    rtts = np.zeros(n, dtype=np.int64)
    #: ``(query_index, tick_start, [(shard_id, fork_ns), ...])`` per
    #: coordinator tick that actually triggered forks.
    fork_batches: list[tuple[int, int, list[tuple[int, int]]]] = []
    refused = 0
    fixed_ns = cluster.shards[0].engine.fork_engine.costs.fork_fixed_ns
    for i in range(n):
        arrival = int(arrivals[i])
        clock.advance_to(arrival)
        if coordinator is not None:
            # A triggered fork stalls its shard for the whole call, but
            # only the *copy* portion (page-table cloning, the part that
            # fights for memory bandwidth) serializes machine-wide; the
            # fixed syscall/bookkeeping overhead runs per-core.  This is
            # why simultaneous default forks pile up back-to-back while
            # simultaneous Async forks overlap almost entirely.  Forks
            # of one tick run concurrently (one core per shard), so they
            # all start at the tick instant even though the sequential
            # simulation advanced the clock through each call in turn.
            tick_start = clock.now
            events = [
                (event.shard_id, event.fork_ns)
                for event in coordinator.tick()
            ]
            if events:
                fork_batches.append((i, tick_start, events))
        key = workload.keys[workload.key_index[i]]
        before = clock.now
        try:
            if workload.is_set[i]:
                reply = client.execute(b"SET", key, value)
            else:
                reply = client.execute(b"GET", key)
        except KvsError:
            # MISCONF write refusal (persistent snapshot failure): the
            # command is answered immediately with an error (no kernel
            # work, no RTT charged — ``kerns``/``rtts`` stay zero, which
            # is exactly how the solver prices it).
            refused += 1
            shard_ids[i] = cluster.slot_map.shard_of_key(key)
            continue
        kerns[i] = clock.now - before
        rtts[i] = reply.rtt_ns
        shard_ids[i] = reply.shard_id
    # Phase 2 — solve the coupled queueing timeline.
    latencies, kernel_ns = solve_timeline(
        arrivals,
        service,
        kerns,
        rtts,
        shard_ids,
        fork_batches,
        len(cluster),
        fixed_ns,
    )
    per_shard = {
        shard.shard_id: LatencySample(
            latencies[shard_ids == shard.shard_id],
            arrivals[shard_ids == shard.shard_id],
        )
        for shard in cluster.shards
    }
    return ClusterRunResult(
        per_shard=per_shard,
        merged=merge(list(per_shard.values())),
        snapshot_windows={
            s.shard_id: list(s.snapshot_windows) for s in cluster.shards
        },
        snapshots_completed={
            s.shard_id: s.snapshots_completed for s in cluster.shards
        },
        moved_redirects=client.moved_redirects,
        refused_writes=refused,
        kernel_ns=kernel_ns,
    )
