"""Property tests: vectorized timelines equal the scalar references.

The prefix-scan schedules (DESIGN.md §14) claim *bit-identity* with the
per-query recurrences, not approximation.  These tests check that
claim from three angles:

* the :func:`busy_schedule` primitive against the reference
  recurrence :func:`solve_timeline_scalar` on one idle shard, over
  random chains;
* replication's master chain, with and without a sync's fork stall,
  against that stall written out query by query;
* :func:`solve_timeline` against that reference over random instances
  — fork batches landing mid-chain, userspace busy batches (the reshard
  migrator's, and replication's one-shard fork stall), shards that
  never serve a query, and kernel-lock contention;
* the full snapshot simulator run twice, vectorized vs its
  ``_run_scalar`` loop (``try_vectorized`` patched to decline),
  comparing every observable down to the Chrome-trace export bytes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import task
from repro.sim import snapshot_vec
from repro.sim.queueing import (
    busy_schedule,
    event_slots,
    solve_timeline,
    solve_timeline_scalar,
)
from repro.workload import replication as wl_repl
from tests.workload import timeline_fixture as tf


def reference_chain_ends(arrivals, durations, free_at=0):
    """The single-server chain through the one scalar reference.

    One shard, no kernel time or RTT; ``free_at`` enters as a userspace
    busy batch ahead of the first query.
    """
    n = len(arrivals)
    zeros = np.zeros(n, dtype=np.int64)
    latencies, _ = solve_timeline_scalar(
        arrivals, durations, zeros, zeros, np.zeros(n, dtype=np.int32),
        [], 1, 0, [(0, 0, [(0, int(free_at))])],
    )
    return latencies + arrivals


@st.composite
def chains(draw):
    n = draw(st.integers(1, 200))
    gaps = draw(
        st.lists(st.integers(0, 10**6), min_size=n, max_size=n)
    )
    arrivals = np.cumsum(np.asarray(gaps, dtype=np.int64))
    durations = np.asarray(
        draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    free_at = draw(st.integers(0, 10**7))
    return arrivals, durations, free_at


class TestBusySchedule:
    @settings(max_examples=60, deadline=None)
    @given(chains())
    def test_matches_scalar_recurrence(self, chain):
        arrivals, durations, free_at = chain
        got = busy_schedule(arrivals, durations, free_at)
        assert got.dtype == np.int64
        assert np.array_equal(
            got, reference_chain_ends(arrivals, durations, free_at)
        )

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert len(busy_schedule(empty, empty)) == 0

    def test_event_slots_are_drain_points(self):
        arrivals = np.array([10, 20, 20, 30], dtype=np.int64)
        times = np.array([5, 20, 31], dtype=np.int64)
        # An event at t is drained before the first arrival >= t; one
        # past the stream end (slot == n) is never processed.
        assert list(event_slots(arrivals, times)) == [0, 1, 4]


def stalled_chain_latencies(arrivals, durations, stall_at, stall_ns):
    """Replication's master chain, query by query.

    A sync's fork stall starts once the server is free and the query
    ``stall_at`` has arrived, and delays that query by ``stall_ns``.
    """
    latencies = np.empty(len(arrivals), dtype=np.int64)
    free_at = 0
    for i, (arrival, duration) in enumerate(zip(arrivals, durations)):
        if i == stall_at:
            free_at = max(free_at, int(arrival)) + stall_ns
        free_at = max(int(arrival), free_at) + int(duration)
        latencies[i] = free_at - int(arrival)
    return latencies


class TestReplicationChain:
    @settings(max_examples=50, deadline=None)
    @given(chains(), st.booleans(), st.integers(0, 10**7))
    def test_matches_scalar_with_and_without_stall(
        self, chain, with_stall, stall_ns
    ):
        arrivals, durations, _ = chain
        stall_at = len(arrivals) // 2 if with_stall else None
        got = wl_repl._master_latencies(
            arrivals, durations, stall_at, stall_ns
        )
        assert got.dtype == np.int64
        assert np.array_equal(
            got,
            stalled_chain_latencies(arrivals, durations, stall_at, stall_ns),
        )


def _random_batches(rng, arrivals, n_shards, max_ns, max_batches=4):
    """Batches at distinct query indices, each anchored to its arrival."""
    n = len(arrivals)
    count = min(n, int(rng.integers(0, max_batches)))
    batches = []
    for i in sorted(rng.choice(n, size=count, replace=False).tolist()):
        events = [
            (int(rng.integers(0, n_shards)), int(rng.integers(0, max_ns)))
            for _ in range(int(rng.integers(1, 3)))
        ]
        batches.append((i, int(arrivals[i]), events))
    return batches


def _random_cluster_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    arrivals = np.cumsum(rng.integers(0, 50_000, n)).astype(np.int64)
    service = rng.integers(0, 30_000, n).astype(np.int64)
    if rng.random() < 0.25:
        # Replication's master: one shard, no kernel lock, no RTT, and
        # the sync's fork stall as one userspace busy batch.
        i = int(rng.integers(0, n))
        zeros = np.zeros(n, dtype=np.int64)
        stall = [(i, int(arrivals[i]), [(0, int(rng.integers(0, 10**7)))])]
        return (
            arrivals, service, zeros, zeros, np.zeros(n, dtype=np.int32),
            [], 1, 0, stall,
        )
    n_shards = 1 if rng.random() < 0.3 else int(rng.integers(2, 6))
    kerns = np.where(
        rng.random(n) < 0.15, rng.integers(1, 200_000, n), 0
    ).astype(np.int64)
    rtts = rng.integers(0, 5_000, n).astype(np.int64)
    # Route to a subset of the shards sometimes, leaving idle shards.
    active = int(rng.integers(1, n_shards + 1))
    shard_ids = rng.integers(0, active, n).astype(np.int32)
    fork_batches = _random_batches(rng, arrivals, n_shards, 5_000_000)
    busy_batches = _random_batches(rng, arrivals, n_shards, 2_000_000)
    fixed_ns = int(rng.integers(0, 100_000))
    return (
        arrivals, service, kerns, rtts, shard_ids,
        fork_batches, n_shards, fixed_ns, busy_batches,
    )


class TestClusterSolver:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_scalar(self, seed):
        instance = _random_cluster_instance(seed)
        lat_v, kern_v = solve_timeline(*instance)
        lat_s, kern_s = solve_timeline_scalar(*instance)
        assert np.array_equal(lat_v, lat_s)
        assert kern_v == kern_s


# -- the full snapshot simulator, scalar vs vectorized -------------------

#: Scenarios beyond the committed fixture: a mid-batch fork (clients=500
#: makes 50-query batches, so the fork index almost surely lands inside
#: one) and each method at a size the fixture doesn't pin.
EXTRA_SCENARIOS = [
    (
        "default-midbatch",
        dict(count=5_000, size_gb=2, clients=500, seed=8101),
        dict(method="default"),
    ),
    (
        "odf-midbatch",
        dict(count=5_000, size_gb=4, clients=500, seed=8102),
        dict(method="odf"),
    ),
    (
        "async-midbatch",
        dict(count=5_000, size_gb=4, clients=500, seed=8103),
        dict(method="async"),
    ),
    (
        "async-pte-small",
        dict(count=5_000, size_gb=2, seed=8104),
        dict(method="async", sync_granularity="pte", sync_handshake_ns=250),
    ),
]


def _digest_both_modes(name, wl_kw, cfg_kw):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(task, "_pid_counter", itertools.count(90_000))
        vec = tf._snapshot_digest(name, wl_kw, cfg_kw)
        mp.setattr(task, "_pid_counter", itertools.count(90_000))
        mp.setattr(snapshot_vec, "try_vectorized", lambda runner: None)
        ref = tf._snapshot_digest(name, wl_kw, cfg_kw)
    assert vec == ref


@pytest.mark.parametrize(
    "name,wl_kw,cfg_kw",
    EXTRA_SCENARIOS,
    ids=[name for name, _, _ in EXTRA_SCENARIOS],
)
def test_snapshot_sim_scalar_vec_equivalence(name, wl_kw, cfg_kw):
    _digest_both_modes(name, wl_kw, cfg_kw)


@settings(max_examples=6, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(["default", "odf", "async"]),
)
def test_snapshot_sim_equivalence_random_seeds(seed, method):
    _digest_both_modes(
        f"rand-{method}-{seed}",
        dict(count=3_000, size_gb=2, seed=seed),
        dict(method=method),
    )
