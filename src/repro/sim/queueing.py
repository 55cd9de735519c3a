"""Queueing timelines: the one solver every open-loop driver shares.

Every latency this reproduction reports comes out of the single-server
recurrence

    end[i] = max(arrival[i], end[i-1]) + duration[i]

which unrolls to ``end[i] = max_j<=i (arrival[j] + sum_{k=j..i} dur[k])``
— a running maximum of ``arrival - shifted_cumsum`` plus the cumsum,
i.e. one ``np.maximum.accumulate`` prefix scan (:func:`busy_schedule`).
All operations are int64 adds/maxima, so the scan is *bit-identical*
to the per-query loop, not merely close (DESIGN.md §14).

:func:`solve_timeline` generalizes the chain to the drivers' couplings:
per-shard queues, a machine-wide kernel lock, fork ticks and userspace
busy batches.  The cluster and reshard drivers call it with their
shards; the replication driver calls it with one shard and the sync's
fork stall as a busy batch.  :func:`solve_timeline_scalar` is its
arrival-by-arrival transcription — the single reference the
equivalence tests compare the scans against.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: ``(query_index, tick_start, [(shard_id, work_ns), ...])``: work that
#: lands on its shards just before query ``query_index`` is served.
Batch = tuple[int, int, list[tuple[int, int]]]


def busy_schedule(
    arrivals: np.ndarray,
    durations: np.ndarray,
    free_at: int = 0,
) -> np.ndarray:
    """Completion times of the single-server chain, exactly.

    ``arrivals`` and ``durations`` must be int64; ``free_at`` is the
    server's busy-until instant before the first event.  Returns the
    int64 ``end`` array of ``end = max(arrival, prev_end) + duration``
    with ``prev_end`` seeded at ``free_at``.  Starts are recovered as
    ``end - duration``.
    """
    if len(arrivals) == 0:
        return np.empty(0, dtype=np.int64)
    csum = np.cumsum(durations)
    shifted = np.empty_like(csum)
    shifted[0] = 0
    shifted[1:] = csum[:-1]
    peak = np.maximum.accumulate(arrivals - shifted)
    if free_at:
        np.maximum(peak, np.int64(free_at), out=peak)
    return peak + csum


def event_slots(arrivals: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Arrival index before which each scheduled event is processed.

    The scalar loops drain events (stalls, purges) with
    ``time <= arrival[i]`` before serving query ``i``; an event's slot
    is therefore the first arrival index at or after its time.  Events
    with ``slot == len(arrivals)`` fall past the stream end and are
    dropped, exactly as the scalar loops leave them unprocessed.
    """
    return np.searchsorted(arrivals, times, side="left")


def solve_timeline(
    arrivals: np.ndarray,
    service: np.ndarray,
    kerns: np.ndarray,
    rtts: np.ndarray,
    shard_ids: np.ndarray,
    fork_batches: Sequence[Batch],
    n_shards: int,
    fixed_ns: int,
    busy_batches: Sequence[Batch] = (),
) -> tuple[np.ndarray, int]:
    """Solve the per-shard / kernel-lock timeline, scans between couplings.

    Returns ``(latencies, kernel_ns)``: per-query ``end - arrival +
    rtt`` and the total kernel time the machine serialized.

    Only two kinds of event couple the shards: fork ticks (they raise
    ``kernel_busy`` and the forked shard's ``free_at``; only the part
    of a fork beyond ``fixed_ns`` serializes machine-wide) and queries
    with kernel time (they wait for and then hold the kernel lock).
    Everything between two coupling events is an independent
    single-server chain per shard, solved exactly by
    :func:`busy_schedule`; the coupling events themselves are stepped
    in order, so the result is bit-identical to
    :func:`solve_timeline_scalar`.

    ``busy_batches`` models *userspace* head-of-line blocking — a slot
    migrator's DUMP/ship/RESTORE batches, a replication sync's fork
    stall.  They occupy their shard like a long command but do not
    touch the machine-wide kernel lock.
    """
    n = len(arrivals)
    latencies = np.empty(n, dtype=np.int64)
    free_at = [0] * n_shards
    kernel_busy = 0
    kernel_ns = 0
    by_shard = [np.flatnonzero(shard_ids == s) for s in range(n_shards)]
    ptr = [0] * n_shards

    def advance(s: int, upto: int) -> None:
        # Serve shard ``s``'s kernel-free queries with index < upto in
        # one scan; refused queries ride along (service only, zero rtt).
        idxs = by_shard[s]
        j = int(np.searchsorted(idxs, upto, side="left"))
        if j > ptr[s]:
            seg = idxs[ptr[s] : j]
            ends = busy_schedule(arrivals[seg], service[seg], free_at[s])
            latencies[seg] = ends - arrivals[seg] + rtts[seg]
            free_at[s] = int(ends[-1])
            ptr[s] = j

    # Coupling events in serving order; a fork or busy tick at index i
    # lands before query i is served.  Sort is stable, so at one index
    # forks apply first, then userspace busy, then the query.
    events: list[tuple[int, int, Optional[tuple]]] = [
        (i, 0, (tick_start, evs, True))
        for i, tick_start, evs in fork_batches
    ]
    events += [
        (i, 0, (tick_start, evs, False))
        for i, tick_start, evs in busy_batches
    ]
    events += [(int(i), 1, None) for i in np.flatnonzero(kerns > 0)]
    events.sort(key=lambda e: (e[0], e[1]))
    for i, kind, payload in events:
        if kind == 0:
            tick_start, evs, couples_kernel = payload
            for shard_id, work_ns in evs:
                advance(shard_id, i)
                if couples_kernel:
                    fixed = min(work_ns, fixed_ns)
                    copy = work_ns - fixed
                    kernel_start = max(tick_start + fixed, kernel_busy)
                    kernel_busy = kernel_start + copy
                    kernel_ns += copy
                    free_at[shard_id] = max(free_at[shard_id], kernel_busy)
                else:
                    # Userspace work: the shard is busy, the kernel
                    # lock is not.
                    free_at[shard_id] = (
                        max(free_at[shard_id], tick_start) + work_ns
                    )
        else:
            s = int(shard_ids[i])
            advance(s, i)
            arrival = int(arrivals[i])
            kern = int(kerns[i])
            start = max(arrival, free_at[s])
            kernel_start = max(start, kernel_busy)
            kernel_busy = kernel_start + kern
            kernel_ns += kern
            end = kernel_start + kern + int(service[i])
            free_at[s] = end
            latencies[i] = end - arrival + int(rtts[i])
            # ``advance`` stopped right at i; skip it in the chain.
            ptr[s] += 1
    for s in range(n_shards):
        advance(s, n)
    return latencies, kernel_ns


def solve_timeline_scalar(
    arrivals: np.ndarray,
    service: np.ndarray,
    kerns: np.ndarray,
    rtts: np.ndarray,
    shard_ids: np.ndarray,
    fork_batches: Sequence[Batch],
    n_shards: int,
    fixed_ns: int,
    busy_batches: Sequence[Batch] = (),
) -> tuple[np.ndarray, int]:
    """The reference recurrence behind :func:`solve_timeline`.

    Steps arrival by arrival; same inputs, same outputs, no scans.
    """
    n = len(arrivals)
    latencies = np.empty(n, dtype=np.int64)
    free_at = [0] * n_shards
    kernel_busy = 0
    kernel_ns = 0
    batch_pos = 0
    busy_pos = 0
    for i in range(n):
        arrival = int(arrivals[i])
        while (
            batch_pos < len(fork_batches)
            and fork_batches[batch_pos][0] == i
        ):
            _, tick_start, evs = fork_batches[batch_pos]
            batch_pos += 1
            for shard_id, fork_ns in evs:
                fixed = min(fork_ns, fixed_ns)
                copy = fork_ns - fixed
                kernel_start = max(tick_start + fixed, kernel_busy)
                kernel_busy = kernel_start + copy
                kernel_ns += copy
                free_at[shard_id] = max(free_at[shard_id], kernel_busy)
        while (
            busy_pos < len(busy_batches)
            and busy_batches[busy_pos][0] == i
        ):
            _, tick_start, evs = busy_batches[busy_pos]
            busy_pos += 1
            for shard_id, busy_ns in evs:
                free_at[shard_id] = (
                    max(free_at[shard_id], tick_start) + busy_ns
                )
        shard = int(shard_ids[i])
        kern = int(kerns[i])
        start = max(arrival, free_at[shard])
        if kern > 0:
            kernel_start = max(start, kernel_busy)
            kernel_busy = kernel_start + kern
            kernel_ns += kern
            end = kernel_start + kern + int(service[i])
        else:
            end = start + int(service[i])
        free_at[shard] = end
        latencies[i] = end - arrival + int(rtts[i])
    return latencies, kernel_ns
