"""``AddressSpace.read_pages`` is a per-page ``read_memory`` loop, walked once.

Two kinds of evidence:

1. A hypothesis parity test.  Two identically built worlds (a process
   with a random value layout, forked by one of the three engines) read
   the same page list — one through ``read_pages``, the other through a
   loop of ``read_memory(base, PAGE_SIZE)`` — and must agree on the
   bytes, the TLB, every PTE word, the fault/TLB counters and the race
   detector's access-event stream.
2. Deterministic walk counts: the single-walk access paths are pinned by
   counting ``PageTable.walk_pmd`` calls, not by timing them.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import hooks
from repro.core.async_fork import AsyncFork
from repro.kernel.forks.default import DefaultFork
from repro.kernel.forks.odf import OnDemandFork
from repro.kernel.task import Process
from repro.kvs.store import KvStore, read_keyspace
from repro.mem import checkpoints as cp
from repro.mem.frames import FrameAllocator
from repro.mem.page_table import PageTable
from repro.units import ENTRIES_PER_TABLE, PAGE_SIZE, PTE_TABLE_SPAN

#: The heap spans three PTE tables, so page lists cross table spans.
TABLES = 3
HEAP = TABLES * PTE_TABLE_SPAN
HEAP_PAGES = HEAP // PAGE_SIZE

ENGINES = {
    "default": DefaultFork,
    "odf": OnDemandFork,
    "async": AsyncFork,
}

# A value layout: (offset, length) writes into the heap.  Offsets near a
# page end make values span a page boundary; pages no write reaches stay
# never-written (their reads take a zero-page fault).
values = st.lists(
    st.tuples(
        st.integers(0, HEAP - 1),
        st.integers(1, 2 * PAGE_SIZE),
    ),
    min_size=1,
    max_size=24,
)
page_lists = st.lists(st.integers(0, HEAP_PAGES - 1), max_size=48)


def _build(engine: str, layout, warm):
    """Parent with ``layout`` written, forked by ``engine``.

    Every table gets one write so each engine has all three tables to
    share or copy.  The Async-fork child copy is stepped once, leaving
    it half drained; ODF's tables are still shared (no write after the
    fork).  ``warm`` pages are read through the child first so the TLB
    holds a mix of entries.
    """
    frames = FrameAllocator()
    parent = Process(frames, name="parent")
    vma = parent.mm.mmap(HEAP)
    for table in range(TABLES):
        parent.mm.write_memory(vma.start + table * PTE_TABLE_SPAN, b"t")
    for offset, length in layout:
        length = min(length, HEAP - offset)
        parent.mm.write_memory(
            vma.start + offset, bytes([offset % 251 + 1]) * length
        )
    result = ENGINES[engine]().fork(parent)
    if engine == "async":
        result.session.child_step()
        assert not result.session.done
    for page in warm:
        result.child.mm.read_memory(vma.start + page * PAGE_SIZE, 1)
    return parent, result.child, vma.start


def _state(parent, child, start):
    """Everything a read may touch: TLBs, PTE words, PMD markers, counters."""
    state = {}
    for role, proc in (("parent", parent), ("child", child)):
        mm = proc.mm
        tables = []
        for pmd, idx, base in mm.page_table.iter_pmd_slots(
            start, start + HEAP
        ):
            leaf = pmd.get(idx)
            words = None if leaf is None else leaf.entries().tolist()
            tables.append((base, pmd.is_write_protected(idx), words))
        state[role] = {
            "tlb": sorted(mm.tlb.entries()),
            "tables": tables,
            "faults": mm.stats["faults"],
            "hits": mm.tlb.hits,
            "misses": mm.tlb.misses,
            "rss": mm.rss,
        }
    return state


def _recorded(fn, names):
    """Run ``fn`` with a recording access hook; return (result, events).

    Context keys name the process, whose pid differs between the two
    worlds, so they are mapped to their role first.
    """
    events = []

    def record(op, space, key):
        context = hooks.current_context()
        if isinstance(context, tuple):
            context = tuple(names.get(part, part) for part in context)
        events.append((op, space, key, context))

    hooks.ACCESS_HOOKS.append(record)
    try:
        return fn(), events
    finally:
        hooks.ACCESS_HOOKS.remove(record)


@pytest.mark.parametrize("reader", ["child", "parent"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(layout=values, pages=page_lists, warm=page_lists)
def test_read_pages_matches_read_memory_loop(
    engine, reader, layout, pages, warm
):
    worlds = [_build(engine, layout, warm) for _ in range(2)]
    outputs = []
    for bulk, (parent, child, start) in zip((True, False), worlds):
        mm = child.mm if reader == "child" else parent.mm
        bases = [start + page * PAGE_SIZE for page in pages]
        names = {parent.mm.name: "parent", child.mm.name: "child"}
        if bulk:
            read, events = _recorded(lambda: mm.read_pages(bases), names)
        else:
            read, events = _recorded(
                lambda: [mm.read_memory(b, PAGE_SIZE) for b in bases],
                names,
            )
        outputs.append((read, events, _state(parent, child, start)))
    (bulk_read, bulk_events, bulk_state), (loop_read, loop_events, loop_state) = (
        outputs
    )
    assert bulk_read == loop_read
    assert bulk_state == loop_state
    assert bulk_events == loop_events


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(st.integers(0, 3 * PAGE_SIZE), min_size=1, max_size=40))
def test_read_keyspace_matches_per_value_reads(engine, sizes):
    """The bulk keyspace read returns each value as a direct read would."""
    frames = FrameAllocator()
    parent = Process(frames, name="kv")
    store = KvStore(parent.mm)
    for i, size in enumerate(sizes):
        store.set(b"k%d" % i, bytes([i % 255 + 1]) * size)
    table = store.table_snapshot()
    child = ENGINES[engine]().fork(parent)
    if engine == "async":
        child.session.run_to_completion()
    got = list(read_keyspace(child.child.mm, table))
    assert [key for key, _ in got] == list(table)
    for key, value in got:
        ref = table[key]
        assert value == child.child.mm.read_memory(ref.vaddr, ref.length)
        assert value == bytes([int(key[1:]) % 255 + 1]) * ref.length


# ---------------------------------------------------------------------------
# walk counts
# ---------------------------------------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """Count ``PageTable.walk_pmd`` calls; ``walks.reset()`` zeroes them."""

    class Counter:
        n = 0

        def reset(self):
            self.n = 0

    counter = Counter()
    original = PageTable.walk_pmd

    def counting(self, vaddr, create=False):
        counter.n += 1
        return original(self, vaddr, create=create)

    monkeypatch.setattr(PageTable, "walk_pmd", counting)
    return counter


def _resident(pages: int):
    frames = FrameAllocator()
    proc = Process(frames, name="walks")
    vma = proc.mm.mmap(PTE_TABLE_SPAN)
    for i in range(pages):
        proc.mm.write_memory(vma.start + i * PAGE_SIZE, b"x")
    return proc.mm, vma.start


def test_write_to_present_writable_page_walks_once(walks):
    mm, start = _resident(1)
    walks.reset()
    mm.write_memory(start + 8, b"payload")
    assert walks.n == 1


def test_read_tlb_miss_on_present_page_walks_once(walks):
    mm, start = _resident(1)
    mm.tlb.flush_all()
    walks.reset()
    assert mm.read_memory(start, 1) == b"x"
    assert walks.n == 1


def test_read_pages_within_one_table_walks_once(walks):
    pages = ENTRIES_PER_TABLE // 2
    mm, start = _resident(pages)
    mm.tlb.flush_all()
    faults = mm.stats["faults"]
    walks.reset()
    read = mm.read_pages([start + i * PAGE_SIZE for i in range(pages)])
    assert walks.n == 1
    assert mm.stats["faults"] == faults
    assert all(page[:1] == b"x" for page in read)


def test_read_pages_rewalks_after_a_fault(walks):
    mm, start = _resident(2)
    mm.tlb.flush_all()
    walks.reset()
    # Page 2 was never written: its read fault drops the cached table,
    # so page 3 walks again (the fault's own walks come in between).
    mm.read_pages([start, start + 2 * PAGE_SIZE, start + PAGE_SIZE])
    # 1 (page 0) + 3 (the fault: pre-checkpoint walk, re-walk, zero-page
    # map) + 1 (page 1 walks again).
    assert walks.n == 5


def _replacing_leaf_on_fault(mm):
    """Subscribe a checkpoint handler that swaps in a copy of the faulting
    span's PTE table, as an ODF unshare or an Async-fork sync may."""

    def replace(event):
        if event.name != cp.HANDLE_MM_FAULT:
            return
        found = mm.page_table.walk_pmd(event.start)
        if found is None or found[0].get(found[1]) is None:
            return
        pmd, idx = found
        copy = mm.page_table.new_pte_table()
        copy.copy_entries_from(pmd.get(idx))
        pmd.set(idx, copy)

    mm.subscribe(replace)


def test_read_pages_follows_a_table_replaced_inside_a_fault():
    worlds = []
    for _ in range(2):
        mm, start = _resident(2)
        # Age ACCESSED (and flush the TLB) so the reads must set it again.
        mm.clear_accessed_bits()
        _replacing_leaf_on_fault(mm)
        worlds.append((mm, start))
    # Page 2 faults (never written) and its checkpoint replaces the
    # table; page 1 must then be read through the new table.
    offsets = [0, 2 * PAGE_SIZE, PAGE_SIZE]
    (bulk_mm, start), (loop_mm, _) = worlds
    bulk = bulk_mm.read_pages([start + off for off in offsets])
    loop = [loop_mm.read_memory(start + off, PAGE_SIZE) for off in offsets]
    assert bulk == loop
    words = [
        mm.page_table.walk_pte_table(start).entries().tolist()
        for mm in (bulk_mm, loop_mm)
    ]
    assert words[0] == words[1]
