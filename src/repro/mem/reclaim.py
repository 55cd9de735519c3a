"""OS-inherent memory management that modifies PTEs behind the application.

The paper's §4.3 stresses that user queries are not the only source of PTE
modifications: memory compaction migrates pages, NUMA balancing poisons
PTEs with PROT_NONE hints, the OOM killer zaps ranges, and get_user_pages
pins pages.  Each of these flows through a Table 3 checkpoint, and each is
modelled here so the proactive-synchronization machinery can be tested
against them.

``migrate_page`` follows the exact step sequence of Table 1 / Table 2,
which is what makes the shared-page-table data leakage reproducible: the
per-process update loop skips a process whose (shared) PTE no longer reads
"V -> X", leaving that process's TLB stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem import checkpoints as cp
from repro.mem.address_space import AddressSpace
from repro.mem.directory import require_pte_table
from repro.mem.flags import (
    FLAGS_MASK,
    PTE_PRESENT,
    PTE_SPECIAL,
    PTE_SWAP,
    make_pte,
    pte_frame,
    pte_present,
)
from repro.mem.frames import FrameAllocator
from repro.units import PAGE_SIZE, page_align_down, pte_index


@dataclass
class MigrationReport:
    """What one page migration did — consumed by the leakage demos."""

    vaddr: int
    old_frame: int
    new_frame: int
    #: Processes whose PTE was updated and TLB flushed.
    updated: list[str] = field(default_factory=list)
    #: Processes skipped because their PTE did not read "V -> old_frame"
    #: (the shared-page-table hazard of Table 1, step 4).
    skipped: list[str] = field(default_factory=list)
    #: Processes that blocked the migration via the PTE-table page lock
    #: (Async-fork's Table 2 protection).
    lock_waits: list[str] = field(default_factory=list)


def migrate_page(
    processes: list[AddressSpace],
    vaddr: int,
    frames: FrameAllocator,
) -> MigrationReport:
    """Migrate the page at ``vaddr`` to a fresh frame (memory compaction).

    Follows Table 1's steps: pick the first process that maps the page,
    invalidate its PTE and flush its TLB, then loop over the *other*
    processes checking whether their PTE still reads the old mapping —
    skipping them if not — and finally install the new frame.
    """
    vaddr = page_align_down(vaddr)

    def references_frame(pte: int) -> bool:
        # A NUMA-poisoned entry (PROT_NONE hint) is not PRESENT but still
        # owns the frame; rmap-based migration updates those too.
        return pte_present(pte) or bool(pte & PTE_SPECIAL)

    initiator = None
    old_frame = None
    for mm in processes:
        pte = mm.page_table.get_pte(vaddr)
        if references_frame(pte) and pte_frame(pte) != 0:
            initiator = mm
            old_frame = pte_frame(pte)
            break
    if initiator is None or old_frame is None or old_frame == 0:
        raise ValueError(f"no migratable page at {vaddr:#x}")

    new_page = frames.alloc("data")
    frames.copy_contents(old_frame, new_page.frame)
    report = MigrationReport(
        vaddr=vaddr, old_frame=old_frame, new_frame=new_page.frame
    )

    # The migration path locks the PTE-table page while it rewrites the
    # entry.  Async-fork's child copier takes the same lock, so a copy in
    # flight serializes with the migration (Table 2's argument).
    touched_tables = []
    updated_slots: list[tuple[object, int]] = []

    def invalidate(mm: AddressSpace) -> bool:
        leaf = mm.page_table.walk_pte_table(vaddr)
        if leaf is None:
            return False
        pte = leaf.get(pte_index(vaddr))
        if not (references_frame(pte) and pte_frame(pte) == old_frame):
            report.skipped.append(mm.name)
            return False
        if leaf.page not in [t.page for t in touched_tables]:
            if not leaf.page.trylock():
                report.lock_waits.append(mm.name)
                # Spin: in the kernel this waits; here the lock holder is
                # always a cooperative step that has already returned.
                raise RuntimeError(
                    f"PTE table locked during migration by {mm.name}"
                )
            touched_tables.append(leaf)
        # Step 2: set "none present", preserving flags for restoration.
        original_flags = pte & FLAGS_MASK
        leaf.set(
            pte_index(vaddr),
            make_pte(old_frame, original_flags & ~PTE_PRESENT),
        )
        # Step 3: flush this process's TLB entry.
        mm.tlb.flush_page(vaddr)
        report.updated.append(mm.name)
        updated_slots.append((leaf, original_flags))
        return True

    invalidate(initiator)
    for mm in processes:
        if mm is initiator:
            continue
        invalidate(mm)

    # Step 5: install the new mapping in every table we invalidated, with
    # each slot's original flags (a NUMA-poisoned entry stays poisoned).
    rewritten = set()
    for leaf, original_flags in updated_slots:
        if id(leaf) in rewritten:
            continue
        rewritten.add(id(leaf))
        leaf.set(pte_index(vaddr), make_pte(new_page.frame, original_flags))
        new_page.get()

    # Transfer ownership: drop the old frame's references.
    old_meta = frames.page(old_frame)
    while old_meta.mapcount > 0:
        old_meta.put()
    frames.free(old_frame)

    for leaf in touched_tables:
        leaf.page.unlock()
    return report


def change_prot_numa(mm: AddressSpace, start: int, end: int) -> int:
    """NUMA balancing: poison PTEs with PROT_NONE hints.

    Fires the VMA-wide :data:`~repro.mem.checkpoints.CHANGE_PROT_NUMA`
    checkpoint first, then clears PRESENT while keeping the frame and a
    SPECIAL marker so a later fault restores the mapping.
    """
    mm.fire(cp.CHANGE_PROT_NUMA, start, end)
    poisoned = 0
    for pmd, idx, base in mm.page_table.iter_pmd_slots(start, end):
        leaf = pmd.get(idx)
        if leaf is None:
            continue
        leaf = require_pte_table(leaf)
        # Cold path (NUMA balancing), and each entry keeps its own flag
        # combination plus a traced per-page flush — stays scalar.
        for i in leaf.present_indices():  # lint: allow(pte-loop)
            vaddr = base + i * PAGE_SIZE
            if not start <= vaddr < end:
                continue
            pte = leaf.get(i)
            frame = pte_frame(pte)
            if frame == 0:
                continue
            flags = (pte & FLAGS_MASK & ~PTE_PRESENT) | PTE_SPECIAL
            leaf.set(i, make_pte(frame, flags))
            mm.tlb.flush_page(vaddr)
            poisoned += 1
    return poisoned


def restore_numa_pte(mm: AddressSpace, vaddr: int) -> int | None:
    """Resolve a NUMA hint fault: re-establish the poisoned mapping."""
    leaf = mm.page_table.walk_pte_table(vaddr)
    if leaf is None:
        return None
    idx = pte_index(vaddr)
    pte = leaf.get(idx)
    if pte_present(pte) or not pte & PTE_SPECIAL:
        return None
    flags = ((pte & FLAGS_MASK) | PTE_PRESENT) & ~PTE_SPECIAL
    frame = pte_frame(pte)
    leaf.set(idx, make_pte(frame, flags))
    return frame


def oom_reclaim(mm: AddressSpace, start: int, end: int) -> int:
    """OOM-killer page reclaim over a range (zap_pmd_range checkpoints)."""
    return mm.zap_pmd_range(start, end)


def swap_out(
    processes: list[AddressSpace],
    vaddr: int,
    frames: FrameAllocator,
) -> int:
    """kswapd: write the page at ``vaddr`` to swap, unmap everywhere.

    §4.3 explicitly excludes swap from the proactive-synchronization
    checkpoints: "swapping or migrating a 4KB page will change the PTE
    but the data will not be changed, so we will not handle it".  An
    Async-fork child that later copies a swap-entry PTE simply faults
    and swaps the identical data back in — the snapshot stays
    consistent without any parent interruption.  Accordingly, this
    function fires NO checkpoint.

    Returns the swap-slot id.
    """
    vaddr = page_align_down(vaddr)
    old_frame = None
    for mm in processes:
        pte = mm.page_table.get_pte(vaddr)
        if pte_present(pte) and pte_frame(pte) != 0:
            old_frame = pte_frame(pte)
            break
    if old_frame is None:
        raise ValueError(f"no swappable page at {vaddr:#x}")

    slot = frames.swap.store(frames.read(old_frame))
    for mm in processes:
        leaf = mm.page_table.walk_pte_table(vaddr)
        if leaf is None:
            continue
        idx = pte_index(vaddr)
        pte = leaf.get(idx)
        if not (pte_present(pte) and pte_frame(pte) == old_frame):
            continue
        flags = (pte & FLAGS_MASK & ~PTE_PRESENT) | PTE_SWAP
        leaf.set(idx, make_pte(slot, flags))
        mm.tlb.flush_page(vaddr)
        mm.rss -= 1

    meta = frames.page(old_frame)
    while meta.mapcount > 0:
        meta.put()
    frames.free(old_frame)
    return slot
