"""Units and constants shared across the simulated kernel and the harness.

The memory geometry mirrors x86-64 Linux with 4 KiB pages and a four-level
radix page table (P4D folded, as in the paper): every table at every level
holds 512 entries, so one PTE table spans 2 MiB of virtual address space and
one PMD table spans 1 GiB.

Times are integer nanoseconds throughout the simulator; helpers here convert
to and from human-readable figures used when printing paper-style tables.
"""

from __future__ import annotations

# --- memory geometry -------------------------------------------------------

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT  # 4 KiB
#: ``vaddr & PAGE_MASK`` rounds down to a page boundary.
PAGE_MASK = ~(PAGE_SIZE - 1)

ENTRIES_PER_TABLE = 512
TABLE_SHIFT = 9  # log2(ENTRIES_PER_TABLE)

#: Span of one leaf (PTE) table: 512 pages = 2 MiB.
PTE_TABLE_SPAN = ENTRIES_PER_TABLE * PAGE_SIZE
#: Span of one PMD table: 512 PTE tables = 1 GiB.
PMD_TABLE_SPAN = ENTRIES_PER_TABLE * PTE_TABLE_SPAN
#: Span of one PUD table: 512 GiB.
PUD_TABLE_SPAN = ENTRIES_PER_TABLE * PMD_TABLE_SPAN

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

PAGES_PER_GIB = GIB // PAGE_SIZE          # 2**18
PTE_TABLES_PER_GIB = PAGES_PER_GIB // ENTRIES_PER_TABLE  # 512

# --- time ------------------------------------------------------------------

NSEC = 1
USEC = 1_000
MSEC = 1_000_000
SEC = 1_000_000_000


def ns_to_ms(ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return ns / MSEC


def ns_to_us(ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return ns / USEC


def ms(value: float) -> int:
    """Milliseconds -> integer nanoseconds."""
    return int(value * MSEC)


def us(value: float) -> int:
    """Microseconds -> integer nanoseconds."""
    return int(value * USEC)


def sec(value: float) -> int:
    """Seconds -> integer nanoseconds."""
    return int(value * SEC)


def fmt_ns(ns: float) -> str:
    """Render a duration with the most natural unit, e.g. ``'1.50ms'``."""
    if ns < USEC:
        return f"{ns:.0f}ns"
    if ns < MSEC:
        return f"{ns / USEC:.2f}us"
    if ns < SEC:
        return f"{ns / MSEC:.2f}ms"
    return f"{ns / SEC:.2f}s"


def fmt_bytes(n: int) -> str:
    """Render a byte count with the most natural unit, e.g. ``'8.0GiB'``."""
    if n >= GIB:
        return f"{n / GIB:.1f}GiB"
    if n >= MIB:
        return f"{n / MIB:.1f}MiB"
    if n >= KIB:
        return f"{n / KIB:.1f}KiB"
    return f"{n}B"


# --- virtual address decomposition ------------------------------------------

PTE_INDEX_SHIFT = PAGE_SHIFT                    # bits 12..20
PMD_INDEX_SHIFT = PTE_INDEX_SHIFT + TABLE_SHIFT  # bits 21..29
PUD_INDEX_SHIFT = PMD_INDEX_SHIFT + TABLE_SHIFT  # bits 30..38
PGD_INDEX_SHIFT = PUD_INDEX_SHIFT + TABLE_SHIFT  # bits 39..47

INDEX_MASK = ENTRIES_PER_TABLE - 1

#: Highest representable user virtual address + 1 (48-bit address space).
ADDRESS_SPACE_SIZE = 1 << (PGD_INDEX_SHIFT + TABLE_SHIFT)


def pgd_index(vaddr: int) -> int:
    """Index into the PGD for a virtual address."""
    return (vaddr >> PGD_INDEX_SHIFT) & INDEX_MASK


def pud_index(vaddr: int) -> int:
    """Index into a PUD table for a virtual address."""
    return (vaddr >> PUD_INDEX_SHIFT) & INDEX_MASK


def pmd_index(vaddr: int) -> int:
    """Index into a PMD table for a virtual address."""
    return (vaddr >> PMD_INDEX_SHIFT) & INDEX_MASK


def pte_index(vaddr: int) -> int:
    """Index into a PTE table for a virtual address."""
    return (vaddr >> PTE_INDEX_SHIFT) & INDEX_MASK


def page_align_down(vaddr: int) -> int:
    """Round an address down to a page boundary."""
    return vaddr & PAGE_MASK


def page_align_up(vaddr: int) -> int:
    """Round an address up to a page boundary."""
    return (vaddr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def pages_in_range(start: int, end: int) -> int:
    """Number of pages covered by the half-open byte range [start, end)."""
    return (page_align_up(end) - page_align_down(start)) // PAGE_SIZE
