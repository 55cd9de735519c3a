"""Bit layout of simulated page-table entries.

A PTE is stored as a 64-bit integer (numpy ``uint64`` inside leaf tables):
the physical frame number lives above :data:`repro.units.PAGE_SHIFT`, the
low twelve bits carry architecture flags.  Only the flags the paper's
algorithms rely on are modelled:

``PRESENT``
    The entry maps a frame.  Cleared entries are "none present", the state
    the kernel uses while migrating a page (Table 1 / Table 2).
``RW``
    Hardware write permission.  Cleared on both parent and child PTEs after
    a fork so the first write triggers the CoW page fault.
``ACCESSED`` / ``DIRTY``
    Maintained on reads/writes; the working-set-size discussion in Appendix
    A is demonstrated through the accessed bit.
``SPECIAL``
    Catch-all software bit used by tests.
"""

from __future__ import annotations

import enum

from repro.units import PAGE_SHIFT


class PteFlags(enum.IntFlag):
    """Flags stored in the low bits of a PTE."""

    NONE = 0
    PRESENT = 1 << 0
    RW = 1 << 1
    USER = 1 << 2
    ACCESSED = 1 << 5
    DIRTY = 1 << 6
    SPECIAL = 1 << 9
    #: Non-present entry holding a swap-slot id instead of a frame.
    SWAP = 1 << 10


#: Mask covering every flag bit (everything below the frame number).
FLAGS_MASK = (1 << PAGE_SHIFT) - 1

# Plain-int masks for the hot paths: ``enum.IntFlag`` arithmetic costs a
# metaclass call per operator, which dominated the per-access cost of the
# simulated walker.  ``PteFlags`` stays the type for display/debugging.
PTE_PRESENT = int(PteFlags.PRESENT)
PTE_RW = int(PteFlags.RW)
PTE_ACCESSED = int(PteFlags.ACCESSED)
PTE_DIRTY = int(PteFlags.DIRTY)
PTE_SPECIAL = int(PteFlags.SPECIAL)
PTE_SWAP = int(PteFlags.SWAP)


def make_pte(frame: int, flags: int) -> int:
    """Compose a PTE value from a frame number and flags."""
    if frame < 0:
        raise ValueError("frame number must be non-negative")
    return (frame << PAGE_SHIFT) | int(flags)


def pte_frame(pte: int) -> int:
    """Extract the physical frame number from a PTE value."""
    return int(pte) >> PAGE_SHIFT


def pte_flags(pte: int) -> PteFlags:
    """Extract the flag bits from a PTE value, as a :class:`PteFlags`.

    For display and debugging; hot paths mask with the int constants.
    """
    return PteFlags(int(pte) & FLAGS_MASK)  # lint: allow(enum-flag)


def pte_present(pte: int) -> bool:
    """True if the entry maps a frame."""
    return bool(int(pte) & PTE_PRESENT)


def pte_writable(pte: int) -> bool:
    """True if the entry allows hardware writes."""
    return bool(int(pte) & PTE_RW)


def pte_set_flags(pte: int, flags: int) -> int:
    """Return the PTE with ``flags`` added."""
    return int(pte) | int(flags)


def pte_clear_flags(pte: int, flags: int) -> int:
    """Return the PTE with ``flags`` removed."""
    return int(pte) & ~int(flags)
