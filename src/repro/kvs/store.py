"""The key-value store proper.

Keys live in a Python dict (modelling Redis's main hash table, whose
footprint is dominated by the values for the 1 KiB-value workloads of the
paper); values live on simulated pages via :class:`JemallocArena`, so every
SET is a real write to simulated memory — dirtying pages, triggering CoW
after a fork, and (under Async-fork) proactive synchronizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import KvsError
from repro.kvs.allocator import JemallocArena
from repro.mem.address_space import AddressSpace
from repro.units import PAGE_MASK, PAGE_SIZE


@dataclass(frozen=True)
class ValueRef:
    """Location of one stored value inside the process heap."""

    vaddr: int
    length: int


class KvStore:
    """String key -> byte-string value store over simulated memory."""

    def __init__(self, mm: AddressSpace, arena: Optional[JemallocArena] = None):
        self.mm = mm
        self.arena = arena if arena is not None else JemallocArena(mm)
        self._table: dict[bytes, ValueRef] = {}
        self.dirty_since_save = 0

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: bytes) -> bool:
        return self._normalize(key) in self._table

    @staticmethod
    def _normalize(key) -> bytes:
        if isinstance(key, str):
            return key.encode()
        if isinstance(key, bytes):
            return key
        raise KvsError(f"keys must be str or bytes, not {type(key).__name__}")

    # ------------------------------------------------------------------

    def set(self, key, value: bytes) -> None:
        """SET: store a value, updating in place when the class fits.

        In-place update is the common case for the fixed-size-value
        benchmarks and is what repeatedly dirties the same pages (the
        Gaussian-pattern effect of Figure 12).
        """
        key = self._normalize(key)
        if isinstance(value, str):
            value = value.encode()
        old = self._table.get(key)
        if old is not None and self.arena.usable_size(old.vaddr) >= len(value):
            self.mm.write_memory(old.vaddr, value)
            if old.length != len(value):
                self._table[key] = ValueRef(old.vaddr, len(value))
        else:
            vaddr = self.arena.zmalloc(max(1, len(value)))
            self.mm.write_memory(vaddr, value)
            if old is not None:
                self.arena.zfree(old.vaddr)
            self._table[key] = ValueRef(vaddr, len(value))
        self.dirty_since_save += 1

    def get(self, key) -> Optional[bytes]:
        """GET: read a value (``None`` when absent)."""
        ref = self._table.get(self._normalize(key))
        if ref is None:
            return None
        return self.mm.read_memory(ref.vaddr, ref.length)

    def delete(self, key) -> bool:
        """DEL: drop a key; returns whether it existed."""
        ref = self._table.pop(self._normalize(key), None)
        if ref is None:
            return False
        self.arena.zfree(ref.vaddr)
        self.dirty_since_save += 1
        return True

    def keys(self) -> Iterator[bytes]:
        """Iterate over keys (unspecified order, like SCAN)."""
        return iter(self._table)

    def items_from(self, mm: AddressSpace) -> Iterator[tuple[bytes, bytes]]:
        """Read every (key, value) pair through *another* address space.

        This is how the forked child serializes the snapshot: it walks the
        key table it inherited and reads the values out of its own memory
        image, which CoW keeps at the fork-time state.  The values come
        from one bulk read of their backing pages (:func:`read_keyspace`).
        """
        return read_keyspace(mm, self._table)

    def table_snapshot(self) -> dict[bytes, ValueRef]:
        """Shallow copy of the key table, as inherited by a forked child."""
        return dict(self._table)

    def flat_size(self) -> int:
        """Total bytes of stored values."""
        return sum(ref.length for ref in self._table.values())


def read_keyspace(
    mm: AddressSpace, table: dict[bytes, ValueRef]
) -> Iterator[tuple[bytes, bytes]]:
    """Yield ``(key, value)`` for every entry of ``table``, read via ``mm``.

    Values pack many to a page, so the backing pages are collected once,
    in first-touch key order, and read in one
    :meth:`~repro.mem.address_space.AddressSpace.read_pages` call — the
    same page reads, in the same order, as reading each page through
    ``read_memory`` the first time a value touches it.  The read happens
    when the first pair is requested, so a consumer such as ``rdb.dump``
    accounts for it.
    """
    bases: dict[int, None] = {}
    for ref in table.values():
        page = ref.vaddr & PAGE_MASK
        end = ref.vaddr + ref.length
        while page < end:
            bases[page] = None
            page += PAGE_SIZE
    pages = dict(zip(bases, mm.read_pages(list(bases))))
    for key, ref in table.items():
        vaddr, length = ref.vaddr, ref.length
        base = vaddr & PAGE_MASK
        lo = vaddr - base
        if lo + length <= PAGE_SIZE:
            # Zero-length values touch no page (``bases`` skipped them).
            yield key, pages[base][lo : lo + length] if length else b""
            continue
        parts = [pages[base][lo:]]
        remaining = length - (PAGE_SIZE - lo)
        while remaining > 0:
            base += PAGE_SIZE
            parts.append(pages[base][:remaining])
            remaining -= PAGE_SIZE
        yield key, b"".join(parts)
