"""Sparse paged byte-addressable memory.

The guest address space is 32 bits but programs touch only a few
segments (text, data, stack), so storage is a dictionary of fixed-size
pages allocated on first touch.  All multi-byte accesses are
little-endian and must be naturally aligned, which catches workload
bugs early (the PISA model traps on unaligned accesses too).

The reference interpreter and the per-instruction handlers access
memory only through the scalar accessors.  Compiled blocks
(:mod:`repro.emulator.blocks`) index ``_pages`` inline for aligned
accesses in their run and warm bodies and call the accessors for
everything else (trace bodies, misaligned addresses, a store to an
unmapped page).  Bulk image loading (:meth:`SparseMemory.write_block`)
copies page slices.
"""

from __future__ import annotations

from repro.harness.errors import MemoryFault

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class AlignmentError(MemoryFault):
    """Raised on a non-naturally-aligned multi-byte access."""


class SparseMemory:
    """Byte-addressable sparse memory with on-demand zero-filled pages."""

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}

    def _page(self, addr: int) -> bytearray:
        num = addr >> PAGE_SHIFT
        page = self._pages.get(num)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[num] = page
        return page

    # ------------------------------------------------------------------ reads

    def read_byte(self, addr: int) -> int:
        addr &= 0xFFFFFFFF
        page = self._pages.get(addr >> PAGE_SHIFT)
        return page[addr & PAGE_MASK] if page is not None else 0

    def read_half(self, addr: int) -> int:
        addr &= 0xFFFFFFFF
        if addr & 1:
            raise AlignmentError(f"unaligned halfword read at {addr:#x}")
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        off = addr & PAGE_MASK
        return page[off] | (page[off + 1] << 8)

    def read_word(self, addr: int) -> int:
        addr &= 0xFFFFFFFF
        if addr & 3:
            raise AlignmentError(f"unaligned word read at {addr:#x}")
        page = self._pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return 0
        off = addr & PAGE_MASK
        return page[off] | (page[off + 1] << 8) | (page[off + 2] << 16) | (page[off + 3] << 24)

    # ----------------------------------------------------------------- writes

    def write_byte(self, addr: int, value: int) -> None:
        addr &= 0xFFFFFFFF
        self._page(addr)[addr & PAGE_MASK] = value & 0xFF

    def write_half(self, addr: int, value: int) -> None:
        addr &= 0xFFFFFFFF
        if addr & 1:
            raise AlignmentError(f"unaligned halfword write at {addr:#x}")
        page = self._page(addr)
        off = addr & PAGE_MASK
        page[off] = value & 0xFF
        page[off + 1] = (value >> 8) & 0xFF

    def write_word(self, addr: int, value: int) -> None:
        addr &= 0xFFFFFFFF
        if addr & 3:
            raise AlignmentError(f"unaligned word write at {addr:#x}")
        page = self._page(addr)
        off = addr & PAGE_MASK
        page[off] = value & 0xFF
        page[off + 1] = (value >> 8) & 0xFF
        page[off + 2] = (value >> 16) & 0xFF
        page[off + 3] = (value >> 24) & 0xFF

    # ------------------------------------------------------------------ bulk

    def write_block(self, addr: int, payload: bytes) -> None:
        """Copy *payload* into memory starting at *addr* (any alignment)."""
        i = 0
        n = len(payload)
        while i < n:
            a = (addr + i) & 0xFFFFFFFF
            off = a & PAGE_MASK
            span = min(n - i, PAGE_SIZE - off)
            self._page(a)[off : off + span] = payload[i : i + span]
            i += span

    def read_block(self, addr: int, size: int) -> bytes:
        """Read *size* bytes starting at *addr*."""
        out = bytearray()
        i = 0
        while i < size:
            a = (addr + i) & 0xFFFFFFFF
            off = a & PAGE_MASK
            span = min(size - i, PAGE_SIZE - off)
            page = self._pages.get(a >> PAGE_SHIFT)
            if page is None:
                out.extend(b"\x00" * span)
            else:
                out.extend(page[off : off + span])
            i += span
        return bytes(out)

    def read_cstring(self, addr: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (used by the print-string syscall)."""
        out = bytearray()
        for i in range(limit):
            b = self.read_byte(addr + i)
            if b == 0:
                break
            out.append(b)
        return bytes(out)

    @property
    def resident_pages(self) -> int:
        """Number of pages allocated so far (footprint diagnostics)."""
        return len(self._pages)
