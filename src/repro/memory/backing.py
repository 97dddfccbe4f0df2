"""Flat backing memory and a bump allocator.

:class:`MainMemory` is the ground-truth storage behind the cache
hierarchy.  It is word-granular and sparse (page-granular ``dict`` of
``list``\\ s of 32-bit words), so workloads can allocate arrays at
page-aligned addresses far apart without paying for the gap.

:class:`Allocator` hands out page-aligned regions, mirroring how the
benchmark programs ``malloc`` their arrays; page alignment matters
because the BIA manages existence/dirtiness at page granularity and
the algorithms group dataflow linearization sets by page index.
"""

from __future__ import annotations

from typing import Dict, List

from repro import params
from repro.errors import AlignmentError, AllocationError

#: Every stored word is reduced modulo 2**32 (a C ``unsigned int``).
WORD_MASK = (1 << (8 * params.WORD_SIZE)) - 1

_WORDS_PER_PAGE = params.PAGE_SIZE // params.WORD_SIZE
_ALIGN_MASK = params.WORD_SIZE - 1
#: ``(addr & _OFFSET_MASK) >> _WORD_SHIFT`` is a word's index in its page.
_OFFSET_MASK = params.PAGE_SIZE - 1
_WORD_SHIFT = _ALIGN_MASK.bit_length()


def _misaligned(addr: int) -> AlignmentError:
    return AlignmentError(f"address {addr:#x} not aligned to {params.WORD_SIZE}")


class MainMemory:
    """Sparse word-addressed main memory of 4-byte words.

    Pages are materialised lazily on first write; reads of untouched
    memory return zero, like freshly mapped anonymous pages.  Every
    access must be word-aligned.
    """

    def __init__(self) -> None:
        self._pages: Dict[int, List[int]] = {}
        #: page indices shared (copy-on-write) with a machine snapshot
        #: or fork; a writer must replace the page before mutating it.
        self._frozen: set = set()

    def read_word(self, addr: int) -> int:
        """Read the word at ``addr``."""
        if addr & _ALIGN_MASK:
            raise _misaligned(addr)
        page = self._pages.get(addr >> params.PAGE_BITS)
        if page is None:
            return 0
        return page[(addr & _OFFSET_MASK) >> _WORD_SHIFT]

    def write_word(self, addr: int, value: int) -> None:
        """Write ``value`` modulo 2**32 to the word at ``addr``."""
        if addr & _ALIGN_MASK:
            raise _misaligned(addr)
        idx = addr >> params.PAGE_BITS
        page = self._pages.get(idx)
        if page is None:
            page = self._pages[idx] = [0] * _WORDS_PER_PAGE
        elif self._frozen and idx in self._frozen:
            # Copy-on-write: this page is shared with a snapshot.
            page = self._pages[idx] = page[:]
            self._frozen.discard(idx)
        page[(addr & _OFFSET_MASK) >> _WORD_SHIFT] = value & WORD_MASK

    def write_words(self, addrs, values) -> None:
        """``write_word(addr, value)`` for each pair, in order.

        Same checks and copy-on-write as :meth:`write_word`, with the
        page lookup hoisted across consecutive words on one page (array
        initialisation writes thousands of words per page).
        """
        pages = self._pages
        frozen = self._frozen
        page_bits = params.PAGE_BITS
        page_idx = None
        page = None
        for addr, value in zip(addrs, values):
            if addr & _ALIGN_MASK:
                raise _misaligned(addr)
            idx = addr >> page_bits
            if idx != page_idx:
                page = pages.get(idx)
                if page is None:
                    page = pages[idx] = [0] * _WORDS_PER_PAGE
                elif frozen and idx in frozen:
                    # Copy-on-write: this page is shared with a snapshot.
                    page = pages[idx] = page[:]
                    frozen.discard(idx)
                page_idx = idx
            page[(addr & _OFFSET_MASK) >> _WORD_SHIFT] = value & WORD_MASK

    # -- snapshot / fork support (copy-on-write) -----------------------------------

    def share_pages(self) -> Dict[int, List[int]]:
        """Freeze the current pages for sharing with a snapshot.

        Marks every live page copy-on-write in *this* memory and
        returns a shallow copy of the page table.  The caller hands the
        returned dict to :meth:`adopt_pages` on another (or the same)
        memory; neither side ever mutates a shared page in place, so
        the snapshot stays word-exact no matter who writes afterwards.
        """
        self._frozen.update(self._pages)
        return dict(self._pages)

    def adopt_pages(self, pages: Dict[int, List[int]]) -> None:
        """Install a page table from :meth:`share_pages` (all CoW)."""
        self._pages = dict(pages)
        self._frozen = set(pages)


class Allocator:
    """Page-aligned bump allocator over a :class:`MainMemory`.

    The base address defaults to ``0x10000`` so that address 0 (the
    ``data = 0`` sentinel CTLoad returns on a miss) never aliases a
    real allocation.
    """

    def __init__(self, memory: MainMemory, base: int = 0x10000) -> None:
        if base % params.PAGE_SIZE:
            raise AllocationError(f"allocator base {base:#x} not page aligned")
        self.memory = memory
        self._next = base

    def alloc(self, size: int, name: str = "") -> int:
        """Reserve ``size`` bytes; returns the page-aligned base address."""
        if size <= 0:
            raise AllocationError(f"allocation of {size} bytes ({name!r})")
        base = self._next
        pages = -(-size // params.PAGE_SIZE)
        self._next += pages * params.PAGE_SIZE
        return base

    def alloc_words(self, count: int, name: str = "") -> int:
        """Reserve an array of ``count`` 4-byte words."""
        return self.alloc(count * params.WORD_SIZE, name)
