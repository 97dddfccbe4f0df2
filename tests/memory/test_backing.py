"""Backing memory and allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.errors import AlignmentError, AllocationError
from repro.memory.backing import Allocator, MainMemory


class TestWords:
    def test_untouched_reads_zero(self):
        mem = MainMemory()
        assert mem.read_word(0x5000) == 0
        mem.write_word(0x5000, 7)
        assert mem.read_word(0x5004) == 0  # same page, untouched word

    def test_word_roundtrip(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0xDEADBEEF)
        assert mem.read_word(0x1000) == 0xDEADBEEF

    def test_word_wraps_modulo_size(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0x1_0000_0001)
        assert mem.read_word(0x1000) == 1
        mem.write_word(0x1000, -1)
        assert mem.read_word(0x1000) == 0xFFFF_FFFF

    def test_misaligned_word_rejected(self):
        mem = MainMemory()
        with pytest.raises(AlignmentError):
            mem.read_word(0x1002)
        with pytest.raises(AlignmentError):
            mem.write_word(0x1001, 5)


class TestWriteWords:
    """``write_words`` == a ``write_word`` loop == a dict word model."""

    BASE = 0x10000
    SPAN = 3 * params.PAGE_SIZE

    @given(
        st.lists(
            st.tuples(
                st.integers(0, SPAN // params.WORD_SIZE - 1),
                st.integers(-(1 << 40), (1 << 70) - 1),
            ),
            max_size=60,
        ),
        st.none() | st.integers(0, 59),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_write_word_loop(self, writes, misaligned_at):
        addrs = [self.BASE + params.WORD_SIZE * slot for slot, _ in writes]
        values = [value for _, value in writes]
        stop = len(addrs)
        if misaligned_at is not None and misaligned_at < stop:
            addrs[misaligned_at] += 2
            stop = misaligned_at
        preset = self.BASE + params.PAGE_SIZE
        bulk, scalar = MainMemory(), MainMemory()
        for mem in (bulk, scalar):
            mem.write_word(preset, 0xFFFF_FFFF)
        shared = bulk.share_pages()

        # reference: a plain dict of words; the first misaligned
        # address raises, after every earlier write has landed
        model = {preset: 0xFFFF_FFFF}
        for addr, value in zip(addrs[:stop], values[:stop]):
            model[addr] = value % (1 << 32)
            scalar.write_word(addr, value)
        if stop < len(addrs):
            with pytest.raises(AlignmentError):
                scalar.write_word(addrs[stop], values[stop])
            with pytest.raises(AlignmentError):
                bulk.write_words(addrs, values)
        else:
            bulk.write_words(addrs, values)

        snapshot = MainMemory()
        snapshot.adopt_pages(shared)
        for addr in range(self.BASE, self.BASE + self.SPAN, params.WORD_SIZE):
            want = model.get(addr, 0)
            assert bulk.read_word(addr) == want
            assert scalar.read_word(addr) == want
            # the snapshot's pages were copied before the first write
            assert snapshot.read_word(addr) == (
                0xFFFF_FFFF if addr == preset else 0
            )

    def test_misaligned_word_rejected_after_earlier_writes(self):
        mem = MainMemory()
        with pytest.raises(AlignmentError):
            mem.write_words([0x1000, 0x1006], [7, 8])
        assert mem.read_word(0x1000) == 7


class TestAllocator:
    def test_page_aligned_allocations(self):
        alloc = Allocator(MainMemory())
        a = alloc.alloc(100)
        b = alloc.alloc(1)
        assert a % params.PAGE_SIZE == 0
        assert b % params.PAGE_SIZE == 0
        assert b == a + params.PAGE_SIZE  # 100 bytes rounds up to a page

    def test_multi_page_allocation(self):
        alloc = Allocator(MainMemory())
        a = alloc.alloc(params.PAGE_SIZE + 1)
        b = alloc.alloc(1)
        assert b - a == 2 * params.PAGE_SIZE

    def test_alloc_words(self):
        alloc = Allocator(MainMemory())
        a = alloc.alloc_words(1024)  # exactly one page
        b = alloc.alloc_words(1)
        assert b - a == params.PAGE_SIZE

    def test_zero_alloc_rejected(self):
        with pytest.raises(AllocationError):
            Allocator(MainMemory()).alloc(0)

    def test_misaligned_base_rejected(self):
        with pytest.raises(AllocationError):
            Allocator(MainMemory(), base=100)

    def test_base_avoids_null(self):
        alloc = Allocator(MainMemory())
        assert alloc.alloc(8) >= 0x10000
