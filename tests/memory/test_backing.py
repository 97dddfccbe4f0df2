"""Backing memory and allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.errors import AlignmentError, AllocationError, MemoryError_
from repro.memory.backing import Allocator, MainMemory


class TestRawBytes:
    def test_untouched_reads_zero(self):
        mem = MainMemory()
        assert mem.read(0x5000, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self):
        mem = MainMemory()
        mem.write(0x1234, b"hello world")
        assert mem.read(0x1234, 11) == b"hello world"

    def test_write_crossing_page_boundary(self):
        mem = MainMemory()
        data = bytes(range(100))
        mem.write(params.PAGE_SIZE - 50, data)
        assert mem.read(params.PAGE_SIZE - 50, 100) == data

    def test_read_crossing_untouched_page(self):
        mem = MainMemory()
        mem.write(params.PAGE_SIZE - 2, b"ab")
        got = mem.read(params.PAGE_SIZE - 4, 8)
        assert got == b"\x00\x00ab\x00\x00\x00\x00"

    def test_negative_read_rejected(self):
        with pytest.raises(MemoryError_):
            MainMemory().read(0, -1)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 16),
                st.binary(min_size=1, max_size=64),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_matches_flat_reference(self, writes):
        mem = MainMemory()
        reference = bytearray(1 << 17)
        for addr, data in writes:
            mem.write(addr, data)
            reference[addr : addr + len(data)] = data
        for addr, data in writes:
            assert mem.read(addr, len(data)) == bytes(
                reference[addr : addr + len(data)]
            )


class TestWords:
    def test_word_roundtrip(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0xDEADBEEF)
        assert mem.read_word(0x1000) == 0xDEADBEEF

    def test_word_wraps_modulo_size(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0x1_0000_0001)
        assert mem.read_word(0x1000) == 1

    def test_word_is_little_endian(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0x01020304)
        assert mem.read(0x1000, 4) == b"\x04\x03\x02\x01"

    def test_misaligned_word_rejected(self):
        mem = MainMemory()
        with pytest.raises(AlignmentError):
            mem.read_word(0x1002)
        with pytest.raises(AlignmentError):
            mem.write_word(0x1001, 5)

    def test_8_byte_words(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0xAABBCCDD11223344, size=8)
        assert mem.read_word(0x1000, size=8) == 0xAABBCCDD11223344


class TestWriteWords:
    """``write_words`` == a ``write_word`` loop, including copy-on-write."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3 * params.PAGE_SIZE // 8 - 1),
                st.integers(0, (1 << 70) - 1),
            ),
            max_size=60,
        ),
        st.sampled_from([1, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_write_word_loop(self, writes, size):
        addrs = [0x10000 + size * slot for slot, _ in writes]
        values = [value for _, value in writes]
        bulk, scalar = MainMemory(), MainMemory()
        for mem in (bulk, scalar):
            mem.write(0x10000 + params.PAGE_SIZE, b"\xff" * 64)
        shared = bulk.share_pages()
        bulk.write_words(addrs, values, size)
        for addr, value in zip(addrs, values):
            scalar.write_word(addr, value, size)
        span = 3 * params.PAGE_SIZE
        assert bulk.read(0x10000, span) == scalar.read(0x10000, span)
        # the snapshot's pages were copied before the first write
        assert bytes(shared[(0x10000 >> params.PAGE_BITS) + 1][:64]) == (
            b"\xff" * 64
        )

    def test_misaligned_word_rejected_after_earlier_writes(self):
        mem = MainMemory()
        with pytest.raises(AlignmentError):
            mem.write_words([0x1000, 0x1006], [7, 8])
        assert mem.read_word(0x1000) == 7

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(AlignmentError):
            MainMemory().write_words([0x1000], [1], size=3)


class TestLines:
    def test_line_roundtrip(self):
        mem = MainMemory()
        data = bytes(range(64))
        mem.write_line(0x1000, data)
        assert mem.read_line(0x1000) == data

    def test_line_rejects_misaligned(self):
        with pytest.raises(AlignmentError):
            MainMemory().read_line(0x1010)

    def test_line_rejects_wrong_size(self):
        with pytest.raises(MemoryError_):
            MainMemory().write_line(0x1000, b"short")

    def test_touched_pages(self):
        mem = MainMemory()
        mem.write(0x1000, b"x")
        mem.write(0x5000, b"y")
        assert sorted(mem.touched_pages()) == [1, 5]


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
