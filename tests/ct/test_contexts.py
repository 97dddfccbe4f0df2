"""Functional correctness of the mitigation contexts (Sec. 5.2).

Every context must behave exactly like plain memory operations: a
secure load returns the stored value, a secure store commits exactly
the intended word and nothing else — regardless of cache state, and
(for the BIA algorithms) regardless of attacker interference between
micro-ops (the Fig. 6 races, driven here at the algorithm level and
property-based with random interference).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.ct.linearize import SoftwareCTContext
from repro.errors import ProtocolError

N_WORDS = 300  # spans 2 pages


def make_ctx(kind):
    if kind == "insecure":
        return InsecureContext(Machine(MachineConfig()))
    if kind == "ct":
        return SoftwareCTContext(Machine(MachineConfig()), simd=True)
    if kind == "ct-scalar":
        return SoftwareCTContext(Machine(MachineConfig()), simd=False)
    if kind == "bia-l1d":
        return BIAContext(Machine(MachineConfig(bia_level="L1D")))
    if kind == "bia-l2":
        return BIAContext(Machine(MachineConfig(bia_level="L2")))
    raise ValueError(kind)


ALL_KINDS = ["insecure", "ct", "ct-scalar", "bia-l1d", "bia-l2"]


def setup_array(ctx, n=N_WORDS):
    base = ctx.machine.allocator.alloc_words(n, "arr")
    for i in range(n):
        ctx.machine.memory.write_word(base + 4 * i, 1000 + i)
    ds = ctx.register_ds(base, n * params.WORD_SIZE, "arr")
    return base, ds


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestLoadStore:
    def test_load_returns_stored_values(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        for i in (0, 1, 17, 255, N_WORDS - 1):
            assert ctx.load(ds, base + 4 * i) == 1000 + i

    def test_load_cold_and_warm(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        assert ctx.load(ds, base + 4 * 7) == 1007  # cold
        assert ctx.load(ds, base + 4 * 7) == 1007  # warm

    def test_store_commits_target_only(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        ctx.store(ds, base + 4 * 42, 777777)
        mem = ctx.machine.memory
        for i in range(N_WORDS):
            expected = 777777 if i == 42 else 1000 + i
            assert mem.read_word(base + 4 * i) == expected

    def test_store_then_load(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        ctx.store(ds, base + 4 * 99, 5)
        assert ctx.load(ds, base + 4 * 99) == 5

    def test_repeated_stores(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        for value in (1, 2, 3):
            ctx.store(ds, base + 4 * 10, value)
        assert ctx.load(ds, base + 4 * 10) == 3

    def test_rmw_applies_once(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        old = ctx.rmw(ds, base + 4 * 5, lambda v: v + 1)
        assert old == 1005
        assert ctx.load(ds, base + 4 * 5) == 1006
        # and the neighbouring word did not move
        assert ctx.machine.memory.read_word(base + 4 * 6) == 1006

    def test_rmw_repeated(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        for _ in range(5):
            ctx.rmw(ds, base + 4 * 0, lambda v: v + 1)
        assert ctx.load(ds, base) == 1005

    def test_gather(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        addrs = [base + 4 * i for i in (0, 3, 64, 250, 299, 3)]
        assert ctx.gather(ds, addrs) == [1000, 1003, 1064, 1250, 1299, 1003]

    def test_gather_empty(self, kind):
        ctx = make_ctx(kind)
        _, ds = setup_array(ctx)
        assert ctx.gather(ds, []) == []

    def test_out_of_ds_access_rejected(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        with pytest.raises(ProtocolError):
            ctx.load(ds, base + 4 * N_WORDS + params.LINE_SIZE)
        with pytest.raises(ProtocolError):
            ctx.store(ds, base - params.LINE_SIZE, 1)

    def test_out_of_ds_gather_rejected_before_any_access(self, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx)
        machine = ctx.machine
        ctx.load(ds, base)  # some cache state to preserve
        before = machine.snapshot()
        state = [lvl.occupied_sets() for lvl in machine.hierarchy.levels]
        # Members first: a per-address gather would access them before
        # reaching the non-member.
        addrs = [base, base + 4 * 64, base + 4 * N_WORDS + params.LINE_SIZE]
        with pytest.raises(ProtocolError):
            ctx.gather(ds, addrs)
        assert machine.snapshot() == before
        assert [lvl.occupied_sets() for lvl in machine.hierarchy.levels] == state


class TestRegistry:
    def test_register_and_fetch_ds(self):
        ctx = make_ctx("insecure")
        base = ctx.machine.allocator.alloc_words(10)
        ds = ctx.register_ds(base, 40, name="table")
        assert ctx.ds("table") is ds

    def test_unknown_ds_rejected(self):
        ctx = make_ctx("insecure")
        with pytest.raises(ProtocolError):
            ctx.ds("nope")


class TestBIAInterference:
    """Fig. 6 races at the Algorithm 2/3 level, plus a random-fuzz
    property test: no interleaving of attacker evictions/flushes may
    corrupt data or lose a store."""

    def test_store_survives_full_flush_before(self):
        ctx = make_ctx("bia-l1d")
        base, ds = setup_array(ctx)
        for i in range(N_WORDS):  # warm + dirty everything
            ctx.machine.store_word(base + 4 * i, 1000 + i)
        ctx.machine.attacker_flush(base + 4 * 8)
        ctx.store(ds, base + 4 * 8, 42)
        assert ctx.machine.memory.read_word(base + 4 * 8) == 42

    def test_load_after_partial_eviction(self):
        ctx = make_ctx("bia-l1d")
        base, ds = setup_array(ctx)
        ctx.load(ds, base)  # warms whole DS
        for i in range(0, N_WORDS, 16):
            ctx.machine.attacker_evict("L1D", base + 4 * i)
        assert ctx.load(ds, base + 4 * 16) == 1016

    def test_store_with_prefetcher_enabled(self):
        machine = Machine(MachineConfig(prefetcher=True))
        ctx = BIAContext(machine)
        base, ds = setup_array(ctx)
        ctx.store(ds, base + 4 * 30, 9)
        assert machine.memory.read_word(base + 4 * 30) == 9
        assert machine.memory.read_word(base + 4 * 31) == 1031

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["load", "store", "rmw", "gather", "evict", "flush"]
                ),
                st.integers(min_value=0, max_value=N_WORDS - 1),
                st.integers(min_value=0, max_value=1 << 20),
            ),
            max_size=30,
        ),
        kind=st.sampled_from(["bia-l1d", "bia-l2"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fuzz_against_reference(self, ops, kind):
        ctx = make_ctx(kind)
        base, ds = setup_array(ctx, n=160)
        reference = [1000 + i for i in range(160)]
        machine = ctx.machine
        for op, idx, value in ops:
            idx %= 160
            addr = base + 4 * idx
            if op == "load":
                assert ctx.load(ds, addr) == reference[idx]
            elif op == "store":
                ctx.store(ds, addr, value)
                reference[idx] = value
            elif op == "rmw":
                ctx.rmw(ds, addr, lambda v: (v * 3 + 1) & 0xFFFFFFFF)
                reference[idx] = (reference[idx] * 3 + 1) & 0xFFFFFFFF
            elif op == "gather":
                got = ctx.gather(ds, [addr, base, addr])
                assert got == [reference[idx], reference[0], reference[idx]]
            elif op == "evict":
                machine.attacker_evict("L1D", addr)
                machine.attacker_evict("L2", addr)
            elif op == "flush":
                machine.attacker_flush(addr)
        for i in range(160):
            assert machine.memory.read_word(base + 4 * i) == reference[i]
