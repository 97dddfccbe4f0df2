"""Differential proof: bulk-access kernels == scalar loops, observably.

The batched kernels (:meth:`Machine.load_words` / ``store_words`` /
``rmw_words`` and the DS sweep wrappers) promise *observational
identity* with the scalar ``execute`` + ``load_word`` / ``store_word``
loops they replace: same counters, same event traces (when anyone
listens), same final cache state, same per-set access profiles, same
memory image, same returned values.  These properties drive both paths
on twin machines over Hypothesis-generated configurations — replacement
policies, set geometries, silent-store machines, next-line prefetchers,
inclusive LLCs small enough to back-invalidate, secret-dependent flags,
listener presence (plus PLcache and sliced-LLC machines for
``rmw_words(values=...)``) — and diff everything an attacker (or a
figure) could read.

Configurations draw both the default integer-valued CPI, under which
the kernels charge each all-hit run's cycles in one exact integer sum,
and a fractional CPI, under which they must fall back to the scalar
path's per-element float-addition order to stay bit-identical.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.observer import ObservableTraceRecorder
from repro.cache.replacement import LRUPolicy
from repro.core.costs import CostModel
from repro.core.machine import Machine, MachineConfig

ARENA_LINES = 512  # 32 KiB arena: larger than a 4 KiB L1d, smaller than L2

#: (l1d_size, l1d_assoc) choices — from direct-mapped-ish tiny up to Table 1.
GEOMETRIES = [(4096, 4), (8192, 8), (16384, 2), (65536, 8)]

POLICIES = ["lru", "fifo", "random", "plru"]

#: CPI choices: the integral default and a fractional one whose float
#: sums depend on addition order.
CPIS = [1.0, 0.7]

#: an inclusive LLC (with an L2 to match) smaller than the 32 KiB arena,
#: so LLC evictions back-invalidate lines the L1d and L2 still hold
INCLUSIVE_LLC = dict(
    inclusive_llc=True, l2_size=8192, l2_assoc=4, llc_size=16384, llc_assoc=4
)

configs = st.builds(
    lambda geom, policy, silent, seed, cpi, prefetcher, inclusive: MachineConfig(
        l1d_size=geom[0],
        l1d_assoc=geom[1],
        replacement=policy,
        silent_stores=silent,
        replacement_seed=seed,
        costs=CostModel(cpi=cpi),
        prefetcher=prefetcher,
        **(INCLUSIVE_LLC if inclusive else {}),
    ),
    geom=st.sampled_from(GEOMETRIES),
    policy=st.sampled_from(POLICIES),
    silent=st.booleans(),
    seed=st.integers(min_value=0, max_value=3),
    cpi=st.sampled_from(CPIS),
    prefetcher=st.booleans(),
    inclusive=st.booleans(),
)

addr_seqs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ARENA_LINES - 1),
        st.integers(min_value=0, max_value=15),
    ),
    min_size=1,
    max_size=120,
)


def _twins(config, listeners):
    """Two identical machines (+ recorders), arena base, listener flag."""
    machines, recorders = [], []
    base = None
    for _ in range(2):
        m = Machine(config)
        base = m.allocator.alloc(ARENA_LINES * 64, "arena")
        rng = random.Random(99)
        for i in range(ARENA_LINES):
            m.memory.write_word(base + 64 * i, rng.randrange(1 << 32))
        if listeners:
            m.ctops.ctload(base)  # allocate a BIA entry: events now flow
            rec = ObservableTraceRecorder()
            for lvl in ("L1D", "L2", "LLC"):
                rec.attach(m.hierarchy.level(lvl))
        else:
            rec = None
        machines.append(m)
        recorders.append(rec)
    return machines, recorders, base


def _assert_observably_equal(ma, mb, ra, rb, base, where=""):
    assert ma.snapshot() == mb.snapshot(), where
    for lvl in ("L1D", "L2", "LLC"):
        sa = ma.hierarchy.level(lvl).stats
        sb = mb.hierarchy.level(lvl).stats
        assert (sa.hits, sa.misses, sa.fills, sa.evictions,
                sa.dirty_evictions) == (
            sb.hits, sb.misses, sb.fills, sb.evictions, sb.dirty_evictions
        ), (where, lvl)
        assert dict(sa.set_accesses) == dict(sb.set_accesses), (where, lvl)
        # Resident lines and LRU recency order, with or without a
        # listener: the kernels update replacement state themselves.
        assert ma.hierarchy.level(lvl).occupied_sets() == (
            mb.hierarchy.level(lvl).occupied_sets()
        ), (where, lvl)
    if ra is not None:
        assert ra.events == rb.events, where
        assert ra.final_state_digest() == rb.final_state_digest(), where
    for i in range(ARENA_LINES):
        a = base + 64 * i
        assert ma.memory.read_word(a) == mb.memory.read_word(a), (where, i)


def _assert_same_lru_stamps(ma, mb, where=""):
    """Every materialised LRU set's exact ``_stamp`` and ``_last_use``.

    Stricter than the recency order :func:`_assert_observably_equal`
    compares: a kernel that applied the touches in the right order but
    with the wrong arithmetic would still agree on the order.
    """
    for lvl in ("L1D", "L2", "LLC"):
        ca, cb = ma.hierarchy.level(lvl), mb.hierarchy.level(lvl)
        assert sorted(ca._live) == sorted(cb._live), (where, lvl)
        for set_idx in ca._live:
            pa = ca._sets[set_idx].policy
            pb = cb._sets[set_idx].policy
            if isinstance(pa, LRUPolicy):
                assert (pa._stamp, pa._last_use) == (
                    pb._stamp, pb._last_use
                ), (where, lvl, set_idx)


class TestLoadWords:
    @given(config=configs, seq=addr_seqs, pre=st.integers(0, 4),
           secret=st.booleans(), listeners=st.booleans(),
           collect=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar(self, config, seq, pre, secret, listeners,
                            collect):
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        got = ma.load_words(
            addrs, pre_insts=pre, secret_dependent=secret,
            collect_values=collect,
        )
        want = []
        for a in addrs:
            if pre:
                mb.execute(pre)
            want.append(mb.load_word(a, secret_dependent=secret))
        if collect:
            assert got == want
        else:
            assert got is None
        _assert_observably_equal(ma, mb, ra, rb, base, "load_words")


class TestStoreWords:
    @given(config=configs, seq=addr_seqs, pre=st.integers(0, 4),
           secret=st.booleans(), listeners=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar(self, config, seq, pre, secret, listeners):
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        rng = random.Random(5)
        values = [rng.randrange(1 << 32) for _ in addrs]
        # Some silent-store candidates: rewrite the current contents.
        for i in range(0, len(addrs), 3):
            values[i] = ma.memory.read_word(addrs[i])
        ma.store_words(addrs, values, pre_insts=pre, secret_dependent=secret)
        for a, v in zip(addrs, values):
            if pre:
                mb.execute(pre)
            mb.store_word(a, v, secret_dependent=secret)
        _assert_observably_equal(ma, mb, ra, rb, base, "store_words")


class TestRmwWords:
    @given(config=configs, seq=addr_seqs, pre=st.integers(0, 4),
           secret=st.booleans(), listeners=st.booleans(),
           collect=st.booleans(), target_frac=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar(self, config, seq, pre, secret, listeners,
                            collect, target_frac):
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        target = int(target_frac * (len(addrs) - 1))
        fn = lambda v: (v * 3 + 1) & 0xFFFFFFFF  # noqa: E731
        got = ma.rmw_words(
            addrs, target_idx=target, target_fn=fn, pre_insts=pre,
            secret_dependent=secret, collect_values=collect,
        )
        want = []
        for i, a in enumerate(addrs):
            if pre:
                mb.execute(pre)
            v = mb.load_word(a, secret_dependent=secret)
            want.append(v)
            mb.store_word(a, fn(v) if i == target else v,
                          secret_dependent=secret)
        if collect:
            assert got == want
        else:
            assert got[target] == want[target]
            assert all(v is None for i, v in enumerate(got) if i != target)
        _assert_observably_equal(ma, mb, ra, rb, base, "rmw_words")

    @given(config=configs, plcache=st.booleans(),
           slices=st.sampled_from([1, 4]), seq=addr_seqs,
           repeats=st.lists(st.integers(0, 119), max_size=20),
           pre=st.integers(0, 4), secret=st.booleans(),
           listeners=st.booleans(), collect=st.booleans(),
           same=st.lists(st.booleans(), min_size=140, max_size=140))
    @settings(max_examples=40, deadline=None)
    def test_per_element_values_match_scalar(self, config, plcache, slices,
                                             seq, repeats, pre, secret,
                                             listeners, collect, same):
        config = replace(config, plcache=plcache, llc_slices=slices)
        (ma, mb), (ra, rb), base = _twins(config, listeners)
        addrs = [base + 64 * line + 4 * word for line, word in seq]
        # Re-visit earlier addresses within the batch.
        for k in repeats:
            addrs.insert(k % (len(addrs) + 1), addrs[k % len(addrs)])
        # New values: fresh words, or the word the element will read
        # (squashed under silent stores).
        rng = random.Random(len(addrs))
        image = {}
        values = []
        for i, a in enumerate(addrs):
            current = image.get(a, ma.memory.read_word(a))
            v = current if same[i] else rng.randrange(1 << 32)
            image[a] = v
            values.append(v)
        got = ma.rmw_words(
            addrs, values=values, pre_insts=pre, secret_dependent=secret,
            collect_values=collect,
        )
        want = []
        for a, v in zip(addrs, values):
            if pre:
                mb.execute(pre)
            want.append(mb.load_word(a, secret_dependent=secret))
            mb.store_word(a, v, secret_dependent=secret)
        if collect:
            assert got == want
        else:
            assert got == [None] * len(addrs)
        assert ma.slice_trace == mb.slice_trace
        _assert_observably_equal(ma, mb, ra, rb, base, "rmw_words values")


#: departure-causing steps taken between re-sweeps of a DS
DEPARTURES = ["evict_l1d", "evict_l2", "flush", "conflict", "restore"]
#: ... plus attaching a trace recorder to the L1d, a stats reset, and a
#: write-back that cleans a DS line in the L1d
STEPS = DEPARTURES + ["listen", "reset", "clean"]
#: size of the re-swept DS: it fits the L1d of every geometry drawn
RESWEEP_DS_LINES = 48


def _sweep_twins(config, listeners, ds_lines):
    """Twins, a software-CT context on the first, and a DS on the arena.

    The DS holds the arena lines at the indices ``ds_lines``; the
    second twin is the scalar reference :func:`_sweep_both` drives.
    """
    from repro.ct.ds import DataflowLinearizationSet
    from repro.ct.linearize import SoftwareCTContext

    (ma, mb), (ra, rb), base = _twins(config, listeners)
    ctx = SoftwareCTContext(ma, simd=True)
    ds = DataflowLinearizationSet([base + 64 * i for i in ds_lines], "arena")
    return ma, mb, ra, rb, base, ctx, ds


def _sweep_both(ctx, mb, ds, kind, addr, new_value=1234):
    """One software-CT ``kind`` op on ``ctx`` and its scalar reference.

    A ``"store"`` writes ``new_value``; an ``"rmw"`` adds 7.
    """
    costs = mb.costs
    elem = costs.ct_simd_elem_insts
    store_elem = elem + costs.ct_store_elem_extra_insts
    fn = lambda v: (v + 7) & 0xFFFFFFFF  # noqa: E731
    if kind == "load":
        got = ctx.load(ds, addr)
    elif kind == "store":
        ctx.store(ds, addr, new_value)
    else:
        got = ctx.rmw(ds, addr, fn)
    # scalar reference: visit + per-line (execute; load[; store])
    mb.execute(costs.ct_visit_insts)
    off = addr % 64
    want = None
    for ln in ds.lines:
        a = ln + off
        mb.execute(elem if kind == "load" else store_elem)
        v = mb.load_word(a)
        if a == addr:
            want = v
        if kind != "load":
            if a != addr:
                new = v
            elif kind == "rmw":
                new = fn(v)
            else:
                new = new_value
            mb.store_word(a, new)
    if kind != "store":
        assert got == want


def _check_resweeps(config, steps, listeners, ds_lines=RESWEEP_DS_LINES):
    """Software-CT sweeps of one DS vs the scalar reference.

    A cache level replays a DS re-sweep's sets whose lines cannot have
    left since they all hit in the DS's previous sweep there.  Each
    step is ``(departure, sweep kind, line index)``: before the sweep
    both twins take the same step, if any — an attacker eviction of a
    DS line at L1D or L2, an attacker flush, conflicting loads from
    outside the DS that fill a DS line's L1d set, a save/restore round
    trip, attaching a trace recorder to the L1d only (whose events are
    compared too), a stats reset, or cleaning the line in the L1d.
    Returns the twins.
    """
    ma, mb, ra, rb, base, ctx, ds = _sweep_twins(
        config, listeners, range(ds_lines)
    )
    # Lines outside the DS: ``outside + off`` maps to the same L1d set
    # as ``base + off`` (a multiple of every L1d way size drawn away),
    # and ``assoc`` of them a way apart fill a set.
    way_bytes = config.l1d_size // config.l1d_assoc
    outside = [m.allocator.alloc(config.l1d_size, "outside")
               for m in (ma, mb)][0]
    late = ([], [])  # recorders attached by "listen" steps, per twin

    # Two leading loads fill the DS and record its all-hit sweep, so the
    # first drawn sweep may already replay.
    for departure, kind, line_idx in [(None, "load", 0)] * 2 + steps:
        addr = base + 64 * line_idx + 4 * (line_idx % 16)
        for m, recs in zip((ma, mb), late) if departure else ():
            if departure == "evict_l1d":
                m.attacker_evict("L1D", addr)
            elif departure == "evict_l2":
                m.attacker_evict("L2", addr)
            elif departure == "flush":
                m.attacker_flush(addr)
            elif departure == "conflict":
                for way in range(config.l1d_assoc):
                    m.load_word(outside + (64 * line_idx) % way_bytes
                                + way * way_bytes)
            elif departure == "listen":
                recs.append(ObservableTraceRecorder())
                recs[-1].attach(m.l1d)
            elif departure == "reset":
                m.reset_stats()
            elif departure == "clean":
                m.l1d.clean(addr - addr % 64)
            else:
                m.restore_state(m.save_state())
        _sweep_both(ctx, mb, ds, kind, addr, 1234 + line_idx)
    _assert_observably_equal(ma, mb, ra, rb, base, "re-sweep")
    _assert_same_lru_stamps(ma, mb, "re-sweep")
    for rec_a, rec_b in zip(*late):
        assert rec_a.events == rec_b.events
    return ma, mb


def _assert_same_profile_order(ma, mb):
    """Per-set profiles gained their keys in the same (sweep) order."""
    for lvl in ("L1D", "L2", "LLC"):
        assert list(ma.hierarchy.level(lvl).stats.set_accesses) == list(
            mb.hierarchy.level(lvl).stats.set_accesses
        ), lvl


class TestCTSweepOps:
    """The software-CT context's batched sweeps vs its scalar contract."""

    @given(config=configs, ops=st.lists(
        st.tuples(st.sampled_from(["load", "store", "rmw", "gather"]),
                  st.integers(0, ARENA_LINES - 1)),
        min_size=1, max_size=12,
    ), listeners=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_context_ops_match_scalar_reference(self, config, ops,
                                                listeners):
        from repro.ct.linearize import SoftwareCTContext
        from repro.memory import address as addr_math

        (ma, mb), (ra, rb), base = _twins(config, listeners)
        ctx = SoftwareCTContext(ma, simd=True)
        ds = ctx.register_ds(base, ARENA_LINES * 64, "arena")
        ds_b = None  # scalar reference needs only the line list
        lines = list(ds.lines)
        costs = mb.costs
        elem = costs.ct_simd_elem_insts
        store_elem = elem + costs.ct_store_elem_extra_insts

        for kind, line_idx in ops:
            addr = base + 64 * line_idx + 4 * (line_idx % 16)
            if kind == "load":
                got = ctx.load(ds, addr)
                # scalar reference: visit + per-line (execute; load)
                mb.execute(costs.ct_visit_insts)
                off = addr_math.line_offset(addr)
                want = None
                for ln in lines:
                    mb.execute(elem)
                    v = mb.load_word(ln + off)
                    if ln == addr_math.line_base(addr):
                        want = v
                assert got == want
            elif kind in ("store", "rmw"):
                fn = (lambda v: (v + 7) & 0xFFFFFFFF)
                if kind == "store":
                    ctx.store(ds, addr, 1234 + line_idx)
                else:
                    got = ctx.rmw(ds, addr, fn)
                mb.execute(costs.ct_visit_insts)
                off = addr_math.line_offset(addr)
                tgt = addr_math.line_base(addr)
                for ln in lines:
                    mb.execute(store_elem)
                    v = mb.load_word(ln + off)
                    if ln == tgt:
                        if kind == "rmw":
                            assert got == v
                            new = fn(v)
                        else:
                            new = 1234 + line_idx
                    else:
                        new = v
                    mb.store_word(ln + off, new)
            else:  # gather
                width = 1 + line_idx % 7
                rng = random.Random(line_idx)
                batch = [
                    base + 64 * rng.randrange(ARENA_LINES) for _ in range(width)
                ]
                got = ctx.gather(ds, batch)
                # scalar reference: visit + one full sweep + selects +
                # charged repeats (identical to the context's contract)
                mb.execute(costs.ct_visit_insts)
                for ln in lines:
                    mb.execute(elem)
                    mb.load_word(ln)
                mb.execute(costs.gather_elem_insts * len(batch))
                want = [mb.memory.read_word(a) for a in batch]
                wanted_lines = {addr_math.line_base(a) for a in batch}
                repeats = max(len(wanted_lines) - 1, 0)
                if repeats:
                    mb.execute(repeats * costs.ct_visit_insts)
                    mb.charge_memory(
                        repeats * len(lines), costs.ct_gather_repeat_latency
                    )
                assert got == want
        _assert_observably_equal(ma, mb, ra, rb, base, "ct-sweep")

    @given(config=configs, plcache=st.booleans(), steps=st.lists(
        st.tuples(st.one_of(st.none(), st.sampled_from(DEPARTURES)),
                  st.sampled_from(["load", "store", "rmw"]),
                  st.integers(0, RESWEEP_DS_LINES - 1)),
        min_size=1, max_size=16,
    ), listeners=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_resweeps_across_departures_match_scalar_reference(
        self, config, plcache, steps, listeners
    ):
        """Re-sweeps of a resident DS, with lines leaving in between.

        The replay runs on LRU levels only (CT sweeps always update
        replacement), so every machine is LRU; the L1d may be a PLcache.
        """
        config = replace(config, replacement="lru", plcache=plcache)
        _check_resweeps(config, steps, listeners)

    @given(config=configs, geom=st.sampled_from(GEOMETRIES[:3]),
           plcache=st.booleans(), steps=st.lists(
        st.tuples(st.one_of(st.none(), st.sampled_from(STEPS)),
                  st.sampled_from(["load", "store", "rmw"]),
                  st.integers(0, ARENA_LINES - 1)),
        min_size=1, max_size=12,
    ), listeners=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_partially_resident_resweeps_match_scalar_reference(
        self, config, geom, plcache, steps, listeners
    ):
        """Re-sweeps of a DS that overflows half the L1d sets.

        Every set holds ``assoc`` DS lines and half of them one more, so
        each sweep misses in the overflowing sets while the others may
        replay — the Fig. 7a crossover regime.  (The Table-1 geometry
        is left out: its overflowing DS would not fit the arena.)
        """
        size, assoc = geom
        config = replace(config, l1d_size=size, l1d_assoc=assoc,
                         replacement="lru", plcache=plcache)
        ds_lines = size // 64 + size // (64 * assoc) // 2
        steps = [(dep, kind, i % ds_lines) for dep, kind, i in steps]
        _assert_same_profile_order(
            *_check_resweeps(config, steps, listeners, ds_lines)
        )

    @pytest.mark.parametrize("plcache", [False, True])
    @pytest.mark.parametrize("departure", DEPARTURES)
    def test_each_departure_is_seen_by_the_next_sweep(self, departure,
                                                      plcache):
        """Pinned: replayed sweeps, one departure, then more sweeps."""
        config = MachineConfig(l1d_size=4096, l1d_assoc=4, plcache=plcache)
        steps = [(None, "load", 3), (departure, "rmw", 3),
                 (None, "store", 5), (None, "load", 7)]
        _check_resweeps(config, steps, listeners=False)

    @pytest.mark.parametrize("step", ["restore", "listen", "reset", "clean"])
    def test_step_between_partially_resident_sweeps(self, step):
        """Pinned: a 4 KiB 4-way L1d with half its sets overflowing.

        A save/restore round trip swaps in new set and line objects, an
        attached recorder must see every event, a stats reset empties
        the per-set profiles, and a clean line must be dirtied again:
        the sweeps after each step must not replay from the records
        taken before it as they were.  Sets 0-7 hold five DS lines each
        and miss on every sweep; the step acts on line 10, in set 10,
        which holds four and replays.
        """
        config = MachineConfig(l1d_size=4096, l1d_assoc=4)
        steps = [(None, "load", 10), (None, "rmw", 10), (step, "rmw", 10),
                 (None, "store", 5), (None, "load", 7)]
        _assert_same_profile_order(
            *_check_resweeps(config, steps, listeners=False, ds_lines=72)
        )

    def test_mid_sweep_prefetch_is_not_replayed_over(self):
        """Pinned: a prefetch fill mid-sweep evicts from a resident set.

        4 KiB 4-way L1d (16 sets).  The DS is arena lines 0-63 without
        21, plus 69, so set 5 holds DS lines 5, 37, 53 and 69.  Line 20
        (set 4) is flushed before the fifth sweep: its miss reaches DRAM
        and prefetches line 21 into set 5, evicting whichever DS line is
        least recently used at that point of the sweep.  Applying set
        5's touches before the loop would pick another victim.  (Later
        LRU cascades can hide the difference, so every sweep is
        checked.)
        """
        config = MachineConfig(l1d_size=4096, l1d_assoc=4, prefetcher=True)
        ds_lines = [i for i in range(64) if i != 21] + [69]
        ma, mb, ra, rb, base, ctx, ds = _sweep_twins(config, False, ds_lines)
        # Cold-sweep prefetches disturb sets 5 and 6 until the third
        # sweep, which hits throughout there.
        for step in ("load", "load", "load", "load", "flush", "load", "rmw"):
            for m in (ma, mb):
                if step == "flush":
                    m.attacker_flush(base + 64 * 20)
            if step in ("load", "rmw"):
                _sweep_both(ctx, mb, ds, step, base + 64 * 37)
                _assert_observably_equal(ma, mb, ra, rb, base, "prefetch")
                _assert_same_lru_stamps(ma, mb, "prefetch")

    def test_mid_sweep_back_invalidation_is_not_replayed_over(self):
        """Pinned: an inclusive-LLC eviction mid-sweep empties a set.

        The LLC is one 4-way set, so an LLC line leaves in fill order
        however often the L1d hits it.  The DS is arena lines 0-2, one
        per L1d set.  Line 0 is flushed and two outside lines fill the
        LLC behind lines 1 and 2, so the next sweep's miss on line 0
        evicts line 1 from the LLC and back-invalidates it from the
        L1d before the sweep reaches it: line 1 must miss.
        """
        config = MachineConfig(
            l1d_size=4096, l1d_assoc=4, l2_size=1024, l2_assoc=4,
            llc_size=256, llc_assoc=4, inclusive_llc=True,
        )
        ma, mb, ra, rb, base, ctx, ds = _sweep_twins(config, False, range(3))
        for step in ("load", "load", "flush", "outside", "load", "rmw"):
            for m in (ma, mb):
                if step == "flush":
                    m.attacker_flush(base)
                elif step == "outside":
                    m.load_word(base + 64 * 3)
                    m.load_word(base + 64 * 4)
            if step in ("load", "rmw"):
                _sweep_both(ctx, mb, ds, step, base + 64)
                _assert_observably_equal(ma, mb, ra, rb, base, "back-inval")
                _assert_same_lru_stamps(ma, mb, "back-inval")


class TestSweepWrappers:
    def test_sweep_load_lines_uses_ds_decomposition(self):
        from repro.ct.ds import DataflowLinearizationSet

        m = Machine(MachineConfig())
        base = m.allocator.alloc(8 * 1024, "b")
        ds = DataflowLinearizationSet.from_range(base, 8 * 1024, name="b")
        ref = Machine(MachineConfig())
        ref.allocator.alloc(8 * 1024, "b")
        vals = m.sweep_load_lines(ds, offset=8)
        for line in ds.lines:
            ref.load_word(line + 8)
        assert m.snapshot() == ref.snapshot()
        assert vals == [m.memory.read_word(line + 8) for line in ds.lines]

    def test_sweep_store_lines_applies_target_only(self):
        from repro.ct.ds import DataflowLinearizationSet

        m = Machine(MachineConfig())
        base = m.allocator.alloc(4 * 1024, "b")
        for i in range(64):
            m.memory.write_word(base + 64 * i, i)
        ds = DataflowLinearizationSet.from_range(base, 4 * 1024, name="b")
        old = m.sweep_store_lines(ds, target_idx=5, target_fn=lambda v: 777)
        assert old[5] == 5
        for i in range(64):
            expect = 777 if i == 5 else i
            assert m.memory.read_word(base + 64 * i) == expect

    def test_offset_must_stay_intra_line(self):
        # documented contract: offset < line size keeps words on DS lines
        from repro.ct.ds import DataflowLinearizationSet

        m = Machine(MachineConfig())
        base = m.allocator.alloc(1024, "b")
        ds = DataflowLinearizationSet.from_range(base, 1024, name="b")
        vals = m.sweep_load_lines(ds, offset=60)
        assert len(vals) == len(ds.lines)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kernel", ["load", "store", "rmw"])
def test_same_set_rehits_keep_replacement_order(kernel, policy):
    """Re-hits within one set, no listener: the recency order must match.

    Random address sequences rarely revisit lines of one set, so this
    pins the kernels' replacement updates (the inlined LRU touch) on a
    sequence that does, then forces evictions that depend on them.
    """
    config = MachineConfig(l1d_size=4096, l1d_assoc=4, replacement=policy)
    (ma, mb), (ra, rb), base = _twins(config, listeners=False)
    stride = 4096 // 4  # one L1d way: same set, next line address
    order = [0, 1, 2, 3, 0, 4, 2, 3, 5, 1, 2, 2, 6, 0]
    addrs = [base + stride * k for k in order]
    if kernel == "load":
        ma.load_words(addrs)
        for a in addrs:
            mb.load_word(a)
    elif kernel == "store":
        ma.store_words(addrs, list(range(len(addrs))))
        for i, a in enumerate(addrs):
            mb.store_word(a, i)
    else:
        ma.rmw_words(addrs, target_idx=2, target_fn=lambda v: v ^ 1)
        for i, a in enumerate(addrs):
            v = mb.load_word(a)
            mb.store_word(a, v ^ 1 if i == 2 else v)
    _assert_observably_equal(ma, mb, ra, rb, base, kernel)


@pytest.mark.parametrize("kernel", ["load", "store", "rmw"])
def test_cycles_near_float_precision_limit_match_scalar(kernel):
    """At 2**53 cycles float sums round, so the run sum must not be used."""
    config = MachineConfig()
    ma, mb = Machine(config), Machine(config)
    base = None
    for m in (ma, mb):
        base = m.allocator.alloc(64 * 64, "b")
        for i in range(64):
            m.load_word(base + 64 * i)  # warm: every access below hits
        m.stats.cycles = float(2**53 - 4)
    addrs = [base + 64 * i for i in range(64)]
    if kernel == "load":
        ma.load_words(addrs, pre_insts=1)
    elif kernel == "store":
        ma.store_words(addrs, list(range(64)), pre_insts=1)
    else:
        ma.rmw_words(addrs, target_idx=3, target_fn=lambda v: v + 1,
                     pre_insts=1)
    for i, a in enumerate(addrs):
        mb.execute(1)
        if kernel == "load":
            mb.load_word(a)
        elif kernel == "store":
            mb.store_word(a, i)
        else:
            v = mb.load_word(a)
            mb.store_word(a, v + 1 if i == 3 else v)
    assert ma.stats.cycles == mb.stats.cycles
    assert ma.snapshot() == mb.snapshot()


@pytest.mark.parametrize("scheme", ["plain", "plcache"])
def test_rmw_words_miss_resume_across_fill_refusal(scheme):
    """The kernel's miss-resume path stays exact when fills are refused."""
    config = MachineConfig(plcache=(scheme == "plcache"))
    ma, mb = Machine(config), Machine(config)
    base = None
    for m in (ma, mb):
        base = m.allocator.alloc(16 * 1024, "b")
    if scheme == "plcache":
        # lock whole sets so some DS fills are refused
        for m in (ma, mb):
            for i in range(64):
                m.load_word(base + 64 * i)
                m.l1d.lock(base + 64 * i)
    addrs = [base + 64 * (i % 256) for i in range(300)]
    got = ma.rmw_words(addrs, target_idx=7, target_fn=lambda v: v + 1)
    want = []
    for i, a in enumerate(addrs):
        v = mb.load_word(a)
        want.append(v)
        mb.store_word(a, v + 1 if i == 7 else v)
    assert got == want
    assert ma.snapshot() == mb.snapshot()
