"""Set-associative write-back cache model (metadata-level).

One :class:`SetAssociativeCache` models one level of the hierarchy.
It tracks which lines are resident and dirty, fires events through its
:class:`~repro.cache.events.EventBus`, chooses victims through a
pluggable replacement policy, and keeps the statistics every
experiment consumes (hits, misses, per-set access counts).

Two paper-specific behaviours live here:

* ``update_replacement=False`` accesses touch the line without moving
  it in the replacement order — this is the "do not update the LRU bit
  if the access is secret-relevant" rule (Sec. 3.2) that makes hits by
  CTLoad/CTStore invisible to replacement side channels.
* ``observable`` controls whether an access is counted in the per-set
  access histogram used by the Figure 10 security test.  CT micro-op
  probes are tag lookups that change no state and are therefore not
  part of the access-driven attacker's view; real loads/stores are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import params
from repro.cache.events import EventBus
from repro.cache.line import CacheLine
from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.errors import ConfigurationError


@dataclass(slots=True)
class CacheStats:
    """Counters for one cache level.

    ``slots=True``: two to four of these counters move on every
    simulated access; fixed-offset attribute writes keep the per-access
    accounting cheap.
    """

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    set_accesses: Dict[int, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.invalidations = 0
        self.set_accesses.clear()

    def clone(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            fills=self.fills,
            evictions=self.evictions,
            dirty_evictions=self.dirty_evictions,
            invalidations=self.invalidations,
            set_accesses=dict(self.set_accesses),
        )

    def load_from(self, other: "CacheStats") -> None:
        """Overwrite this object's counters in place (restore path).

        In place so that long-lived references to ``cache.stats``
        (snapshots, observers) keep seeing the restored values.
        """
        self.hits = other.hits
        self.misses = other.misses
        self.fills = other.fills
        self.evictions = other.evictions
        self.dirty_evictions = other.dirty_evictions
        self.invalidations = other.invalidations
        self.set_accesses.clear()
        self.set_accesses.update(other.set_accesses)


class _Unrecorded:
    """Set stand-in of a replay record with nothing recorded."""

    __slots__ = ()
    departures = -1  # never a live set's count


_UNRECORDED = _Unrecorded()


class _CacheSet:
    """Ways + replacement state for one set."""

    __slots__ = ("ways", "policy", "by_addr", "touch", "departures")

    def __init__(self, num_ways: int, policy: ReplacementPolicy) -> None:
        self.ways: List[Optional[CacheLine]] = [None] * num_ways
        self.policy = policy
        self.by_addr: Dict[int, int] = {}  # line_addr -> way
        #: monotonic count of resident lines leaving this set or having
        #: their way reused (victim fills, invalidations); hits, dirty
        #: transitions, refreshes and fills into empty ways leave it alone
        self.departures = 0
        # Devirtualized replacement-touch for the hot hit path: every
        # stock policy's ``on_access`` is the base-class trampoline to
        # ``_rank_touch``, so bind the target directly and skip one
        # call frame per hit.  Policies that *override* ``on_access``
        # keep their override (semantics unchanged).
        if type(policy).on_access is ReplacementPolicy.on_access:
            self.touch = policy._rank_touch
        else:  # pragma: no cover - no stock policy overrides on_access
            self.touch = policy.on_access


class CacheState:
    """Immutable-by-convention snapshot of one cache level's state.

    Produced by :meth:`SetAssociativeCache.capture_state` and consumed
    by :meth:`SetAssociativeCache.restore_state`.  Only *materialised*
    sets are recorded, so the snapshot's size scales with the working
    set, not the cache geometry.  Restoring the same snapshot twice is
    supported: both capture and restore deep-copy the mutable pieces.
    """

    __slots__ = ("sets", "stats", "extra")

    def __init__(self, sets, stats, extra=None) -> None:
        #: list of (set_idx, ways, policy_clone); ways is a tuple of
        #: ``None | (line_addr, dirty)`` per way
        self.sets = sets
        self.stats = stats
        #: subclass payload (PLcache lock state, ...)
        self.extra = extra


class SetAssociativeCache:
    """A single write-back, write-allocate cache level.

    Parameters
    ----------
    name:
        Identifier used in events and reports (``"L1D"``, ``"L2"``...).
    size_bytes / assoc / line_size:
        Geometry; ``size_bytes`` must equal ``num_sets * assoc *
        line_size`` for some power-of-two ``num_sets``.
    latency:
        Hit latency in cycles (Table 1 of the paper).
    replacement:
        Policy registry name (default ``"lru"``).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        latency: int,
        line_size: int = params.LINE_SIZE,
        replacement: str = "lru",
        replacement_seed: int = 0,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or latency <= 0:
            raise ConfigurationError(
                f"{name}: size/assoc/latency must be positive"
            )
        if size_bytes % (assoc * line_size):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*line_size = {assoc * line_size}"
            )
        num_sets = size_bytes // (assoc * line_size)
        if num_sets & (num_sets - 1):
            raise ConfigurationError(
                f"{name}: number of sets {num_sets} is not a power of two"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.latency = latency
        self.line_size = line_size
        self.num_sets = num_sets
        self.replacement = replacement
        self.replacement_seed = replacement_seed
        # Hot-path geometry: sets are validated power-of-two above, and
        # for the (ubiquitous) power-of-two line size the div/mod set
        # indexing reduces to one shift + one mask.  ``_line_shift`` is
        # -1 for exotic non-power-of-two line sizes, selecting the
        # div/mod fallback.
        if line_size > 0 and not (line_size & (line_size - 1)):
            self._line_shift = line_size.bit_length() - 1
        else:
            self._line_shift = -1
        self._set_mask = num_sets - 1
        #: every set's policy is ``make_policy(replacement)``; for LRU
        #: the batch kernels inline its touch (see
        #: :class:`~repro.cache.replacement.LRUPolicy`)
        self._lru = replacement.lower() == "lru"
        # Sets materialise lazily on first touch.  A 16 MiB LLC has
        # 16384 sets; building a policy object per set up front made
        # Machine construction (and therefore fork/warm-start) pay for
        # capacity the run never touches.  ``_set_at`` builds each set
        # with the same per-set seed the eager constructor used, so
        # randomized-replacement streams are unchanged.
        self._sets: List[Optional[_CacheSet]] = [None] * num_sets
        #: indices of materialised sets, in materialisation order — the
        #: digest/snapshot paths iterate these instead of scanning all
        #: ``num_sets`` entries (a 16 MiB LLC has 16384, mostly None)
        self._live: List[int] = []
        self.events = EventBus(name)
        self.stats = CacheStats()
        #: ``id(lines) -> [lines, per-set records, loop key, loop order,
        #: looped records]`` for every DS ``lines`` tuple swept quietly
        #: on this level (see :meth:`_replay_sets`); the entry pins the
        #: tuple, so the id cannot be reused while the entry lives.
        self._resident_sweeps: Dict[int, list] = {}

    def _set_at(self, set_idx: int) -> _CacheSet:
        """The set object for ``set_idx``, materialising it if needed."""
        cset = self._sets[set_idx]
        if cset is None:
            cset = self._sets[set_idx] = _CacheSet(
                self.assoc,
                make_policy(
                    self.replacement,
                    self.assoc,
                    seed=self.replacement_seed + set_idx,
                ),
            )
            self._live.append(set_idx)
        return cset

    # -- geometry -------------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        """Set an address maps to (index bits above the line offset)."""
        shift = self._line_shift
        if shift >= 0:
            return (line_addr >> shift) & self._set_mask
        return (line_addr // self.line_size) % self.num_sets

    @property
    def geometry_key(self) -> Tuple[int, int, int, int]:
        """Hashable decomposition key for per-DS set-index caches."""
        return (self._line_shift, self._set_mask, self.line_size, self.num_sets)

    def __contains__(self, line_addr: int) -> bool:
        return self.lookup(line_addr) is not None

    # -- pure probes (no state change, no stats) -------------------------------

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Tag lookup with *no* side effects (used by CTLoad/CTStore)."""
        shift = self._line_shift
        if shift >= 0:
            set_idx = (line_addr >> shift) & self._set_mask
        else:
            set_idx = (line_addr // self.line_size) % self.num_sets
        cset = self._sets[set_idx]
        if cset is None:  # never-touched set: nothing resident
            return None
        way = cset.by_addr.get(line_addr)
        return None if way is None else cset.ways[way]

    def is_dirty(self, line_addr: int) -> bool:
        line = self.lookup(line_addr)
        return line is not None and line.dirty

    # -- state-changing operations ---------------------------------------------

    def access(
        self,
        line_addr: int,
        update_replacement: bool = True,
        observable: bool = True,
    ) -> Optional[CacheLine]:
        """Look up ``line_addr``, recording hit/miss statistics.

        Returns the resident line on a hit, ``None`` on a miss.  The
        caller (hierarchy) is responsible for filling on miss.
        """
        # Hot path: inlined shift/mask indexing, one bound ``stats``
        # lookup for all counter updates, devirtualized LRU touch, and
        # event emission skipped entirely when nobody is listening.
        shift = self._line_shift
        if shift >= 0:
            set_idx = (line_addr >> shift) & self._set_mask
        else:
            set_idx = (line_addr // self.line_size) % self.num_sets
        cset = self._sets[set_idx]
        stats = self.stats
        if observable:
            accesses = stats.set_accesses
            accesses[set_idx] = accesses.get(set_idx, 0) + 1
        if cset is None:
            # Never-touched set: a guaranteed miss, and no state to
            # update yet — defer materialisation to the fill.
            stats.misses += 1
            return None
        way = cset.by_addr.get(line_addr)
        if way is None:
            stats.misses += 1
            return None
        line = cset.ways[way]
        stats.hits += 1
        if update_replacement:
            cset.touch(way)
        events = self.events
        if events.has_listeners:
            events.hit(line_addr, line.dirty, lru_updated=update_replacement)
        return line

    def set_indices(self, line_addrs) -> List[int]:
        """:meth:`set_index` of every address in ``line_addrs``, in order.

        The batch kernels take their set indices from here (or from a
        DS's cached copy of it), so each batch computes them once.
        """
        shift = self._line_shift
        if shift >= 0:
            smask = self._set_mask
            return [(line_addr >> shift) & smask for line_addr in line_addrs]
        line_size = self.line_size
        num_sets = self.num_sets
        return [(line_addr // line_size) % num_sets for line_addr in line_addrs]

    def access_lines(
        self,
        line_addrs,
        hierarchy,
        start_level: int = 0,
        update_replacement: bool = True,
        observable: bool = True,
        set_indices=None,
        mark_dirty: bool = False,
    ) -> Dict[int, Tuple[int]]:
        """Batched :meth:`access` over all of ``line_addrs``, in one call.

        Processes elements in order exactly as repeated ``access`` calls
        would; a miss is serviced in place by ``hierarchy``'s
        ``read_miss_fill`` from ``start_level`` (this level's index in
        it) and the batch continues.  Returns ``{index: (extra
        latency,)}`` for the elements that missed, in order.  ``set_indices``
        supplies the set indices aligned with ``line_addrs``
        (:meth:`set_indices`, or a DS's cached copy).  ``mark_dirty``
        applies the write path's dirty transition to each element
        (``set_dirty`` after a miss), emitting the same event order as
        ``access`` + ``set_dirty``.

        Hot-path notes: all attribute lookups are hoisted out of the
        loop, the LRU touch is inlined (the contract is documented on
        :class:`~repro.cache.replacement.LRUPolicy`), and the EventBus
        gate is read once per batch.  The gate is observationally safe:
        with no listeners at batch start none can appear mid-batch (the
        simulator is single-threaded and nothing on the access path
        subscribes a listener); with listeners present the emit helpers
        iterate the *live* listener list per event, so a mid-batch
        unsubscribe from inside a callback behaves exactly as in the
        scalar path.

        A DS sweep (``line_addrs`` is a DS's ``lines`` tuple) first
        replays its still-resident sets (:meth:`_replay_sets`); only
        the other sets' lines run the loop.
        """
        if set_indices is None:
            set_indices = self.set_indices(line_addrs)
        if type(line_addrs) is tuple:
            memo, order = self._replay_sets(
                line_addrs, set_indices, 1, hierarchy, start_level,
                update_replacement, observable, mark_dirty,
            )
            if not order:
                return {}
        else:
            memo, order = None, range(len(line_addrs))
        sets = self._sets
        stats = self.stats
        set_accesses = stats.set_accesses if observable else None
        events = self.events
        emit = events.has_listeners
        lru = update_replacement and self._lru
        touch = update_replacement and not lru
        miss_fill = hierarchy.read_miss_fill
        misses = {}
        for i in order:
            line_addr = line_addrs[i]
            set_idx = set_indices[i]
            if set_accesses is not None:
                set_accesses[set_idx] = set_accesses.get(set_idx, 0) + 1
            cset = sets[set_idx]
            way = cset.by_addr.get(line_addr) if cset is not None else None
            if way is None:
                stats.misses += 1
                extra, _hit_level = miss_fill(
                    line_addr, start_level, update_replacement, observable
                )
                misses[i] = (extra,)
                if mark_dirty:
                    # a PLcache may have refused the fill: set_dirty re-probes
                    self.set_dirty(line_addr)
                continue
            if lru:
                policy = cset.policy
                stamp = policy._stamp + 1
                policy._stamp = stamp
                policy._last_use[way] = stamp
            elif touch:
                cset.touch(way)
            if emit:
                events.hit(
                    line_addr, cset.ways[way].dirty, lru_updated=update_replacement
                )
            if mark_dirty:
                line = cset.ways[way]
                if not line.dirty:
                    line.dirty = True
                    if emit:
                        events.dirty(line_addr)
        stats.hits += len(order) - len(misses)
        if memo is not None:
            self._record_sets(memo, set_indices, misses, mark_dirty)
        return misses

    def rmw_lines(
        self,
        line_addrs,
        hierarchy,
        start_level: int = 0,
        update_replacement: bool = True,
        observable: bool = True,
        set_indices=None,
    ) -> Dict[int, Tuple[int, int]]:
        """Batched load+store :meth:`access` pairs over all of ``line_addrs``.

        Per element: one read access then one write access to the same
        line, with the write's dirty transition — the inner pair of a
        read-modify-write sweep — in order, exactly as paired ``access``
        calls would.  A load-phase miss is serviced in place through
        ``hierarchy`` (as in :meth:`access_lines`), and its store phase
        then runs fully generally (a PLcache may have refused the fill,
        so it can miss too).  Returns ``{index: (load extra latency,
        store extra latency)}`` for the elements whose load missed, in
        order.  A store access right after its own load hit cannot miss
        (a touch evicts nothing), so pairs that hit skip the second tag
        lookup.

        Shares :meth:`access_lines`'s set-index argument, inlined LRU
        touch (on the listener-free path), batch-gated event emission
        with its safety argument, and the per-set replay of a DS
        sweep's still-resident sets, with two accesses per line.
        """
        if set_indices is None:
            set_indices = self.set_indices(line_addrs)
        if type(line_addrs) is tuple:
            memo, order = self._replay_sets(
                line_addrs, set_indices, 2, hierarchy, start_level,
                update_replacement, observable, True,
            )
            if not order:
                return {}
        else:
            memo, order = None, range(len(line_addrs))
        sets = self._sets
        stats = self.stats
        set_accesses = stats.set_accesses if observable else None
        events = self.events
        emit = events.has_listeners
        lru = update_replacement and self._lru
        touch = update_replacement and not lru
        miss_fill = hierarchy.read_miss_fill
        misses = {}
        for i in order:
            line_addr = line_addrs[i]
            set_idx = set_indices[i]
            if set_accesses is not None:
                count = set_accesses.get(set_idx, 0)
            cset = sets[set_idx]
            way = cset.by_addr.get(line_addr) if cset is not None else None
            if way is None:
                if set_accesses is not None:
                    set_accesses[set_idx] = count + 1
                stats.misses += 1
                extra, _hit_level = miss_fill(
                    line_addr, start_level, update_replacement, observable
                )
                line = self.access(line_addr, update_replacement, observable)
                if line is None:
                    store_extra, _hit_level = miss_fill(
                        line_addr, start_level, update_replacement, observable
                    )
                    self.set_dirty(line_addr)
                else:
                    store_extra = 0
                    if not line.dirty:
                        line.dirty = True
                        if emit:
                            events.dirty(line_addr)
                misses[i] = (extra, store_extra)
                continue
            line = cset.ways[way]
            if emit:
                # Stepwise counter updates: a listener callback may read
                # the per-set profile between the pair's two accesses.
                if set_accesses is not None:
                    set_accesses[set_idx] = count + 1
                if update_replacement:
                    cset.touch(way)
                events.hit(line_addr, line.dirty, lru_updated=update_replacement)
                if set_accesses is not None:
                    set_accesses[set_idx] = count + 2
                if update_replacement:
                    cset.touch(way)
                events.hit(line_addr, line.dirty, lru_updated=update_replacement)
            else:
                if set_accesses is not None:
                    set_accesses[set_idx] = count + 2
                if lru:
                    # Two touches of one way: the second overwrites the
                    # first's stamp.
                    policy = cset.policy
                    stamp = policy._stamp + 2
                    policy._stamp = stamp
                    policy._last_use[way] = stamp
                elif touch:
                    cset.touch(way)
                    cset.touch(way)
            if not line.dirty:
                line.dirty = True
                if emit:
                    events.dirty(line_addr)
        stats.hits += 2 * (len(order) - len(misses))
        if memo is not None:
            self._record_sets(memo, set_indices, misses, True)
        return misses

    def _replay_sets(
        self, lines, set_indices, step, hierarchy, start_level,
        update_replacement, observable, mark_dirty,
    ):
        """Apply a DS sweep's effects on its still-resident sets in bulk.

        Returns ``(memo, order)``: the indices of ``lines`` the per-line
        loop must still visit, in sweep order, and the tuple's memo for
        :meth:`_record_sets` (``None`` when nothing may be replayed or
        recorded).  Only a DS ``lines`` tuple on a *quiet* sweep
        qualifies: no listener on this level or any level below it, no
        prefetcher, and LRU replacement or ``update_replacement=False``.
        Then nothing but this sweep's own misses changes this level
        while it runs, and a miss changes only its own set.

        The memo lists the DS's sets in order of first appearance, each
        as ``[set_idx, set object, departures, policy, ways, resident
        lines, len(ways), all dirty, line indices]``, recorded after a
        quiet sweep in which every line of the set hit.  A set whose
        departure count is unchanged since then still holds every line
        in the way recorded (:meth:`restore_state` and :meth:`clean`
        drop the records), so it is replayed; the result equals the
        per-line loop's: ``step`` hits per line (1 for a load or store
        sweep, 2 for read-modify-write pairs), ``step * k`` accesses on a
        set visited ``k`` times (after a stats reset, the DS's missing
        keys are first added in sweep order, as the loop would), the
        LRU touch arithmetic of :class:`~repro.cache.replacement.LRUPolicy`
        run in sweep order (``step`` stamps per line, the last one
        recorded), and the dirty bit set on every line of a writing
        sweep (no listener is attached, so no dirty event is due; a
        record remembers that its lines are all dirty, since only
        :meth:`clean` clears a dirty bit).
        Sets are independent while the sweep is quiet, so replaying one
        before the loop visits the others changes nothing observable.
        """
        n = len(lines)
        if (
            self.events.has_listeners
            or (update_replacement and not self._lru)
            or hierarchy.prefetcher is not None
        ):
            return None, range(n)
        for lower in hierarchy.levels[start_level + 1:]:
            if lower.events.has_listeners:
                return None, range(n)
        memo = self._resident_sweeps.get(id(lines))
        if memo is None:
            by_set: Dict[int, List[int]] = {}
            for i, set_idx in enumerate(set_indices):
                by_set.setdefault(set_idx, []).append(i)
            recs = [
                [s, _UNRECORDED, 0, None, (), (), 0, False, tuple(idx)]
                for s, idx in by_set.items()
            ]
            memo = self._resident_sweeps[id(lines)] = [lines, recs, None, (), recs]
            return memo, range(n)
        set_accesses = self.stats.set_accesses if observable else None
        looped = []
        for rec in memo[1]:
            set_idx, cset, departures, policy, ways, resident, k, dirty, _ = rec
            if cset.departures != departures:
                looped.append(rec)
                continue
            if set_accesses is not None:
                try:
                    set_accesses[set_idx] += step * k
                except KeyError:
                    # A stats reset emptied the profile: add the DS's
                    # missing keys in sweep order, as the loop would.
                    for other in memo[1]:
                        set_accesses.setdefault(other[0], 0)
                    set_accesses[set_idx] += step * k
            if update_replacement:
                stamp = policy._stamp
                last_use = policy._last_use
                for way in ways:
                    stamp += step
                    last_use[way] = stamp
                policy._stamp = stamp
            if mark_dirty and not dirty:
                for line in resident:
                    line.dirty = True
                rec[7] = True
        memo[4] = looped
        if not looped:
            self.stats.hits += step * n
            return memo, ()
        if len(looped) == len(memo[1]):
            return memo, range(n)
        key = [rec[0] for rec in looped]
        if key != memo[2]:
            memo[2] = key
            memo[3] = sorted([i for rec in looped for i in rec[8]])
        self.stats.hits += step * (n - len(memo[3]))
        return memo, memo[3]

    def _record_sets(self, memo, set_indices, misses, dirty) -> None:
        """Record the sets of a quiet sweep's loop whose lines all hit.

        ``dirty``: the sweep wrote, so every recorded line is dirty.
        """
        missed = {set_indices[i] for i in misses}
        lines = memo[0]
        sets = self._sets
        for rec in memo[4]:
            set_idx = rec[0]
            if set_idx in missed:
                rec[1] = _UNRECORDED
                continue
            cset = sets[set_idx]
            ways = [cset.by_addr[lines[i]] for i in rec[8]]
            rec[1:8] = (
                cset, cset.departures, cset.policy, ways,
                [cset.ways[w] for w in ways], len(ways), dirty,
            )

    def fill(
        self, line_addr: int, dirty: bool = False
    ) -> Optional[CacheLine]:
        """Install ``line_addr``; returns the evicted line, if any.

        If the line is already resident this refreshes its replacement
        rank (and ORs in ``dirty``) instead of double-filling.
        """
        shift = self._line_shift
        if shift >= 0:
            set_idx = (line_addr >> shift) & self._set_mask
        else:
            set_idx = (line_addr // self.line_size) % self.num_sets
        cset = self._sets[set_idx]
        if cset is None:
            cset = self._set_at(set_idx)
        stats = self.stats
        events = self.events
        emit = events.has_listeners
        existing_way = cset.by_addr.get(line_addr)
        if existing_way is not None:
            line = cset.ways[existing_way]
            cset.touch(existing_way)
            if dirty and not line.dirty:
                line.dirty = True
                if emit:
                    events.dirty(line_addr)
            return None
        victim_way = cset.policy.victim()
        victim = cset.ways[victim_way]
        if victim is not None:
            del cset.by_addr[victim.line_addr]
            cset.departures += 1
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
            if emit:
                events.evict(victim.line_addr, victim.dirty)
        new_line = CacheLine(line_addr, dirty=dirty)
        cset.ways[victim_way] = new_line
        cset.by_addr[line_addr] = victim_way
        cset.policy.on_fill(victim_way)
        stats.fills += 1
        if emit:
            events.fill(line_addr, dirty)
        return victim

    def set_dirty(self, line_addr: int) -> bool:
        """Mark a resident line dirty; returns False if not resident."""
        line = self.lookup(line_addr)
        if line is None:
            return False
        if not line.dirty:
            line.dirty = True
            if self.events.has_listeners:
                self.events.dirty(line_addr)
        return True

    def clean(self, line_addr: int) -> bool:
        """Clear a resident line's dirty bit (write-back completed)."""
        line = self.lookup(line_addr)
        if line is None or not line.dirty:
            return False
        line.dirty = False
        # Replay records take a written line to stay dirty until it leaves.
        self._resident_sweeps.clear()
        if self.events.has_listeners:
            self.events.clean(line_addr)
        return True

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove ``line_addr`` if resident; returns the removed line."""
        cset = self._sets[self.set_index(line_addr)]
        if cset is None:
            return None
        way = cset.by_addr.pop(line_addr, None)
        if way is None:
            return None
        line = cset.ways[way]
        cset.ways[way] = None
        cset.departures += 1
        cset.policy.on_invalidate(way)
        self.stats.invalidations += 1
        self.events.invalidate(line_addr)
        return line

    # -- introspection ----------------------------------------------------------

    def resident_lines(self) -> List[int]:
        """Addresses of all resident lines (sorted, for tests)."""
        out: List[int] = []
        for cset in self._sets:
            if cset is not None:
                out.extend(cset.by_addr)
        return sorted(out)

    def set_contents(self, set_idx: int) -> List[Tuple[int, bool]]:
        """(line_addr, dirty) pairs resident in one set."""
        cset = self._sets[set_idx]
        if cset is None:
            return []
        return [
            (line.line_addr, line.dirty)
            for line in cset.ways
            if line is not None
        ]

    def occupied_sets(
        self,
    ) -> List[Tuple[int, Tuple[Tuple[int, bool], ...], Tuple[int, ...]]]:
        """``(set_idx, contents, order)`` for every non-empty set.

        Equivalent to calling :meth:`set_contents` and
        :meth:`replacement_state` over ``range(num_sets)`` and keeping
        the non-empty ones, but touching only *materialised* sets —
        after a short run most of a large LLC's sets were never
        accessed, so digest consumers must not pay per-set cost for
        them.  Order is ascending ``set_idx``, matching the dense scan.
        """
        out: List[Tuple[int, Tuple[Tuple[int, bool], ...], Tuple[int, ...]]] = []
        for set_idx in sorted(self._live):
            cset = self._sets[set_idx]
            if not cset.by_addr:
                continue
            contents = tuple(
                sorted(
                    (line.line_addr, line.dirty)
                    for line in cset.ways
                    if line is not None
                )
            )
            policy = cset.policy
            if hasattr(policy, "recency_order"):
                order = tuple(
                    cset.ways[w].line_addr
                    for w in policy.recency_order()
                    if cset.ways[w] is not None
                )
            else:
                order = tuple(sorted(cset.by_addr))
            out.append((set_idx, contents, order))
        return out

    def replacement_state(self, set_idx: int) -> Tuple[int, ...]:
        """Attacker-relevant replacement order of one set (LRU only).

        For LRU this is the most- to least-recently-used order of the
        resident line addresses; other policies expose fill order via
        resident contents only.  An unmaterialised set reports the
        empty order, identical to a materialised-but-empty one.
        """
        cset = self._sets[set_idx]
        if cset is None:
            return tuple()
        policy = cset.policy
        if hasattr(policy, "recency_order"):
            order = policy.recency_order()
            return tuple(
                cset.ways[w].line_addr for w in order if cset.ways[w] is not None
            )
        return tuple(sorted(cset.by_addr))

    # -- state capture / restore (machine fork support) --------------------------

    def capture_state(self) -> CacheState:
        """Snapshot resident lines, replacement state and counters.

        Only materialised sets are captured; everything mutable is
        deep-copied, so the snapshot is immune to later cache activity
        and can be restored any number of times.  EventBus subscriptions
        are deliberately NOT part of the snapshot — restoring simulated
        state must not detach observers (or the BIA) from a live bus.
        """
        sets = []
        for set_idx in sorted(self._live):
            cset = self._sets[set_idx]
            ways = tuple(
                None if line is None else (line.line_addr, line.dirty)
                for line in cset.ways
            )
            sets.append((set_idx, ways, cset.policy.clone()))
        return CacheState(sets, self.stats.clone(), self._capture_extra())

    def restore_state(self, state: CacheState, adopt: bool = False) -> None:
        """Install a snapshot taken by :meth:`capture_state`.

        ``adopt=True`` takes ownership of the snapshot's replacement
        policies instead of cloning them — valid only when the caller
        guarantees the snapshot is ephemeral and never restored again
        (:meth:`Machine.fork` round-trips capture→restore, and cloning
        each policy twice per fork dominated the fork cost).
        """
        sets: List[Optional[_CacheSet]] = [None] * self.num_sets
        assoc = self.assoc
        for set_idx, ways, policy in state.sets:
            cset = _CacheSet(assoc, policy if adopt else policy.clone())
            cset_ways = cset.ways
            by_addr = cset.by_addr
            for way, rec in enumerate(ways):
                if rec is not None:
                    cset_ways[way] = CacheLine(rec[0], rec[1])
                    by_addr[rec[0]] = way
            sets[set_idx] = cset
        self._sets = sets
        self._live = [set_idx for set_idx, _, _ in state.sets]
        # Every set and line is a new object now: drop the replay records.
        self._resident_sweeps.clear()
        self.stats.load_from(state.stats)
        self._restore_extra(state.extra)

    def _capture_extra(self):
        """Subclass hook: extra state to include in a snapshot."""
        return None

    def _restore_extra(self, extra) -> None:
        """Subclass hook: install the payload from :meth:`_capture_extra`."""
