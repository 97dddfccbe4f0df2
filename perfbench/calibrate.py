"""Host-speed calibration interleaved with the measured work.

On a shared host the interpreter's speed drifts by tens of percent
over minutes, and it drifts for every process alike.  A run therefore
executes a fixed pure-Python kernel, which belongs to the benchmark and
never changes, between the timed operations: once at least
``MIN_WORK_S`` of work has accumulated, for ``SHARE`` of that work.
The kernel sees the same host conditions as the work, and times are
reported scaled to a nominal host speed, window by window:

    nominal seconds = measured seconds * NOMINAL_NS / ns per iteration
                      measured during the same window

A change to the program moves its own times but not the kernel's, so
the scaling removes host drift and keeps program changes.  The raw
times and every calibration sample are kept in the run's report.
"""

from __future__ import annotations

import time

#: Kernel cost that defines the nominal host, in ns per iteration (about
#: what a 2-CPU 2.1 GHz x86-64 VM with CPython 3.11 measures), so
#: nominal seconds read close to that host's wall seconds.
NOMINAL_NS = 800.0
#: Share of each unit's duration spent calibrating after it.
SHARE = 0.1
#: Work accumulated before a sample: a short sample measures the
#: kernel's cache warm-up after the work more than the host.
MIN_WORK_S = 0.2
_CHUNK = 250
_WAYS = 8
#: set counts of the two tables: one fits the host's L1/L2 caches, one
#: does not, so the kernel slows with both core and cache contention
_SMALL_SETS, _LARGE_SETS = 64, 2048


class _Line:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False
        self.stamp = 0


def _table(sets: int):
    ways = [[_Line(s * _WAYS + w) for w in range(_WAYS)] for s in range(sets)]
    return ways, {line.tag: line for row in ways for line in row}


class Calibrator:
    """Accumulates kernel time and iterations over a run.

    The kernel walks two set-associative tables of slotted objects
    through dictionary indexes: the attribute, dictionary and integer
    work of the simulator, over one working set that stays in the
    core's caches and one that does not.
    """

    def __init__(self, deferred: bool = False) -> None:
        #: sample only in :meth:`window_factor`, never between
        #: operations (the traced pass: samples taken inside a traced
        #: call would count as that layer's time)
        self.deferred = deferred
        self.seconds = 0.0
        self.iterations = 0
        #: (work seconds, calibration seconds, iterations) per sample
        self.timeline = []
        self._small = _table(_SMALL_SETS)
        self._large = _table(_LARGE_SETS)
        self._state = 12345
        self._window = (0.0, 0)
        self._pending = 0.0

    def kernel(self, iterations: int) -> int:
        (small, small_index), (large, large_index) = self._small, self._large
        x = self._state
        acc = 0
        for i in range(iterations):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            for sets, index, n in ((small, small_index, _SMALL_SETS),
                                   (large, large_index, _LARGE_SETS)):
                line = index.get((x >> 7) % (2 * _WAYS * n))
                if line is not None:
                    line.stamp = i
                    acc += line.tag
                way = sets[x & (n - 1)][i & (_WAYS - 1)]
                way.dirty = not way.dirty
        self._state = x
        return acc

    def sample(self, after_s: float) -> float:
        """Account ``after_s`` seconds of work; once at least
        ``MIN_WORK_S`` has accumulated, run the kernel for ``SHARE`` of
        it.  Returns the seconds spent, for callers to leave out of
        their timings."""
        self._pending += after_s
        if self.deferred or self._pending < MIN_WORK_S:
            return 0.0
        return self._run(SHARE)

    def _run(self, share: float) -> float:
        work, self._pending = self._pending, 0.0
        clock = time.perf_counter
        start = clock()
        start_iterations = self.iterations
        while True:
            self.kernel(_CHUNK)
            self.iterations += _CHUNK
            spent = clock() - start
            if spent >= share * max(work, MIN_WORK_S):
                self.seconds += spent
                self.timeline.append(
                    (work, spent, self.iterations - start_iterations))
                return spent

    @property
    def ns_per_iteration(self) -> float:
        return 1e9 * self.seconds / self.iterations

    def window_factor(self, after_s: float = 0.0, share: float = SHARE) -> float:
        """Multiply a time measured since the previous call by this to
        get nominal seconds.  Calibrates ``after_s`` and any work still
        pending first, so call it once the clock has stopped."""
        self._pending += after_s
        if self._pending or self.iterations == self._window[1]:
            self._run(share)
        seconds = self.seconds - self._window[0]
        iterations = self.iterations - self._window[1]
        self._window = (self.seconds, self.iterations)
        return NOMINAL_NS * iterations / (1e9 * seconds)
