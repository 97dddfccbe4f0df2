"""Dijkstra single-source shortest paths (Fig. 7a; Table 2).

The classic O(V^2) formulation over a dense weight matrix.  The secret
is the graph itself (the weights): in every iteration the algorithm
selects the unvisited vertex ``u`` with minimum tentative distance and
relaxes its outgoing edges.  Leakage (Table 2): "access to the
not-yet-selected vertex with minimum distance ... leaks graph
structure"; the DS of the row access is the whole V*V matrix, O(V^2).

Secret-dependent accesses per iteration:

* ``dist[u]``      — load with DS = the ``dist`` array,
* ``visited[u]``   — store with DS = the ``visited`` array,
* ``adj[u][:]``    — a V-word row gather with DS = the whole matrix
  (a code generator emits one linearization pass for the row read;
  both mitigations batch it through ``ctx.gather``).

The min-scan over ``dist``/``visited`` reads *all* vertices at public
addresses (only the comparison outcomes are secret, handled
branchlessly), so it needs no linearization — in the insecure version
too, matching the original benchmark's structure.  The relaxation
likewise rewrites every ``dist[v]`` at public addresses.

Both public loops are issued as machine batches, identical under every
scheme.  The simulated program is the scalar loop

* min-scan, per ``v``: ``SCAN_INSTS`` of ALU work, load ``dist[v]``,
  load ``visited[v]``, two cmovs (``ct_select`` on index and distance);
* relaxation, per ``v``: ``RELAX_INSTS`` of ALU work, load ``dist[v]``,
  one cmov, store the selected word to ``dist[v]``,

and the batches reproduce its accesses in the same order with the same
counts: the min-scan is one ``execute((SCAN_INSTS + 2) * V)`` followed
by one ``load_words`` over the interleaved ``dist[0], visited[0],
dist[1], ...`` addresses, with the minimum picked from the returned
words; the relaxation computes every new ``dist`` word from the current
memory image (exactly what each simulated load would return, since step
``v`` writes only ``dist[v]``) and issues one ``rmw_words`` with
``pre_insts=RELAX_INSTS + 1`` and those store values.  Grouping the
ALU charges moves no access and no counter; it only reorders the
additions into ``cycles``, which is exact — bit-identical to the scalar
loop — whenever ``cpi`` is integral (the default and every shipped
configuration).  Under a fractional ``cpi`` the float rounding of
``cycles`` may differ by ~1e-9 relative.

Sizes: V in {32, 64, 96, 128}; at V=128 the 64 KiB matrix equals the
L1d capacity, the paper's L1d-BIA self-eviction case (Sec. 7.3.2).
"""

from __future__ import annotations

from typing import List

from repro import params
from repro.ct.context import MitigationContext
from repro.workloads.base import make_rng

#: "Infinite" distance (fits a u32 after any number of relaxations).
INF = 1 << 28

#: ALU work per min-scan candidate (visited check + compare + cmov).
SCAN_INSTS = 3

#: ALU work per relaxation (add + compare + cmov).
RELAX_INSTS = 4


def generate_weights(size: int, seed: int) -> List[List[int]]:
    """Secret dense weight matrix, weights in [1, 100]."""
    rng = make_rng(size, seed)
    return [
        [0 if i == j else rng.randint(1, 100) for j in range(size)]
        for i in range(size)
    ]


def run(ctx: MitigationContext, size: int, seed: int) -> List[int]:
    """Dijkstra from vertex 0 on a ``size``-vertex dense graph."""
    machine = ctx.machine
    weights = generate_weights(size, seed)
    adj_base = machine.allocator.alloc_words(size * size, "adj")
    dist_base = machine.allocator.alloc_words(size, "dist")
    visited_base = machine.allocator.alloc_words(size, "visited")
    # The program builds its weight matrix (warms the DS uniformly).
    ctx.plain_store_words(
        [adj_base + 4 * k for k in range(size * size)],
        [w for row in weights for w in row],
    )
    ds_adj = ctx.register_ds(adj_base, size * size * params.WORD_SIZE, "adj")
    ds_dist = ctx.register_ds(dist_base, size * params.WORD_SIZE, "dist")
    ds_visited = ctx.register_ds(visited_base, size * params.WORD_SIZE, "visited")

    # Interleaved dist[v], visited[v]: initialised together, then read
    # together by every min-scan.
    scan_addrs: List[int] = []
    init_vals: List[int] = []
    for v in range(size):
        scan_addrs += (dist_base + 4 * v, visited_base + 4 * v)
        init_vals += (INF if v else 0, 0)
    ctx.plain_store_words(scan_addrs, init_vals)

    dist_addrs = scan_addrs[::2]
    read_word = machine.memory.read_word
    for iteration in range(size):
        if iteration == 1:
            # First iteration is warm-up (first-touch fills of the
            # matrix); counters reset so measured overheads reflect
            # steady state, like the paper's full-length runs.
            machine.reset_stats()
        # Min-scan: public address pattern, branchless comparisons
        # (the + 2 is ct_select's two cmovs per candidate).
        machine.execute((SCAN_INSTS + 2) * size)
        words = machine.load_words(scan_addrs)
        best_u, best_d = 0, INF + 1
        for v in range(size):
            d = words[2 * v]
            if not words[2 * v + 1] and d < best_d:
                best_u, best_d = v, d
        u = best_u
        # Secret-dependent: mark u visited, read dist[u], gather row u.
        ctx.store(ds_visited, visited_base + 4 * u, 1)
        du = ctx.load(ds_dist, dist_base + 4 * u)
        row_base = adj_base + 4 * size * u
        row = ctx.gather(ds_adj, [row_base + 4 * j for j in range(size)])
        # Relaxation: public store pattern (every dist[v] rewritten;
        # the + 1 is ct_select's cmov).
        new_dist = []
        for v in range(size):
            old = read_word(dist_addrs[v])
            alt = du + row[v] if row[v] else INF
            new_dist.append(alt if v != u and alt < old else old)
        machine.rmw_words(
            dist_addrs,
            pre_insts=RELAX_INSTS + 1,
            values=new_dist,
            collect_values=False,
        )

    return [machine.memory.read_word(dist_base + 4 * v) for v in range(size)]


def reference(size: int, seed: int) -> List[int]:
    """Golden model: textbook Dijkstra on the same generated graph."""
    weights = generate_weights(size, seed)
    dist = [INF] * size
    dist[0] = 0
    visited = [False] * size
    for _ in range(size):
        u = min(
            (v for v in range(size) if not visited[v]),
            key=dist.__getitem__,
            default=0,
        )
        visited[u] = True
        for v in range(size):
            w = weights[u][v]
            if w and v != u and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
    return dist
