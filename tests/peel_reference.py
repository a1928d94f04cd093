"""The pure-Python peel loop: the reference the native kernel must match bit for bit.

This is ``repro.core.peel.peel_densest`` as it was before the loop
moved into ``_peel.c``, kept verbatim apart from its name. Tests run
it beside the kernel and require identical blocks and φ values.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.density import DEFAULT_C, edge_values, merchant_weights
from repro.core.peel import PeelResult
from repro.graph.bipartite import BipartiteGraph


def peel_densest_reference(
    g: BipartiteGraph,
    w_col: np.ndarray | None = None,
    c: float = DEFAULT_C,
) -> PeelResult:
    """Extract the single densest block of ``g`` under φ.

    ``w_col``: merchant column weights; defaults to weights computed
    from ``g``'s own degrees. FDET passes the weights of the original
    (pre-block-removal) graph so column weights stay fixed across its
    outer iterations, which also keeps every priority update a pure
    subtraction (the heap invariant).
    """
    if g.n_edges == 0:
        return PeelResult(np.empty(0, np.int64), np.empty(0, np.int64), 0.0)
    if w_col is None:
        w_col = merchant_weights(g.degrees_v(), c)

    nu = g.n_u
    val = edge_values(g, w_col)
    E = g.n_edges

    # Nodes are encoded in one space: user i -> i, merchant j -> nu + j.
    enc_u = g.u
    enc_v = g.v + nu
    n_total = nu + g.n_v

    prio = np.zeros(n_total, dtype=np.float64)
    np.add.at(prio, enc_u, val)
    np.add.at(prio, enc_v, val)

    # CSR incidence over both endpoints: incident edge ids per node.
    ends = np.concatenate([enc_u, enc_v])
    eids = np.concatenate([np.arange(E), np.arange(E)])
    order = np.argsort(ends, kind="stable")
    inc_eids = eids[order]
    counts = np.bincount(ends, minlength=n_total)
    inc_start = np.zeros(n_total + 1, dtype=np.int64)
    np.cumsum(counts, out=inc_start[1:])

    active = counts > 0  # isolated ids never enter the graph
    n_active = int(active.sum())
    f = float(val.sum())

    heap = [(prio[x], int(x)) for x in np.nonzero(active)[0]]
    heapq.heapify(heap)

    best_phi = f / n_active
    best_removed = 0
    removal_order: list[int] = []

    # Hot loop works on plain Python lists/bytearrays: numpy scalar
    # indexing inside a per-edge loop costs ~3x more than list access,
    # and this loop runs |E| times per peel.
    other_end = (enc_u + enc_v).tolist()  # other endpoint = other_end[e] - popped
    val_l = val.tolist()
    prio_l = prio.tolist()
    inc_eids_l = inc_eids.tolist()
    inc_start_l = inc_start.tolist()
    alive_edge = bytearray(b"\x01") * E
    alive_node = bytearray(active.astype(np.uint8).tobytes())
    heappop, heappush = heapq.heappop, heapq.heappush

    while heap and n_active > 1:
        p, x = heappop(heap)
        # Stale entry: the node was updated (priority strictly decreased)
        # after this entry was pushed, or already removed.
        if not alive_node[x] or p - prio_l[x] > 1e-12:
            continue
        alive_node[x] = 0
        for i in range(inc_start_l[x], inc_start_l[x + 1]):
            e = inc_eids_l[i]
            if alive_edge[e]:
                alive_edge[e] = 0
                ve = val_l[e]
                f -= ve
                y = other_end[e] - x
                if alive_node[y]:
                    prio_l[y] -= ve
                    heappush(heap, (prio_l[y], y))
        removal_order.append(x)
        n_active -= 1
        cur_phi = f / n_active
        if cur_phi > best_phi + 1e-15:
            best_phi = cur_phi
            best_removed = len(removal_order)

    # Survivors at the best state = active nodes minus the first
    # best_removed removals.
    survivors = active.copy()
    if best_removed:
        survivors[np.asarray(removal_order[:best_removed], dtype=np.int64)] = False
    ids = np.nonzero(survivors)[0]
    users = ids[ids < nu]
    merchants = ids[ids >= nu] - nu
    return PeelResult(
        users=users.astype(np.int64),
        merchants=merchants.astype(np.int64),
        phi=float(best_phi),
    )
