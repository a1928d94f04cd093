"""Density score φ (paper Definition 2, read as the FRAUDAR metric it cites).

Every edge (i, j) contributes ``1 / log(d_j + c)`` where ``d_j`` is the
degree of merchant j in the graph handed to the detector (column
weighting that discounts popular merchants, so camouflage edges to
popular stores buy fraudsters little density). The score of a node set
S is the weighted edge mass inside S divided by |U_S| + |V_S|.

See DESIGN.md §1 for why the printed Definition 2 (a bare sum over
merchant nodes, no edge term) is read this way: the paper attributes
the metric to FRAUDAR [13] and claims the FRAUDAR min-heap complexity,
both of which require the per-edge form.

Plain numpy on local graphs: the solvers run it inside Spark workers
and in the driver, so this module imports no pyspark.
"""
from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph

#: FRAUDAR's constant c in 1/log(d + c); keeps the weight finite at d ∈ {0, 1}.
DEFAULT_C: float = 5.0


def merchant_weights(deg_v: np.ndarray, c: float = DEFAULT_C) -> np.ndarray:
    """Column weights w_j = 1 / log(d_j + c) for merchant degrees ``deg_v``."""
    if c <= 1.0:
        raise ValueError("c must be > 1 so log(d + c) > 0 for all d >= 0")
    return 1.0 / np.log(np.asarray(deg_v, dtype=np.float64) + c)


def edge_values(g: BipartiteGraph, w_col: np.ndarray) -> np.ndarray:
    """Per-edge contribution to f(S): edge weight × its merchant's column weight."""
    return g.w * w_col[g.v]
