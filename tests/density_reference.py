"""Density score φ of a whole graph: the reference the peel is tested against.

The peel (``repro.core.peel``) evaluates φ incrementally as it removes
nodes; this is the direct formula of ``repro.core.density`` (edge mass
under the merchant column weights, over the number of nodes), used by
the brute-force peel tests, the synthetic-data checks and the Theorem 1
tests.
"""
from __future__ import annotations

import numpy as np

from repro.core.density import DEFAULT_C, edge_values, merchant_weights
from repro.graph.bipartite import BipartiteGraph


def phi(
    g: BipartiteGraph,
    w_col: np.ndarray | None = None,
    c: float = DEFAULT_C,
    n_nodes: int | None = None,
) -> float:
    """Density score of a whole graph.

    ``w_col`` defaults to weights from ``g``'s own merchant degrees —
    the right thing when scoring a graph in isolation; FDET instead
    passes the weights of the graph it started from so that removing a
    block does not inflate the remaining merchants' weights.

    ``n_nodes`` overrides the denominator (used by the peeling loop,
    where "remaining nodes" includes nodes whose last edge just died);
    by default only nodes with degree ≥ 1 are counted.
    """
    if g.n_edges == 0:
        return 0.0
    if w_col is None:
        w_col = merchant_weights(g.degrees_v(), c)
    f = float(edge_values(g, w_col).sum())
    if n_nodes is None:
        n_nodes = len(np.unique(g.u)) + len(np.unique(g.v))
    return f / n_nodes if n_nodes > 0 else 0.0
