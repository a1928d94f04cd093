"""Local bipartite graph container used by the per-subgraph solvers.

The 'who buy-from where' graph G = (U ∪ V, E) (paper Definition 1) is
stored as three parallel numpy arrays — user endpoint, merchant
endpoint, edge weight — plus the sizes of the two id spaces. Users and
merchants live in *separate* integer id spaces (a pin id and a merchant
id may collide numerically without referring to the same node).

This is the in-memory substrate consumed by ``repro.core.peel`` /
``repro.core.fdet`` inside Spark tasks (via ``mapInArrow``) and by
the driver-side baselines. It is deliberately plain data + numpy: one
sampled subgraph must deserialize and solve cheaply inside a Python
worker.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass
class BipartiteGraph:
    """Edge-list bipartite graph over dense integer id spaces.

    Attributes
    ----------
    u, v : int64 arrays of length E — user / merchant endpoint of each edge.
    w : float64 array of length E — edge weights (1.0 unless Theorem-1
        rescaling is in play).
    n_u, n_v : sizes of the user / merchant id spaces (ids are
        ``0..n_u-1`` / ``0..n_v-1``; isolated ids are allowed and simply
        have degree 0).
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    n_u: int
    n_v: int

    @staticmethod
    def from_edges(
        u, v, w=None, *, n_u: int | None = None, n_v: int | None = None
    ) -> "BipartiteGraph":
        """Build a graph from endpoint arrays; id-space sizes default to max+1."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError(f"endpoint arrays differ in length: {u.shape} vs {v.shape}")
        if w is None:
            w = np.ones(len(u), dtype=np.float64)
        else:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != u.shape:
                raise ValueError("weight array length must match endpoints")
        if len(u) and (u.min() < 0 or v.min() < 0):
            raise ValueError("node ids must be non-negative")
        n_u = int(n_u if n_u is not None else (u.max() + 1 if len(u) else 0))
        n_v = int(n_v if n_v is not None else (v.max() + 1 if len(v) else 0))
        if len(u) and (u.max() >= n_u or v.max() >= n_v):
            raise ValueError("node id out of declared id-space range")
        return BipartiteGraph(u=u, v=v, w=w, n_u=n_u, n_v=n_v)

    @staticmethod
    def from_pandas(
        pdf: pd.DataFrame,
        u_col: str = "pin",
        v_col: str = "merchant",
        w_col: str | None = None,
        *,
        n_u: int | None = None,
        n_v: int | None = None,
    ) -> "BipartiteGraph":
        """Build from a pandas edge frame."""
        w = pdf[w_col].to_numpy() if w_col and w_col in pdf.columns else None
        return BipartiteGraph.from_edges(
            pdf[u_col].to_numpy(), pdf[v_col].to_numpy(), w, n_u=n_u, n_v=n_v
        )

    # ---------------------------------------------------------------- basics
    @property
    def n_edges(self) -> int:
        """Number of edges currently in the graph."""
        return len(self.u)

    def degrees_u(self) -> np.ndarray:
        """Weighted-by-count user degrees (number of incident edges)."""
        return np.bincount(self.u, minlength=self.n_u).astype(np.int64)

    def degrees_v(self) -> np.ndarray:
        """Merchant degrees (number of incident edges) — the d_j of Definition 2."""
        return np.bincount(self.v, minlength=self.n_v).astype(np.int64)

    # ------------------------------------------------------------ mutations
    def remove_block_edges(self, users, merchants) -> "BipartiteGraph":
        """Drop edges with BOTH endpoints inside a detected block.

        This is FDET's outer-loop step "remove E_i from G" (Algorithm 1,
        line 11): only the intra-block edges leave; a user keeps its
        edges to merchants outside the block. The id spaces are unchanged.
        """
        in_u = np.zeros(self.n_u, dtype=bool)
        in_u[np.asarray(users, dtype=np.int64)] = True
        in_v = np.zeros(self.n_v, dtype=bool)
        in_v[np.asarray(merchants, dtype=np.int64)] = True
        keep = ~(in_u[self.u] & in_v[self.v])
        return BipartiteGraph(
            u=self.u[keep], v=self.v[keep], w=self.w[keep], n_u=self.n_u, n_v=self.n_v
        )

    def relabeled(self) -> tuple["BipartiteGraph", np.ndarray, np.ndarray]:
        """Compact to contiguous ids, with edges in canonical order.

        Returns ``(graph, uids, vids)`` where ``uids[k]`` is the original
        id of compact user ``k`` (same for merchants). Used when a Spark
        group hands us a subgraph whose raw ids are sparse in a huge id
        space. Edges come back sorted by (u, v, w): Spark delivers a
        group's rows in an order that depends on the input partitioning,
        and the peel's float sums and heap ties depend on edge order, so
        sorting here makes each per-sample solve a function of the edge
        set alone.
        """
        uids, u_new = np.unique(self.u, return_inverse=True)
        vids, v_new = np.unique(self.v, return_inverse=True)
        order = np.lexsort((self.w, v_new, u_new))
        g = BipartiteGraph(
            u=u_new[order].astype(np.int64),
            v=v_new[order].astype(np.int64),
            w=self.w[order],
            n_u=len(uids),
            n_v=len(vids),
        )
        return g, uids, vids
