"""FDET (Algorithm 1): repeated densest-block extraction + Δ² truncation.

Outer loop: peel the densest block of the current graph, record its φ,
remove its intra-block edges, repeat. The number of blocks kept, k̂, is
the paper's Truncating Point (Definition 3): the argmin of the
second-order finite difference of the per-block φ sequence — the elbow
where density "suddenly decreases".

Algorithm 1's literal loop condition ("until argmin_i Δ²φ") needs
future φ values, so the implementable reading (DESIGN.md §1) is:
compute candidate blocks until φ_i falls below ``phi_stop_frac`` of
φ_1 (or ``k_max``), then truncate the computed sequence at the Δ²
argmin. With ``truncate=False`` and a fixed ``k_max`` this same loop
*is* the FRAUDAR baseline and EnsemFDet-FIX-K.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.density import DEFAULT_C, merchant_weights
from repro.core.peel import PeelResult, peel_densest
from repro.graph.bipartite import BipartiteGraph

#: Truncated searches stop this many blocks past the current Δ² elbow.
PATIENCE = 3


def truncating_point(phis: list[float] | np.ndarray) -> int:
    """k̂ = argmin_i Δ²φ(G(S_i)) (Definition 3), as a 1-based block count.

    Δ²φ at block i is φ_{i+1} - 2φ_i + φ_{i-1}; it is most negative at
    the block after which the score collapses, so we keep blocks 1..i.
    Sequences too short for a second difference are kept whole.
    """
    phis = np.asarray(phis, dtype=np.float64)
    if len(phis) < 3:
        return len(phis)
    d2 = phis[2:] - 2.0 * phis[1:-1] + phis[:-2]  # centered at blocks 2..L-1
    # d2[p] is Δ² at block p+2 (1-based); the block where φ collapses is
    # the last one kept.
    return int(np.argmin(d2)) + 2


@dataclass
class FdetResult:
    """Blocks detected on one graph.

    ``blocks`` holds every computed candidate (ordered, densest first);
    ``k_hat`` how many survive truncation. ``phis`` is the full
    candidate φ sequence (Fig.-1 data).
    """

    blocks: list[PeelResult] = field(default_factory=list)
    k_hat: int = 0

    @property
    def phis(self) -> np.ndarray:
        return np.asarray([b.phi for b in self.blocks], dtype=np.float64)

    @property
    def selected(self) -> list[PeelResult]:
        """The k̂ blocks kept after truncation."""
        return self.blocks[: self.k_hat]

    def detected_users(self, k: int | None = None) -> np.ndarray:
        """Union of user ids over the first ``k`` (default k̂) blocks."""
        blocks = self.blocks[: self.k_hat if k is None else k]
        if not blocks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([b.users for b in blocks]))


def fdet(
    g: BipartiteGraph,
    k_max: int = 30,
    truncate: bool = True,
    phi_stop_frac: float = 0.05,
    c: float = DEFAULT_C,
) -> FdetResult:
    """Run FDET on ``g``.

    Column weights are computed once from ``g``'s initial merchant
    degrees and held fixed across outer iterations, so removing a dense
    block does not make the remaining copies of its merchants look
    lighter-degree (and hence denser) than they were.

    With ``truncate`` the candidate search stops ``PATIENCE`` blocks
    after the current Δ² elbow (or when φ falls below ``phi_stop_frac``
    of the first block's φ) — this online truncation is where the
    paper's "detect less than half of K sets" time saving comes from.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    w_col = merchant_weights(g.degrees_v(), c)
    work = g
    result = FdetResult()
    while len(result.blocks) < k_max and work.n_edges > 0:
        block = peel_densest(work, w_col=w_col, c=c)
        if block.phi <= 0.0 or block.n_nodes == 0:
            break
        result.blocks.append(block)
        if truncate and len(result.blocks) >= 3:
            if block.phi < phi_stop_frac * result.blocks[0].phi:
                break
            if truncating_point(result.phis) <= len(result.blocks) - PATIENCE:
                break  # elbow is PATIENCE blocks behind us; tail is noise
        work = work.remove_block_edges(block.users, block.merchants)
    result.k_hat = truncating_point(result.phis) if truncate else len(result.blocks)
    return result
