"""Randomized truncated SVD over an edge-list sparse matrix.

SPOKEN and FBox both need the top-k singular triplets of the huge,
very sparse biadjacency matrix W (|U| × |V|). The container has no
scipy, so this module implements the Halko–Martinsson–Tropp randomized
range-finder with power iterations, using only numpy:

* sparse mat-mat products are computed straight off the edge arrays
  with ``np.add.at`` scatter-adds — never materializing W densely;
* a QR re-orthonormalization between power iterations keeps the
  subspace numerically stable;
* the small projected matrix B = Qᵀ W (k+p × |V|) is decomposed with
  dense ``np.linalg.svd``.

Accuracy is validated in tests against dense SVD on small matrices.
"""
from __future__ import annotations

import numpy as np

from repro.graph.bipartite import BipartiteGraph

#: Power iterations and oversampling columns of the range finder.
N_ITER = 7
OVERSAMPLE = 10


def _matmat(g: BipartiteGraph, x: np.ndarray) -> np.ndarray:
    """W @ x for x of shape (n_v, m), via scatter-add over edges."""
    out = np.zeros((g.n_u, x.shape[1]), dtype=np.float64)
    np.add.at(out, g.u, g.w[:, None] * x[g.v])
    return out


def _rmatmat(g: BipartiteGraph, y: np.ndarray) -> np.ndarray:
    """Wᵀ @ y for y of shape (n_u, m)."""
    out = np.zeros((g.n_v, y.shape[1]), dtype=np.float64)
    np.add.at(out, g.v, g.w[:, None] * y[g.u])
    return out


def truncated_svd(
    g: BipartiteGraph, k: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` singular triplets of the biadjacency matrix of ``g``.

    Returns ``(U, s, Vt)`` with ``U`` of shape (n_u, k), ``s`` (k,),
    ``Vt`` (k, n_v), so W ≈ U @ diag(s) @ Vt. ``k`` is clipped to the
    largest rank the matrix dimensions admit.
    """
    if g.n_edges == 0 or g.n_u == 0 or g.n_v == 0:
        k = max(k, 1)
        return (
            np.zeros((g.n_u, k)),
            np.zeros(k),
            np.zeros((k, g.n_v)),
        )
    k = int(min(k, g.n_u, g.n_v))
    m = min(k + OVERSAMPLE, g.n_u, g.n_v)
    rng = np.random.default_rng(seed)

    q = _matmat(g, rng.standard_normal((g.n_v, m)))
    q, _ = np.linalg.qr(q)
    for _ in range(N_ITER):
        q, _ = np.linalg.qr(_rmatmat(g, q))
        q, _ = np.linalg.qr(_matmat(g, q))
    b = _rmatmat(g, q).T  # Qᵀ W, shape (m, n_v)
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    u = q @ ub
    return u[:, :k], s[:k], vt[:k, :]
