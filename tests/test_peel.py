"""Tests for greedy densest-subgraph peeling (Algorithm 1's inner loop)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.density import merchant_weights
from repro.core.peel import peel_densest
from repro.graph.bipartite import BipartiteGraph

from tests.density_reference import phi
from tests.helpers import clique_plus_noise


def brute_force_densest(g: BipartiteGraph) -> float:
    """Exhaustive max-φ over all node subsets (tiny graphs only).

    Uses the same fixed column weights (from the full graph) as the
    peel, and counts only nodes incident to surviving edges.
    """
    w_col = merchant_weights(g.degrees_v())
    best = 0.0
    users = list(range(g.n_u))
    merchants = list(range(g.n_v))
    for umask in range(1, 2 ** len(users)):
        for vmask in range(1, 2 ** len(merchants)):
            us = {i for i in users if umask >> i & 1}
            vs = {j for j in merchants if vmask >> j & 1}
            keep = np.array([ui in us and vi in vs for ui, vi in zip(g.u, g.v)])
            if not keep.any():
                continue
            f = float((g.w[keep] * w_col[g.v[keep]]).sum())
            score = f / (len(us) + len(vs))
            best = max(best, score)
    return best


class TestPeelMicro:
    def test_empty(self):
        r = peel_densest(BipartiteGraph.from_edges([], []))
        assert r.phi == 0.0 and r.n_nodes == 0

    def test_single_edge(self):
        g = BipartiteGraph.from_edges([0], [0])
        r = peel_densest(g)
        assert r.users.tolist() == [0] and r.merchants.tolist() == [0]
        assert r.phi == pytest.approx(phi(g))

    def test_finds_planted_clique_exactly(self, micro_clique):
        g, bu, bm = micro_clique
        r = peel_densest(g)
        assert set(bu).issubset(set(r.users.tolist()))
        assert set(bm).issubset(set(r.merchants.tolist()))
        # noise users shouldn't survive: block is much denser
        assert len(r.users) <= len(bu) + 2

    def test_phi_matches_recomputation(self, micro_clique):
        """Reported φ == φ recomputed from the returned node set."""
        g, _, _ = micro_clique
        w_col = merchant_weights(g.degrees_v())
        r = peel_densest(g)
        in_u = np.isin(g.u, r.users)
        in_v = np.isin(g.v, r.merchants)
        m = in_u & in_v
        sub = BipartiteGraph.from_edges(g.u[m], g.v[m], g.w[m], n_u=g.n_u, n_v=g.n_v)
        assert phi(sub, w_col=w_col, n_nodes=r.n_nodes) == pytest.approx(r.phi)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_micro(self, seed):
        """Greedy peel is a 2-approx, but on these micro graphs it hits
        the optimum in practice; at minimum it must reach half of it."""
        rng = np.random.default_rng(seed)
        n_e = rng.integers(3, 12)
        g = BipartiteGraph.from_edges(
            rng.integers(0, 5, n_e), rng.integers(0, 4, n_e), n_u=5, n_v=4
        )
        opt = brute_force_densest(g)
        got = peel_densest(g).phi
        assert got <= opt + 1e-9
        assert got >= 0.5 * opt - 1e-9

    def test_weighted_edges_respected(self):
        # two disjoint single-edge pairs; heavy edge wins
        g = BipartiteGraph.from_edges([0, 1], [0, 1], w=[1.0, 10.0])
        r = peel_densest(g)
        assert r.users.tolist() == [1] and r.merchants.tolist() == [1]


class TestPeelProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_phi_not_below_whole_graph(self, seed):
        """max over peeling states includes the full graph state."""
        rng = np.random.default_rng(seed)
        n_e = int(rng.integers(1, 60))
        g = BipartiteGraph.from_edges(
            rng.integers(0, 20, n_e), rng.integers(0, 15, n_e), n_u=20, n_v=15
        )
        w_col = merchant_weights(g.degrees_v())
        full = phi(g, w_col=w_col)
        assert peel_densest(g).phi >= full - 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_detected_block_nonempty_and_valid(self, seed):
        rng = np.random.default_rng(seed)
        n_e = int(rng.integers(1, 60))
        g = BipartiteGraph.from_edges(
            rng.integers(0, 20, n_e), rng.integers(0, 15, n_e), n_u=20, n_v=15
        )
        r = peel_densest(g)
        assert len(r.users) >= 1 or len(r.merchants) >= 1
        assert np.isin(r.users, g.u).all()
        assert np.isin(r.merchants, g.v).all()

    def test_deterministic(self, micro_clique):
        g, _, _ = micro_clique
        r1, r2 = peel_densest(g), peel_densest(g)
        assert r1.users.tolist() == r2.users.tolist()
        assert r1.phi == r2.phi

    def test_scale_invariance_of_argmax(self, micro_clique):
        """Theorem-1 rescaling (all weights × 1/p) must not change the block."""
        g, _, _ = micro_clique
        scaled = BipartiteGraph(g.u, g.v, g.w * 10.0, g.n_u, g.n_v)
        r, rs = peel_densest(g), peel_densest(scaled)
        assert r.users.tolist() == rs.users.tolist()
        assert rs.phi == pytest.approx(10.0 * r.phi)

    def test_two_blocks_returns_denser(self):
        """Two disjoint blocks of different density: densest one returned."""
        # dense: 6x4 complete; sparse-ish: 6x4 with half the edges
        du = np.repeat(np.arange(6), 4)
        dv = np.tile(np.arange(4), 6)
        su = np.repeat(np.arange(6, 12), 2)
        sv = np.tile(np.arange(4, 6), 6) + 0
        g = BipartiteGraph.from_edges(np.concatenate([du, su]), np.concatenate([dv, sv]))
        r = peel_densest(g)
        assert set(r.users.tolist()) == set(range(6))
        assert set(r.merchants.tolist()) == set(range(4))


class TestPeelOnJd:
    def test_finds_densest_planted_block(self, jd_small):
        """On every preset, the top block is fraud-dominated."""
        _, _, _, g, truth, _ = jd_small
        r = peel_densest(g)
        frac_fraud = np.isin(r.users, truth).mean()
        assert frac_fraud > 0.9

    def test_phi_far_above_background(self, jd_small):
        _, _, _, g, _, _ = jd_small
        w_col = merchant_weights(g.degrees_v())
        assert peel_densest(g).phi > 2.5 * phi(g, w_col=w_col)
