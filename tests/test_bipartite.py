"""Unit tests for the bipartite graph substrate."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph


def g123() -> BipartiteGraph:
    # users 0,1,2 ; merchants 0,1 ; degrees: u=[2,1,1], v=[3,1]
    return BipartiteGraph.from_edges([0, 0, 1, 2], [0, 1, 0, 0])


class TestConstruction:
    def test_from_edges_basic(self):
        g = g123()
        assert g.n_edges == 4
        assert g.n_u == 3 and g.n_v == 2
        assert np.all(g.w == 1.0)

    def test_from_edges_explicit_sizes(self):
        g = BipartiteGraph.from_edges([0], [0], n_u=10, n_v=20)
        assert g.n_u == 10 and g.n_v == 20

    def test_from_edges_weights(self):
        g = BipartiteGraph.from_edges([0, 1], [0, 0], w=[2.0, 3.0])
        assert g.w.tolist() == [2.0, 3.0]

    def test_empty_graph(self):
        g = BipartiteGraph.from_edges([], [])
        assert g.n_edges == 0 and g.n_u == 0 and g.n_v == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="differ in length"):
            BipartiteGraph.from_edges([0, 1], [0])

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="weight array"):
            BipartiteGraph.from_edges([0, 1], [0, 0], w=[1.0])

    def test_negative_id_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            BipartiteGraph.from_edges([-1], [0])

    def test_id_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of declared"):
            BipartiteGraph.from_edges([5], [0], n_u=3, n_v=1)

    def test_from_pandas_roundtrip(self):
        pdf = pd.DataFrame({"pin": [0, 1], "merchant": [2, 3], "w": [1.5, 2.5]})
        g = BipartiteGraph.from_pandas(pdf, w_col="w")
        assert g.u.tolist() == [0, 1] and g.v.tolist() == [2, 3]
        assert g.w.tolist() == [1.5, 2.5]

    def test_from_pandas_default_weight(self):
        pdf = pd.DataFrame({"pin": [0], "merchant": [0]})
        g = BipartiteGraph.from_pandas(pdf)
        assert g.w.tolist() == [1.0]

    def test_from_pandas_custom_columns(self):
        pdf = pd.DataFrame({"a": [0, 1], "b": [0, 1]})
        g = BipartiteGraph.from_pandas(pdf, u_col="a", v_col="b")
        assert g.n_edges == 2


class TestDegrees:
    def test_degrees_u(self):
        assert g123().degrees_u().tolist() == [2, 1, 1]

    def test_degrees_v(self):
        assert g123().degrees_v().tolist() == [3, 1]

    def test_degrees_cover_isolated_ids(self):
        g = BipartiteGraph.from_edges([0], [0], n_u=5, n_v=4)
        assert g.degrees_u().tolist() == [1, 0, 0, 0, 0]
        assert g.degrees_v().tolist() == [1, 0, 0, 0]

    def test_degree_sum_equals_edges(self):
        g = g123()
        assert g.degrees_u().sum() == g.n_edges == g.degrees_v().sum()


class TestMutation:
    def test_remove_block_edges_only_intra(self):
        # block = {user 0} x {merchant 0}: edge (0,0) dies, (0,1) and (1,0) survive
        g = g123().remove_block_edges([0], [0])
        assert g.n_edges == 3
        assert (0, 0) not in set(zip(g.u.tolist(), g.v.tolist()))

    def test_remove_block_edges_full_block(self):
        g = g123().remove_block_edges([0, 1, 2], [0, 1])
        assert g.n_edges == 0 and g.n_u == 3 and g.n_v == 2

    def test_remove_block_edges_empty_block(self):
        g = g123().remove_block_edges([], [])
        assert g.n_edges == 4


class TestRelabel:
    def test_relabeled_compacts_ids(self):
        g = BipartiteGraph.from_edges([10, 10, 99], [7, 8, 7], n_u=1000, n_v=1000)
        compact, uids, vids = g.relabeled()
        assert compact.n_u == 2 and compact.n_v == 2
        assert uids.tolist() == [10, 99]
        assert vids.tolist() == [7, 8]

    def test_relabeled_preserves_structure(self):
        g = BipartiteGraph.from_edges([10, 10, 99], [7, 8, 7], n_u=1000, n_v=1000)
        compact, uids, vids = g.relabeled()
        back = set(zip(uids[compact.u].tolist(), vids[compact.v].tolist()))
        assert back == {(10, 7), (10, 8), (99, 7)}

    def test_relabeled_preserves_weights(self):
        g = BipartiteGraph.from_edges([5, 3], [0, 0], w=[2.0, 4.0])
        compact, _, _ = g.relabeled()
        assert sorted(compact.w.tolist()) == [2.0, 4.0]

    def test_relabeled_ignores_row_order(self):
        """A row-permuted edge frame relabels to identical arrays, so the
        per-sample solve does not see the order Spark delivered rows in."""
        rng = np.random.default_rng(3)
        pdf = pd.DataFrame(
            {"pin": rng.integers(0, 50, 200), "merchant": rng.integers(0, 30, 200), "w": rng.random(200)}
        )
        a, ua, va = BipartiteGraph.from_pandas(pdf, w_col="w").relabeled()
        b, ub, vb = BipartiteGraph.from_pandas(pdf.sample(frac=1.0, random_state=1), w_col="w").relabeled()
        for x, y in ((a.u, b.u), (a.v, b.v), (a.w, b.w), (ua, ub), (va, vb)):
            np.testing.assert_array_equal(x, y)

    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=50)
    )
    @settings(max_examples=30, deadline=None)
    def test_relabeled_degree_multiset_invariant(self, pairs):
        u, v = zip(*pairs)
        g = BipartiteGraph.from_edges(list(u), list(v))
        compact, _, _ = g.relabeled()
        assert sorted(compact.degrees_u()[compact.degrees_u() > 0]) == sorted(
            g.degrees_u()[g.degrees_u() > 0]
        )
        assert compact.n_edges == g.n_edges
