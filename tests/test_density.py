"""Tests for the density score φ: the numpy math, its properties, and DuckDB oracles for the Spark aggregations behind it."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.density import DEFAULT_C, edge_values, merchant_weights
from repro.graph.bipartite import BipartiteGraph
from tests.density_reference import phi
from tests.oracle import assert_equivalent


class TestMerchantWeights:
    def test_weight_formula(self):
        w = merchant_weights(np.array([0, 1, 10]), c=5.0)
        np.testing.assert_allclose(w, 1.0 / np.log(np.array([5.0, 6.0, 15.0])))

    def test_weights_decrease_with_degree(self):
        w = merchant_weights(np.arange(100))
        assert np.all(np.diff(w) < 0)

    def test_high_degree_discounted(self):
        # camouflage resistance: a degree-1000 merchant is worth far less
        w = merchant_weights(np.array([1, 1000]))
        assert w[1] < 0.3 * w[0]

    def test_c_must_exceed_one(self):
        with pytest.raises(ValueError, match="c must be"):
            merchant_weights(np.array([1]), c=1.0)

    def test_zero_degree_finite(self):
        assert np.isfinite(merchant_weights(np.array([0]))).all()

    @given(st.floats(min_value=1.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_positive_for_any_valid_c(self, c):
        assert (merchant_weights(np.arange(50), c=c) > 0).all()


class TestPhi:
    def test_empty_graph_zero(self):
        assert phi(BipartiteGraph.from_edges([], [])) == 0.0

    def test_single_edge(self):
        g = BipartiteGraph.from_edges([0], [0])
        # f = 1/log(1+5); two nodes
        assert phi(g) == pytest.approx(1.0 / np.log(6.0) / 2.0)

    def test_complete_block_value(self):
        # 4 users x 3 merchants complete: every merchant degree 4
        u = np.repeat(np.arange(4), 3)
        v = np.tile(np.arange(3), 4)
        g = BipartiteGraph.from_edges(u, v)
        expect = 12 * (1.0 / np.log(4 + 5)) / 7
        assert phi(g) == pytest.approx(expect)

    def test_denser_block_higher_phi(self):
        dense = BipartiteGraph.from_edges(np.repeat(np.arange(5), 5), np.tile(np.arange(5), 5))
        sparse = BipartiteGraph.from_edges(np.arange(5), np.arange(5))
        assert phi(dense) > phi(sparse)

    def test_edge_weights_scale_f(self):
        g1 = BipartiteGraph.from_edges([0, 1], [0, 0])
        g2 = BipartiteGraph.from_edges([0, 1], [0, 0], w=[2.0, 2.0])
        # same degrees (weights don't change degree counts), doubled f
        assert phi(g2, w_col=merchant_weights(g2.degrees_v())) == pytest.approx(
            2 * phi(g1, w_col=merchant_weights(g1.degrees_v()))
        )

    def test_external_w_col_respected(self):
        g = BipartiteGraph.from_edges([0, 1], [0, 1])
        w_col = np.array([1.0, 0.0])
        # merchant 1's edge contributes nothing
        assert phi(g, w_col=w_col) == pytest.approx(1.0 / 4.0)

    def test_n_nodes_override(self):
        g = BipartiteGraph.from_edges([0], [0])
        assert phi(g, n_nodes=10) == pytest.approx(phi(g) * 2 / 10)

    def test_isolated_ids_not_counted(self):
        a = BipartiteGraph.from_edges([0], [0])
        b = BipartiteGraph.from_edges([0], [0], n_u=100, n_v=100)
        assert phi(a) == pytest.approx(phi(b))

    def test_phi_camouflage_resistance(self):
        """Adding edges to a popular merchant barely raises a block's f."""
        bu, bm = 6, 4
        u = np.repeat(np.arange(bu), bm)
        v = np.tile(np.arange(bm), bu)
        # popular merchant id bm with degree 200 from other users
        pu = np.arange(bu, bu + 200)
        pv = np.full(200, bm)
        g = BipartiteGraph.from_edges(
            np.concatenate([u, pu]), np.concatenate([v, pv])
        )
        w_col = merchant_weights(g.degrees_v())
        vals = edge_values(g, w_col)
        camo_value = vals[-1]  # one edge to the popular merchant
        block_value = vals[0]  # one edge inside the block
        assert camo_value < 0.5 * block_value


class TestPhiSpark:
    """The Spark aggregations behind φ (merchant degree, weighted mass)
    match DuckDB SQL on the same edges."""

    @pytest.fixture(scope="class")
    def edge_pdf(self):
        rng = np.random.default_rng(7)
        return pd.DataFrame(
            {"pin": rng.integers(0, 40, 250), "merchant": rng.integers(0, 25, 250)}
        ).drop_duplicates(ignore_index=True)

    def test_degree_aggregation_oracle(self, spark, edge_pdf):
        """The merchant-degree groupBy matches DuckDB SQL exactly."""
        deg = (
            spark.createDataFrame(edge_pdf)
            .groupBy("merchant")
            .count()
            .withColumnRenamed("count", "d_j")
        )
        assert_equivalent(
            deg,
            "SELECT merchant, COUNT(*) AS d_j FROM edges GROUP BY merchant",
            edges=edge_pdf,
        )

    def test_weighted_mass_oracle(self, spark, edge_pdf):
        """The f(S) aggregation (join + 1/log) matches DuckDB."""
        from pyspark.sql import functions as F

        e = spark.createDataFrame(edge_pdf)
        deg = e.groupBy("merchant").agg(F.count(F.lit(1)).alias("d_j"))
        f_df = (
            e.join(deg, "merchant")
            .agg(F.sum(1.0 / F.log(F.col("d_j") + F.lit(5.0))).alias("f"))
        )
        assert_equivalent(
            f_df,
            """
            SELECT SUM(1.0 / LN(d_j + 5.0)) AS f FROM (
              SELECT e.merchant, d.d_j FROM edges e
              JOIN (SELECT merchant, COUNT(*) AS d_j FROM edges GROUP BY merchant) d
              USING (merchant))
            """,
            edges=edge_pdf,
        )
