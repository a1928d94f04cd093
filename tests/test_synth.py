"""Tests for the JD-lite synthetic fraud-graph generator."""
import numpy as np
import pandas as pd
import pytest

from repro.core.density import merchant_weights
from repro.graph.bipartite import BipartiteGraph
from repro.synth_data import JD_PRESETS, jd_transactions
from tests.density_reference import phi


class TestJdGenerator:
    @pytest.fixture(scope="class")
    def jd1(self):
        return jd_transactions("jd1", scale=0.002, seed=0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            jd_transactions("jd9")

    def test_edge_schema(self, jd1):
        edges, _, _ = jd1
        assert list(edges.columns) == ["pin", "merchant"]
        assert edges["pin"].dtype == np.int64

    def test_no_duplicate_edges(self, jd1):
        edges, _, _ = jd1
        assert not edges.duplicated().any()

    def test_user_table_covers_all_pins(self, jd1):
        edges, users, meta = jd1
        assert len(users) == meta["n_pin"]
        assert edges["pin"].max() < meta["n_pin"]
        assert edges["merchant"].max() < meta["n_merchant"]

    def test_fraud_count_matches_meta(self, jd1):
        _, users, meta = jd1
        assert users["is_fraud"].sum() == meta["n_fraud"]

    def test_deterministic(self):
        a = jd_transactions("jd1", scale=0.002, seed=3)[0]
        b = jd_transactions("jd1", scale=0.002, seed=3)[0]
        pd.testing.assert_frame_equal(a, b)

    def test_seeds_differ(self):
        a = jd_transactions("jd1", scale=0.002, seed=1)[0]
        b = jd_transactions("jd1", scale=0.002, seed=2)[0]
        assert not a.equals(b)

    @pytest.mark.parametrize("preset", sorted(JD_PRESETS))
    def test_proportions_track_paper(self, preset):
        """Generated counts scale the paper's Table I rows (±tolerance;
        floors apply at tiny scales)."""
        scale = 0.01
        _, users, meta = jd_transactions(preset, scale=scale, seed=0)
        paper = JD_PRESETS[preset]
        assert meta["n_pin"] == max(200, int(paper["n_pin"] * scale))
        # edges may shrink slightly from dedup
        assert meta["n_edge"] > 0.8 * paper["n_edge"] * scale
        assert meta["n_edge"] <= 1.2 * paper["n_edge"] * scale + 1000

    @pytest.mark.parametrize("preset", sorted(JD_PRESETS))
    def test_fraud_blocks_denser_than_background(self, preset):
        """The planted blocks must realize the 'rare behaviour' clue:
        per-block φ well above the full-graph density."""
        edges, users, meta = jd_transactions(preset, scale=0.002, seed=0)
        g = BipartiteGraph.from_pandas(edges, n_u=meta["n_pin"], n_v=meta["n_merchant"])
        w_col = merchant_weights(g.degrees_v())
        background = phi(g, w_col=w_col)
        fraud_pins = meta["fraud_pins"]
        for b, merch in enumerate(meta["fraud_merchants_per_block"]):
            pins_b = fraud_pins[meta["block_of_pin"] == b]
            in_u = np.isin(g.u, pins_b)
            in_v = np.isin(g.v, merch)
            m = in_u & in_v
            sub = BipartiteGraph.from_edges(g.u[m], g.v[m], g.w[m], n_u=g.n_u, n_v=g.n_v)
            assert phi(sub, w_col=w_col) > 2.0 * background

    def test_blocks_are_disjoint(self, jd1):
        _, _, meta = jd1
        all_m = np.concatenate(meta["fraud_merchants_per_block"])
        assert len(all_m) == len(set(all_m.tolist()))

    def test_fraud_pins_are_labeled(self, jd1):
        _, users, meta = jd1
        labeled = set(users.loc[users["is_fraud"], "pin"])
        assert labeled == set(meta["fraud_pins"].tolist())

    def test_spark_wrapper(self, spark):
        """The generator's frames load into Spark, as callers do, row for row."""
        edges, users, meta = jd_transactions("jd1", scale=0.002)
        assert spark.createDataFrame(edges).count() == meta["n_edge"]
        assert spark.createDataFrame(users).count() == meta["n_pin"]

    def test_scale_grows_graph(self):
        small = jd_transactions("jd1", scale=0.002)[2]["n_edge"]
        big = jd_transactions("jd1", scale=0.01)[2]["n_edge"]
        assert big > 3 * small
