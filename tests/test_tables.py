"""Tests for the experiment harnesses in repro.eval.tables (small scales)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.ensemble import ensemfdet
from repro.eval.metrics import threshold_sweep
from repro.eval.tables import (
    PAPER_TABLE3,
    _ensemble_sweep,
    fig1_block_scores,
    format_markdown,
    table1_rows,
    table2_rows,
    truncation_comparison,
)


class TestTable1:
    def test_rows_cover_all_datasets(self):
        rows = table1_rows(scale=0.002)
        assert [r["dataset"] for r in rows] == ["jd1", "jd2", "jd3"]

    def test_paper_numbers_recorded(self):
        rows = table1_rows(scale=0.002)
        assert rows[0]["paper_pin"] == 454_925
        assert rows[2]["paper_edge"] == 7_997_696

    def test_generated_counts_positive(self):
        for r in table1_rows(scale=0.002):
            assert r["gen_pin"] > 0 and r["gen_edge"] > 0 and r["gen_fraud"] > 0

    def test_fraud_fraction_ordering_matches_paper(self):
        """jd1 has the highest fraud share, jd2 the lowest — in the paper
        and in the generated data (floors can compress, not reorder)."""
        rows = {r["dataset"]: r for r in table1_rows(scale=0.01)}
        gen_frac = {k: r["gen_fraud"] / r["gen_pin"] for k, r in rows.items()}
        assert gen_frac["jd1"] > gen_frac["jd3"] > gen_frac["jd2"]


class TestTable2:
    def test_all_parameters_present(self):
        names = {r["parameter"] for r in table2_rows()}
        assert names == {"N", "S", "T", "R"}


class TestTable3Constants:
    def test_paper_speedups_are_near_10x(self):
        for d, t in PAPER_TABLE3.items():
            assert 9 < t["fraudar"] / t["ensemfdet"] < 15


class TestEnsembleSweep:
    def test_sweeps_every_threshold_of_one_run(self, spark, jd1_small):
        edges, _, _, truth, _ = jd1_small
        edges_df = spark.createDataFrame(edges)
        sweep = _ensemble_sweep(spark, edges_df, truth, "RES", 0.3, 4, 0)
        assert sweep["T"].tolist() == [1, 2, 3, 4]
        assert sweep["f1"].max() > 0
        run = ensemfdet(spark, edges_df, method="RES", s=0.3, n=4, seed=0)
        pd.testing.assert_frame_equal(sweep, threshold_sweep(run.pin_votes(), truth, np.arange(1, 5)))


class TestFig1:
    def test_block_scores_decreasing_per_sample(self, spark):
        df = fig1_block_scores(spark, preset="jd1", scale=0.002, n_curves=3)
        for _, grp in df.groupby("sample"):
            phis = grp.sort_values("block")["phi"].to_numpy()
            assert np.all(np.diff(phis) <= 1e-9)

    def test_multiple_curves(self, spark):
        df = fig1_block_scores(spark, preset="jd1", scale=0.002, n_curves=3)
        assert df["sample"].nunique() == 3


class TestFig6:
    def test_both_variants_on_shared_samples(self, spark):
        df = truncation_comparison(spark, preset="jd1", scale=0.002, s=0.3, n=6, k_fix=10)
        assert df["variant"].tolist() == ["EnsemFDet (truncated)", "EnsemFDet-FIX-K (k=10)"]
        assert 1 <= df["max_k_hat"].iloc[0] < 15  # paper: every k̂ < 15
        assert df["max_k_hat"].iloc[1] == 10  # FIX-K keeps all k_fix blocks on some sample
        assert (df["f1"] > 0).all()


class TestFormatMarkdown:
    def test_renders_table(self):
        md = format_markdown([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4

    def test_accepts_dataframe(self):
        md = format_markdown(pd.DataFrame({"x": [1]}))
        assert "| x |" in md
