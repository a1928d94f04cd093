"""Tests for the EnsemFDet ensemble pipeline (Algorithm 2) on Spark."""
import itertools
import re

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.ensemble import (
    EnsemFDetRun,
    detect_on_samples,
    ensemfdet,
    vote,
    vote_table,
)
from repro.core.fdet import fdet
from repro.core.sampling import sample_edges_spark
from repro.eval.metrics import prf, threshold_sweep
from repro.graph.bipartite import BipartiteGraph
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def jd1_run(spark, jd1_small):
    """One shared EnsemFDet run on jd1 (module-scoped: Spark runs are slow)."""
    edges, users, g, truth, meta = jd1_small
    edges_df = spark.createDataFrame(edges)
    run = ensemfdet(spark, edges_df, method="RES", s=0.3, n=12, seed=0)
    return run, truth, edges


class TestPipelinePieces:
    def test_detect_on_samples_schema(self, spark, jd1_small):
        edges, *_ = jd1_small
        samples = sample_edges_spark(spark.createDataFrame(edges), "RES", 0.3, 2, seed=1)
        det = detect_on_samples(samples)
        assert set(det.columns) == {"sample_id", "side", "node", "block", "phi"}
        pdf = det.toPandas()
        assert set(pdf["side"].unique()).issubset({"pin", "merchant"})
        assert (pdf["phi"] > 0).all()

    def test_detected_nodes_exist_in_sample(self, spark, jd1_small):
        edges, *_ = jd1_small
        samples = sample_edges_spark(spark.createDataFrame(edges), "RES", 0.4, 1, seed=2)
        sample_pdf = samples.toPandas()
        det = detect_on_samples(samples).toPandas()
        pins = set(sample_pdf["pin"])
        merch = set(sample_pdf["merchant"])
        assert set(det.loc[det["side"] == "pin", "node"]).issubset(pins)
        assert set(det.loc[det["side"] == "merchant", "node"]).issubset(merch)

    def test_vote_counts_distinct_samples(self, spark):
        """A node detected twice in one sample casts a single vote."""
        det = spark.createDataFrame(
            pd.DataFrame(
                {
                    "sample_id": [0, 0, 1, 2],
                    "side": ["pin"] * 4,
                    "node": [7, 7, 7, 8],
                    "block": [0, 1, 0, 0],
                    "phi": [1.0] * 4,
                }
            )
        )
        out = vote(det).toPandas().set_index("node")["votes"]
        assert out[7] == 2  # samples {0, 1}, not 3 rows
        assert out[8] == 1

    def test_vote_oracle(self, spark):
        """The vote aggregation matches DuckDB SQL."""
        det_pdf = pd.DataFrame(
            {
                "sample_id": [0, 0, 1, 2, 2, 3],
                "side": ["pin", "merchant", "pin", "pin", "pin", "merchant"],
                "node": [1, 1, 1, 1, 2, 9],
                "block": [0] * 6,
                "phi": [1.0] * 6,
            }
        )
        votes = vote(spark.createDataFrame(det_pdf))
        assert_equivalent(
            votes,
            """
            SELECT side, node, COUNT(*) AS votes FROM (
              SELECT DISTINCT sample_id, side, node FROM detected)
            GROUP BY side, node
            """,
            detected=det_pdf,
        )

    def test_vote_table_of_empty_frame_is_typed(self):
        empty = pd.DataFrame({"sample_id": [], "side": [], "node": []})
        votes = vote_table(empty)
        assert votes.empty
        assert votes.dtypes.astype(str).to_dict() == {"side": "object", "node": "int64", "votes": "int64"}

    def test_accept_threshold(self):
        """``detected_pins`` accepts the pins with votes >= T, and no merchant."""
        votes = pd.DataFrame(
            {"side": ["pin", "pin", "merchant"], "node": [1, 2, 3], "votes": [5, 2, 9]}
        )
        run = EnsemFDetRun(None, "RES", 0.1, 12, 30, table=votes)
        assert run.detected_pins(3).tolist() == [1]


class TestEnsemFDetEndToEnd:
    def test_votes_bounded_by_n(self, jd1_run):
        run, _, _ = jd1_run
        assert run.votes.agg(F.max("votes")).collect()[0][0] <= run.n

    def test_detects_planted_fraud(self, jd1_run):
        run, truth, _ = jd1_run
        sweep = threshold_sweep(run.pin_votes(), truth, np.arange(1, run.n + 1))
        assert sweep["f1"].max() > 0.8

    def test_precision_monotone_in_t(self, jd1_run):
        """Fig. 9 claim: precision rises (weakly) with T."""
        run, truth, _ = jd1_run
        sweep = threshold_sweep(run.pin_votes(), truth, np.arange(1, run.n + 1))
        active = sweep[sweep["n_detected"] > 0]
        p = active["precision"].to_numpy()
        # allow tiny local wiggles but overall non-decreasing trend
        assert p[-1] >= p[0]
        assert np.sum(np.diff(p) < -0.05) <= 1

    def test_recall_monotone_decreasing_in_t(self, jd1_run):
        run, truth, _ = jd1_run
        sweep = threshold_sweep(run.pin_votes(), truth, np.arange(1, run.n + 1))
        r = sweep["recall"].to_numpy()
        assert np.all(np.diff(r) <= 1e-12)

    def test_n_detected_decreasing_in_t(self, jd1_run):
        run, truth, _ = jd1_run
        sweep = threshold_sweep(run.pin_votes(), truth, np.arange(1, run.n + 1))
        assert np.all(np.diff(sweep["n_detected"].to_numpy()) <= 0)

    def test_detected_pins_match_accept(self, jd1_run):
        """``detected_pins`` is Definition 4's accept rule on the pin votes."""
        run, _, _ = jd1_run
        t = 3
        via_api = set(run.detected_pins(t).tolist())
        pin_votes = run.pin_votes()
        via_accept = set(pin_votes.loc[pin_votes["votes"] >= t, "node"].tolist())
        assert via_api == via_accept

    def test_run_built_from_votes_view_reads_the_same_votes(self, jd1_run):
        """``ensbench`` builds a run from a vote DataFrame alone."""
        run, _, _ = jd1_run
        rebuilt = EnsemFDetRun(run.votes, run.method, run.s, run.n, run.k_max)
        pd.testing.assert_frame_equal(rebuilt.pin_votes(), run.pin_votes())

    @pytest.mark.parametrize(
        "reject",
        [lambda run: run.detected_pins(0), lambda run: run.detected_pins(13)],
        ids=["detected_pins-T0", "detected_pins-T-above-N"],
    )
    def test_bad_threshold_rejected(self, jd1_run, reject):
        run, _, _ = jd1_run
        with pytest.raises(ValueError, match="voting threshold"):
            reject(run)

    def test_votes_invariant_to_input_partitioning(self, spark, jd1_small):
        """Votes depend neither on the input's partitions nor on
        ``spark.sql.shuffle.partitions``."""
        edges, *_ = jd1_small
        edges_df = spark.createDataFrame(edges)
        saved = spark.conf.get("spark.sql.shuffle.partitions")
        tables = []
        try:
            for parts, shuffle in itertools.product((1, 7), (1, 7, 200)):
                spark.conf.set("spark.sql.shuffle.partitions", shuffle)
                run = ensemfdet(spark, edges_df.repartition(parts), method="RES", s=0.3, n=12, seed=0)
                tables.append(run.votes.toPandas().sort_values(["side", "node"], ignore_index=True))
                run.votes.unpersist()
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", saved)
        for table in tables[1:]:
            pd.testing.assert_frame_equal(tables[0], table)

    def test_shuffles_follow_parallelism_not_conf(self, spark, jd1_small):
        """One Exchange, into the solve, with one partition per core,
        whatever ``spark.sql.shuffle.partitions`` says."""
        edges, *_ = jd1_small
        samples = sample_edges_spark(spark.createDataFrame(edges), "RES", 0.3, 12, seed=0)
        k = spark.sparkContext.defaultParallelism
        saved = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            for shuffle in (1, 200):
                spark.conf.set("spark.sql.shuffle.partitions", shuffle)
                detected = detect_on_samples(samples)
                detected.collect()
                plan = detected._jdf.queryExecution().executedPlan().toString()
                final = plan.split("== Initial Plan ==")[0]
                exchanges = re.findall(r"Exchange (.*)", final)
                assert len(exchanges) == 1, final
                assert re.match(r"hashpartitioning\(sample_id#\d+, (\d+)\)", exchanges[0]).group(1) == str(k), final
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", saved)

    @pytest.mark.parametrize("n", [3, 12], ids=["n3", "n12"])
    def test_solve_runs_min_k_n_tasks_without_exchange(self, spark, jd1_small, monkeypatch, n):
        """``ensemfdet``'s solve job is one stage of min(k, N) tasks with no
        Exchange, whatever ``spark.sql.shuffle.partitions`` says."""
        edges, *_ = jd1_small
        edges_df = spark.createDataFrame(edges)
        frames = []
        map_in_arrow = type(edges_df).mapInArrow

        def capture(self, func, schema, *args, **kwargs):
            frames.append(map_in_arrow(self, func, schema, *args, **kwargs))
            return frames[-1]

        monkeypatch.setattr(type(edges_df), "mapInArrow", capture)
        sc, k = spark.sparkContext, spark.sparkContext.defaultParallelism
        saved = spark.conf.get("spark.sql.shuffle.partitions")
        try:
            for shuffle in (1, 200):
                spark.conf.set("spark.sql.shuffle.partitions", shuffle)
                group = f"solve-plan-{n}-{shuffle}"
                sc.setJobGroup(group, "one ensemfdet call")
                try:
                    ensemfdet(spark, edges_df, method="RES", s=0.3, n=n, seed=0)
                finally:
                    sc.setLocalProperty("spark.jobGroup.id", None)
                plan = frames[-1]._jdf.queryExecution().executedPlan().toString()
                assert "Exchange" not in plan, plan
                st = sc.statusTracker()
                solve_job = st.getJobInfo(max(st.getJobIdsForGroup(group)))
                assert [st.getStageInfo(i).numTasks for i in solve_job.stageIds] == [min(k, n)]
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", saved)

    def test_votes_view_built_on_first_read(self, spark, jd1_small, monkeypatch):
        """``ensemfdet`` builds no Spark view of its votes; ``run.votes`` builds one, once."""
        edges, *_ = jd1_small
        edges_df = spark.createDataFrame(edges)
        calls = []
        create = type(spark).createDataFrame

        def counting(self, *args, **kwargs):
            calls.append(args)
            return create(self, *args, **kwargs)

        monkeypatch.setattr(type(spark), "createDataFrame", counting)
        run = ensemfdet(spark, edges_df, method="RES", s=0.3, n=4, seed=0)
        assert not run.pin_votes().empty
        assert calls == []
        votes = run.votes
        assert run.votes is votes
        assert len(calls) == 1
        got = votes.toPandas().sort_values(["side", "node"], ignore_index=True)
        pd.testing.assert_frame_equal(got, run.table, check_dtype=False)
        votes.unpersist()

    def test_empty_input_gives_empty_votes(self, spark):
        run = ensemfdet(spark, spark.createDataFrame([], "pin long, merchant long"), s=0.3, n=4)
        assert run.votes.count() == 0
        assert run.pin_votes().empty

    def test_one_full_sample_matches_fdet(self, spark, jd1_small):
        """RES with S = 1, N = 1 solves the whole graph once: it flags
        exactly the pins ``fdet`` flags on the relabeled graph."""
        edges, *_ = jd1_small
        got = ensemfdet(spark, spark.createDataFrame(edges), method="RES", s=1.0, n=1, seed=0).detected_pins(1)
        g, uids, _ = BipartiteGraph.from_pandas(edges).relabeled()
        np.testing.assert_array_equal(got, np.sort(uids[fdet(g).detected_users()]))

    def test_votes_read_on_the_driver_with_nothing_cached(self, spark, jd1_small):
        """``ensemfdet`` leaves nothing in Spark's cache, and reading its
        votes afterwards submits no Spark job."""
        edges, *_ = jd1_small
        spark.catalog.clearCache()
        run = ensemfdet(spark, spark.createDataFrame(edges), method="RES", s=0.3, n=12, seed=0)
        assert spark._jsparkSession.sharedState().cacheManager().isEmpty()
        sc, group = spark.sparkContext, "read-votes-after-ensemfdet"
        sc.setJobGroup(group, "reads of a finished run's votes")
        try:
            assert not run.pin_votes().empty
            assert len(run.detected_pins(1)) > 0
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []

    def test_deterministic_across_runs(self, spark, jd1_small):
        edges, _, _, truth, _ = jd1_small
        edges_df = spark.createDataFrame(edges)
        a = ensemfdet(spark, edges_df, method="RES", s=0.3, n=4, seed=7)
        b = ensemfdet(spark, edges_df, method="RES", s=0.3, n=4, seed=7)
        pa = a.pin_votes().sort_values("node").reset_index(drop=True)
        pb = b.pin_votes().sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(pa, pb)

    @pytest.mark.parametrize("method", ["ONS_MERCHANT", "TNS"])
    def test_other_sampling_methods_work(self, spark, jd1_small, method):
        edges, _, _, truth, _ = jd1_small
        edges_df = spark.createDataFrame(edges)
        # TNS keeps ~s² of edges, so use a larger s for it
        s = 0.6 if method == "TNS" else 0.3
        run = ensemfdet(spark, edges_df, method=method, s=s, n=12, seed=0)
        sweep = threshold_sweep(run.pin_votes(), truth, np.arange(1, 13))
        assert sweep["f1"].max() > 0.5


class TestInputIds:
    """Bad ids fail on the driver with a ValueError naming the column and
    the first bad value, before any sample is drawn or solved."""

    @pytest.fixture(params=["ensemfdet", "sample_edges_spark"])
    def entry(self, request, spark):
        if request.param == "ensemfdet":
            return lambda df: ensemfdet(spark, df, method="RES", s=0.5, n=4, seed=0)
        return lambda df: sample_edges_spark(df, "RES", 0.5, 4, seed=0)

    def test_null_id(self, spark, entry):
        df = spark.createDataFrame([(1, 2), (3, 4), (None, 5)], "pin long, merchant long")
        with pytest.raises(ValueError, match=r"^pin ids .* row 2 holds None"):
            entry(df)

    def test_negative_id(self, spark, entry):
        df = spark.createDataFrame([(1, 2), (3, -7), (4, -8)], "pin long, merchant long")
        with pytest.raises(ValueError, match=r"^merchant ids .* row 1 holds -7"):
            entry(df)

    @pytest.mark.parametrize(
        "rows, ddl, first",
        [([(1.5, 2), (3.0, 4)], "pin double, merchant long", "1.5"), ([("a", 2), ("b", 4)], "pin string, merchant long", "'a'")],
        ids=["double", "string"],
    )
    def test_non_integer_ids(self, spark, entry, rows, ddl, first):
        df = spark.createDataFrame(rows, ddl)
        with pytest.raises(ValueError, match=rf"^pin ids .* first {first}$"):
            entry(df)
