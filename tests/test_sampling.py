"""Tests for RES/ONS/TNS sampling, Lemma 1 and Theorem 1, all on the Spark sampler,
and the sampler's parity with Spark's own ``xxhash64`` predicate."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.density import merchant_weights
from repro.core.sampling import METHODS, sample_edges_spark, xxhash64
from repro.graph.bipartite import BipartiteGraph
from tests import sampling_reference
from tests.density_reference import phi
from tests.oracle import assert_equivalent

#: int64 values at and next to the type's edges, mixed into random ids.
_EDGE_LONGS = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**31 - 1, 2**31, 2**62, 2**63 - 2, 2**63 - 1]


def expected_sampled_degree_counts(
    degree_hist: np.ndarray, p_v: float, p_e: float
) -> tuple[np.ndarray, np.ndarray]:
    """Paper Eq. 3: E_NS[d_q] and E_ES[d_q] per original degree q.

    ``degree_hist[q]`` = f_D(q), the number of nodes of degree q in the
    original graph. Returns the two expectation curves; Lemma 1 says ES
    overtakes NS above q = log(1-p_v)/log(1-p_e).
    """
    f_d = np.asarray(degree_hist, dtype=np.float64)
    q = np.arange(len(f_d), dtype=np.float64)
    e_ns = f_d * p_v
    e_es = f_d * (1.0 - (1.0 - p_e) ** q)
    return e_ns, e_es


def lemma1_crossover(p_v: float, p_e: float) -> float:
    """Degree threshold above which ES samples nodes at a higher rate than NS."""
    return float(np.log(1.0 - p_v) / np.log(1.0 - p_e))


@pytest.fixture(scope="module")
def edge_pdf():
    rng = np.random.default_rng(11)
    return pd.DataFrame(
        {"pin": rng.integers(0, 300, 3000), "merchant": rng.integers(0, 200, 3000)}
    ).drop_duplicates(ignore_index=True)


@pytest.fixture(scope="module")
def edges_df(spark, edge_pdf):
    df = spark.createDataFrame(edge_pdf)
    df.cache().count()
    return df


class TestSparkSamplingValidation:
    def test_bad_method(self, edges_df):
        with pytest.raises(ValueError, match="unknown sampling method"):
            sample_edges_spark(edges_df, "BOGUS", 0.1, 4)

    @pytest.mark.parametrize("s", [0.0, -0.1, 1.5])
    def test_bad_ratio(self, edges_df, s):
        with pytest.raises(ValueError, match="sample ratio"):
            sample_edges_spark(edges_df, "RES", s, 4)

    def test_bad_n(self, edges_df):
        with pytest.raises(ValueError, match="at least one sample"):
            sample_edges_spark(edges_df, "RES", 0.1, 0)


class TestSparkSamplingSemantics:
    @pytest.mark.parametrize("method", METHODS)
    def test_samples_are_edge_sets(self, edges_df, method):
        """A sample is its edges alone: no weight column rides along."""
        assert sample_edges_spark(edges_df, method, 0.5, 2).columns == ["sample_id", "pin", "merchant"]

    @pytest.mark.parametrize("method", METHODS)
    def test_produces_n_sample_ids(self, edges_df, method):
        out = sample_edges_spark(edges_df, method, 0.5, 6, seed=1).toPandas()
        assert set(out["sample_id"].unique()).issubset(set(range(6)))
        assert out["sample_id"].nunique() >= 5  # overwhelmingly likely

    @pytest.mark.parametrize("method", METHODS)
    def test_sampled_edges_are_real_edges(self, edges_df, edge_pdf, method):
        out = sample_edges_spark(edges_df, method, 0.3, 3, seed=2).toPandas()
        real = set(zip(edge_pdf["pin"], edge_pdf["merchant"]))
        got = set(zip(out["pin"], out["merchant"]))
        assert got.issubset(real)

    @pytest.mark.parametrize("method", METHODS)
    def test_deterministic_in_seed(self, edges_df, method):
        a = sample_edges_spark(edges_df, method, 0.2, 3, seed=5).toPandas()
        b = sample_edges_spark(edges_df, method, 0.2, 3, seed=5).toPandas()
        key = ["sample_id", "pin", "merchant"]
        pd.testing.assert_frame_equal(
            a.sort_values(key).reset_index(drop=True),
            b.sort_values(key).reset_index(drop=True),
        )

    def test_different_seeds_differ(self, edges_df):
        a = sample_edges_spark(edges_df, "RES", 0.2, 1, seed=5).count()
        ap = sample_edges_spark(edges_df, "RES", 0.2, 1, seed=6)
        b = sample_edges_spark(edges_df, "RES", 0.2, 1, seed=5)
        # same seed same count; different seed → different edge set (w.h.p.)
        assert b.count() == a
        overlap = ap.join(b, ["pin", "merchant"]).count()
        assert overlap < min(ap.count(), a)

    def test_res_ratio_approx(self, edges_df, edge_pdf):
        n, s = 10, 0.2
        out = sample_edges_spark(edges_df, "RES", s, n, seed=3)
        per = out.groupBy("sample_id").count().toPandas()["count"]
        expect = s * len(edge_pdf)
        assert abs(per.mean() - expect) < 0.15 * expect

    def test_ons_merchant_keeps_full_columns(self, edges_df, edge_pdf):
        """Every edge of a sampled merchant is present in that sample."""
        out = sample_edges_spark(edges_df, "ONS_MERCHANT", 0.3, 2, seed=4).toPandas()
        full_deg = edge_pdf.groupby("merchant").size()
        for sid, grp in out.groupby("sample_id"):
            got_deg = grp.groupby("merchant").size()
            for m, d in got_deg.items():
                assert d == full_deg[m], "ONS must keep whole adjacency rows"

    def test_ons_pin_keeps_full_rows(self, edges_df, edge_pdf):
        out = sample_edges_spark(edges_df, "ONS_PIN", 0.3, 2, seed=4).toPandas()
        full_deg = edge_pdf.groupby("pin").size()
        for sid, grp in out.groupby("sample_id"):
            for p, d in grp.groupby("pin").size().items():
                assert d == full_deg[p]

    def test_tns_is_intersection_of_side_samples(self, edges_df):
        """TNS sample ⊆ corresponding ONS_PIN sample of the same seed."""
        tns = sample_edges_spark(edges_df, "TNS", 0.4, 2, seed=9).toPandas()
        ons = sample_edges_spark(edges_df, "ONS_PIN", 0.4, 2, seed=9).toPandas()
        key = set(map(tuple, ons[["sample_id", "pin", "merchant"]].to_numpy()))
        assert all(tuple(r) in key for r in tns[["sample_id", "pin", "merchant"]].to_numpy())

    def test_tns_ratio_approx_s_squared(self, edges_df, edge_pdf):
        n, s = 16, 0.3
        out = sample_edges_spark(edges_df, "TNS", s, n, seed=3)
        per_sample = out.count() / n
        expect = s * s * len(edge_pdf)
        assert abs(per_sample - expect) < 0.5 * expect

    def test_sample_count_oracle(self, spark, edges_df, edge_pdf):
        """Per-sample edge counts agree with a DuckDB replica of the
        sampling computed from the materialized sample table itself."""
        out = sample_edges_spark(edges_df, "RES", 0.2, 4, seed=1)
        counts = out.groupBy("sample_id").agg(F.count(F.lit(1)).alias("n_edges"))
        assert_equivalent(
            counts,
            "SELECT sample_id, COUNT(*) AS n_edges FROM samples GROUP BY sample_id",
            samples=out.toPandas(),
        )


class TestXxhash64Port:
    """The numpy port equals Spark's ``F.xxhash64`` (seed 42), column by column."""

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(5)
        n = 2000
        a = np.concatenate([_EDGE_LONGS, rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True)])
        b = np.concatenate([_EDGE_LONGS[::-1], rng.integers(0, 2**62, n, dtype=np.int64)])
        i = np.concatenate([[-(2**31), -1, 0, 2**31 - 1] * 2 + [7, 79], rng.integers(0, 80, n)]).astype(np.int32)
        return pd.DataFrame({"a": a, "b": b, "i": i})

    @pytest.mark.parametrize("seed", [0, 1, -5, 2**31 - 1, 2**31, 2**31 + 1_000_003, -(2**31) - 1])
    def test_chains_match_spark(self, spark, rows, seed):
        """Long columns (hashLong), an int column (hashInt) and the seed
        literal, typed as ``F.lit`` types it: int if it fits 32 bits, else long."""
        df = spark.createDataFrame(rows, "a long, b long, i int")
        chains = {"a": ["a"], "a_b": ["a", "b"], "a_i_seed": ["a", "i", F.lit(seed)], "a_b_i_seed": ["a", "b", "i", F.lit(seed)]}
        got = df.select(*[F.xxhash64(*cols).alias(name) for name, cols in chains.items()]).toPandas()
        a, b, i = (rows[c].to_numpy() for c in "abi")
        np.testing.assert_array_equal(got["a"], xxhash64(a))
        np.testing.assert_array_equal(got["a_b"], xxhash64(a, b))
        np.testing.assert_array_equal(got["a_i_seed"], xxhash64(a, i, seed))
        np.testing.assert_array_equal(got["a_b_i_seed"], xxhash64(a, b, i, seed))
        # a chain resumed from a hashed prefix, as the sampler hashes it
        np.testing.assert_array_equal(got["a_b_i_seed"], xxhash64(i, seed, seed=xxhash64(a, b)))

    def test_scalar_sample_ids_hash_as_ints(self, rows):
        """A Python-int sample id chains as the int column it replaces."""
        a, i = rows["a"].to_numpy()[:50], rows["i"].to_numpy()[:50]
        per_row = [xxhash64(int(x), 3, seed=p) for x, p in zip(i, xxhash64(a))]
        np.testing.assert_array_equal(np.array(per_row), xxhash64(a, i, 3))


def _large_id_edges(seed: int = 3) -> pd.DataFrame:
    """Edges over a few hundred large ids (up to 2^62, zero included), with repeated nodes."""
    rng = np.random.default_rng(seed)
    pins = np.concatenate([[0, 2**62, 2**63 - 1], rng.integers(0, 2**62, 200)])
    merchants = np.concatenate([[0, 2**31, 2**62], rng.integers(0, 2**40, 80)])
    edges = pd.DataFrame({"pin": rng.choice(pins, 1500), "merchant": rng.choice(merchants, 1500)})
    return edges.drop_duplicates(ignore_index=True)


def _sorted(df) -> pd.DataFrame:
    return df.toPandas().sort_values(["sample_id", "pin", "merchant"], ignore_index=True)


class TestMatchesExplodeReference:
    """The broadcast sampler draws exactly the explode sampler's samples."""

    @pytest.fixture(scope="class")
    def large_ids_df(self, spark):
        return spark.createDataFrame(_large_id_edges(), "pin long, merchant long")

    @pytest.mark.parametrize("n", [3, 16], ids=["n3", "n16"])
    @pytest.mark.parametrize("seed", [0, 1, 2**31], ids=["seed0", "seed1", "seed2^31"])
    @pytest.mark.parametrize("method", METHODS)
    def test_same_edges_as_reference(self, spark, large_ids_df, method, seed, n):
        """N below and above the session's k = defaultParallelism (4 on
        a 4-core box): every sample equals the reference's, edge for edge."""
        s = 0.5 if method == "TNS" else 0.3
        want = _sorted(sampling_reference.sample_edges_spark(large_ids_df, method, s, n, seed))
        got = _sorted(sample_edges_spark(large_ids_df, method, s, n, seed))
        assert len(want) > 0
        pd.testing.assert_frame_equal(got, want)

    def test_other_columns_and_order_do_not_matter(self, spark, large_ids_df):
        """A frame with more columns, or (merchant, pin) order, gives the same samples."""
        wide = large_ids_df.select(F.lit(1.5).alias("w"), "merchant", "pin")
        want = _sorted(sample_edges_spark(large_ids_df, "TNS", 0.5, 3, seed=1))
        pd.testing.assert_frame_equal(_sorted(sample_edges_spark(wide, "TNS", 0.5, 3, seed=1)), want)

    @pytest.mark.parametrize("method", ["RES", "TNS"])
    def test_int_typed_ids_hash_as_ints(self, spark, method):
        """Int-typed id columns hash through hashInt, as Spark hashes them."""
        edges = _large_id_edges() % (2**31 - 1)
        df = spark.createDataFrame(edges.drop_duplicates(ignore_index=True), "pin int, merchant int")
        want = sampling_reference.sample_edges_spark(df, method, 0.5, 5, seed=2)
        got = sample_edges_spark(df, method, 0.5, 5, seed=2)
        assert got.dtypes == want.dtypes
        pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


class TestLemma1:
    """ES samples high-degree nodes at a higher rate than NS (Lemma 1)."""

    def test_expected_counts_formula(self):
        hist = np.array([0, 100, 50, 25])  # f_D(q)
        e_ns, e_es = expected_sampled_degree_counts(hist, p_v=0.2, p_e=0.1)
        np.testing.assert_allclose(e_ns, hist * 0.2)
        np.testing.assert_allclose(e_es, hist * (1 - 0.9 ** np.arange(4)))

    def test_crossover_threshold(self):
        q_star = lemma1_crossover(p_v=0.2, p_e=0.1)
        hist = np.ones(60)
        e_ns, e_es = expected_sampled_degree_counts(hist, 0.2, 0.1)
        q = np.arange(60)
        assert np.all(e_es[q > q_star] > e_ns[q > q_star])
        assert np.all(e_es[(q > 0) & (q < q_star)] < e_ns[(q > 0) & (q < q_star)])

    def test_empirical_lemma1(self, spark):
        """Monte-Carlo check on a graph with a degree spread: RES(=ES)
        retains high-degree merchants more often than ONS(=NS)."""
        rng = np.random.default_rng(0)
        # merchant 0 has degree 60; merchants 1..60 degree 1
        u = np.concatenate([rng.permutation(60), np.arange(60, 120)])
        v = np.concatenate([np.zeros(60, np.int64), np.arange(1, 61)])
        edges = spark.createDataFrame(pd.DataFrame({"pin": u, "merchant": v}))
        s = 0.2

        def samples_with_merchant_0(method):
            out = sample_edges_spark(edges, method, s, 200, seed=0)
            return out.where(F.col("merchant") == 0).select("sample_id").distinct().count()

        hit_es = samples_with_merchant_0("RES")
        hit_ns = samples_with_merchant_0("ONS_MERCHANT")
        assert hit_es > hit_ns  # ~100% vs ~20%


def rescaled_phi_errors(spark, g: BipartiteGraph, p: float, n: int) -> list[float]:
    """Relative φ error of each of ``n`` RES samples at ratio ``p``, with
    the 1/p weights of Theorem 1 attached here, against the full graph;
    column weights stay those of the full graph on both sides."""
    w_col = merchant_weights(g.degrees_v())
    full = phi(g, w_col=w_col)
    edges = spark.createDataFrame(pd.DataFrame({"pin": g.u, "merchant": g.v}))
    pdf = sample_edges_spark(edges, "RES", p, n, seed=0).toPandas()
    rescaled = (
        BipartiteGraph.from_edges(grp["pin"], grp["merchant"], np.full(len(grp), 1 / p), n_u=g.n_u, n_v=g.n_v)
        for _, grp in pdf.groupby("sample_id")
    )
    return [abs(phi(sample, w_col=w_col) - full) / full for sample in rescaled]


class TestTheorem1:
    """The graphs here repeat some (pin, merchant) rows; the hash sampler
    keeps or drops each repeat together with its twin, which leaves the
    rescaled edge mass an unbiased estimator of f."""

    def test_eps_approximation_of_phi(self, spark):
        """RES with 1/p rescaling approximates φ of a dense graph.

        Column weights are held fixed (from the full graph) on both
        sides, matching Theorem 1's setting where the metric's weights
        are data of the problem: the rescaled edge mass is then an
        unbiased estimator of f and φ concentrates."""
        rng = np.random.default_rng(1)
        # dense-ish graph so per-merchant degrees concentrate
        u = rng.integers(0, 80, 6000)
        v = rng.integers(0, 60, 6000)
        g = BipartiteGraph.from_edges(u, v, n_u=80, n_v=60)
        errs = rescaled_phi_errors(spark, g, 0.5, 10)
        assert np.mean(errs) < 0.05  # ε-approximation in expectation

    def test_eps_error_shrinks_with_p(self, spark):
        """Higher sampling probability → tighter φ approximation."""
        rng = np.random.default_rng(2)
        u = rng.integers(0, 80, 6000)
        v = rng.integers(0, 60, 6000)
        g = BipartiteGraph.from_edges(u, v, n_u=80, n_v=60)

        def mean_err(p):
            return np.mean(rescaled_phi_errors(spark, g, p, 12))

        assert mean_err(0.8) < mean_err(0.1)
