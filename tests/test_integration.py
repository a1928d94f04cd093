"""End-to-end integration: the full pipeline reproduces the paper's
qualitative claims on every JD-lite preset."""
import numpy as np
import pytest

from repro.baselines.fraudar import fraudar, fraudar_points
from repro.core.ensemble import ensemfdet
from repro.core.fdet import fdet
from repro.eval.metrics import prf, threshold_sweep


class TestEnsembleVsFraudar:
    """Fig. 3 claim: EnsemFDet ≈ FRAUDAR in F1 on every dataset, while
    EnsemFDet's operating points are fine-grained."""

    @pytest.fixture(scope="class")
    def results(self, spark, jd_small):
        preset, edges, users, g, truth, meta = jd_small
        edges_df = spark.createDataFrame(edges)
        run = ensemfdet(spark, edges_df, method="RES", s=0.3, n=12, seed=0)
        sweep = threshold_sweep(run.pin_votes(), truth, np.arange(1, 13))
        fr = fraudar(g, k=30)
        f_best = 0.0
        f_counts = []
        for pt in fraudar_points(fr):
            _, _, f1 = prf(pt["pins"], truth)
            f_best = max(f_best, f1)
            f_counts.append(pt["n_detected"])
        return preset, sweep, f_best, f_counts

    def test_ensemfdet_close_to_fraudar(self, results):
        preset, sweep, f_best, _ = results
        e_best = sweep["f1"].max()
        assert e_best > 0.75, f"{preset}: EnsemFDet F1 {e_best}"
        assert e_best > f_best - 0.15, f"{preset}: {e_best} vs FRAUDAR {f_best}"

    def test_ensemfdet_offers_many_operating_points(self, results):
        """The Fig. 4 practicability claim at test scale: nearly every
        threshold T yields a distinct detected-node count, so the
        operating point is controllable (FRAUDAR's coarseness is
        asserted separately in test_baselines)."""
        preset, sweep, _, f_counts = results
        e_counts = sorted(set(sweep["n_detected"]) - {0})
        assert len(e_counts) >= 8, f"{preset}: only {len(e_counts)} points"


class TestTruncationClaim:
    """Fig. 6 claim: truncation (k̂) beats FIX-K=30 in precision and k̂ < 15."""

    def test_k_hat_below_15(self, jd_small):
        _, _, _, g, _, _ = jd_small
        assert fdet(g, k_max=30).k_hat < 15

    def test_truncation_precision_advantage(self, jd_small):
        preset, _, _, g, truth, _ = jd_small
        r = fdet(g, k_max=30, truncate=True)
        full = fdet(g, k_max=30, truncate=False)
        p_t = np.isin(r.detected_users(), truth).mean()
        p_f = np.isin(full.detected_users(k=len(full.blocks)), truth).mean()
        assert p_t >= p_f, f"{preset}: {p_t} < {p_f}"


class TestScalability:
    """Table III shape at unit scale: FDET cost grows near-linearly in |E|."""

    def test_near_linear_growth(self):
        import time

        from repro.graph.bipartite import BipartiteGraph
        from repro.synth_data import jd_transactions

        times, sizes = [], []
        for scale in (0.002, 0.008):
            edges, _, meta = jd_transactions("jd1", scale=scale, seed=0)
            g = BipartiteGraph.from_pandas(edges, n_u=meta["n_pin"], n_v=meta["n_merchant"])
            t0 = time.perf_counter()
            fdet(g, k_max=10, truncate=False)
            times.append(time.perf_counter() - t0)
            sizes.append(meta["n_edge"])
        ratio = (times[1] / times[0]) / (sizes[1] / sizes[0])
        # superlinear blowup would push ratio >> 1; allow generous slack
        # for constant overheads and log factors
        assert ratio < 4.0
