"""Experiment harnesses — one function per paper table / figure-claim.

Each harness returns plain rows (list[dict] / DataFrame) that the
``jobs/`` entrypoints print as markdown next to the paper's numbers;
EXPERIMENTS.md records both. Everything runs on JD-lite synthetic
graphs (DESIGN.md §2) at a configurable ``scale``.

The figure harnesses share one evaluation path: ``_ensemble_sweep``
runs the pipeline (``ensemfdet``: sample → FDET → vote) and sweeps the
voting threshold T = 1..N, and ``_best`` picks a sweep's best-F1 point;
Figs. 5, 7 and 8 run their points through ``_best_per_run``.
Fig. 1 and Fig. 6 read their φ curves and k̂ from ``detect``, the
pipeline's own sample-and-solve step.
"""
from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.fbox import fbox_scores
from repro.baselines.fraudar import fraudar, fraudar_points
from repro.baselines.spoken import spoken_scores
from repro.core.ensemble import detect, ensemfdet, vote_table
from repro.core.sampling import METHODS
from repro.eval.metrics import prf, score_sweep, threshold_sweep
from repro.graph.bipartite import BipartiteGraph
from repro.synth_data import JD_PRESETS, jd_transactions

PRESETS = ("jd1", "jd2", "jd3")
#: Decimal places every printed table is rounded to.
FLOAT_DIGITS = 4

#: Paper Table III wall-clock seconds (S=0.1, N=80; FRAUDAR K=30).
PAPER_TABLE3 = {
    "jd1": {"ensemfdet": 74.127, "fraudar": 805.533},
    "jd2": {"ensemfdet": 162.102, "fraudar": 2365.659},
    "jd3": {"ensemfdet": 470.508, "fraudar": 5681.591},
}


def _graph(preset: str, scale: float, seed: int = 0, **generator_kwargs):
    """JD-lite edges, their graph, the fraud PIN ids and the generator's meta."""
    edges, users, meta = jd_transactions(preset, scale, seed, **generator_kwargs)
    g = BipartiteGraph.from_pandas(edges, n_u=meta["n_pin"], n_v=meta["n_merchant"])
    truth = users.loc[users["is_fraud"], "pin"].to_numpy()
    return edges, g, truth, meta


def _ensemble_sweep(
    spark: SparkSession, edges_df: DataFrame, truth: np.ndarray, method: str, s: float, n: int, seed: int
) -> pd.DataFrame:
    """One ``ensemfdet`` run, swept over every voting threshold T = 1..N."""
    run = ensemfdet(spark, edges_df, method=method, s=s, n=n, seed=seed)
    return threshold_sweep(run.pin_votes(), truth, np.arange(1, n + 1))


def _timed_ensemfdet(spark: SparkSession, edges_df: DataFrame, **params) -> float:
    """Wall seconds of one ``ensemfdet`` call."""
    t0 = time.perf_counter()
    ensemfdet(spark, edges_df, **params)
    return time.perf_counter() - t0


def _best_per_run(
    spark: SparkSession, preset: str, scale: float, seed: int, points: list, generator_kwargs: dict | None = None
) -> pd.DataFrame:
    """One best-F1 row per ``(labels, method, s, n)`` point, each from one
    ``_ensemble_sweep`` over the same cached edges, with ``labels`` first."""
    edges, _, truth, _ = _graph(preset, scale, seed, **(generator_kwargs or {}))
    edges_df = spark.createDataFrame(edges).cache()
    edges_df.count()
    rows = [
        dict(labels, **_best(_ensemble_sweep(spark, edges_df, truth, method, s, n, seed)))
        for labels, method, s, n in points
    ]
    edges_df.unpersist()
    out = pd.DataFrame(rows)
    out.insert(0, "dataset", preset)
    return out


def _best(sweep: pd.DataFrame) -> dict:
    """The best-F1 row of a sweep; all zeros when no point scores."""
    if len(sweep) == 0 or sweep["f1"].max() == 0:
        return dict(precision=0.0, recall=0.0, f1=0.0, n_detected=0)
    best = sweep.loc[sweep["f1"].idxmax()]
    return dict(precision=float(best["precision"]), recall=float(best["recall"]),
                f1=float(best["f1"]), n_detected=int(best["n_detected"]))


# ------------------------------------------------------------------ Table I
def table1_rows(scale: float = 0.05, seed: int = 0) -> list[dict]:
    """Dataset statistics: paper counts vs the generated JD-lite counts."""
    rows = []
    for preset in PRESETS:
        _, _, truth, meta = _graph(preset, scale, seed)
        paper = JD_PRESETS[preset]
        rows.append(
            dict(
                dataset=preset,
                paper_pin=paper["n_pin"],
                paper_fraud=paper["n_fraud"],
                paper_merchant=paper["n_merchant"],
                paper_edge=paper["n_edge"],
                gen_pin=meta["n_pin"],
                gen_fraud=int(len(truth)),
                gen_merchant=meta["n_merchant"],
                gen_edge=meta["n_edge"],
                scale=scale,
            )
        )
    return rows


# ----------------------------------------------------------------- Table II
def table2_rows() -> list[dict]:
    """Parameter glossary (Table II is definitional, not measured)."""
    return [
        dict(parameter="N", description="Number of sampled graphs"),
        dict(parameter="S", description="Sample ratio"),
        dict(parameter="T", description="Voting threshold in aggregation method"),
        dict(parameter="R", description="The repetition rate R = S x N (derived)"),
    ]


# ---------------------------------------------------------------- Table III
def table3_rows(
    spark: SparkSession,
    scale: float = 0.05,
    s: float = 0.1,
    n: int = 80,
    k_fraudar: int = 30,
    seed: int = 0,
) -> list[dict]:
    """Running-time comparison EnsemFDet vs FRAUDAR (paper Table III).

    Same parameters as the paper (S=0.1, N=80; FRAUDAR K=30) on JD-lite
    graphs at ``scale``. Absolute seconds are not comparable with the
    authors' cluster; the shape claim is the speedup factor (~10x in
    the paper) and near-linear growth in |E|.

    The paper's cluster solves all N samples concurrently; on a box with
    fewer cores than N, N=80 runs in sequential task waves. The extra
    column ``ensemfdet_1wave_sec`` measures an N = (#cores) run — every
    sample genuinely concurrent, i.e. the per-wave wall time the
    paper's ≥N-core setting would see (the paper's Fig. 7 shows
    detection quality is stable across N ∈ {10..80}).

    One untimed N-sample call on the first dataset runs before any timed
    call: the first ``ensemfdet`` in a fresh JVM runs two to three times
    slower, and would otherwise be timed as dataset #1's cell.
    """
    n_wave = max(2, min(n, (os.cpu_count() or 16)))
    rows = []
    for preset in PRESETS:
        edges, g, truth, meta = _graph(preset, scale, seed)
        edges_df = spark.createDataFrame(edges).repartition(max(8, n // 8)).cache()
        edges_df.count()

        if preset == PRESETS[0]:
            _timed_ensemfdet(spark, edges_df, method="RES", s=s, n=n, seed=seed)
        t_ens = _timed_ensemfdet(spark, edges_df, method="RES", s=s, n=n, seed=seed)
        t_ens1 = _timed_ensemfdet(spark, edges_df, method="RES", s=s, n=n_wave, seed=seed)

        t0 = time.perf_counter()
        fraudar(g, k=k_fraudar)
        t_fra = time.perf_counter() - t0

        edges_df.unpersist()
        rows.append(
            dict(
                dataset=preset,
                n_edges=meta["n_edge"],
                ensemfdet_sec=round(t_ens, 3),
                ensemfdet_1wave_sec=round(t_ens1, 3),
                fraudar_sec=round(t_fra, 3),
                speedup=round(t_fra / t_ens, 2) if t_ens > 0 else float("inf"),
                speedup_1wave=round(t_fra / t_ens1, 2) if t_ens1 > 0 else float("inf"),
                paper_ensemfdet_sec=PAPER_TABLE3[preset]["ensemfdet"],
                paper_fraudar_sec=PAPER_TABLE3[preset]["fraudar"],
                paper_speedup=round(
                    PAPER_TABLE3[preset]["fraudar"] / PAPER_TABLE3[preset]["ensemfdet"], 2
                ),
            )
        )
    return rows


# ------------------------------------------------------- figure-shape claims
def fig1_block_scores(
    spark: SparkSession,
    preset: str = "jd3",
    scale: float = 0.01,
    s: float = 0.1,
    n_curves: int = 5,
    seed: int = 0,
) -> pd.DataFrame:
    """Per-block φ sequences on several sampled graphs (Fig. 1 data).

    The curves are the pipeline's own: ``detect`` on N = ``n_curves``
    RES samples without truncation (k = 20); each (sample, block) keeps
    its φ.
    """
    edges, _, _, _ = _graph(preset, scale, seed)
    detected = detect(spark.createDataFrame(edges), "RES", s, n_curves, seed, k_max=20, truncate=False)
    curves = detected[["sample_id", "block", "phi"]].drop_duplicates()
    curves = curves.rename(columns={"sample_id": "sample"}).assign(block=curves["block"] + 1)
    return curves.sort_values(["sample", "block"], ignore_index=True)


def method_comparison(
    spark: SparkSession,
    preset: str,
    scale: float = 0.01,
    s: float = 0.1,
    n: int = 40,
    seed: int = 0,
) -> pd.DataFrame:
    """All five methods on one dataset (Fig. 3 / Fig. 4 data).

    Returns the best-F1 operating point per method plus curve metadata
    (EnsemFDet: T sweep; FRAUDAR: per-top-j-blocks points; SPOKEN/FBox:
    score-quantile sweeps).
    """
    edges, g, truth, _ = _graph(preset, scale, seed)
    fraudar_sweep = pd.DataFrame(
        [dict(zip(("precision", "recall", "f1"), prf(pt["pins"], truth)), n_detected=pt["n_detected"])
         for pt in fraudar_points(fraudar(g, k=30))]
    )
    sweeps = {
        "EnsemFDet": _ensemble_sweep(spark, spark.createDataFrame(edges), truth, "RES", s, n, seed),
        "FRAUDAR": fraudar_sweep,
        "SPOKEN": score_sweep(spoken_scores(g)[0], truth),
        "FBox": score_sweep(fbox_scores(g)[0], truth),
    }
    out = pd.DataFrame(
        [dict(method=name, **_best(sw), curve_points=len(sw)) for name, sw in sweeps.items()]
    )
    out.insert(0, "dataset", preset)
    return out


def sampling_comparison(
    spark: SparkSession,
    preset: str = "jd3",
    scale: float = 0.01,
    s: float = 0.1,
    r: float = 8.0,
    seed: int = 0,
    generator_kwargs: dict | None = None,
) -> pd.DataFrame:
    """Best-F1 per sampling method at fixed repetition rate R (Fig. 5).

    The paper uses dataset 3, S=0.1, R=8 (so N = R/S = 80). TNS keeps
    ~S² of the edges at per-side ratio S; the paper's §IV-A4 says "we
    usually need to enlarge the sampling ratio S … to ensure the
    effectiveness of the two-sides sample", so TNS runs at per-side
    ratio √S (matching the other methods' edge fraction), as they
    prescribe.

    ``generator_kwargs`` lets the caller reshape the planted blocks'
    degree profile — the paper's ONS-PIN-worst finding is a property of
    *their* dataset's D_avg(Merchant) ≫ D_avg(PIN) profile (§V-C2), and
    a low-pin-degree/high-merchant-degree profile reproduces it.
    """
    n = int(round(r / s))
    points = [(dict(method=m), m, float(np.sqrt(s)) if m == "TNS" else s, n) for m in METHODS]
    return _best_per_run(spark, preset, scale, seed, points, generator_kwargs)


def truncation_comparison(
    spark: SparkSession,
    preset: str = "jd1",
    scale: float = 0.01,
    s: float = 0.1,
    n: int = 40,
    k_fix: int = 30,
    seed: int = 0,
) -> pd.DataFrame:
    """EnsemFDet (truncating point) vs EnsemFDet-FIX-K (Fig. 6).

    Both variants run the pipeline's sample-and-solve step (``detect``)
    and vote on the same RES samples, which are a pure function of
    (edges, method, S, N, seed): the truncated variant keeps each
    sample's first k̂ blocks, FIX-K keeps all ``k_fix``
    (``truncate=False``). Each variant's votes (``vote_table``) and its
    ``max_k_hat``, the largest number of blocks any sample kept (paper:
    all k̂ < 15), are read from its collected detected rows.
    """
    edges, _, truth, _ = _graph(preset, scale, seed)
    edges_df = spark.createDataFrame(edges)
    rows = []
    for truncate, variant in ((True, "EnsemFDet (truncated)"), (False, f"EnsemFDet-FIX-K (k={k_fix})")):
        detected = detect(edges_df, "RES", s, n, seed, k_max=k_fix, truncate=truncate)
        votes = vote_table(detected)
        sweep = threshold_sweep(votes[votes["side"] == "pin"], truth, np.arange(1, n + 1))
        rows.append(dict(variant=variant, **_best(sweep), max_k_hat=int(detected["block"].max()) + 1))
    out = pd.DataFrame(rows)
    out.insert(0, "dataset", preset)
    return out


def n_sweep(
    spark: SparkSession,
    preset: str = "jd3",
    scale: float = 0.01,
    s: float = 0.1,
    ns: tuple[int, ...] = (10, 20, 40, 80),
    seed: int = 0,
) -> pd.DataFrame:
    """Best-F1 vs number of samples N at fixed S (Fig. 7)."""
    return _best_per_run(spark, preset, scale, seed, [(dict(N=n, S=s), "RES", s, n) for n in ns])


def s_sweep(
    spark: SparkSession,
    preset: str = "jd3",
    scale: float = 0.01,
    ss: tuple[float, ...] = (0.01, 0.05, 0.1),
    r: float = 1.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Best-F1 vs sample ratio S at fixed repetition rate R = S·N (Fig. 8)."""
    ns = [max(1, int(round(r / s))) for s in ss]
    return _best_per_run(spark, preset, scale, seed, [(dict(S=s, N=n), "RES", s, n) for s, n in zip(ss, ns)])


def threshold_analysis(
    spark: SparkSession,
    preset: str = "jd3",
    scale: float = 0.01,
    s: float = 0.1,
    n: int = 80,
    seed: int = 0,
) -> pd.DataFrame:
    """Full T sweep at S=0.1, N=80 (Fig. 9): P↑, R↓ monotone in T."""
    edges, _, truth, _ = _graph(preset, scale, seed)
    sweep = _ensemble_sweep(spark, spark.createDataFrame(edges), truth, "RES", s, n, seed)
    sweep.insert(0, "dataset", preset)
    return sweep


def format_markdown(rows: list[dict] | pd.DataFrame) -> str:
    """Render rows as a GitHub markdown table (no external deps)."""
    df = pd.DataFrame(rows).round(FLOAT_DIGITS)
    header = "| " + " | ".join(map(str, df.columns)) + " |"
    sep = "|" + "|".join(["---"] * len(df.columns)) + "|"
    body = ["| " + " | ".join(str(x) for x in rec) + " |" for rec in df.itertuples(index=False)]
    return "\n".join([header, sep, *body])
