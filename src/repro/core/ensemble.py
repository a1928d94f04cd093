"""EnsemFDet (Algorithm 2): sample → parallel FDET → majority voting.

Distributed dataflow (all Catalyst except the per-subgraph solver):

```
edges (pin, merchant)
  └─ sample_edges_spark ──▶ (sample_id, pin, merchant, w)      # N samples, one pass
  └─ repartition(k, sample_id), groupBy(sample_id).applyInPandas(FDET)
                                 ──▶ (sample_id, side, node, block, phi)
  └─ repartition(k, side, node), distinct, groupBy(side, node).count
                                 ──▶ (side, node, votes)         # MVA numerator
  └─ cache, one noop write       ──▶ materialized vote table
  └─ votes >= T ──▶ detected nodes                             # Definition 4
```

The per-sample FDET solve is sequential by the paper's own argument
(heuristic peeling cannot be parallelized); Spark schedules the N
independent solves across cores — exactly the paper's "apply FDET to
all sampled graphs simultaneously with the multicore environment".
The Python workers do only solve work: each sample's output frame is
built once from whole columns, and after each group the worker drops
its cached zip-archive finders, which Spark's per-task
``importlib.invalidate_caches()`` would otherwise re-read on CPython
before 3.13 (``_drop_zip_finders``).
"""
from __future__ import annotations

import sys
import zipimport
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.density import DEFAULT_C
from repro.core.fdet import fdet
from repro.core.sampling import sample_edges_spark
from repro.graph.bipartite import BipartiteGraph

#: Output schema of the grouped FDET solver, and the pandas dtypes it is built with.
DETECTED_SCHEMA = "sample_id long, side string, node long, block int, phi double"
_DETECTED_DTYPES = {"sample_id": "int64", "side": "str", "node": "int64", "block": "int32", "phi": "float64"}


def _parallelism(df: DataFrame) -> int:
    """Partitions of each of the pipeline's shuffles: one per core of ``df``'s session.

    The pipeline repartitions by an explicit count rather than leaving the
    shuffles to ``spark.sql.shuffle.partitions``: adaptive execution would
    coalesce the small solve shuffle into one task (serializing the N
    solves), and a count of partitions is never coalesced.
    """
    return df.sparkSession.sparkContext.defaultParallelism


def _solve_group(
    pdf: pd.DataFrame, k_max: int, phi_stop_frac: float, c: float, truncate: bool
) -> pd.DataFrame:
    """Solve FDET on one sampled subgraph (one ``applyInPandas`` group).

    Relabels the group's sparse raw ids to a compact space, runs FDET
    (with truncation unless ``truncate`` is False: FIX-K), and emits one
    row per detected node per selected block, mapped back to original ids:
    each block's pins, then its merchants. The output frame is built once
    from whole columns; a pandas frame per block costs more than the solve.
    """
    g, uids, vids = BipartiteGraph.from_pandas(pdf, "pin", "merchant", "w").relabeled()
    result = fdet(g, k_max=k_max, truncate=truncate, phi_stop_frac=phi_stop_frac, c=c)
    runs = [
        (side, ids[nodes], b, block.phi)
        for b, block in enumerate(result.selected)
        for side, ids, nodes in (("pin", uids, block.users), ("merchant", vids, block.merchants))
    ]
    sides, nodes, blocks, phis = zip(*runs) if runs else [()] * 4
    sizes = [len(ids) for ids in nodes]
    columns = {
        "sample_id": np.repeat(pdf["sample_id"].to_numpy()[:1], sum(sizes)),
        "side": np.repeat(sides, sizes),
        "node": np.concatenate(nodes or [[]]),
        "block": np.repeat(blocks, sizes),
        "phi": np.repeat(phis, sizes),
    }
    return pd.DataFrame({name: np.asarray(col, dtype=_DETECTED_DTYPES[name]) for name, col in columns.items()})


def _drop_zip_finders() -> None:
    """Forget the path finders cached for zip archives (``pyspark.zip``, jars).

    Spark's Python worker calls ``importlib.invalidate_caches()`` before
    every task, and on CPython before 3.13 each cached ``zipimporter``
    then re-reads its whole archive directory: a reused worker holds
    about 16 of them (12 over ``pyspark.zip``, 1,328 entries, 13 ms per
    re-read; 2 over the ``spark-core`` jar, 5,359 entries, 35 ms), so each
    task paid 175-250 ms before its first group. Deleting an entry of
    ``sys.path_importer_cache`` is safe: the next import through that
    path re-creates its finder via ``sys.path_hooks``, from zipimport's
    own directory cache. With none cached, the per-task invalidation
    takes about 0.1 ms.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def detect_on_samples(
    samples: DataFrame,
    k_max: int = 30,
    phi_stop_frac: float = 0.05,
    c: float = DEFAULT_C,
    truncate: bool = True,
) -> DataFrame:
    """Run FDET on every sampled subgraph in parallel.

    ``samples`` is the output of ``sample_edges_spark``. A node
    detected in several blocks of the *same* sample still casts one
    vote (dedup inside the result via distinct on (sample, side, node)
    happens at vote time). ``truncate=False`` keeps all ``k_max``
    candidate blocks per sample: EnsemFDet-FIX-K on the same samples.
    """

    def solver(pdf: pd.DataFrame) -> pd.DataFrame:
        out = _solve_group(pdf, k_max, phi_stop_frac, c, truncate)
        _drop_zip_finders()  # so the worker's next task starts without re-reading archives
        return out

    by_sample = samples.repartition(_parallelism(samples), "sample_id")
    return by_sample.groupBy("sample_id").applyInPandas(solver, schema=DETECTED_SCHEMA)


def vote(detected: DataFrame) -> DataFrame:
    """Majority Voting Aggregation numerator (Definition 4).

    Returns (side, node, votes) where ``votes`` = number of distinct
    samples in which the node was detected. The caller applies the
    threshold T (``H(u) = accept iff votes >= T``). Partitioning by
    (side, node) up front lets the ``distinct`` and the count share one
    shuffle.
    """
    return (
        detected.select("sample_id", "side", "node")
        .repartition(_parallelism(detected), "side", "node")
        .distinct()
        .groupBy("side", "node")
        .agg(F.count(F.lit(1)).alias("votes"))
    )


def accept(votes: DataFrame, t: int, side: str | None = "pin") -> DataFrame:
    """Nodes accepted at voting threshold ``t`` (optionally one side only)."""
    if t < 1:
        raise ValueError(f"voting threshold T must be >= 1, got {t}")
    out = votes.where(F.col("votes") >= int(t))
    if side is not None:
        out = out.where(F.col("side") == side)
    return out.select("side", "node", "votes")


@dataclass
class EnsemFDetRun:
    """Handle on one EnsemFDet execution: the vote table plus its settings.

    ``votes`` is cached; ``with ensemfdet(...) as run:`` releases it on
    exit (as ``run.votes.unpersist()`` does).
    """

    votes: DataFrame
    method: str
    s: float
    n: int
    k_max: int

    def __enter__(self) -> EnsemFDetRun:
        return self

    def __exit__(self, *exc_info) -> None:
        self.votes.unpersist()

    def detected_pins(self, t: int) -> np.ndarray:
        """Accepted PIN ids at threshold ``t`` (collected to the driver)."""
        if not 1 <= t <= self.n:
            raise ValueError(f"voting threshold T must be in [1, N={self.n}], got {t}")
        rows = accept(self.votes, t, side="pin").select("node").collect()
        return np.asarray(sorted(r["node"] for r in rows), dtype=np.int64)

    def pin_votes(self) -> pd.DataFrame:
        """(node, votes) for the PIN side as pandas, for threshold sweeps."""
        return (
            self.votes.where(F.col("side") == "pin")
            .select("node", "votes")
            .toPandas()
            .astype({"node": "int64", "votes": "int64"})
        )


def ensemfdet(
    spark: SparkSession,
    edges: DataFrame,
    method: str = "RES",
    s: float = 0.1,
    n: int = 80,
    seed: int = 0,
    k_max: int = 30,
    phi_stop_frac: float = 0.05,
    c: float = DEFAULT_C,
) -> EnsemFDetRun:
    """Full EnsemFDet pipeline; returns the materialized vote table.

    The vote DataFrame is cached and materialized in full by one
    ``noop`` write, so that timing a call to this function measures the
    whole sample→solve→vote compute (Table III), not a lazy plan, and
    later reads of the votes run no solve. Under adaptive execution the
    write runs two Spark jobs (the cache build and the write over it)
    where a ``count()`` of the cache ran three. Use the returned run as
    a context manager to release the cache.
    ``spark`` is not used: the pipeline runs in ``edges``' session and
    changes none of its settings.
    """
    samples = sample_edges_spark(edges, method, s, n, seed)
    detected = detect_on_samples(samples, k_max=k_max, phi_stop_frac=phi_stop_frac, c=c)
    votes = vote(detected).cache()
    votes.write.format("noop").mode("overwrite").save()
    return EnsemFDetRun(votes=votes, method=method, s=s, n=n, k_max=k_max)
