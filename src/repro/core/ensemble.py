"""EnsemFDet (Algorithm 2): sample → parallel FDET → majority voting.

Dataflow of one ``ensemfdet()`` call (``detect``, then the vote):

```
edges (pin, merchant)
  └─ select(pin, merchant).toArrow(), ids checked ──▶ broadcast  # the one edge collect
  └─ spark.range(N), min(k, N) tasks .mapInArrow:
       per sample i of the task: Sampler.keep(i) → _solve_group
                                 ──▶ (sample_id, side, node, block, phi)
  └─ toArrow()                                                   # the one solve job
  └─ broadcast destroyed
  └─ vote_table, on the driver: drop_duplicates, size per (side, node)
                                 ──▶ (side, node, votes)         # MVA numerator
  └─ votes >= T ──▶ detected nodes                             # Definition 4
```

The per-sample FDET solve is sequential by the paper's own argument
(heuristic peeling cannot be parallelized); Spark schedules the N
independent solves across cores — exactly the paper's "apply FDET to
all sampled graphs simultaneously with the multicore environment".
Each solve task draws its own samples from the broadcast edges
(``repro.core.sampling.map_samples``), so no edge is replicated N
times and nothing is shuffled. Voting is a count per node over the
detected rows, which the driver holds anyway (about 20k rows on the
bench's TNS call), so it runs in pandas rather than as a second
shuffle. Each sample's output is built once from whole columns, and
after each sample the worker drops its cached zip-archive finders,
which Spark's per-task ``importlib.invalidate_caches()`` would
otherwise re-read on CPython before 3.13 (``_drop_zip_finders``).

``detect_on_samples`` solves samples that are already a DataFrame
(``sample_edges_spark``'s output) through a shuffle into
``applyInArrow`` groups; only the benchmark's per-layer split uses it.
"""
from __future__ import annotations

import sys
import zipimport

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.core.density import DEFAULT_C
from repro.core.fdet import fdet
from repro.core.sampling import map_samples
from repro.graph.bipartite import BipartiteGraph

#: Output schema of the grouped FDET solver, and the Arrow types it is built with.
DETECTED_SCHEMA = "sample_id long, side string, node long, block int, phi double"
_DETECTED_TYPES = pa.schema(
    [("sample_id", pa.int64()), ("side", pa.string()), ("node", pa.int64()), ("block", pa.int32()), ("phi", pa.float64())]
)
#: Schema of the vote table: distinct samples that detected each node.
VOTES_SCHEMA = "side string, node long, votes long"


def _solve_group(tbl: pa.Table, k_max: int, phi_stop_frac: float, c: float, truncate: bool) -> pa.Table:
    """Solve FDET on one sampled subgraph (one sample of a task, or one ``applyInArrow`` group).

    Relabels the group's sparse raw ids to a compact space, runs FDET
    (with truncation unless ``truncate`` is False: FIX-K), and emits one
    row per detected node per selected block, mapped back to original ids:
    each block's pins, then its merchants. The output table is built once
    from whole columns, typed by ``_DETECTED_TYPES``.
    """
    pins, merchants = (tbl.column(name).to_numpy() for name in ("pin", "merchant"))
    g, uids, vids = BipartiteGraph.from_edges(pins, merchants).relabeled()
    result = fdet(g, k_max=k_max, truncate=truncate, phi_stop_frac=phi_stop_frac, c=c)
    runs = [
        (side, ids[nodes], b, block.phi)
        for b, block in enumerate(result.selected)
        for side, ids, nodes in (("pin", uids, block.users), ("merchant", vids, block.merchants))
    ]
    sides, nodes, blocks, phis = zip(*runs) if runs else [()] * 4
    sizes = [len(ids) for ids in nodes]
    columns = {
        "sample_id": np.repeat(tbl.column("sample_id").to_numpy()[:1], sum(sizes)),
        "side": np.repeat(sides, sizes),
        "node": np.concatenate(nodes or [[]]),
        "block": np.repeat(blocks, sizes),
        "phi": np.repeat(phis, sizes),
    }
    return pa.table(
        {f.name: np.asarray(columns[f.name], dtype=f.type.to_pandas_dtype()) for f in _DETECTED_TYPES},
        schema=_DETECTED_TYPES,
    )


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
    vote (``vote_table`` dedups on (sample, side, node)).
    ``truncate=False`` keeps all ``k_max`` candidate blocks per sample:
    EnsemFDet-FIX-K on the same samples.
    """

    def solver(tbl: pa.Table) -> pa.Table:
        out = _solve_group(tbl, k_max, phi_stop_frac, c, truncate)
        _drop_zip_finders()  # so the worker's next task starts without re-reading archives
        return out

    # One partition per core, by explicit count rather than through
    # ``spark.sql.shuffle.partitions``: adaptive execution coalesces a
    # small shuffle-partitions exchange into one task (serializing the N
    # solves), but never a repartition by count.
    by_sample = samples.repartition(samples.sparkSession.sparkContext.defaultParallelism, "sample_id")
    return by_sample.groupBy("sample_id").applyInArrow(solver, schema=DETECTED_SCHEMA)


def vote_table(detected: pd.DataFrame) -> pd.DataFrame:
    """Majority Voting Aggregation numerator (Definition 4), on collected rows.

    Returns (side, node, votes), sorted by (side, node), where ``votes``
    = number of distinct samples in which the node was detected. The
    caller applies the threshold T (``H(u) = accept iff votes >= T``).
    """
    keys = detected[["sample_id", "side", "node"]].drop_duplicates()
    votes = keys.groupby(["side", "node"]).size().reset_index(name="votes")
    return votes.astype({"side": "str", "node": "int64", "votes": "int64"})


def vote(detected: DataFrame) -> DataFrame:
    """``vote_table`` of ``detected``'s rows, as a Spark view (``VOTES_SCHEMA``).

    Collects ``detected`` when called.
    """
    table = vote_table(detected.select("sample_id", "side", "node").toPandas())
    return detected.sparkSession.createDataFrame(table, VOTES_SCHEMA)


class EnsemFDetRun:
    """One EnsemFDet execution: its vote table, held on the driver, and its settings.

    ``table`` is the (side, node, votes) frame every reader uses.
    ``votes`` is a Spark view over it (``VOTES_SCHEMA``), built from
    ``table`` in ``session`` on first read; nothing is cached in Spark,
    so there is nothing to release. A run built from a ``votes`` frame
    alone collects ``table`` from it once.
    """

    def __init__(
        self,
        votes: DataFrame | None,
        method: str,
        s: float,
        n: int,
        k_max: int,
        table: pd.DataFrame | None = None,
        session: SparkSession | None = None,
    ):
        self.method, self.s, self.n, self.k_max = method, s, n, k_max
        self._votes, self._session = votes, session
        self.table = votes.toPandas().astype({"node": "int64", "votes": "int64"}) if table is None else table

    @property
    def votes(self) -> DataFrame:
        if self._votes is None:
            self._votes = self._session.createDataFrame(self.table, VOTES_SCHEMA)
        return self._votes

    def detected_pins(self, t: int) -> np.ndarray:
        """PIN ids accepted at threshold ``t`` (``votes >= t``, Definition 4), sorted."""
        if not 1 <= t <= self.n:
            raise ValueError(f"voting threshold T must be in [1, N={self.n}], got {t}")
        keep = (self.table["side"] == "pin") & (self.table["votes"] >= t)
        return np.sort(self.table.loc[keep, "node"].to_numpy(dtype=np.int64))

    def pin_votes(self) -> pd.DataFrame:
        """(node, votes) for the PIN side, for threshold sweeps."""
        return self.table.loc[self.table["side"] == "pin", ["node", "votes"]].reset_index(drop=True)


def detect(
    edges: DataFrame,
    method: str,
    s: float,
    n: int,
    seed: int = 0,
    k_max: int = 30,
    phi_stop_frac: float = 0.05,
    c: float = DEFAULT_C,
    truncate: bool = True,
) -> pd.DataFrame:
    """FDET's detected rows (``DETECTED_SCHEMA``) on every sample of ``edges``, on the driver.

    Each of the min(k, N) solve tasks draws its samples from the
    broadcast edges (``map_samples``) and solves them one by one with
    ``_solve_group``; the rows are collected in the call's one solve
    job, after which the broadcast is destroyed. ``truncate=False``
    keeps all ``k_max`` candidate blocks per sample: EnsemFDet-FIX-K on
    the same samples.
    """

    def solve(i: int, pins: np.ndarray, merchants: np.ndarray) -> pa.Table:
        sample = pa.table({"sample_id": np.full(len(pins), i, dtype=np.int64), "pin": pins, "merchant": merchants})
        out = _solve_group(sample, k_max, phi_stop_frac, c, truncate)
        _drop_zip_finders()  # so the worker's next task starts without re-reading archives
        return out

    detected, shared = map_samples(edges, method, s, n, seed, solve, DETECTED_SCHEMA)
    try:
        return detected.toArrow().to_pandas()
    finally:
        shared.destroy()


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
    """Full EnsemFDet pipeline; returns the run with its vote table on the driver.

    One collect of the edges and one solve job (``detect``), then
    ``vote_table`` on the driver, so timing a call to this function
    measures the whole sample→solve→vote compute (Table III), and
    reading the votes afterwards runs no Spark job.
    ``spark`` is not used: the pipeline runs in ``edges``' session and
    changes none of its settings.
    """
    detected = detect(edges, method, s, n, seed, k_max, phi_stop_frac, c)
    return EnsemFDetRun(None, method, s, n, k_max, table=vote_table(detected), session=edges.sparkSession)
