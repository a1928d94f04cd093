"""Structural sampling for bipartite graphs (paper §IV-A).

Three methods, each producing N sampled subgraphs at ratio S:

* **RES** — Random Edge Sampling: each edge enters sample i i.i.d.
  with probability S; the subgraph is exactly the sampled edges.
* **ONS** — One-side Node Sampling: sample a fraction S of one node
  side (pins or merchants); the subgraph keeps every edge incident to
  a sampled node (the corresponding rows/columns of W).
* **TNS** — Two-sides Node Sampling: sample both sides at ratio S;
  keep edges whose *both* endpoints were sampled (~S² of the edges,
  as the paper notes).

Membership is one predicate: edge (or node) x is in sample i iff
``xxhash64(x, i, seed)``, folded into [0, 1), falls below S. It is a
pure function of (ids, sample, seed), so sampling is deterministic,
reproducible across retries and independent of partitioning, and an
ONS node is "sampled in i" without any join against a node table.
``xxhash64`` here is a numpy port of Spark's ``XxHash64`` expression
(seed 42, hashInt for values of at most 32 bits, hashLong otherwise),
so the samples are exactly those Spark's own ``F.xxhash64`` predicate
selects.

The samples are drawn inside the tasks that consume them
(``map_samples``): the driver collects the edges once, checks their
ids, and broadcasts the two id arrays; ``spark.range(N)`` in
min(k, N) tasks hands each task a range of sample ids. A task hashes
the predicate's sample-independent prefix once (per edge for RES,
per distinct node for ONS/TNS), so each of its samples costs two
hashInt passes and a gather. No edge is replicated N times and
nothing is shuffled. ``sample_edges_spark`` is the same path emitting
the samples themselves, for the Lemma 1 / Theorem 1 tests and the
benchmark.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.broadcast import Broadcast
from pyspark.sql import DataFrame
from pyspark.sql.types import IntegerType, StructField, StructType

#: Sampling-method names accepted by ``sample_edges_spark``.
METHODS = ("RES", "ONS_PIN", "ONS_MERCHANT", "TNS")

# Hash buckets for the inclusion predicate: P(include) = S to ~1e-6.
_BUCKETS = 1_000_000
#: Salt added to the seed of TNS's merchant side, so both sides hash independently.
_TNS_SALT = 1_000_003

# Spark's XxHash64: default seed and the five 64-bit primes.
_SEED = 42
_P1, _P2, _P3, _P4, _P5 = (
    np.uint64(p)
    for p in (0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x85EBCA77C2B2AE63, 0x27D4EB2F165667C5)
)


def _rotl(x, r: int):
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _is_int(value) -> bool:
    """Whether Spark types ``value`` as an int (hashInt) rather than a long (hashLong).

    A numpy array or scalar goes by its dtype's width, a Python int
    literal by its value, as ``F.lit`` types them.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype.itemsize <= 4
    return -(2**31) <= value < 2**31


def _hash_step(value, h):
    """One column of Spark's XxHash64 chain: ``hashInt(value, h)`` or ``hashLong(value, h)``."""
    if _is_int(value):
        x = np.asarray(value, dtype=np.int64).view(np.uint64) & np.uint64(0xFFFFFFFF)
        h = h + (_P5 + np.uint64(4))
        h ^= x * _P1
        h = _rotl(h, 23) * _P2 + _P3
    else:
        x = np.asarray(value, dtype=np.int64).view(np.uint64)
        h = h + (_P5 + np.uint64(8))
        h ^= _rotl(x * _P2, 31) * _P1
        h = _rotl(h, 27) * _P1 + _P4
    h ^= h >> np.uint64(33)
    h *= _P2
    h ^= h >> np.uint64(29)
    h *= _P3
    h ^= h >> np.uint64(32)
    return h


def xxhash64(*columns, seed=_SEED) -> np.ndarray:
    """Spark's ``xxhash64(*columns)`` of numpy integer columns and int literals, as int64.

    ``seed`` is Spark's 42 or the int64 hash of a column prefix, which
    the next columns chain from.
    """
    with np.errstate(over="ignore"):
        h = np.asarray(seed, dtype=np.int64).view(np.uint64)
        for value in columns:
            h = _hash_step(value, h)
    return np.asarray(h).view(np.int64)


class Sampler:
    """The sampling predicate of one (edges, method, S, seed), its prefix hashed once.

    ``keep(i)`` is sample i's edge mask: for each hashed key (the edge,
    or its pin and/or merchant) ``xxhash64(key, i, salt)`` folded into
    [0, 1) is below S.
    """

    def __init__(self, pins: np.ndarray, merchants: np.ndarray, method: str, s: float, seed: int):
        self.s = s
        if method == "RES":
            self.sides = [(xxhash64(pins, merchants), None, seed)]
        else:
            sides = {
                "ONS_PIN": [(pins, seed)],
                "ONS_MERCHANT": [(merchants, seed)],
                "TNS": [(pins, seed), (merchants, seed + _TNS_SALT)],
            }[method]
            self.sides = []
            for ids, salt in sides:
                nodes, inverse = np.unique(ids, return_inverse=True)
                self.sides.append((xxhash64(nodes), inverse, salt))

    def keep(self, sample_id: int) -> np.ndarray:
        mask = None
        for prefix, inverse, salt in self.sides:
            h = xxhash64(sample_id, salt, seed=prefix)
            hit = np.mod(h, _BUCKETS) / float(_BUCKETS) < self.s
            hit = hit if inverse is None else hit[inverse]
            mask = hit if mask is None else mask & hit
        return mask


def _ids(edges: pa.Table, name: str) -> np.ndarray:
    """Column ``name`` as a numpy id array; ValueError at its first null, negative or non-integer value."""
    col = edges.column(name)
    if not pa.types.is_integer(col.type):
        first = col[0].as_py() if len(col) else None
        raise ValueError(f"{name} ids must be non-negative integers; the column holds {col.type}, first {first!r}")
    bad = pc.fill_null(pc.less(col, 0), True)
    if pc.any(bad).as_py():
        row = pc.index(bad, True).as_py()
        raise ValueError(f"{name} ids must be non-negative integers; row {row} holds {col[row].as_py()!r}")
    return col.to_numpy()


def map_samples(
    edges: DataFrame,
    method: str,
    s: float,
    n: int,
    seed: int,
    emit: Callable[[int, np.ndarray, np.ndarray], pa.Table],
    schema: StructType | str,
) -> tuple[DataFrame, Broadcast]:
    """``emit(i, pins, merchants)`` on the edges of every sample i in 0..N-1, as one DataFrame.

    Collects ``edges``' (pin, merchant) once, checks the ids, and
    broadcasts them; the returned DataFrame (``schema``, the tables
    ``emit`` returns) runs ``spark.range(N)`` in min(k, N) tasks, each
    of which builds one ``Sampler`` for its range of sample ids. The
    caller destroys the broadcast after its last action on the frame.
    """
    if method not in METHODS:
        raise ValueError(f"unknown sampling method {method!r}; one of {METHODS}")
    if not (0.0 < s <= 1.0):
        raise ValueError(f"sample ratio must be in (0, 1], got {s}")
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    # A frame that already is (pin, merchant) is collected as itself, so
    # repeated calls on it reuse its physical plan instead of planning a
    # new projection each time.
    pairs = edges if edges.columns == ["pin", "merchant"] else edges.select("pin", "merchant")
    table = pairs.toArrow()
    spark = edges.sparkSession
    sc = spark.sparkContext
    shared = sc.broadcast((_ids(table, "pin"), _ids(table, "merchant")))

    def tasks(batches):
        pins, merchants = shared.value
        sampler = Sampler(pins, merchants, method, s, seed)
        for batch in batches:
            for i in batch.column("id").to_pylist():
                keep = sampler.keep(i)
                yield from emit(i, pins[keep], merchants[keep]).to_batches()

    samples = spark.range(0, n, numPartitions=min(sc.defaultParallelism, n))
    return samples.mapInArrow(tasks, schema), shared


def sample_edges_spark(edges: DataFrame, method: str, s: float, n: int, seed: int = 0) -> DataFrame:
    """Materialize N sampled subgraphs as one DataFrame of edge sets.

    Parameters mirror the paper's Table II: ``s`` is the sample ratio
    S, ``n`` the number of sampled graphs N. Input needs columns
    ``pin`` and ``merchant``; output is ``(sample_id, pin, merchant)``
    with ``sample_id`` in 0..N-1 and the id columns typed as the
    input's. Samples carry no edge weight: Theorem 1's 1/p rescaling
    scales φ by one constant per sample, so it never changes which
    block the peel returns (DESIGN.md §1). The edges are collected and
    broadcast when this is called. The broadcast is not destroyed, so
    the frame can be read more than once; Spark's context cleaner
    reclaims it after the frame is garbage-collected.
    """
    fields = edges.select("pin", "merchant").schema.fields
    schema = StructType([StructField("sample_id", IntegerType(), False), *fields])

    def emit(i: int, pins: np.ndarray, merchants: np.ndarray) -> pa.Table:
        return pa.table([np.full(len(pins), i, dtype=np.int32), pins, merchants], names=schema.names)

    return map_samples(edges, method, s, n, seed, emit, schema)[0]
