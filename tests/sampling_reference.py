"""The explode sampler: the reference the broadcast sampler must equal, edge for edge.

This is ``repro.core.sampling.sample_edges_spark`` as it was when every
edge was exploded into N candidate rows and each row hashed in the JVM
by ``F.xxhash64``, kept verbatim. The differential tests in
``test_sampling.py`` run it beside the broadcast sampler and require
the same samples.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.sampling import METHODS

# Hash buckets for the inclusion predicate: P(include) = S to ~1e-6.
_BUCKETS = 1_000_000


def _hash_frac(*cols) -> F.Column:
    """xxhash64 of ``cols`` folded into a uniform fraction in [0, 1)."""
    h = F.xxhash64(*cols)
    return ((h % _BUCKETS) + _BUCKETS) % _BUCKETS / float(_BUCKETS)


def sample_edges_spark(edges: DataFrame, method: str, s: float, n: int, seed: int = 0) -> DataFrame:
    """Materialize N sampled subgraphs as one DataFrame of edge sets.

    Parameters mirror the paper's Table II: ``s`` is the sample ratio
    S, ``n`` the number of sampled graphs N. Input needs columns
    ``pin`` and ``merchant``; output is ``(sample_id, pin, merchant)``
    with ``sample_id`` in 0..N-1. Samples carry no edge weight: Theorem
    1's 1/p rescaling scales φ by one constant per sample, so it never
    changes which block the peel returns (DESIGN.md §1).
    """
    if method not in METHODS:
        raise ValueError(f"unknown sampling method {method!r}; one of {METHODS}")
    if not (0.0 < s <= 1.0):
        raise ValueError(f"sample ratio must be in (0, 1], got {s}")
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")

    sid = F.col("sample_id")
    if method == "RES":
        keep = _hash_frac(F.col("pin"), F.col("merchant"), sid, F.lit(seed)) < s
    elif method == "ONS_PIN":
        keep = _hash_frac(F.col("pin"), sid, F.lit(seed)) < s
    elif method == "ONS_MERCHANT":
        keep = _hash_frac(F.col("merchant"), sid, F.lit(seed)) < s
    else:  # TNS — independent hashes per side (distinct salts)
        keep = (_hash_frac(F.col("pin"), sid, F.lit(seed)) < s) & (
            _hash_frac(F.col("merchant"), sid, F.lit(seed + 1_000_003)) < s
        )
    sequence = F.sequence(F.lit(0), F.lit(n - 1))
    return edges.select(F.explode(sequence).alias("sample_id"), "pin", "merchant").where(keep)
