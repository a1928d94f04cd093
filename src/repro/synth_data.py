"""JD-lite: synthetic 'who buy-from where' bipartite fraud graphs.

The paper's JD.com datasets are proprietary; ``jd_transactions``
generates graphs with the proportions of its Table I at a scale factor,
with planted dense fraud blocks (see DESIGN.md §2 for the substitution
rationale). Generation is deterministic in ``seed`` and returns pandas
frames; callers that need Spark call ``spark.createDataFrame`` on them,
so this module imports no pyspark.
"""
import numpy as np
import pandas as pd

#: Paper Table I statistics; ``scale`` multiplies the counts.
JD_PRESETS: dict[str, dict] = {
    "jd1": dict(n_pin=454_925, n_fraud=24_247, n_merchant=226_585, n_edge=1_023_846, n_blocks=12),
    "jd2": dict(n_pin=2_194_325, n_fraud=16_035, n_merchant=120_867, n_edge=2_790_517, n_blocks=8),
    "jd3": dict(n_pin=4_332_696, n_fraud=101_702, n_merchant=556_634, n_edge=7_997_696, n_blocks=20),
}


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def jd_transactions(
    preset: str = "jd1",
    scale: float = 0.01,
    seed: int = 0,
    fraud_edges_per_user: int = 10,
    block_merchant_degree: int = 25,
    camo_edges_per_user: int = 2,
) -> tuple[pd.DataFrame, pd.DataFrame, dict]:
    """Generate a JD-lite 'who buy-from where' graph with planted fraud.

    Mirrors the paper's Table I proportions at ``scale``: background
    traffic is heavy-tailed (zipfian user activity and merchant
    popularity — the paper's "rare behaviour" clue holds because dense
    blocks are anomalous against it), and ``n_blocks`` disjoint groups
    of fraud pins each hammer a small private set of fraud merchants
    ("synchronized behaviour"), plus a little camouflage toward popular
    honest merchants (the reason for the 1/log column weights).

    Returns ``(edges, users, meta)``:
      * ``edges`` — pandas DataFrame (pin:int64, merchant:int64), deduped;
      * ``users`` — pandas DataFrame (pin, is_fraud) for *all* pins —
        ``is_fraud`` is the blacklist ground truth;
      * ``meta`` — dict with block assignments and generation stats.
    """
    if preset not in JD_PRESETS:
        raise ValueError(f"unknown preset {preset!r}; one of {sorted(JD_PRESETS)}")
    p = JD_PRESETS[preset]
    rng = np.random.default_rng(seed)

    n_blocks = max(3, int(round(p["n_blocks"] * min(1.0, scale * 50))))
    n_pin = max(200, int(p["n_pin"] * scale))
    n_fraud = min(n_pin // 2, max(n_blocks * 6, int(p["n_fraud"] * scale)))
    n_merchant = max(60, int(p["n_merchant"] * scale))
    n_edge = max(1000, int(p["n_edge"] * scale))

    # Fraud block layout: split fraud pins round-robin into blocks; give
    # each block enough private merchants that block merchants end up
    # with degree ~ block_merchant_degree (well above background).
    #
    # Blocks are deliberately HETEROGENEOUS in intensity (per-block
    # purchases-per-pin q_b spans [0.6q, q]): groups of identical
    # density would tie under φ — the densest-subgraph peel would then
    # return their disjoint union as one block — while real fraud rings
    # differ in aggressiveness, which is exactly the monotonically
    # decreasing per-block φ staircase of the paper's Fig. 1.
    fraud_pins = np.arange(n_pin - n_fraud, n_pin, dtype=np.int64)  # last ids are fraud
    block_of_pin = np.arange(n_fraud) % n_blocks
    q_per_block = np.maximum(
        3, np.round(np.linspace(fraud_edges_per_user, 0.6 * fraud_edges_per_user, n_blocks))
    ).astype(np.int64)
    fraud_merchants_per_block = []
    next_merchant = n_merchant  # fraud merchants appended after honest ones
    for b in range(n_blocks):
        bu = int((block_of_pin == b).sum())
        # A block with fewer pins than the target merchant degree cannot
        # reach that degree; it becomes a complete bipartite block on
        # q_b merchants instead (otherwise its density would collapse
        # below the honest background and the "planted" group would not
        # be anomalous at small scales).
        if bu <= block_merchant_degree:
            bm = int(q_per_block[b])
        else:
            bm = max(int(q_per_block[b]), int(round(bu * q_per_block[b] / block_merchant_degree)))
        fraud_merchants_per_block.append(np.arange(next_merchant, next_merchant + bm, dtype=np.int64))
        next_merchant += bm
    n_merchant_total = next_merchant

    # Fraud edges: each fraud pin buys from q_b distinct merchants of
    # its block (or all of them if fewer exist).
    fe_u, fe_v = [], []
    for b in range(n_blocks):
        pins_b = fraud_pins[block_of_pin == b]
        merch_b = fraud_merchants_per_block[b]
        q = min(int(q_per_block[b]), len(merch_b))
        # per-pin random q-subset of the block's merchants, vectorized
        perm = np.argsort(rng.random((len(pins_b), len(merch_b))), axis=1)[:, :q]
        fe_u.append(np.repeat(pins_b, q))
        fe_v.append(merch_b[perm].ravel())
    fe_u = np.concatenate(fe_u)
    fe_v = np.concatenate(fe_v)

    # Camouflage: fraud pins also touch honest merchants, drawn uniformly
    # so no single hot merchant accidentally bridges two planted blocks
    # into one detectable super-block (the blocks must stay disjoint, as
    # in the paper's problem definition).
    merch_pop = _zipf_weights(n_merchant, 0.85)
    camo_u = np.repeat(fraud_pins, camo_edges_per_user)
    camo_v = rng.integers(0, n_merchant, size=len(camo_u)).astype(np.int64)

    # Background: heavy-tailed merchant popularity, near-flat user
    # activity (real shoppers make few purchases; an over-active head
    # of users would fabricate a dense honest core denser than the
    # planted blocks).
    n_bg = max(0, n_edge - len(fe_u) - len(camo_u))
    user_act = _zipf_weights(n_pin, 0.3)
    bg_u = rng.choice(n_pin, size=n_bg, p=user_act).astype(np.int64)
    bg_v = rng.choice(n_merchant, size=n_bg, p=merch_pop).astype(np.int64)

    edges = pd.DataFrame(
        {
            "pin": np.concatenate([fe_u, camo_u, bg_u]),
            "merchant": np.concatenate([fe_v, camo_v, bg_v]),
        }
    ).drop_duplicates(ignore_index=True)

    is_fraud = np.zeros(n_pin, dtype=bool)
    is_fraud[fraud_pins] = True
    users = pd.DataFrame({"pin": np.arange(n_pin, dtype=np.int64), "is_fraud": is_fraud})

    meta = dict(
        preset=preset,
        scale=scale,
        n_pin=n_pin,
        n_fraud=n_fraud,
        n_merchant=n_merchant_total,
        n_edge=len(edges),
        n_blocks=n_blocks,
        fraud_pins=fraud_pins,
        block_of_pin=block_of_pin,
        fraud_merchants_per_block=fraud_merchants_per_block,
        paper=dict(p),
    )
    return edges, users, meta
