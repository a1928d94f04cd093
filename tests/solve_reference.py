"""The per-block-frame output construction: the reference ``_solve_group`` must match.

This is ``repro.core.ensemble._solve_group`` as it was before it built
its output from whole columns and took and returned Arrow tables, kept
verbatim apart from its name and the dtype table it casts with: one
pandas frame per block per non-empty side, concatenated once and cast
once. Tests run it beside ``_solve_group`` and require equal frames,
dtypes included.
"""
from __future__ import annotations

import pandas as pd

from repro.core.fdet import fdet
from repro.graph.bipartite import BipartiteGraph

#: The pandas dtypes of ``DETECTED_SCHEMA``'s columns.
_DETECTED_DTYPES = {"sample_id": "int64", "side": "str", "node": "int64", "block": "int32", "phi": "float64"}


def solve_group_reference(
    pdf: pd.DataFrame, k_max: int, phi_stop_frac: float, c: float, truncate: bool
) -> pd.DataFrame:
    """Solve FDET on one sampled subgraph (one ``applyInPandas`` group).

    Relabels the group's sparse raw ids to a compact space, runs FDET
    (with truncation unless ``truncate`` is False: FIX-K), and emits one
    row per detected node per selected block, mapped back to original ids.
    """
    g, uids, vids = BipartiteGraph.from_pandas(pdf, "pin", "merchant").relabeled()
    result = fdet(g, k_max=k_max, truncate=truncate, phi_stop_frac=phi_stop_frac, c=c)
    frames = [
        pd.DataFrame(
            {"sample_id": pdf["sample_id"].iloc[0], "side": side, "node": ids[nodes], "block": b, "phi": block.phi}
        )
        for b, block in enumerate(result.selected)
        for side, ids, nodes in (("pin", uids, block.users), ("merchant", vids, block.merchants))
        if len(nodes)
    ]
    empty = [pd.DataFrame(columns=list(_DETECTED_DTYPES))]
    return pd.concat(frames or empty, ignore_index=True).astype(_DETECTED_DTYPES)
