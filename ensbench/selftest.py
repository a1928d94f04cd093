"""Self-test of the benchmark's output checks: each must pass on a real output and fire on a corrupted one.

Run from the repository root (no Spark session is started):

    python3 ensbench/selftest.py

The good cases are real program outputs (FRAUDAR blocks) or numpy draws
with the samplers' inclusion probabilities; the bad cases corrupt them
one way each: a shifted φ, an out-of-range vote, an unknown pin, a
truncated sample, a sample lost, a low F1.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    CheckFailed,
    check_f1,
    check_fraudar_blocks,
    check_sample_size,
    check_votes,
    f1_floor,
)


def _fires(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def _draw_sizes(method: str, s: float, n: int, u: np.ndarray, v: np.ndarray, rng) -> np.ndarray:
    """Per-sample sizes of n independent RES / TNS draws."""
    sizes = []
    for _ in range(n):
        if method == "RES":
            keep = rng.random(len(u)) < s
        else:
            keep = (rng.random(u.max() + 1) < s)[u] & (rng.random(v.max() + 1) < s)[v]
        sizes.append(int(keep.sum()))
    return np.asarray(sizes)


def main() -> int:
    from repro.baselines.fraudar import fraudar
    from repro.graph.bipartite import BipartiteGraph
    from repro.synth_data import jd_transactions

    edges, users, meta = jd_transactions("jd3", scale=0.001, seed=0)
    u, v = edges["pin"].to_numpy(), edges["merchant"].to_numpy()
    g = BipartiteGraph.from_pandas(edges, n_u=meta["n_pin"], n_v=meta["n_merchant"])
    blocks = [(b.users, b.merchants, b.phi) for b in fraudar(g, k=5).blocks]
    rng = np.random.default_rng(0)
    n = 80
    pins = np.unique(u)[:50]
    votes = rng.integers(1, n + 1, size=len(pins))
    floor = f1_floor(int(users["is_fraud"].sum()), len(users))
    res_sizes = _draw_sizes("RES", 0.1, n, u, v, rng)
    tns_sizes = _draw_sizes("TNS", 0.1, n, u, v, rng)

    shifted = list(blocks)
    shifted[2] = (blocks[2][0], blocks[2][1], blocks[2][2] + 1e-6)
    truncated = res_sizes.copy()
    truncated[7] //= 2
    cases = [
        ("fraudar blocks", check_fraudar_blocks, (u, v, blocks, 5.0), (u, v, shifted, 5.0)),
        ("vote range", check_votes, (pins, votes, n, u), (pins, np.where(np.arange(len(votes)) == 3, n + 1, votes), n, u)),
        ("voted pin has an edge", check_votes, (pins, votes, n, u), (np.append(pins[:-1], u.max() + 1), votes, n, u)),
        ("RES sample size", check_sample_size, (res_sizes, "RES", 0.1, n, u, v), (truncated, "RES", 0.1, n, u, v)),
        ("TNS sample lost", check_sample_size, (tns_sizes, "TNS", 0.1, n, u, v), (tns_sizes[1:], "TNS", 0.1, n, u, v)),
        ("F1 floor", check_f1, (0.9, floor), (0.9 * floor, floor)),
    ]
    ok = True
    for name, fn, good, bad in cases:
        passes, fires = not _fires(fn, *good), _fires(fn, *bad)
        ok &= passes and fires
        print(f"{name:24s} passes on good output: {passes}  fires on corrupted: {fires}")
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
