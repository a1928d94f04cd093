"""Output checks for the EnsemFDet benchmark, made apart from the program.

Nothing here calls into ``repro``: each check recomputes what it needs
from the edge list and the planted labels with plain numpy, so a fault
in the solver cannot also hide in its own check. A failed check raises
``CheckFailed``; ``run.py`` reports it as ``"correct": false`` and
``selftest.py`` feeds every check a corrupted output to show it fires.
"""
from __future__ import annotations

import math

import numpy as np

#: Absolute tolerance between a reported and a recomputed block φ.
PHI_TOL = 1e-9
#: Half-width of the sample-size band, in standard deviations (README).
SAMPLE_SIGMAS = 6.0
#: Best F1 must beat flagging every pin by this factor (README).
F1_FLOOR_FACTOR = 4.0


class CheckFailed(Exception):
    """An output of the program broke a property it must have."""


def block_phis(u: np.ndarray, v: np.ndarray, blocks: list[tuple[np.ndarray, np.ndarray]], c: float) -> np.ndarray:
    """φ of each FRAUDAR block, recomputed from the edge list.

    Block i is scored on the edges left after the intra-block edges of
    blocks 1..i-1 were removed, with column weights 1/log(d_j + c) from
    the *original* merchant degrees.
    """
    w_col = 1.0 / np.log(np.bincount(v).astype(np.float64) + c)
    alive = np.ones(len(u), dtype=bool)
    in_u = np.zeros(int(u.max()) + 1, dtype=bool)
    in_v = np.zeros(int(v.max()) + 1, dtype=bool)
    out = []
    for users, merchants in blocks:
        in_u[:] = False
        in_v[:] = False
        in_u[users] = True
        in_v[merchants] = True
        inside = alive & in_u[u] & in_v[v]
        out.append(w_col[v[inside]].sum() / (len(users) + len(merchants)))
        alive &= ~inside
    return np.asarray(out, dtype=np.float64)


def check_fraudar_blocks(
    u: np.ndarray, v: np.ndarray, blocks: list[tuple[np.ndarray, np.ndarray, float]], c: float
) -> None:
    """Reported block φ must equal the recomputed φ; block 1 must beat the whole graph."""
    if not blocks:
        raise CheckFailed("FRAUDAR returned no blocks")
    want = block_phis(u, v, [(b[0], b[1]) for b in blocks], c)
    got = np.asarray([b[2] for b in blocks], dtype=np.float64)
    bad = np.nonzero(np.abs(got - want) > PHI_TOL)[0]
    if len(bad):
        i = int(bad[0])
        raise CheckFailed(f"block {i + 1}: reported phi {got[i]!r} != recomputed {want[i]!r}")
    w_col = 1.0 / np.log(np.bincount(v).astype(np.float64) + c)
    whole = w_col[v].sum() / (len(np.unique(u)) + len(np.unique(v)))
    if got[0] < whole - PHI_TOL:
        raise CheckFailed(f"block 1 phi {got[0]!r} is below the whole graph's phi {whole!r}")


def check_votes(pins: np.ndarray, votes: np.ndarray, n: int, edge_pins: np.ndarray) -> None:
    """Every vote lies in [1, N]; every voted pin is unique and has an edge in the input."""
    if len(pins) == 0:
        raise CheckFailed("empty pin vote table")
    out_of_range = (votes < 1) | (votes > n)
    if out_of_range.any():
        raise CheckFailed(f"{int(out_of_range.sum())} votes outside [1, {n}], e.g. {int(votes[out_of_range][0])}")
    if len(np.unique(pins)) != len(pins):
        raise CheckFailed("a pin appears twice in the vote table")
    unknown = ~np.isin(pins, edge_pins)
    if unknown.any():
        raise CheckFailed(f"{int(unknown.sum())} voted pins have no edge in the input, e.g. {int(pins[unknown][0])}")


def sample_size_band(method: str, s: float, n: int, u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(expected rows, allowed deviation) of the total size of ``n`` samples.

    RES keeps each (edge, sample) pair with probability S, independently:
    Var = N·|E|·S(1-S). TNS keeps a pair when both endpoints are drawn,
    each with probability S, so pairs that share an endpoint are
    correlated: Var = N·(|E|·S²(1-S²) + (S³-S⁴)·Σ d(d-1)) with the sum
    over the degrees of both sides.
    """
    e = len(u)
    if method == "RES":
        p, var = s, n * e * s * (1 - s)
    elif method == "TNS":
        pairs = sum(float((d * (d - 1.0)).sum()) for d in (np.bincount(u), np.bincount(v)))
        p, var = s * s, n * (e * s * s * (1 - s * s) + (s**3 - s**4) * pairs)
    else:
        raise ValueError(f"no sample-size band for method {method!r}")
    return n * e * p, SAMPLE_SIGMAS * math.sqrt(var)


def check_sample_size(sizes: np.ndarray, method: str, s: float, n: int, u: np.ndarray, v: np.ndarray) -> None:
    """All N samples exist; their total and each one's size lie in the band of sample_size_band."""
    if len(sizes) != n:
        raise CheckFailed(f"{len(sizes)} non-empty samples; expected {n}")
    mean, tol = sample_size_band(method, s, n, u, v)
    if abs(sizes.sum() - mean) > tol:
        raise CheckFailed(f"{method} samples hold {int(sizes.sum())} rows; expected {mean:.0f} +- {tol:.0f}")
    mean1, tol1 = sample_size_band(method, s, 1, u, v)
    bad = np.nonzero(np.abs(sizes - mean1) > tol1)[0]
    if len(bad):
        raise CheckFailed(f"a {method} sample holds {int(sizes[bad[0]])} rows; expected {mean1:.0f} +- {tol1:.0f}")


def f1_floor(n_fraud: int, n_pin: int) -> float:
    """F1_FLOOR_FACTOR × the F1 of flagging every pin as fraud."""
    p = n_fraud / n_pin
    return F1_FLOOR_FACTOR * 2 * p / (1 + p)


def check_f1(best_f1: float, floor: float) -> None:
    if not best_f1 > floor:
        raise CheckFailed(f"best F1 {best_f1:.4f} is not above the planted-label floor {floor:.4f}")
