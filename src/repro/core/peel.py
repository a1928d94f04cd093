"""Greedy densest-subgraph peeling (Algorithm 1, lines 3–8).

Charikar-style: repeatedly delete the node whose removal costs the
least weighted edge mass, tracking φ = f / (#remaining nodes) over the
whole deletion sequence; the best prefix-complement is the detected
block. A lazy min-heap gives the paper's O(|E| log(|U|+|V|)) bound —
priorities only ever decrease, so a popped entry is valid iff it still
equals the node's current priority. An edge leaves the graph exactly
when its first endpoint is removed, so an edge is alive iff both its
ends are: the kernel tracks liveness on nodes only.

The loop runs in a native kernel, ``_peel.c``, loaded with ctypes. It
is compiled on first import with ``cc`` into ``_build/`` next to this
file, under a name keyed by a hash of the source and flags; each
process compiles into a temporary file and renames it into place, so
processes importing this module at once (Spark's Python workers) race
safely. There is no Python fallback: without ``cc`` the import fails.
The kernel is bit-identical to the Python loop in
``tests/peel_reference.py``, which the tests compare it against.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.density import DEFAULT_C, edge_values, merchant_weights
from repro.graph.bipartite import BipartiteGraph


_SOURCE = Path(__file__).with_name("_peel.c")
_BUILD_DIR = Path(__file__).with_name("_build")
#: No -ffast-math or -march=native: either could reorder or fuse the float
#: operations the kernel must perform exactly as the Python loop does.
_CFLAGS = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]


def _load_kernel() -> ctypes.CDLL:
    """The compiled kernel, built first if this source and these flags have no library yet."""
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib_path = _BUILD_DIR / f"_peel-{key}.so"
    if not lib_path.exists():
        _BUILD_DIR.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".peel-", suffix=".so", dir=_BUILD_DIR)
        os.close(fd)
        try:
            subprocess.run(["cc", *_CFLAGS, "-o", tmp, str(_SOURCE)], check=True, capture_output=True, text=True)
            os.replace(tmp, lib_path)
        except FileNotFoundError:
            raise ImportError(
                f"repro.core.peel needs a C compiler: `cc` was not found on PATH; "
                f"it builds {_SOURCE.name} into {_BUILD_DIR} on first import"
            ) from None
        except subprocess.CalledProcessError as e:
            raise ImportError(f"`cc` failed to build {_SOURCE} into {_BUILD_DIR}:\n{e.stderr}") from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(str(lib_path))
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.peel.argtypes = [ctypes.c_int64] * 3 + [i64, i64, f64, ctypes.c_double, i64, i64, f64]
    lib.peel.restype = ctypes.c_int64
    return lib


_kernel = _load_kernel()


@dataclass
class PeelResult:
    """One detected dense block.

    ``users`` / ``merchants`` are original-id arrays; ``phi`` is the
    block's density score.
    """

    users: np.ndarray
    merchants: np.ndarray
    phi: float

    @property
    def n_nodes(self) -> int:
        return len(self.users) + len(self.merchants)


def peel_densest(
    g: BipartiteGraph,
    w_col: np.ndarray | None = None,
    c: float = DEFAULT_C,
) -> PeelResult:
    """Extract the single densest block of ``g`` under φ.

    ``w_col``: merchant column weights; defaults to weights computed
    from ``g``'s own degrees. FDET passes the weights of the original
    (pre-block-removal) graph so column weights stay fixed across its
    outer iterations, which also keeps every priority update a pure
    subtraction (the heap invariant).
    """
    if g.n_edges == 0:
        return PeelResult(np.empty(0, np.int64), np.empty(0, np.int64), 0.0)
    if w_col is None:
        w_col = merchant_weights(g.degrees_v(), c)

    nu = g.n_u
    val = np.ascontiguousarray(edge_values(g, w_col), dtype=np.float64)
    u = np.ascontiguousarray(g.u, dtype=np.int64)
    v = np.ascontiguousarray(g.v, dtype=np.int64)
    if not len(u) == len(v) == len(val):
        raise ValueError(f"edge arrays differ in length: {len(u)}, {len(v)}, {len(val)}")
    order = np.empty(nu + g.n_v, dtype=np.int64)
    best_removed = np.zeros(1, dtype=np.int64)
    best_phi = np.zeros(1, dtype=np.float64)
    # f is numpy's pairwise sum: the kernel must start from exactly this value.
    n_active = _kernel.peel(nu, g.n_v, len(u), u, v, val, float(val.sum()), order, best_removed, best_phi)
    if n_active == -1:
        raise MemoryError("peel kernel could not allocate its work arrays")
    if n_active == -2:
        raise ValueError("node id outside the graph's id space")

    # Survivors at the best state: active nodes after the first best_removed removals.
    ids = np.sort(order[best_removed[0] : n_active])
    users = ids[ids < nu]
    merchants = ids[ids >= nu] - nu
    return PeelResult(
        users=users,
        merchants=merchants,
        phi=float(best_phi[0]),
    )
