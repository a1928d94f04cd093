"""The native peel kernel against the pure-Python reference loop, and its build.

The kernel must not approximate: every block, φ and k̂ must equal the
reference's exactly, so the comparisons here use ``==``, not a tolerance.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.fdet as fdet_module
from repro.core.fdet import fdet
from repro.core.peel import peel_densest
from repro.graph.bipartite import BipartiteGraph

from tests.peel_reference import peel_densest_reference


def assert_same_result(a, b):
    assert a.k_hat == b.k_hat
    assert len(a.blocks) == len(b.blocks)
    for x, y in zip(a.blocks, b.blocks):
        assert x.phi == y.phi
        assert np.array_equal(x.users, y.users)
        assert np.array_equal(x.merchants, y.merchants)


def fdet_both(g, **kwargs):
    """fdet() on ``g`` with the kernel, then with the reference loop in its place."""
    native = fdet(g, **kwargs)
    fdet_module.peel_densest = peel_densest_reference
    try:
        reference = fdet(g, **kwargs)
    finally:
        fdet_module.peel_densest = peel_densest
    return native, reference


class TestMatchesReference:
    @pytest.mark.parametrize("truncate", [True, False], ids=["truncated", "fix-k"])
    def test_fdet_on_jd(self, jd_small, truncate):
        _, _, _, g, _, _ = jd_small
        native, reference = fdet_both(g, k_max=30, truncate=truncate)
        assert len(native.blocks) >= 3
        assert_same_result(native, reference)

    @given(
        st.integers(1, 80).flatmap(
            lambda n_e: st.tuples(
                st.lists(st.integers(0, 9), min_size=n_e, max_size=n_e),
                st.lists(st.integers(0, 6), min_size=n_e, max_size=n_e),
                st.lists(st.sampled_from([1.0, 0.5, 3.0, 1 / 0.3, 0.1]), min_size=n_e, max_size=n_e),
            )
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_multigraphs(self, edges, extra_ids):
        """Duplicate edges, non-unit weights, and ids no edge touches."""
        u, v, w = edges
        g = BipartiteGraph.from_edges(u, v, w, n_u=10 + extra_ids, n_v=7 + extra_ids)
        a, b = peel_densest(g), peel_densest_reference(g)
        assert a.phi == b.phi
        assert np.array_equal(a.users, b.users) and np.array_equal(a.merchants, b.merchants)
        assert_same_result(*fdet_both(g, k_max=10, truncate=False))

    @pytest.mark.parametrize("n,d", [(6, 6), (12, 3), (40, 5)])
    def test_all_ties_regular_graph(self, n, d):
        """Every node starts at the same priority, so (priority, id) order decides each pop."""
        u = np.repeat(np.arange(n), d)
        v = (u + np.tile(np.arange(d), n)) % n
        g = BipartiteGraph.from_edges(u, v)
        assert_same_result(*fdet_both(g, k_max=10, truncate=False))

    def test_out_of_range_id_rejected(self):
        g = BipartiteGraph(np.array([0, 5]), np.array([0, 0]), np.ones(2), n_u=2, n_v=1)
        with pytest.raises(ValueError, match="id space"):
            peel_densest(g)


def _cold_copy(tmp_path: Path) -> tuple[Path, Path]:
    """``src/repro`` copied without its build cache; returns (PYTHONPATH, build dir)."""
    root = tmp_path / "src"
    shutil.copytree(
        Path(repro.__file__).parent, root / "repro", ignore=shutil.ignore_patterns("_build", "__pycache__")
    )
    return root, root / "repro" / "core" / "_build"


class TestBuild:
    def test_concurrent_cold_imports(self, tmp_path):
        """Four processes building at once all load, and leave one library and no temp file."""
        root, build = _cold_copy(tmp_path)
        env = {**os.environ, "PYTHONPATH": str(root)}
        procs = [
            subprocess.Popen([sys.executable, "-c", "import repro.core.peel"], env=env, stderr=subprocess.PIPE)
            for _ in range(4)
        ]
        errors = [p.communicate(timeout=120)[1].decode() for p in procs]
        assert [p.returncode for p in procs] == [0] * 4, errors
        assert [f.suffix for f in build.iterdir()] == [".so"]

    def test_missing_compiler_named(self, tmp_path):
        root, build = _cold_copy(tmp_path)
        no_cc = tmp_path / "bin"
        no_cc.mkdir()
        env = {**os.environ, "PYTHONPATH": str(root), "PATH": str(no_cc)}
        out = subprocess.run(
            [sys.executable, "-c", "import repro.core.peel"], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode != 0
        assert "`cc` was not found" in out.stderr and str(build) in out.stderr
