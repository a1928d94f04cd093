"""Bipartite graph substrate: the local edge-array container the solvers run on."""
from repro.graph.bipartite import BipartiteGraph  # noqa: F401
