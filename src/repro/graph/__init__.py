"""Bipartite graph substrate: the local edge-array container the solvers run on."""
