"""Numerical substrate: sparse truncated SVD (scipy is absent offline)."""
