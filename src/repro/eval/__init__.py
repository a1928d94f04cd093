"""Evaluation: precision/recall/F1 metrics and per-table experiment harnesses."""
