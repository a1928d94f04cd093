"""Evaluation: precision/recall/F1 metrics and per-table experiment harnesses."""
from repro.eval.metrics import f1_score, prf  # noqa: F401
