"""Shared CLI plumbing for the jobs/ entrypoints.

Each job builds (or reuses) a local SparkSession configured like the
test fixture, runs one harness from ``repro.eval.tables`` and prints a
markdown table — the rows recorded in EXPERIMENTS.md.
"""
import argparse

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master("local[*]")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )


def base_parser(desc: str, default_scale: float = 0.05) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", type=float, default=default_scale,
                   help="JD-lite scale factor vs the paper's Table I counts")
    p.add_argument("--seed", type=int, default=0)
    return p
