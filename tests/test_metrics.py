"""Tests for the evaluation metrics: precision/recall/F1, the curve sweeps, and a DuckDB oracle for the Spark true-positive join."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import f1_score, prf, score_sweep, threshold_sweep
from tests.oracle import assert_equivalent


class TestPrf:
    def test_perfect(self):
        p, r, f1 = prf([1, 2, 3], [1, 2, 3])
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_empty_detection(self):
        assert prf([], [1, 2]) == (0.0, 0.0, 0.0)

    def test_half_precision(self):
        p, r, f1 = prf([1, 2, 3, 4], [1, 2])
        assert p == 0.5 and r == 1.0 and f1 == pytest.approx(2 / 3)

    def test_half_recall(self):
        p, r, _ = prf([1], [1, 2])
        assert p == 1.0 and r == 0.5

    def test_duplicates_ignored(self):
        assert prf([1, 1, 2], [1, 2]) == (1.0, 1.0, 1.0)

    def test_no_overlap(self):
        p, r, f1 = prf([5, 6], [1, 2])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    @given(
        st.sets(st.integers(0, 50), min_size=1, max_size=30),
        st.sets(st.integers(0, 50), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_f1_identity(self, det, truth):
        p, r, f1 = prf(np.array(list(det)), np.array(list(truth)))
        assert 0 <= p <= 1 and 0 <= r <= 1 and 0 <= f1 <= 1
        assert f1 == pytest.approx(f1_score(p, r))

    def test_f1_zero_division(self):
        assert f1_score(0.0, 0.0) == 0.0


class TestThresholdSweep:
    @pytest.fixture
    def votes(self):
        return pd.DataFrame({"node": [1, 2, 3, 4, 5], "votes": [5, 4, 3, 2, 1]})

    def test_monotone_counts(self, votes):
        sweep = threshold_sweep(votes, np.array([1, 2]), [1, 2, 3, 4, 5, 6])
        assert sweep["n_detected"].tolist() == [5, 4, 3, 2, 1, 0]

    def test_recall_monotone_decreasing(self, votes):
        sweep = threshold_sweep(votes, np.array([1, 2]), [1, 3, 5])
        assert np.all(np.diff(sweep["recall"].to_numpy()) <= 0)

    def test_known_values(self, votes):
        sweep = threshold_sweep(votes, np.array([1, 2]), [4])
        row = sweep.iloc[0]
        assert row["precision"] == 1.0 and row["recall"] == 1.0

    def test_t_column_preserved(self, votes):
        sweep = threshold_sweep(votes, np.array([1]), [2, 7])
        assert sweep["T"].tolist() == [2, 7]


class TestScoreSweep:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.95])
        truth = np.array([2, 3])
        sweep = score_sweep(scores, truth, n_points=20)
        assert sweep["f1"].max() == pytest.approx(1.0)

    def test_precision_recall_bounds(self):
        rng = np.random.default_rng(0)
        sweep = score_sweep(rng.random(100), np.arange(10), n_points=30)
        assert sweep["precision"].between(0, 1).all()
        assert sweep["recall"].between(0, 1).all()

    def test_recall_reaches_one_at_low_threshold(self):
        scores = np.ones(20)
        sweep = score_sweep(scores, np.arange(5), n_points=10)
        assert sweep["recall"].max() == 1.0


class TestPrfSpark:
    """The detected-⋈-labels join that counts true positives in Spark
    matches DuckDB SQL."""

    @pytest.fixture(scope="class")
    def labels_pdf(self):
        rng = np.random.default_rng(3)
        return pd.DataFrame(
            {"pin": np.arange(100), "is_fraud": rng.random(100) < 0.2}
        )

    def test_tp_join_oracle(self, spark, labels_pdf):
        """The detected⋈labels true-positive count matches DuckDB."""
        detected = pd.DataFrame({"node": [0, 1, 2, 3, 4, 50, 60]})
        d = spark.createDataFrame(detected)
        joined = (
            d.withColumnRenamed("node", "pin")
            .join(spark.createDataFrame(labels_pdf), "pin", "left")
            .groupBy("is_fraud")
            .count()
        )
        assert_equivalent(
            joined,
            """
            SELECT l.is_fraud AS is_fraud, COUNT(*) AS count
            FROM detected d LEFT JOIN labels l ON d.node = l.pin
            GROUP BY l.is_fraud
            """,
            detected=detected,
            labels=labels_pdf,
        )
