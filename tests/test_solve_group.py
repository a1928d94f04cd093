"""The Python side of the solve: ``_solve_group``'s Arrow output table and
the solver closures' pruning of cached zip-archive finders."""
import importlib
import sys
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql.group import GroupedData

from repro.core import ensemble
from repro.core.ensemble import DETECTED_SCHEMA, _solve_group, detect, detect_on_samples
from repro.core.fdet import FdetResult
from repro.core.peel import PeelResult
from repro.core.sampling import sample_edges_spark
from tests import solve_reference
from tests.solve_reference import solve_group_reference

#: Arrow and pandas types of each Spark type in DETECTED_SCHEMA.
_ARROW_TYPE = {"long": pa.int64(), "string": pa.string(), "int": pa.int32(), "double": pa.float64()}
_PANDAS_DTYPE = {"long": "int64", "string": "object", "int": "int32", "double": "float64"}


@pytest.fixture(scope="module")
def jd1_samples(spark, jd1_small):
    """Twelve RES samples of jd1, collected, one frame per sample."""
    edges, *_ = jd1_small
    pdf = sample_edges_spark(spark.createDataFrame(edges), "RES", 0.3, 12, seed=0).toPandas()
    return [grp.reset_index(drop=True) for _, grp in pdf.groupby("sample_id", sort=True)]


def _table(pdf: pd.DataFrame) -> pa.Table:
    """One group as ``applyInArrow`` hands it over."""
    return pa.Table.from_pandas(pdf, preserve_index=False)


def _assert_matches_reference(pdf: pd.DataFrame, truncate: bool) -> pd.DataFrame:
    out = _solve_group(_table(pdf), 30, 0.05, 5.0, truncate)
    schema = dict(field.split() for field in DETECTED_SCHEMA.split(", "))
    assert out.schema.names == list(schema)
    assert out.schema.types == [_ARROW_TYPE[t] for t in schema.values()]
    got = out.to_pandas()
    pd.testing.assert_frame_equal(got, solve_group_reference(pdf, 30, 0.05, 5.0, truncate))
    assert got.dtypes.astype(str).to_dict() == {name: _PANDAS_DTYPE[t] for name, t in schema.items()}
    return got


@pytest.mark.parametrize("truncate", [True, False], ids=["truncated", "fix-k"])
def test_matches_per_block_frames_on_jd1(jd1_samples, truncate):
    rows = [len(_assert_matches_reference(pdf, truncate)) for pdf in jd1_samples]
    assert sum(rows) > 0


def test_empty_group(jd1_samples):
    assert _assert_matches_reference(jd1_samples[0].iloc[:0], truncate=True).empty


def test_block_with_an_empty_side_emits_no_rows_for_it(jd1_samples, monkeypatch):
    """FDET never keeps a block without edges, so the blocks are planted
    through a stand-in for ``fdet`` in both modules."""
    none = np.empty(0, dtype=np.int64)
    planted = FdetResult(
        blocks=[
            PeelResult(users=np.array([0, 1]), merchants=none, phi=2.0),
            PeelResult(users=none, merchants=np.array([0]), phi=1.5),
            PeelResult(users=np.array([2]), merchants=np.array([1, 2]), phi=1.0),
        ],
        k_hat=3,
    )
    for module in (ensemble, solve_reference):
        monkeypatch.setattr(module, "fdet", lambda g, **kwargs: planted)
    got = _assert_matches_reference(jd1_samples[0], truncate=True)
    assert got[["side", "block"]].value_counts().to_dict() == {
        ("pin", 0): 2, ("merchant", 1): 1, ("pin", 2): 1, ("merchant", 2): 2,
    }


def _zipped_modules(tmp_path, monkeypatch):
    """An archive on ``sys.path`` with a cached ``zipimporter``, and a module of it not yet imported."""
    archive = tmp_path / "zipped_modules.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr("zipped_first.py", "VALUE = 1\n")
        zf.writestr("zipped_second.py", "VALUE = 2\n")
    monkeypatch.syspath_prepend(str(archive))
    for name in ("zipped_first", "zipped_second"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    assert importlib.import_module("zipped_first").VALUE == 1
    assert isinstance(sys.path_importer_cache[str(archive)], zipimport.zipimporter)


def _assert_zip_finders_dropped_and_imports_work() -> None:
    assert not [f for f in sys.path_importer_cache.values() if isinstance(f, zipimport.zipimporter)]
    assert importlib.import_module("zipped_second").VALUE == 2


def test_solver_drops_zip_finders_and_zip_imports_still_work(spark, jd1_samples, tmp_path, monkeypatch):
    _zipped_modules(tmp_path, monkeypatch)
    solvers = []
    apply_in_arrow = GroupedData.applyInArrow

    def capture(self, func, schema):
        solvers.append(func)
        return apply_in_arrow(self, func, schema)

    monkeypatch.setattr(GroupedData, "applyInArrow", capture)
    detect_on_samples(spark.createDataFrame(jd1_samples[0]))
    (solver,) = solvers
    group = _table(jd1_samples[0])
    assert solver(group).equals(_solve_group(group, 30, 0.05, 5.0, True))
    _assert_zip_finders_dropped_and_imports_work()


def test_fused_solver_drops_zip_finders_and_zip_imports_still_work(spark, jd1_small, tmp_path, monkeypatch):
    """``detect``'s sample-and-solve task, run on the driver for sample 0
    while its broadcast is live, solves that sample and drops the finders."""
    edges, *_ = jd1_small
    edges_df = spark.createDataFrame(edges)
    want = sample_edges_spark(edges_df, "RES", 0.3, 1, seed=0).toPandas()
    _zipped_modules(tmp_path, monkeypatch)
    outputs = []
    map_in_arrow = type(edges_df).mapInArrow

    def capture(self, func, schema, *args, **kwargs):
        ids = pa.RecordBatch.from_pydict({"id": pa.array([0], pa.int64())})
        outputs.append(pa.Table.from_batches(list(func(iter([ids])))))
        return map_in_arrow(self, func, schema, *args, **kwargs)

    monkeypatch.setattr(type(edges_df), "mapInArrow", capture)
    detect(edges_df, "RES", 0.3, 1, seed=0)
    (out,) = outputs
    sample = _table(want.astype({"sample_id": "int64"}))
    assert out.equals(_solve_group(sample, 30, 0.05, 5.0, True))
    _assert_zip_finders_dropped_and_imports_work()
