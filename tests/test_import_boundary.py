"""Import boundaries: the local solvers, baselines, metrics and data
generator import no Spark, no ``repro`` module imports a test-only
dependency, no package re-export shadows a module, and sampling has one
predicate in ``src/``."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_in_fresh_interpreter(code: str) -> None:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_local_modules_import_no_pyspark():
    _run_in_fresh_interpreter(
        "import sys\n"
        "import repro.core.density, repro.core.peel, repro.core.fdet\n"
        "import repro.baselines.fbox, repro.baselines.fraudar, repro.baselines.spoken\n"
        "import repro.eval.metrics, repro.synth_data\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark')\n"
        "assert 'pyspark' not in sys.modules, loaded\n"
    )


def test_no_repro_module_imports_duckdb():
    """DuckDB is the tests' oracle, not a dependency of the package."""
    _run_in_fresh_interpreter(
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "assert 'repro.eval.tables' in sys.modules, names\n"
        "assert 'duckdb' not in sys.modules\n"
    )


def test_packages_bind_only_modules():
    """A name a package binds would shadow a submodule of that name:
    ``repro.core.fdet`` must be the module, not the function ``fdet``."""
    _run_in_fresh_interpreter(
        "import importlib, pkgutil, types\n"
        "import repro\n"
        "mods = [importlib.import_module(m.name) for m in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for pkg in [repro] + [m for m in mods if hasattr(m, '__path__')]:\n"
        "    bound = [k for k, x in vars(pkg).items() if not k.startswith('__') and not isinstance(x, types.ModuleType)]\n"
        "    assert not bound, (pkg.__name__, bound)\n"
        "import repro.core.fdet\n"
        "assert isinstance(repro.core.fdet, types.ModuleType), repro.core.fdet\n"
    )


#: Spark functions of the replicate-and-hash sampler, which lives on only as ``tests/sampling_reference.py``.
_SPARK_SAMPLER_FUNCTIONS = {"xxhash64", "explode", "explode_outer", "posexplode", "posexplode_outer"}


def _spark_sampler_calls(tree: ast.AST) -> list[str]:
    """Calls of ``_SPARK_SAMPLER_FUNCTIONS`` through ``pyspark.sql.functions``, by any import of it."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "pyspark.sql.functions"}
        elif isinstance(node, ast.ImportFrom) and node.module == "pyspark.sql":
            modules |= {a.asname or a.name for a in node.names if a.name == "functions"}
        elif isinstance(node, ast.ImportFrom) and node.module == "pyspark.sql.functions":
            names |= {a.asname or a.name for a in node.names if a.name in _SPARK_SAMPLER_FUNCTIONS}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in names:
            calls.append(f"{f.id} (line {node.lineno})")
        elif isinstance(f, ast.Attribute) and f.attr in _SPARK_SAMPLER_FUNCTIONS and ast.unparse(f.value) in modules:
            calls.append(f"{ast.unparse(f)} (line {node.lineno})")
    return sorted(calls)


def test_spark_sampler_calls_are_found():
    code = (
        "import pyspark.sql.functions as G\n"
        "from pyspark.sql import functions as F\n"
        "from pyspark.sql.functions import explode as ex\n"
        "F.xxhash64('a'); G.posexplode('b'); ex('c'); xxhash64('d'); np.explode('e')\n"
    )
    assert _spark_sampler_calls(ast.parse(code)) == ["F.xxhash64 (line 4)", "G.posexplode (line 4)", "ex (line 4)"]


def test_no_repro_module_samples_through_spark_functions():
    """The numpy ``XxHash64`` port in ``repro.core.sampling`` is the one
    sampling predicate: no module hashes or explodes rows in the JVM."""
    found = {
        str(path.relative_to(SRC)): calls
        for path in sorted(SRC.rglob("*.py"))
        if (calls := _spark_sampler_calls(ast.parse(path.read_text())))
    }
    assert found == {}
