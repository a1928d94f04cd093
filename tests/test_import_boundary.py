"""Import boundaries: the local solvers, baselines, metrics and data
generator import no Spark, no ``repro`` module imports a test-only
dependency, and no package re-export shadows a module."""
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
