"""The local solvers, baselines, metrics and data generator import no Spark."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_local_modules_import_no_pyspark():
    code = (
        "import sys\n"
        "import repro.core.density, repro.core.peel, repro.core.fdet\n"
        "import repro.baselines, repro.eval.metrics, repro.synth_data\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark')\n"
        "assert 'pyspark' not in sys.modules, loaded\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
