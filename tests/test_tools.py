import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "casimir_mto" / "data"


@pytest.mark.parametrize("tool, files", [
    ("make_optical_tables.py", ["au_eps2.csv", "cu_eps2.csv", "materials.json"]),
    ("make_demo_calibration.py", ["calibration_demo.csv"]),
])
def test_tool_regenerates_the_bundled_data(tmp_path, tool, files):
    # The bundled data is exactly what its tool writes; --out leaves it alone.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / tool), "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for name in files:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
