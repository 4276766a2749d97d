import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECT = {
    "demo_baseline_eigenvalue.py": "principal eigenvalue mu = 0.9989753804",
    "demo_degenerate_staircase.py": "hard-wall period map max entry:   0.0e+00",
    "demo_kernel_envelope.py": "kernel peak at gap 0.05: 1.2745",
    "demo_penalty_limit.py": "hard-wall limit eigenvalue mu_inf = 24.32",
    "demo_reachability.py": "first unreachable pair: ((1, 0), (24, 150))",
}


@pytest.mark.parametrize("script", sorted(EXPECT))
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert EXPECT[script] in proc.stdout
