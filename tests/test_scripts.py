"""Every demo and the benchmark's checker self-test run to completion.

Each script runs in its own interpreter from the root of the checkout, the
way the README and ``perfbench/README.md`` tell a reader to run it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + [ROOT / "perfbench" / "selftest.py"]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter from the root of the checkout on ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_script_exits_zero(script):
    result = run_python(str(script))
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_tracer_finds_every_target():
    # The benchmark's tracer wraps package functions by module and name; a
    # renamed or moved target would silently empty its per-layer metric.
    code = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "import quantile_alloc.cli, quantile_alloc.oracle, spans\n"
        "tracer = spans.Tracer(); tracer.install(); print(tracer.missing)\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
