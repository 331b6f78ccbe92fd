"""The demo scripts run end to end against the package under test."""

import os
import shutil
import subprocess
import sys

import phishevade

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")
SCRIPTS = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def test_every_demo_runs(tmp_path):
    """Each script exits 0 in a fresh interpreter, in order, on a copy of
    ``demos/`` without its generated ``workbench/``; the attack demo prints
    a section for each knowledge level."""
    assert len(SCRIPTS) == 6
    demos = tmp_path / "demos"
    shutil.copytree(DEMOS, demos,
                    ignore=shutil.ignore_patterns("workbench", "__pycache__"))
    # the child imports the package this test imported, installed or not
    package_root = os.path.dirname(os.path.dirname(phishevade.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    for name in SCRIPTS:
        proc = subprocess.run([sys.executable, name], cwd=demos,
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, (name, proc.stderr)
        if name.startswith("03_"):
            for level in ("white", "grey", "black"):
                assert f"== {level}-box ==" in proc.stdout
