"""The demo scripts run end to end against the package under test."""

import os
import shutil
import subprocess
import sys

import phishevade
from phishevade.mutation import load_pool

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")
SCRIPTS = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


def _child_env():
    """The environment in which a child imports the package this test
    imported, installed or not."""
    package_root = os.path.dirname(os.path.dirname(phishevade.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def test_every_demo_runs(tmp_path):
    """Each script exits 0 in a fresh interpreter, in order, on a copy of
    ``demos/`` without its generated ``workbench/``; the attack demo prints
    a section for each knowledge level; the walkthrough's addition pool
    loads."""
    assert len(SCRIPTS) == 6
    demos = tmp_path / "demos"
    shutil.copytree(DEMOS, demos,
                    ignore=shutil.ignore_patterns("workbench", "__pycache__"))
    for name in SCRIPTS:
        proc = subprocess.run([sys.executable, name], cwd=demos, capture_output=True,
                              text=True, timeout=120, env=_child_env())
        assert proc.returncode == 0, (name, proc.stderr)
        if name.startswith("03_"):
            for level in ("white", "grey", "black"):
                assert f"== {level}-box ==" in proc.stdout
    pool = demos / "workbench" / "pool.jsonl"
    assert len(load_pool(pool)) == len(pool.read_text().splitlines()) > 0


def test_the_readme_quick_tour_runs(tmp_path):
    """The README's "Library quick tour" block runs as written in a fresh
    interpreter, in a directory holding the workbench's model and its seed
    as ``page.html``: the page is detected, the white attack succeeds, and
    its output stays at least 0.9 similar to the seed."""
    with open(os.path.join(os.path.dirname(DEMOS), "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library quick tour\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    workbench = os.path.join(DEMOS, "workbench")
    shutil.copy(os.path.join(workbench, "model.json"), tmp_path / "model.json")
    shutil.copy(os.path.join(workbench, "seed.html"), tmp_path / "page.html")
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    initial, attacked, similarity = proc.stdout.splitlines()
    status, final = attacked.split()
    assert float(initial) >= 0.5 > float(final)
    assert status == "success"
    assert float(similarity) >= 0.9
