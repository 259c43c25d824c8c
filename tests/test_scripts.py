"""Smoke runs of the README's code examples and the scripts it names."""

import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_synthetic_compares_every_default_ranker():
    # the one caller that evaluates HWK with a feature store on events
    # that carry content
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_synthetic.py"),
         "--cascades", "40"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0] for line in done.stdout.splitlines() if line.strip()}
    assert {"RCHR", "NN", "HWK", "HWK-ALL"} <= rows


def test_readme_library_use_runs(capsys):
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"Library use mirrors the CLI:\n\n```python\n(.*?)```",
                      readme, re.S)
    assert block, "README has no library-use example"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))
