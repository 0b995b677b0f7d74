"""The demos print the same text as recorded in ``tests/demo_outputs``.

Each demo runs in its own process with ``src`` on ``PYTHONPATH``.  Demo
06 works in a temporary directory, whose name is replaced by
``<TMPDIR>`` before the comparison.
"""

import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = pathlib.Path(__file__).resolve().parent / "demo_outputs"
TMPDIR = re.compile(re.escape(tempfile.gettempdir()) + r"/tmp\w+")


def test_every_demo_has_a_recorded_output():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in EXPECTED.glob("*.txt"))
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_the_recorded_text(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = TMPDIR.sub("<TMPDIR>", proc.stdout)
    assert out == (EXPECTED / f"{demo.stem}.txt").read_text(encoding="utf-8")
