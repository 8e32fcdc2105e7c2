"""Smoke test: every demo script runs, every exported name resolves, and
the package imports on numpy alone.

The demos are the only callers of some library entry points outside the
tests, so an API change that breaks one would otherwise go unnoticed.
"""

import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import specoord

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    assert [n for n in specoord.__all__ if not hasattr(specoord, n)] == []


def test_import_pulls_in_no_scipy():
    # A fresh interpreter, since this one may have loaded scipy already.
    code = ("import sys, specoord; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(specoord.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
