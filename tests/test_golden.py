"""The CLI's outputs on a small fixed set match the committed goldens.

tests/golden/make_golden.py wrote tests/golden/data/ and recorded the numpy
version it ran on.  Under the same numpy major.minor, every file must match
byte for byte.  Under another one, einsum's summation order may differ (it
varies by build), so the numbers are parsed and compared at 1e-12 relative,
and the text around them must match exactly.  The mode that ran leads each
test id: "bytes" or "numbers".
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = GOLDEN / "data"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_golden",
                                                  GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_golden = _load_generator()
MANIFEST = json.loads((DATA / make_golden.MANIFEST).read_text())
EXACT = np.__version__.split(".")[:2] == MANIFEST["numpy"].split(".")[:2]
MODE = "bytes" if EXACT else "numbers"
FILES = sorted(str(p.relative_to(DATA)) for p in DATA.rglob("*")
               if p.is_file() and p.name != make_golden.MANIFEST)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def same_numbers(got: str, want: str, rel: float = 1e-12) -> bool:
    """The same text around the numbers, and numbers equal within rel."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    return all(a == b or math.isclose(float(a), float(b), rel_tol=rel)
               for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Every case of the manifest, run again by the code under test."""
    root = tmp_path_factory.mktemp("golden")
    inputs = root / "inputs"
    make_golden.write_inputs(str(inputs))
    for name, argv in MANIFEST["cases"].items():
        make_golden.run_case(argv, str(inputs), str(root / name))
    return root


def test_runs_every_case_of_the_manifest(fresh):
    written = sorted(str(p.relative_to(fresh)) for p in fresh.rglob("*")
                     if p.is_file() and p.parts[len(fresh.parts)] != "inputs")
    assert written == FILES
    assert set(MANIFEST["cases"]) == {Path(f).parts[0] for f in FILES}


def test_generator_writes_the_manifest_commands(tmp_path):
    # The DFDM targets are recomputed from the inputs, so this pins the
    # generator's opening move and full-band rate to the recorded --rd.
    targets = make_golden.write_inputs(str(tmp_path))
    assert make_golden.commands(targets) == MANIFEST["cases"]


@pytest.mark.parametrize("name", FILES, ids=lambda name: f"{MODE}:{name}")
def test_output_matches_golden(fresh, name):
    got, want = (fresh / name).read_text(), (DATA / name).read_text()
    if EXACT:
        assert got == want, f"{name} differs from its golden (byte mode)"
    else:
        assert same_numbers(got, want), (
            f"{name} differs from its golden beyond 1e-12 relative (number "
            f"mode: numpy {np.__version__}, goldens from {MANIFEST['numpy']})")


@pytest.mark.parametrize("got,ok", [
    ("a,1.5,2e-3\n", True),
    ("a,1.5000000000000004,0.0020000000000000005\n", True),
    ("a,1.500000001,2e-3\n", False),
    ("b,1.5,2e-3\n", False),
    ("a,1.5,2e-3,7\n", False),
    ("a,1.5\n", False),
])
def test_number_mode_tolerance(got, ok):
    assert same_numbers(got, "a,1.5,2e-3\n") is ok
