"""Perception pins under switched CPU kernels.

BLAS and numpy pick their kernels from the CPU they run on, and the
environment can force another pick for one process and its children:
``OPENBLAS_CORETYPE`` selects OpenBLAS's kernels for an older core, and
``NPY_DISABLE_CPU_FEATURES`` caps numpy's SIMD dispatch.  Each row runs one
child process under one switch, which records the ``perceive`` CLI digests
and ``PERCEPTION_DIGEST``; both must be the recorded ones.  ``place --chain``
and ``grasp --chain`` stay out until the IK solve is free of BLAS as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import CLI_DIGESTS
from test_placement import PERCEPTION_DIGEST

ROOT = Path(__file__).resolve().parents[1]

# the child: the openblas core it runs on (None without OpenBLAS), the
# perceive digests as test_cli records them and the perception digest
CHILD = r"""
import contextlib, ctypes, glob, hashlib, io, json, os, sys, tempfile
import numpy
sys.path.insert(0, "tests")
from test_placement import perception_digest
from workbot import cli


def blas_core():
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_",
                     "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def sha(data):
    return hashlib.sha256(data).hexdigest()


with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "perceive.csv")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["perceive", "--scenario",
                         "src/workbot/data/workstation.json", "--out", out])
    assert code == 0
    with open(out, "rb") as fh:
        perceive = {"artifact": sha(fh.read()),
                    "stdout": sha(stdout.getvalue().encode())}
print(json.dumps({"core": blas_core(), "perceive": perceive,
                  "perception": perception_digest()}))
"""

# numpy 2.4 names its dispatch targets by x86-64 level; X86_V2 is the baseline
ABOVE_V3 = "X86_V4 AVX512_ICL AVX512_SPR"
ROWS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-zen": {"OPENBLAS_CORETYPE": "Zen"},
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-x86-v3": {"NPY_DISABLE_CPU_FEATURES": ABOVE_V3},
    "numpy-x86-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 " + ABOVE_V3},
}


@pytest.fixture(scope="module")
def children():
    """Every row's child, started together and read as each finishes."""
    procs = {name: subprocess.Popen(
        [sys.executable, "-c", CHILD], cwd=ROOT, text=True,
        env={**os.environ, **switch}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE) for name, switch in ROWS.items()}
    results = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, (name, err)
        results[name] = json.loads(out.splitlines()[-1])
    return results


@pytest.mark.parametrize("row", ROWS)
def test_perception_pins_hold_under_switched_kernels(children, row):
    got = children[row]
    if "OPENBLAS_CORETYPE" in ROWS[row] and got["core"] is None:
        pytest.skip("numpy is not linked against OpenBLAS, so "
                    "OPENBLAS_CORETYPE switches nothing")
    assert got["perceive"] == json.loads(CLI_DIGESTS.read_text())["perceive"]
    assert got["perception"] == PERCEPTION_DIGEST
