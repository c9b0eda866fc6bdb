"""Importing hubofs gives numpy's OpenBLAS one thread unless the caller chose a count.

Every check runs in a child process: this suite's conftest imports numpy, and
so sizes OpenBLAS's pool, before hubofs.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# OpenBLAS caps a count at the number of cores: 4 on a 4-core runner, 2 on 2 cores.
CALLER_THREADS = "4"

# Imports argv[1] first and runs a product, then prints OpenBLAS's thread count (null
# when this numpy bundles no scipy-openblas) and the child's three thread variables.
PROBE = """
import ctypes, glob, importlib, json, os, sys
importlib.import_module(sys.argv[1])
import numpy
numpy.ones((300, 300)) @ numpy.ones((300, 300))
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
count = None
for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
    get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_int
        count = get()
names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
print(json.dumps([count, {k: os.environ[k] for k in names if k in os.environ}]))
"""


def child_env(**threads) -> dict:
    """This environment without the three thread variables, plus ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, **threads}


def probe(first: str, **threads) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, first],
        env=child_env(**threads), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    count, variable = json.loads(proc.stdout)
    if count is None:
        pytest.skip("numpy bundles no scipy_openblas_get_num_threads64_")
    return count, variable


@pytest.mark.parametrize("threads", [{}, {"OMP_NUM_THREADS": ""}], ids=["unset", "empty"])
def test_import_gives_one_thread(threads):
    # ...and leaves the environment as the caller set it, for children and records.
    assert probe("hubofs", **threads) == (1, threads)


@pytest.mark.parametrize("name", THREAD_VARS)
def test_the_callers_count_wins(name):
    # numpy alone shows what OpenBLAS makes of the count on this host.
    count, variables = probe("hubofs", **{name: CALLER_THREADS})
    assert count == probe("numpy", **{name: CALLER_THREADS})[0]
    assert variables == {name: CALLER_THREADS}


def test_artifacts_do_not_depend_on_the_thread_count(tmp_path):
    # The artifacts of a run must not depend on the caller's OpenBLAS thread count. At
    # 10 001 training rows and 48 features no artifact is known to differ in its bits
    # between one thread and two (compare's Newton fit gives equal weights under both), so
    # this guards the contract end to end rather than a known thread-dependent product.
    table = runpy.run_path(str(ROOT / "perfbench" / "table.py"))  # writes no bytecode
    table["write_table"](tmp_path / "table.csv", seed=5, rows=12500, features=48)
    flags = [
        "--input", str(tmp_path / "table.csv"), "--target", "label", "--preselect-k", "8",
        "--shots", "200", "--sweeps", "5", "--t-end", "16", "--delta", "0.3", "--delta", "0.5",
    ]
    outs = {"one": tmp_path / "one", "caller": tmp_path / "caller"}
    for label, threads in [("one", {}), ("caller", {"OPENBLAS_NUM_THREADS": CALLER_THREADS})]:
        proc = subprocess.run(
            [sys.executable, "-m", "hubofs.cli", "run", *flags, "--out", str(outs[label])],
            env=child_env(**threads), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in outs["one"].iterdir())
    assert "sweep.csv" in names and len(names) == 7
    assert names == sorted(p.name for p in outs["caller"].iterdir())
    for name in names:
        assert (outs["one"] / name).read_bytes() == (outs["caller"] / name).read_bytes(), name
