"""Record of the machine and software a benchmark run measured on."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

CPU_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    """Per-core cache sizes by level and type, e.g. ``L2``: ``2048K``."""
    caches = {}
    for index in sorted(CPU_DIR.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            key = f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")
            caches[key] = size
    return caches


def _threads() -> int | None:
    for line in (_read(Path("/proc/self/status")) or "").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def _git(root: Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, check=True, timeout=30
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != root.resolve():
            return {"sha": None, "dirty": None}
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def environment(root: Path) -> dict:
    """Cores, CPU, caches, Python/numpy/BLAS and the git state of ``root``.

    ``threads_after_numpy_import`` counts this process's threads once numpy
    is loaded: the main thread plus OpenBLAS's worker pool at its default
    size, which the benchmark records and does not change.
    """
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches_per_core": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads_after_numpy_import": _threads(),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "git": _git(root),
    }
