"""Byte-identity of every `hubofs run` artifact against another checkout of the repository.

    python .github/artifact_identity.py BASE_TREE [TABLE_SEED]

Writes the benchmark table for TABLE_SEED (default 3) with ``perfbench/table.py``,
then runs ``python -m hubofs.cli run --seed 7`` once from this tree's ``src`` and
once from BASE_TREE's ``src``, under the flags of each benchmark workload and of
the runs no workload makes (FLAG_SETS). Every artifact whose schema tag is the
same on both sides must have the same bytes, and a file that only one side
wrote is a difference. An artifact whose schema changed (a deliberate format
change) is reported and does not count as a difference; for a CSV the report
says whether its rows below the ``#`` lines are identical, or shows the first
row that differs. ``comparison.svg`` carries no tag and follows
``comparison.csv``'s. ``samples.csv`` derives from ``coefficients.json``: when
only the coefficients' tag moved, its energies may move in their last digits,
so it is compared on its bitstring and count columns in row order, and the
largest energy change is reported. Each run starts in its own session and
writes to a log file; a run that leaves a process of that session running is
reported, killed and counted as a difference. Each flag set's peak RSS on both
trees is printed and not compared: ``ru_maxrss`` from ``os.wait4``, the larger
of the run's and its reaped workers'. Last, it prints the line counts of both
trees' ``src/hubofs``. Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: the workloads' flags)
import table  # noqa: E402

SHALLOW = ["--sweeps", "5", "--t-end", "16"]
FLAG_SETS = {
    **{name: list(w.flags) for name, w in run.WORKLOADS.items()},
    "k57_shallow": ["--preselect-k", "57", *SHALLOW],
    # At n = 33 this OpenBLAS rounds a row by the product's row count.
    "k33_shallow": ["--preselect-k", "33", *SHALLOW],
    "exhaustive_k12": ["--sampler", "exhaustive", "--preselect-k", "12"],
    # keep = shots clamped to all 2^4 = 16 states.
    "exhaustive_k4": ["--sampler", "exhaustive", "--preselect-k", "4"],
    # keep = all 2^12 states: two packed bytes per row key, energies handed to _aggregate.
    "exhaustive_k12_all": ["--sampler", "exhaustive", "--preselect-k", "12", "--shots", "4096"],
    "random": ["--sampler", "random", "--delta", "0.4"],
    "dcqo_cd_only_k12": ["--sampler", "dcqo", "--preselect-k", "12", "--mode", "cd_only",
                         "--steps", "5"],
    "shallow_sweep": [*SHALLOW, "--delta", "0.3", "--delta", "0.5"],  # writes sweep.csv
    # One qubit: the rotation's state axis is a scalar, and the normalization degenerate.
    "dcqo_k1": ["--sampler", "dcqo", "--preselect-k", "1", "--steps", "3"],
    # The qubit cap: both halves of the statevector, 16 MiB, evolved in two processes.
    "dcqo_k20": ["--sampler", "dcqo", "--preselect-k", "20", "--steps", "2"],
    # Default SA in two halves of its chains, at an n where OpenBLAS rounds by row count.
    "sa_k57": ["--preselect-k", "57"],
    # Halves of 999 and 1000 chains, never frozen.
    "sa_odd_shots": ["--shots", "1999", "--sweeps", "300"],
}
TAG_FROM = {"comparison.svg": "comparison.csv"}
DERIVED = {"samples.csv": "coefficients.json"}


def schema(path: Path) -> str | None:
    """The schema tag of an artifact: a JSON ``schema`` key or a ``# schema=`` first line."""
    path = path.with_name(TAG_FROM.get(path.name, path.name))
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text).get("schema")
    first = text.split("\n", 1)[0]
    return first[len("# schema=") :] if first.startswith("# schema=") else None


def body(path: Path) -> list[str]:
    """The lines of a tagged CSV below its ``#`` lines, header row first."""
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line[:1] != "#"]


def retagged_rows(head: Path, base: Path) -> str:
    """'rows identical', or the first row of ``base`` that ``head`` changed."""
    pairs = enumerate(zip_longest(body(base), body(head), fillvalue="<none>"))
    first = next(((i, old, new) for i, (old, new) in pairs if old != new), None)
    return "rows identical" if first is None else "row {} differs: {!r} -> {!r}".format(*first)


def sample_rows(path: Path) -> tuple[list[list[str]], list[float]]:
    """The ``[bitstring, count]`` rows of a sample file, in order, and their energies."""
    rows = [line.split(",") for line in body(path)[1:]]
    return [row[:2] for row in rows], [float(row[2]) for row in rows]


def source_lines(tree: Path) -> int:
    """``wc -l`` of the tree's ``src/hubofs/*.py``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "hubofs").glob("*.py"))


def hubofs_run(name: str, tree: Path, csv: Path, out: Path, flags: list[str]) -> tuple[bool, int]:
    """Run ``hubofs run`` in its own session; (whether it left a process running, its
    peak RSS in KiB).

    Output goes to a log beside ``out``: a pipe would stay open, and this wait hang,
    while a surviving worker held it.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "hubofs.cli", "run", "--input", str(csv), "--target",
            table.TARGET, "--seed", "7", "--out", str(out), *flags]
    log = out.with_suffix(".log")
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        left = False
    else:
        print(f"{name}: {tree} left a process running")
        os.killpg(proc.pid, signal.SIGKILL)
        left = True
    if code != 0:
        tail = "\n".join(log.read_text(encoding="utf-8").splitlines()[-20:])
        sys.exit(f"{tree}: hubofs run {' '.join(flags)} exited {code}\n{tail}")
    return left, usage.ru_maxrss


def main(argv: list[str]) -> int:
    base = Path(argv[1]).resolve()
    seed = int(argv[2]) if len(argv) > 2 else 3
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / f"table{seed}.csv"
        table.write_table(csv, seed)
        for name, flags in FLAG_SETS.items():
            outs = [Path(tmp) / name / side for side in ("head", "base")]
            outs[0].parent.mkdir()
            (head_left, head_kb), (base_left, base_kb) = (
                hubofs_run(name, tree, csv, out, flags) for tree, out in zip((ROOT, base), outs))
            differ += head_left + base_left
            print(f"{name}: peak RSS {base_kb / 1024:.1f} -> {head_kb / 1024:.1f} MB")
            for file in sorted({p.name for out in outs for p in out.iterdir()}):
                head, other = (out / file for out in outs)
                tags = (schema(head), schema(other))
                if not (head.exists() and other.exists()):
                    print(f"{name}: {file} written by {'head' if head.exists() else 'base'} only")
                    differ += 1
                elif tags[0] != tags[1]:
                    rows = f", {retagged_rows(head, other)}" if file.endswith(".csv") else ""
                    print(f"{name}: {file} skipped, schema {tags[1]} -> {tags[0]}{rows}")
                elif file in DERIVED and len({schema(out / DERIVED[file]) for out in outs}) > 1:
                    (states, energies), (old_states, old) = map(sample_rows, (head, other))
                    if states != old_states:
                        print(f"{name}: {file} DIFFERS in its states, counts or row order")
                        differ += 1
                    else:
                        gap = max((abs(e - o) for e, o in zip(energies, old)), default=0.0)
                        print(f"{name}: {file} same states and counts, largest energy change "
                              f"{gap:.3g} ({DERIVED[file]} schema moved)")
                elif head.read_bytes() != other.read_bytes():
                    print(f"{name}: {file} DIFFERS")
                    differ += 1
                else:
                    print(f"{name}: {file} identical")
    head_lines, base_lines = source_lines(ROOT), source_lines(base)
    print(f"src/hubofs lines: {base_lines} -> {head_lines} ({head_lines - base_lines:+d})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
