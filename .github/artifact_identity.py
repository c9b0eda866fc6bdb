"""Byte-identity of every `hubofs` artifact against another checkout of the repository.

    python .github/artifact_identity.py BASE_TREE [TABLE_SEED]

Writes the benchmark table for TABLE_SEED (default 3) with ``perfbench/table.py``,
then runs ``python -m hubofs.cli run --seed 7`` once from this tree's ``src`` and
once from BASE_TREE's ``src``, under the flags of each benchmark workload and of
the runs no workload makes (FLAG_SETS). It also runs the stages one by one
(STANDALONE): ``build``, a shallow SA ``sample``, ``select`` at two deltas and a
``compare`` of both selections. One job (CSV_PATH) runs on the table that
``csv_path_table`` derives, which ``load_csv`` reads through ``csv``, not
``np.loadtxt``. Every artifact whose schema tag is the
same on both sides must have the same bytes, and a file that only one side
wrote is a difference. An artifact whose schema changed (a deliberate format
change) is reported and does not count as a difference; for a CSV the report
says whether its rows below the ``#`` lines are identical, or shows the first
row that differs. ``comparison.svg`` carries no tag and follows
``comparison.csv``'s. ``samples.csv`` derives from ``coefficients.json``: when
the coefficients' tag moved, its energies may move in their last digits, so it
is compared on its bitstring and count columns in row order, whether or not its
own tag moved too, and the largest energy change is reported. Each run starts in its own session and
writes to a log file; a run that leaves a process of that session running is
reported, killed and counted as a difference. Each job's peak RSS on both trees
is printed: the largest ``ru_maxrss`` from ``os.wait4`` of its runs, each the
larger of the run's and its reaped workers'. A job whose peak on this tree exceeds
BASE_TREE's by more than the ``peak_rss_mb`` bound of ``BENCHMARK.json`` counts as
a difference. The tables are written in a forked child, so that this process's own
peak RSS, which Linux reports as a floor of every run's ``ru_maxrss``, stays below
the runs'. Last, it prints the line counts of both trees' ``src/hubofs``. Exits
1 on any difference.
"""

from __future__ import annotations

import json
import multiprocessing
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
    # One spin past the default 32: the packed row keys take a fifth byte.
    "k33_shallow": ["--preselect-k", "33", *SHALLOW],
    # The MI kernel's smallest and largest padding: 2 and 64 bins a side.
    "bins2_k57_shallow": ["--bins", "2", "--preselect-k", "57", *SHALLOW],
    "bins64_k8_shallow": ["--bins", "64", "--preselect-k", "8", *SHALLOW],
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
    # Full mode below the fork size, in one process: qubit 0, then driver groups of 4 and 1.
    "dcqo_k6_full": ["--sampler", "dcqo", "--preselect-k", "6", "--steps", "4"],
    # The qubit cap: both halves of the statevector, 16 MiB, evolved in two processes.
    "dcqo_k20": ["--sampler", "dcqo", "--preselect-k", "20", "--steps", "2"],
    # Default SA in two halves of its chains at Spambase's full width.
    "sa_k57": ["--preselect-k", "57"],
    # Halves of 999 and 1000 chains, never frozen.
    "sa_odd_shots": ["--shots", "1999", "--sweeps", "300"],
    # Categorical strings, a dropped row and a mixed column: the loader's csv path.
    "csv_path_shallow": SHALLOW,
}
CSV_PATH = "csv_path_shallow"
STANDALONE = "standalone_shallow"
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


def csv_path_table(text: str) -> str:
    """The benchmark table ``text`` in the form that takes ``load_csv``'s ``csv`` path:
    ``f0`` becomes "lo" or "hi" about its median (one-hot, two levels), ``f1`` whole
    numbers with ``nan`` in the first row (the mixed-column note; whole numbers keep
    its one-hot indicators to about a dozen), and ``f2`` is blank in the second row,
    which is dropped."""
    header, *rows = [line.split(",") for line in text.splitlines()]
    median = sorted(float(row[0]) for row in rows)[len(rows) // 2]
    for row in rows:
        row[0] = "hi" if float(row[0]) > median else "lo"
        row[1] = f"{float(row[1]):.0f}"
    rows[0][1], rows[1][2] = "nan", ""
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def write_tables(csv: Path, mixed: Path, seed: int) -> None:
    """Write the table of ``seed`` to ``csv`` and its ``csv_path_table`` form to ``mixed``."""
    table.write_table(csv, seed)
    mixed.write_text(csv_path_table(csv.read_text(encoding="ascii")), encoding="ascii")


def source_lines(tree: Path) -> int:
    """``wc -l`` of the tree's ``src/hubofs/*.py``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "hubofs").glob("*.py"))


def commands(name: str, csv: Path, out: Path) -> list[list[str]]:
    """The ``hubofs`` command lines of job ``name``, which write to ``out``: one ``run``
    under FLAG_SETS[name], or for STANDALONE the stages one by one, the second
    ``select`` into ``out/second``."""
    data = ["--input", str(csv), "--target", table.TARGET]
    if name != STANDALONE:
        return [["run", *data, "--seed", "7", "--out", str(out), *FLAG_SETS[name]]]
    coeffs = ["--coefficients", str(out / "coefficients.json")]
    samples = [*coeffs, "--samples", str(out / "samples.csv")]
    second = out / "second"
    return [
        ["build", *data, "--out", str(out)],
        ["sample", *coeffs, "--seed", "7", *SHALLOW, "--out", str(out)],
        ["select", *samples, "--delta", "0.3", "--out", str(out)],
        ["select", *samples, "--delta", "0.35", "--out", str(second)],
        ["compare", *data, "--selection", str(out / "importance.csv"),
         "--selection", str(second / "importance.csv"), "--out", str(out)],
    ]


def hubofs(name: str, tree: Path, args: list[str], log: Path) -> tuple[bool, int]:
    """Run ``hubofs ARGS`` in its own session; (whether it left a process running, its
    peak RSS in KiB).

    Output goes to ``log``: a pipe would stay open, and this wait hang, while a
    surviving worker held it.
    """
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "hubofs.cli", *args]
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
        sys.exit(f"{tree}: hubofs {' '.join(args)} exited {code}\n{tail}")
    return left, usage.ru_maxrss


def main(argv: list[str]) -> int:
    base = Path(argv[1]).resolve()
    seed = int(argv[2]) if len(argv) > 2 else 3
    rss_bound = next(m["bound"] for m in run.SPEC["end_to_end"] if m["name"] == "peak_rss_mb")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / f"table{seed}.csv"
        mixed = csv.with_name(f"mixed{seed}.csv")
        # Built here, the tables' text lifted every run's ru_maxrss to this process's 63 MB.
        writer = multiprocessing.get_context("fork").Process(
            target=write_tables, args=(csv, mixed, seed))
        writer.start()
        writer.join()
        if writer.exitcode != 0:
            sys.exit(f"writing the tables of seed {seed} failed")
        for name in [*FLAG_SETS, STANDALONE]:
            outs = [Path(tmp) / name / side for side in ("head", "base")]
            outs[0].parent.mkdir()
            kbs = []
            for tree, out in zip((ROOT, base), outs):
                runs = [hubofs(name, tree, args, out.with_suffix(f".{step}.log"))
                        for step, args in enumerate(
                            commands(name, mixed if name == CSV_PATH else csv, out))]
                differ += sum(left for left, _ in runs)
                kbs.append(max(kb for _, kb in runs))
            head_mb, base_mb = (kb / 1024 for kb in kbs)
            over = head_mb > base_mb + rss_bound
            print(f"{name}: peak RSS {base_mb:.2f} -> {head_mb:.2f} MB"
                  + (f", over the {rss_bound:g} MB bound" if over else ""))
            differ += over
            written = {p.relative_to(out).as_posix()
                       for out in outs for p in out.rglob("*") if p.is_file()}
            for file in sorted(written):
                head, other = (out / file for out in outs)
                tags = (schema(head), schema(other))
                if not (head.exists() and other.exists()):
                    print(f"{name}: {file} written by {'head' if head.exists() else 'base'} only")
                    differ += 1
                elif file in DERIVED and len({schema(out / DERIVED[file]) for out in outs}) > 1:
                    (states, energies), (old_states, old) = map(sample_rows, (head, other))
                    own = f", its own {tags[1]} -> {tags[0]}" if tags[0] != tags[1] else ""
                    if states != old_states:
                        print(f"{name}: {file} DIFFERS in its states, counts or row order")
                        differ += 1
                    else:
                        gap = max((abs(e - o) for e, o in zip(energies, old)), default=0.0)
                        print(f"{name}: {file} same states and counts, largest energy change "
                              f"{gap:.3g} ({DERIVED[file]} schema moved{own})")
                elif tags[0] != tags[1]:
                    rows = f", {retagged_rows(head, other)}" if file.endswith(".csv") else ""
                    print(f"{name}: {file} skipped, schema {tags[1]} -> {tags[0]}{rows}")
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
