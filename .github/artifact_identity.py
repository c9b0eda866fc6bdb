"""Byte-identity of every `hubofs run` artifact against another checkout of the repository.

    python .github/artifact_identity.py BASE_TREE [TABLE_SEED]

Writes the benchmark table for TABLE_SEED (default 3) with ``perfbench/table.py``,
then runs ``python -m hubofs.cli run --seed 7`` once from this tree's ``src`` and
once from BASE_TREE's ``src``, under the flags of each benchmark workload and
under ``--preselect-k 57 --sweeps 5 --t-end 16``. Every artifact whose schema tag
is the same on both sides must have the same bytes. An artifact whose schema
changed (a deliberate format change) is reported and skipped; ``comparison.svg``
carries no tag and follows ``comparison.csv``'s. Exits 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: the workloads' flags)
import table  # noqa: E402

FLAG_SETS = {
    **{name: list(w.flags) for name, w in run.WORKLOADS.items()},
    "k57_shallow": ["--preselect-k", "57", "--sweeps", "5", "--t-end", "16"],
}
TAG_FROM = {"comparison.svg": "comparison.csv"}


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


def hubofs_run(tree: Path, csv: Path, out: Path, flags: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "hubofs.cli", "run", "--input", str(csv), "--target",
            table.TARGET, "--seed", "7", "--out", str(out), *flags]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: hubofs run {' '.join(flags)} exited {done.returncode}\n{done.stderr}")


def main(argv: list[str]) -> int:
    base = Path(argv[1]).resolve()
    seed = int(argv[2]) if len(argv) > 2 else 3
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / f"table{seed}.csv"
        table.write_table(csv, seed)
        for name, flags in FLAG_SETS.items():
            outs = [Path(tmp) / name / side for side in ("head", "base")]
            for tree, out in zip((ROOT, base), outs):
                hubofs_run(tree, csv, out, flags)
            for file in sorted({p.name for out in outs for p in out.iterdir()}):
                head, other = (out / file for out in outs)
                tags = (schema(head), schema(other))
                if not (head.exists() and other.exists()) or tags[0] != tags[1]:
                    print(f"{name}: {file} skipped, schema {tags[1]} -> {tags[0]}")
                elif head.read_bytes() != other.read_bytes():
                    print(f"{name}: {file} DIFFERS")
                    differ += 1
                else:
                    print(f"{name}: {file} identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
