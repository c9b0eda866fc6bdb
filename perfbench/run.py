"""Benchmark of ``hubofs run`` on a seeded Spambase-shaped table.

    python3 perfbench/run.py --workload spambase_shallow --seed 3 [--seconds 20] [--trace 0|1]

Each invocation writes the table for ``--seed`` under ``.bench_work/``
(several times; ``setup_s`` is the median), then runs ``hubofs run`` on it
as a child process with the workload's flags and ``--seed 7``.

* ``--trace 0`` repeats the child until ``--seconds`` have passed (at least
  once) and reports the end-to-end metrics, timings as medians over the
  children.
* ``--trace 1`` runs one child under ``perfbench/tracer.py`` and reports
  the per-layer metrics.

Every child's artifacts pass the checks in ``checks.py`` and must be
byte-identical to those of any earlier child of the same workload, seed and
program sources, in this invocation or an earlier one, traced or not. The
last stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full record (environment, table sha256, every child) goes
to ``.bench_work/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import envinfo
import layers
import table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PROGRAM_SEED = 7
SETUP_REPEATS = 31
DEADLINE_S = 170.0  # the whole invocation, children included


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]  # appended to ``hubofs run``
    shots: int  # the run's --shots, checked against samples.csv
    k: int  # the run's --preselect-k, checked against n
    rows: int = table.ROWS
    features: int = table.FEATURES


# Names, units and why each workload exists: BENCHMARK.json and perfbench/README.md.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

# (flags, shots, k) per workload named in BENCHMARK.json.
_RUNS = {
    "spambase_sa": ((), 2000, 32),
    "spambase_shallow": (("--sweeps", "5", "--t-end", "16", "--delta", "0.3"), 2000, 32),
    "spambase_dcqo": (
        ("--sampler", "dcqo", "--preselect-k", "16", "--steps", "10", "--delta", "0.3"),
        2000,
        16,
    ),
}
WORKLOADS = {w["name"]: Workload(w["name"], *_RUNS[w["name"]]) for w in SPEC["workloads"]}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    failures: list[str] = field(default_factory=list)
    repeat_checked: bool = False


def run_child(argv: list[str], work: Path, log: Path, deadline: float) -> Child:
    """Run ``argv`` in ``work``; wall from start to reap, CPU and RSS from ``os.wait4``.

    The child is killed at ``deadline`` (a ``time.monotonic`` value).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    failures = [] if code == 0 else [f"exit code {code}, see {log}"]
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, failures)


def hubofs_argv(workload: Workload, out: str, spans: Path | None = None) -> list[str]:
    if spans is None:
        head = [sys.executable, "-m", "hubofs.cli"]
    else:
        head = [sys.executable, str(HERE / "tracer.py"), str(spans)]
    return head + [
        "run", "--input", "table.csv", "--target", "label",
        "--seed", str(PROGRAM_SEED), "--out", out, *workload.flags,
    ]


def setup(workload: Workload, seed: int, work: Path) -> tuple[float, str]:
    """Write the table SETUP_REPEATS times; (median seconds, sha256)."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        digests.add(table.write_table(work / "table.csv", seed, workload.rows, workload.features))
        times.append(time.perf_counter() - start)
    if len(digests) != 1:
        raise RuntimeError(f"table generator is not deterministic for seed {seed}")
    return statistics.median(times), digests.pop()


def source_digest() -> str:
    """sha256 over the program's source files, so stored repeats follow code changes."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "hubofs").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _facts(out: Path, figures: dict) -> dict:
    from hubofs import hubo, samplers

    coeffs, _ = hubo.load_coefficients(out / "coefficients.json")
    sample = samplers.load_samples(out / "samples.csv")
    meta = sample.metadata
    gate_keys = ("gates_1q", "gates_2q", "gates_3q_diag", "gates_3q_cd")
    return {
        "n": coeffs.n,
        "shots": sample.total_shots,
        "sampler": sample.sampler_name,
        "sweeps": int(meta.get("sweeps", 0)),
        "steps": int(meta.get("steps", 0)),
        "gates": sum(int(meta.get(key, 0)) for key in gate_keys),
        "max_norm_drift": float(meta.get("max_norm_drift", 0.0)),
        "triples_used": len(coeffs.k_terms),
        "min_energy": figures["min_energy"],
        "distinct_states": figures["distinct_states"],
        "selected": figures["selected"],
        "tensor_file_bytes": (out / "mi_tensors.json").stat().st_size,
        "coefficient_file_bytes": (out / "coefficients.json").stat().st_size,
        "sample_file_bytes": (out / "samples.csv").stat().st_size,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path = WORK) -> dict:
    """One benchmark invocation in ``work``; returns the result record."""
    deadline = time.monotonic() + DEADLINE_S
    (work / "repeats").mkdir(parents=True, exist_ok=True)
    setup_s, sha = setup(workload, seed, work)
    repeat_key = {"sources": source_digest(), "table": sha, "flags": list(workload.flags)}
    repeat_store = work / "repeats" / f"{workload.name}-{sha[:16]}.json"
    children: list[Child] = []
    figures: dict = {}

    def one(spans: Path | None = None) -> Child:
        out = f"run{len(children)}"
        shutil.rmtree(work / out, ignore_errors=True)  # no stale artifacts pass the checks
        child = run_child(hubofs_argv(workload, out, spans), work, work / f"{out}.log", deadline)
        children.append(child)
        if child.exit_code == 0:
            found, child.failures = checks.check_run(work / out, workload.shots, workload.k)
            if not child.failures:
                digests = checks.artifact_digests(work / out)
                child.repeat_checked, child.failures = checks.check_repeat(
                    repeat_store, repeat_key, digests
                )
                figures.update(found)
        return child

    metrics: dict[str, float] = {}
    if trace:
        units = layers.PER_LAYER
        spans_path = work / "spans.jsonl"
        spans_path.unlink(missing_ok=True)
        if not one(spans_path).failures:
            lines = [json.loads(line) for line in spans_path.read_text().splitlines()]
            facts = _facts(work / "run0", figures)
            metrics = layers.per_layer(lines[:-1], lines[-1]["calibration"], facts)
    else:
        units = END_TO_END
        start = time.monotonic()
        while True:
            child = one()
            now = time.monotonic()
            if now - start >= seconds or now + 1.5 * child.wall_s > deadline:
                break
        if not any(c.failures for c in children):
            metrics = {
                "run_s": statistics.median(c.wall_s for c in children),
                "cpu_s": statistics.median(c.cpu_s for c in children),
                "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
                "setup_s": setup_s,
                "retained_energy_gap": figures["retained_energy_gap"],
                "selection_auc": figures["selection_auc"],
            }
    failed = sum(1 for c in children if c.failures)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "table": {
            "generator_seed": seed,
            "sha256": sha,
            "rows": workload.rows,
            "features": workload.features,
        },
        "program_seed": PROGRAM_SEED,
        "environment": envinfo.environment(ROOT),
        "children": [vars(c) for c in children],
        "figures": figures,
        "correct": failed == 0 and bool(metrics),
        "attempted": len(children),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()} if metrics else {},
    }


def report(record: dict) -> None:
    env = record["environment"]
    print(
        f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"table sha256 {record['table']['sha256']}"
    )
    print(
        f"   nproc {env['nproc']}  {env['cpu_model']}  caches {env['caches_per_core']}  "
        f"python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
        f"threads {env['threads_after_numpy_import']}  git {env['git']}"
    )
    for c in record["children"]:
        status = "ok" if not c["failures"] else "FAILED: " + "; ".join(c["failures"])
        repeat = "repeat identical" if c["repeat_checked"] else "first of its key"
        print(
            f"   child wall {c['wall_s']:.3f} s  cpu {c['cpu_s']:.3f} s  "
            f"rss {c['peak_rss_mb']:.1f} MB  {repeat}  {status}"
        )
    samples = len(record["children"])
    for key, m in record["metrics"].items():
        note = f"  (median of {samples})" if key in ("run_s", "cpu_s", "peak_rss_mb") else ""
        print(f"   {key:<34} {m['value']:.6g} {m['unit']}{note}")
    share = record["failed"] / max(1, record["attempted"])
    print(f"   failed_share {share:g} ({record['failed']}/{record['attempted']})")


def save(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hubofs" / "cli.py").is_file():
        print(f"error: no hubofs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    save(record)
    report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
