"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import table  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE = run.Workload(
    "smoke",
    ("--preselect-k", "6", "--shots", "40", "--sweeps", "4", "--t-end", "16", "--delta", "0.3"),
    shots=40,
    k=6,
    rows=300,
    features=10,
)


def test_tracer_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    class Fake:
        @staticmethod
        def inner():
            return 5

        @staticmethod
        def outer():
            return Fake.inner() + Fake.inner()

    tracer.wrap(Fake, "inner", "inner", count=lambda args, kwargs, result: result)
    tracer.wrap(Fake, "outer", "outer")
    assert Fake.outer() == 10
    outer, first, second = tracer.spans
    assert (outer["name"], outer["parent"], outer["self"]) == ("outer", None, 10.0 - 2.0 - 0.5)
    assert (first["parent"], first["self"], first["count"]) == (0, 2.0, 5)
    assert (second["parent"], second["self"]) == (0, 0.5)


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    class Fake:
        @staticmethod
        def boom():
            raise ValueError("x")

    tracer.wrap(Fake, "boom", "boom")
    with pytest.raises(ValueError):
        Fake.boom()
    assert "end" in tracer.spans[0] and "count" not in tracer.spans[0]


def test_table_is_byte_deterministic_per_seed(tmp_path):
    first = table.table_csv(3)
    assert table.table_csv(3) == first
    assert table.table_csv(4) != first
    lines = first.decode().splitlines()
    assert len(lines) == 1 + table.ROWS
    assert lines[0].split(",")[-1] == table.TARGET
    assert len(lines[1].split(",")) == table.FEATURES + 1
    digest = table.write_table(tmp_path / "t.csv", 3)
    assert (tmp_path / "t.csv").read_bytes() == first
    assert len(digest) == 64


def test_metric_names_are_well_formed():
    names = [*run.END_TO_END, *layers.PER_LAYER]
    assert all(NAME.fullmatch(m) and len(m) <= 64 for m in names)
    assert len(set(names)) == len(names)


def test_smoke_run_passes_every_check(tmp_path):
    plain = run.measure(SMOKE, 5, seconds=0.0, trace=False, work=tmp_path)
    assert (plain["correct"], plain["attempted"], plain["failed"]) == (True, 1, 0)
    assert list(plain["metrics"]) == list(run.END_TO_END)
    assert plain["metrics"]["retained_energy_gap"]["value"] > 0
    assert not plain["children"][0]["repeat_checked"]

    traced = run.measure(SMOKE, 5, seconds=0.0, trace=True, work=tmp_path)
    assert (traced["correct"], traced["attempted"], traced["failed"]) == (True, 1, 0)
    assert traced["children"][0]["repeat_checked"]  # same bytes as the plain run
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert list(values) == list(layers.PER_LAYER)
    self_times = sum(values[m] for m in set(layers.SELF_TIME_METRICS.values()))
    assert self_times + values["trace.unaccounted_s"] == pytest.approx(values["trace.total_s"])
    assert values["dataset.load_csv_calls"] == 2
    assert values["mi.triples_computed"] == 120 and values["mi.triples_used"] == 20
    assert values["samplers.sa_spin_updates"] == 40 * 4 * 6
    assert values["trace.overhead_s"] > 0


def test_checks_reject_tampered_artifacts(tmp_path):
    record = run.measure(SMOKE, 6, seconds=0.0, trace=False, work=tmp_path)
    assert record["correct"]
    out = tmp_path / "run0"
    store, key = tmp_path / "store.json", {"k": 1}
    assert checks.check_repeat(store, key, checks.artifact_digests(out)) == (False, [])
    samples = out / "samples.csv"
    lines = samples.read_text().splitlines()
    bits, count, energy = lines[-1].split(",")
    lines[-1] = f"{bits},{count},{float(energy) + 1.0:.12g}"
    samples.write_text("\n".join(lines) + "\n")
    _, failures = checks.check_run(out, SMOKE.shots, SMOKE.k)
    assert any("energy_many" in f for f in failures)
    compared, failures = checks.check_repeat(store, key, checks.artifact_digests(out))
    assert compared and len(failures) == 1 and failures[0].startswith("samples.csv")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spambase_sa", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
