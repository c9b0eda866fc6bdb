"""In-memory span tracer that wraps hubofs functions from outside the package.

Run as a script it is the traced ``hubofs`` process::

    python3 perfbench/tracer.py SPANS.jsonl run --input t.csv --target label ...

It imports ``hubofs.cli`` (timed as the span ``cli.import``), installs one
wrapper per layer function listed in :func:`install`, runs ``cli.main`` on the
remaining arguments inside the root span ``run`` and, when the run ends,
writes every span as one JSON line: ``{"id", "parent", "name", "start",
"end", "self"}`` plus an optional ``"count"`` of work items. Spans stay in
memory until then, so the trace file is written once. A last line
``{"calibration": ...}`` gives what tracing cost: the per-call cost of a
wrapper, measured in the same process after the run, the number of spans
and the time taken to write the file.

A wrapper is installed where the caller looks the function up: ``cli``
imports the dataset functions by name and ``samplers`` imports
``energy_many`` by name, so those wrappers go on the importing module.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    """Nested spans with self time = duration minus the direct children's durations."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [span id, children's total duration]

    def start(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append({"id": span_id, "parent": parent, "name": name, "start": self.clock()})
        self._stack.append([span_id, 0.0])
        return span_id

    def end(self, span_id: int, count: int | None = None) -> None:
        top_id, children = self._stack.pop()
        if top_id != span_id:
            raise RuntimeError(f"span {span_id} ended while span {top_id} was open")
        span = self.spans[span_id]
        span["end"] = self.clock()
        duration = span["end"] - span["start"]
        span["self"] = duration - children
        if count is not None:
            span["count"] = count
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``count(args, kwargs, result)`` optionally gives the work items done.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer.start(name)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                tracer.end(span_id, count(args, kwargs, result) if done and count else None)

        setattr(owner, attr, traced)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rows(args, kwargs, result):
    return int(args[1].shape[0])


def _distinct(args, kwargs, result):
    return len(result.entries)


def _triples(args, kwargs, result):
    return len(result.triadic)


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions of every hubofs module."""
    from hubofs import baselines, cli, dcqo, hubo, mi, postselect, rng, samplers

    layers = [
        (cli, "cmd_build", "cli.build", None),
        (cli, "cmd_sample", "cli.sample", None),
        (cli, "cmd_select", "cli.select", None),
        (cli, "cmd_compare", "cli.compare", None),
        (cli, "load_csv", "dataset.load_csv", None),
        (cli, "standardize", "dataset.standardize", None),
        (cli, "stratified_split", "dataset.split", None),
        (cli, "discretize", "dataset.discretize", None),
        (mi, "compute_tensors", "mi.compute_tensors", _triples),
        (mi, "mi_pair", "mi.mi_pair", None),
        (mi, "save_tensors", "mi.save_tensors", None),
        (hubo, "preselect_top_k", "hubo.coefficients", None),
        (hubo, "normalize_global", "hubo.coefficients", None),
        (hubo, "build_coefficients", "hubo.coefficients", None),
        (hubo, "apply_penalty", "hubo.coefficients", None),
        (hubo, "save_coefficients", "hubo.save_coefficients", None),
        (hubo, "load_coefficients", "hubo.load_coefficients", None),
        (samplers, "energy_many", "hubo.energy_many", _rows),
        (samplers, "simulated_annealing", "samplers.sa", _distinct),
        (samplers, "save_samples", "samplers.save_samples", None),
        (samplers, "load_samples", "samplers.load_samples", None),
        (rng.VectorXoshiro256StarStar, "__init__", "rng.vector_seed", None),
        (rng.VectorXoshiro256StarStar, "random", "rng.vector_random", None),
        (rng.VectorXoshiro256StarStar, "next_bit", "rng.vector_random", None),
        (rng.Xoshiro256StarStar, "random", "rng.scalar_random", None),
        (rng.Xoshiro256StarStar, "next_bit", "rng.scalar_random", None),
        (dcqo, "evolve_statevector", "dcqo.evolve", None),
        (dcqo, "evolve_and_sample", "dcqo.sample", _distinct),
        (postselect, "retain_low_energy", "postselect.retain", _distinct),
        (postselect, "importance", "postselect.importance", None),
        (postselect, "write_importance_csv", "postselect.write", None),
        (baselines, "logistic_fit", "baselines.logistic_fit", None),
        (baselines, "evaluate", "baselines.evaluate", None),
        (baselines, "pca_fit", "baselines.pca_fit", None),
    ]
    for owner, attr, name, count in layers:
        tracer.wrap(owner, attr, name, count)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call costs over a plain call, measured in this process."""
    probe = Tracer()

    class Probe:
        @staticmethod
        def noop():
            return None

    plain = Probe.noop
    start = time.perf_counter()
    for _ in range(calls):
        plain()
    plain_s = time.perf_counter() - start
    probe.wrap(Probe, "noop", "probe")
    traced = Probe.noop
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - plain_s) / calls)


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    root = tracer.start("run")
    span = tracer.start("cli.import")
    from hubofs import cli

    tracer.end(span)
    install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        tracer.end(root)
        start = time.perf_counter()
        tracer.write_jsonl(spans_path)
        write_s = time.perf_counter() - start
        # Tracing cost, estimated: wrapped calls x measured per-call cost,
        # plus writing this file. Appended as the last line.
        calls = len(tracer.spans) - 2  # all but the root and cli.import spans
        calibration = {"per_call_s": wrapper_cost(), "calls": calls, "write_s": write_s}
        with open(spans_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"calibration": calibration}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
