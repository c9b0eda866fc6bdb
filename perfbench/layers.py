"""Per-layer metrics of one traced ``hubofs run``, from its spans and artifacts.

``_s`` metrics are self times (a span's duration minus its child spans)
summed over every span with that name, except the four ``cli`` stage
metrics, which are inclusive stage spans. The self-time metrics in
:data:`SELF_TIME_METRICS` plus ``trace.unaccounted_s`` add up to
``trace.total_s``, the traced process's root span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

COMPLEX_BYTES = 16  # complex128 amplitude

# metric -> unit, in report order, from BENCHMARK.json's per_layer list.
PER_LAYER = {
    m["name"]: m["unit"]
    for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )["per_layer"]
}

STAGES = ("cli.build", "cli.sample", "cli.select", "cli.compare")

# span name -> self-time metric; every span except the root maps to one.
SELF_TIME_METRICS = {
    "cli.import": "cli.import_s",
    **{stage: "cli.stage_self_s" for stage in STAGES},
    "dataset.load_csv": "dataset.load_csv_s",
    "dataset.discretize": "dataset.discretize_s",
    "dataset.standardize": "dataset.standardize_s",
    "dataset.split": "dataset.split_s",
    "mi.compute_tensors": "mi.compute_tensors_s",
    "mi.mi_pair": "mi.mi_pair_s",
    "mi.save_tensors": "mi.save_tensors_s",
    "hubo.coefficients": "hubo.coefficients_s",
    "hubo.save_coefficients": "hubo.save_coefficients_s",
    "hubo.load_coefficients": "hubo.load_coefficients_s",
    "hubo.energy_many": "hubo.energy_many_s",
    "samplers.sa": "samplers.sa_s",
    "samplers.save_samples": "samplers.save_samples_s",
    "samplers.load_samples": "samplers.load_samples_s",
    "rng.vector_seed": "rng.vector_seed_s",
    "rng.vector_random": "rng.vector_random_s",
    "rng.scalar_random": "rng.scalar_random_s",
    "dcqo.evolve": "dcqo.evolve_s",
    "dcqo.sample": "dcqo.sample_s",
    "postselect.retain": "postselect.retain_s",
    "postselect.importance": "postselect.importance_s",
    "postselect.write": "postselect.write_s",
    "baselines.logistic_fit": "baselines.logistic_fit_s",
    "baselines.evaluate": "baselines.evaluate_s",
    "baselines.pca_fit": "baselines.pca_fit_s",
}

CALL_METRICS = {
    "dataset.load_csv_calls": "dataset.load_csv",
    "dataset.discretize_calls": "dataset.discretize",
    "mi.mi_pair_calls": "mi.mi_pair",
    "hubo.load_coefficients_calls": "hubo.load_coefficients",
    "rng.vector_random_calls": "rng.vector_random",
    "rng.scalar_random_calls": "rng.scalar_random",
    "baselines.logistic_fit_calls": "baselines.logistic_fit",
}


def per_layer(spans: list[dict], calibration: dict, facts: dict) -> dict[str, float]:
    """Metric values from the traced run's spans, its tracing ``calibration``
    and ``facts`` read from the artifacts of the same run.

    ``facts``: ``n``, ``shots``, ``sampler``, ``sweeps``, ``steps``, ``gates``
    (per-term gate total of the circuit), ``max_norm_drift``,
    ``triples_used``, ``min_energy``, ``distinct_states``, ``selected`` and
    the three file sizes. ``trace.overhead_s`` is the calibration's estimate:
    wrapped calls times the measured per-call cost, plus writing the trace.
    """
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counted: dict[str, int] = defaultdict(int)
    root = None
    for span in spans:
        name = span["name"]
        if span["parent"] is None:
            root = span
            continue
        self_s[SELF_TIME_METRICS[name]] += span["self"]
        inclusive[name] += span["end"] - span["start"]
        calls[name] += 1
        counted[name] += span.get("count", 0)
    if root is None:
        raise ValueError("trace has no root span")
    m: dict[str, float] = {metric: self_s[metric] for metric in set(SELF_TIME_METRICS.values())}
    for stage in STAGES:
        m[stage + "_s"] = inclusive[stage]
    for metric, name in CALL_METRICS.items():
        m[metric] = calls[name]

    n, shots = facts["n"], facts["shots"]
    m["mi.triples_computed"] = counted["mi.compute_tensors"]
    m["mi.triples_used"] = facts["triples_used"]
    m["mi.triples_used_ratio"] = facts["triples_used"] / max(1, counted["mi.compute_tensors"])
    m["mi.tensor_file_bytes"] = facts["tensor_file_bytes"]
    m["hubo.coefficient_file_bytes"] = facts["coefficient_file_bytes"]
    m["hubo.energy_many_rows"] = counted["hubo.energy_many"]
    updates = shots * facts["sweeps"] * n if facts["sampler"] == "sa" else 0
    m["samplers.sa_spin_updates"] = updates
    m["samplers.sa_ns_per_update"] = 1e9 * m["samplers.sa_s"] / updates if updates else 0.0
    m["samplers.min_energy"] = facts["min_energy"]
    m["samplers.distinct_states"] = facts["distinct_states"]
    m["samplers.distinct_ratio"] = facts["distinct_states"] / shots
    m["samplers.sample_file_bytes"] = facts["sample_file_bytes"]
    steps = facts["steps"] if facts["sampler"] == "dcqo" else 0
    m["dcqo.step_s"] = m["dcqo.evolve_s"] / steps if steps else 0.0
    m["dcqo.gate_applications"] = facts["gates"]
    # Every per-term gate reads and writes the whole statevector once.
    m["dcqo.state_bytes_moved_computed"] = facts["gates"] * 2 * COMPLEX_BYTES * (1 << n) if steps else 0
    m["dcqo.max_norm_drift"] = facts["max_norm_drift"]
    m["postselect.retained_entries"] = counted["postselect.retain"]
    m["postselect.selected"] = facts["selected"]
    total = root["end"] - root["start"]
    m["trace.total_s"] = total
    m["trace.unaccounted_s"] = total - sum(self_s.values())
    m["trace.overhead_s"] = calibration["calls"] * calibration["per_call_s"] + calibration["write_s"]
    return {metric: m[metric] for metric in PER_LAYER}
