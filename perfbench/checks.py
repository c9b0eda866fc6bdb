"""Output checks for one ``hubofs run`` directory, through the package's own loaders.

Each check failure is a string; a run with any failure counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np

ARTIFACTS = (
    "mi_tensors.json",
    "coefficients.json",
    "samples.csv",
    "importance.csv",
    "comparison.csv",
    "comparison.svg",
)
SELECTION_ROW = "importance"  # compare labels a selection row by its file stem
EMPTY_SELECTION_AUC = 0.5  # an empty selection leaves a constant predictor


def check_run(out: Path, shots: int, k: int) -> tuple[dict, list[str]]:
    """(quality figures, failures) for the artifacts under ``out``.

    Figures: ``min_energy``; ``retained_energy_gap``, the count-weighted mean
    energy of the shots ``select`` retains (lowest fraction rho) above the
    trivial lower bound ``constant - S``, as a share of the coefficient scale
    ``S = sum |h| + sum |J| + sum |K|``; ``selected``; ``selection_auc``
    (0.5 for an empty selection) and ``distinct_states``.
    """
    from hubofs import cli, hubo, postselect, samplers
    from hubofs.errors import HubofsError

    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return {}, [f"missing artifacts: {', '.join(missing)}"]
    try:
        coeffs, _ = hubo.load_coefficients(out / "coefficients.json")
        sample_set = samplers.load_samples(out / "samples.csv")
        rows, _ = postselect.read_importance_csv(out / "importance.csv")
        auc = _selection_auc(out / "comparison.csv")
    except (HubofsError, KeyError, ValueError) as exc:  # some bad inputs still escape as these
        return {}, [f"artifact does not load: {exc!r}"]

    failures: list[str] = []
    if coeffs.n != k:
        failures.append(f"coefficient n={coeffs.n}, expected preselect k={k}")
    if sample_set.n != k:
        failures.append(f"sample n={sample_set.n}, expected preselect k={k}")
    counted = sum(e.count for e in sample_set.entries)
    if counted != shots or sample_set.total_shots != shots:
        failures.append(f"sample counts sum to {counted}, expected --shots {shots}")
    if sample_set.n == coeffs.n:
        spins = np.array([e.spins.spins for e in sample_set.entries], dtype=np.int8)
        recomputed = samplers.energy_many(coeffs, spins)
        drifted = sum(
            f"{a:.12g}" != f"{e.energy:.12g}" for a, e in zip(recomputed, sample_set.entries)
        )
        if drifted:
            failures.append(f"{drifted} sample energies differ from energy_many at 12 digits")
    if len(rows) != k:
        failures.append(f"importance.csv has {len(rows)} rows, expected {k}")
    selected = sum(row["selected"] for row in rows)
    if selected and auc is None:
        failures.append(f"{selected} features selected but comparison.csv has no selection row")
    if not selected and auc is not None:
        failures.append("empty selection but comparison.csv has a selection row")
    if failures:
        return {}, failures

    scale = (
        float(np.abs(coeffs.h).sum())
        + sum(abs(v) for v in coeffs.j_terms.values())
        + sum(abs(v) for v in coeffs.k_terms.values())
    )
    retained = postselect.retain_low_energy(sample_set, cli.DEFAULT_RHO)
    retained_mean = sum(e.count * e.energy for e in retained.entries) / retained.total_shots
    figures = {
        "min_energy": sample_set.min_energy(),
        "retained_energy_gap": (retained_mean - (coeffs.constant - scale)) / scale,
        "selected": selected,
        "selection_auc": EMPTY_SELECTION_AUC if auc is None else auc,
        "distinct_states": len(sample_set.entries),
    }
    return figures, failures


def _selection_auc(path: Path) -> float | None:
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")]
    for row in csv.DictReader(body):
        if row["method"] == SELECTION_ROW:
            return float(row["auc"])
    return None


def artifact_digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def check_repeat(store: Path, key: dict, digests: dict[str, str]) -> tuple[bool, list[str]]:
    """Compare ``digests`` with an earlier run of the same ``key``; (compared, failures).

    ``key`` names what must be equal for the artifacts to be byte-identical
    (program sources, table, flags). The first run of a key stores its
    digests in ``store``; later runs, in this invocation or a later one,
    must match them.
    """
    try:
        earlier = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        earlier = None
    if earlier is None or earlier.get("key") != key:
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps({"key": key, "digests": digests}), encoding="utf-8")
        os.replace(tmp, store)
        return False, []
    differ = [name for name in ARTIFACTS if earlier["digests"].get(name) != digests[name]]
    return True, [f"{name} differs from an earlier run of the same workload and seed" for name in differ]
