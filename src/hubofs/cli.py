"""Stage-oriented command line: build -> sample -> select -> compare.

Each stage reads and writes plain-text artifacts (JSON / CSV / SVG) so any
stage can be re-run from its inputs alone; ``run`` chains all four. Exit
codes: 0 success, 2 usage error, 3 data error, 4 size/capability error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import baselines, dcqo, hubo, mi, postselect, samplers
from .dataset import (
    Dataset,
    DiscretizedDataset,
    discretize,
    load_csv,
    standardize,
    stratified_split,
    subset_codes,
    subset_features,
)
from .errors import DataError, HubofsError, UsageError

DEFAULT_PRESELECT_K = 32
DEFAULT_SHOTS = 2000
DEFAULT_SWEEPS = 500
DEFAULT_RHO = 0.25
DEFAULT_DELTA = 0.5
PCA_VARIANCE = 0.95


@dataclass
class RunConfig:
    """Everything the pipeline stages need, with module-level defaults."""

    input: str = ""
    target: str = ""
    test_fraction: float = 0.2
    bins: int = 8
    preselect_k: int = DEFAULT_PRESELECT_K
    w1: float = hubo.DEFAULT_WEIGHTS[0]
    w2: float = hubo.DEFAULT_WEIGHTS[1]
    w3: float = hubo.DEFAULT_WEIGHTS[2]
    lam: float = hubo.DEFAULT_PENALTY[0]
    tau: float = hubo.DEFAULT_PENALTY[1]
    p: float = hubo.DEFAULT_PENALTY[2]
    sampler: str = "sa"
    shots: int = DEFAULT_SHOTS
    sweeps: int = DEFAULT_SWEEPS
    t_start: float | None = None
    t_end: float = samplers.DEFAULT_T_END
    steps: int = dcqo.DEFAULT_STEPS
    total_time: float = dcqo.DEFAULT_TOTAL_TIME
    mode: str = "full"
    rho: float = DEFAULT_RHO
    deltas: list[float] = field(default_factory=lambda: [DEFAULT_DELTA])
    seed: int = 0
    out: str = "."
    coefficients: str = ""
    samples: str = ""
    selections: list[str] = field(default_factory=list)


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dataset_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class _Splits:
    """The loaded dataset, its train/test split, and what build and compare
    derive from the train rows; each is computed at most once."""

    ds: Dataset
    train: Dataset
    test: Dataset
    bins: int

    @cached_property
    def binned(self) -> DiscretizedDataset:
        return discretize(self.train, self.bins)

    @cached_property
    def relevance(self):
        return mi.relevance(self.binned)


def _load_splits(cfg: RunConfig) -> _Splits:
    ds = load_csv(cfg.input, cfg.target)
    ds_std = standardize(ds)
    train, test = stratified_split(ds_std, cfg.test_fraction)
    return _Splits(ds, train, test, cfg.bins)


def cmd_build(cfg: RunConfig, splits: _Splits | None = None) -> tuple[Path, Path]:
    """load -> standardize -> split -> discretize -> relevance -> preselect -> MI -> HUBO.

    ``splits`` is ``_load_splits(cfg)`` when the caller already has it.
    """
    splits = splits or _load_splits(cfg)
    ds, train = splits.ds, splits.train
    if ds.n_features > cfg.preselect_k:
        indices = hubo.preselect_top_k(splits.relevance, cfg.preselect_k)
    else:
        indices = list(range(ds.n_features))
        if ds.n_features < cfg.preselect_k:
            print(
                f"note [build]: only {ds.n_features} features, preselection to "
                f"{cfg.preselect_k} skipped",
                file=sys.stderr,
            )
    tensors = mi.compute_tensors(subset_codes(splits.binned, indices))
    normalized = hubo.normalize_global(tensors)
    coeffs = hubo.build_coefficients(normalized, cfg.w1, cfg.w2, cfg.w3)
    coeffs = hubo.apply_penalty(coeffs, normalized.relevance, cfg.lam, cfg.tau, cfg.p)
    provenance = {
        "input": str(cfg.input),
        "input_sha256": _dataset_sha256(cfg.input),
        "target": cfg.target,
        "rows_used": ds.n_samples,
        "rows_dropped": ds.n_dropped_rows,
        "train_rows": train.n_samples,
        "params": {
            "test_fraction": cfg.test_fraction,
            "bins": cfg.bins,
            "preselect_k": cfg.preselect_k,
            "w1": cfg.w1,
            "w2": cfg.w2,
            "w3": cfg.w3,
            "lambda": cfg.lam,
            "tau": cfg.tau,
            "p": cfg.p,
        },
    }
    out = _out_dir(cfg)
    tensors_path = out / "mi_tensors.json"
    coeffs_path = out / "coefficients.json"
    mi.save_tensors(tensors_path, tensors, provenance)
    hubo.save_coefficients(
        coeffs_path,
        coeffs,
        feature_names=tuple(ds.feature_names[i] for i in indices),
        source_indices=tuple(indices),
        provenance=provenance,
    )
    print(f"build: wrote {tensors_path} and {coeffs_path} (n={coeffs.n})")
    return coeffs_path, tensors_path


def cmd_sample(cfg: RunConfig) -> Path:
    """Dispatch to the named sampler and write the sample CSV."""
    coeffs, _ = hubo.load_coefficients(cfg.coefficients)
    if cfg.sampler == "exhaustive":
        keep = cfg.shots
        if coeffs.n <= 24 and keep > (1 << coeffs.n):
            keep = 1 << coeffs.n
            print(f"note [sample]: keep clamped to 2^{coeffs.n} = {keep}", file=sys.stderr)
        result = samplers.exhaustive_solve(coeffs, keep)
    elif cfg.sampler == "sa":
        result = samplers.simulated_annealing(
            coeffs, cfg.shots, cfg.sweeps, cfg.t_start, cfg.t_end, cfg.seed
        )
    elif cfg.sampler == "dcqo":
        sched = dcqo.build_schedule(cfg.steps, cfg.total_time)
        result = dcqo.evolve_and_sample(coeffs, sched, cfg.shots, cfg.seed, cfg.mode)
    elif cfg.sampler == "random":
        result = samplers.random_sample(coeffs, cfg.shots, cfg.seed)
    else:
        raise UsageError(f"unknown sampler {cfg.sampler!r}")
    out = _out_dir(cfg)
    path = out / "samples.csv"
    samplers.save_samples(path, result)
    print(
        f"sample: {result.sampler_name} wrote {path} "
        f"({result.total_shots} shots, min energy {result.min_energy():.6g})"
    )
    return path


def cmd_select(cfg: RunConfig, check_energies: bool = True) -> Path:
    """rho-retention, importance scoring, and delta thresholding/sweeping.

    ``check_energies=False`` skips recomputing the sample energies, for a
    sample file just written from the same coefficients.
    """
    coeffs, extras = hubo.load_coefficients(cfg.coefficients)
    names = extras.get("feature_names") or [f"f{i}" for i in range(coeffs.n)]
    sample_set = samplers.load_samples(cfg.samples)
    if sample_set.n != coeffs.n:
        raise DataError(
            f"sample file has n={sample_set.n} but coefficient file has n={coeffs.n}"
        )
    # The file keeps 12 significant digits; energies of another instance differ there.
    if check_energies:
        recomputed = hubo.energy_many(coeffs, sample_set.spins)
        stale = sum(
            f"{a:.12g}" != f"{b:.12g}"
            for a, b in zip(recomputed.tolist(), sample_set.energies.tolist())
        )
        if stale:
            raise DataError(
                f"{stale} of {len(recomputed)} sample energies in {cfg.samples!r} differ "
                f"from the coefficients in {cfg.coefficients!r}; were they sampled from "
                "another build?"
            )
    retained = postselect.retain_low_energy(sample_set, cfg.rho)
    scores = postselect.importance(retained)
    results = postselect.threshold_sweep(scores, cfg.deltas)
    out = _out_dir(cfg)
    importance_path = out / "importance.csv"
    postselect.write_importance_csv(
        importance_path,
        scores,
        names,
        results[0],
        extra_metadata={"sampler": sample_set.sampler_name, "seed": str(sample_set.seed)},
    )
    if len(results) > 1:
        sweep_path = out / "sweep.csv"
        body = io.StringIO()
        writer = csv.writer(body, lineterminator="\n")
        writer.writerow(["delta", "n_selected", "selected_features"])
        for res in results:
            picked = ";".join(names[i] for i in res.selected)
            writer.writerow([f"{res.delta:.12g}", len(res.selected), picked])
        sweep_path.write_text("# schema=hubofs-sweep/1\n" + body.getvalue(), encoding="utf-8")
        print(f"select: wrote {sweep_path} ({len(results)} thresholds)")
    first = results[0]
    print(
        f"select: rho={cfg.rho:g} delta={first.delta:g} kept {scores.retained_count} shots, "
        f"selected {len(first.selected)}/{coeffs.n} features -> {importance_path}"
    )
    problems = []
    if not first.selected:
        problems.append(f"the selection at delta={first.delta:g} is empty")
    if len(retained.counts) == 1:
        problems.append("the retained shots are a single state")
    if problems:
        print(
            f"warning [select]: {' and '.join(problems)}; the samples hold "
            f"{len(sample_set.counts)} distinct configurations in {sample_set.total_shots} "
            "shots. If the sampler collapsed to its ground state, run SA shallow and warm "
            "(e.g. --sweeps 5 --t-end 16, see README)",
            file=sys.stderr,
        )
    return importance_path


def _selection_columns(path: str, ds) -> tuple[str, list[int]]:
    rows, _ = postselect.read_importance_csv(path)
    name_to_col = {name: idx for idx, name in enumerate(ds.feature_names)}
    picked = []
    for row in rows:
        if not row["selected"]:
            continue
        name = row["feature_name"]
        if name not in name_to_col:
            raise DataError(f"selected feature {name!r} from {path!r} not in the dataset")
        picked.append(name_to_col[name])
    return Path(path).stem, sorted(picked)


def cmd_compare(cfg: RunConfig, splits: _Splits | None = None) -> Path:
    """Evaluate selections against all-features, matched k-best, and PCA.

    ``splits`` is ``_load_splits(cfg)`` when the caller already has it.
    """
    if not cfg.selections:
        raise UsageError("compare needs at least one --selection file")
    splits = splits or _load_splits(cfg)
    ds, train, test = splits.ds, splits.train, splits.test

    def fit_eval(indices, label) -> baselines.EvalReport:
        model = baselines.logistic_fit(subset_features(train, indices))
        return baselines.evaluate(model, subset_features(test, indices), method_name=label)

    reports = []
    matched_sizes = []
    for path in cfg.selections:
        label, columns = _selection_columns(path, ds)
        if not columns:
            print(f"note [compare]: {path} selects zero features, skipped", file=sys.stderr)
            continue
        reports.append(fit_eval(columns, label))
        matched_sizes.append(len(columns))
    reports.append(fit_eval(list(range(ds.n_features)), "all_features"))
    for size in matched_sizes:
        columns = baselines.select_k_best(splits.relevance, size)
        reports.append(fit_eval(columns, f"select_k_best_{size}"))
    pca = baselines.pca_fit(train, PCA_VARIANCE)
    pca_model = baselines.logistic_fit(baselines.pca_transform(pca, train))
    reports.append(
        baselines.evaluate(
            pca_model,
            baselines.pca_transform(pca, test),
            method_name=f"pca_var{PCA_VARIANCE:g}",
            n_features=pca.kept_components,
        )
    )
    out = _out_dir(cfg)
    csv_path = out / "comparison.csv"
    svg_path = out / "comparison.svg"
    baselines.write_comparison_csv(csv_path, reports)
    _write_auc_svg(svg_path, reports)
    for r in reports:
        print(
            f"compare: {r.method_name:<24} n={r.n_features_or_components:<3} "
            f"acc={r.accuracy:.4f} f1={r.f1:.4f} auc={r.auc:.4f}"
        )
    return csv_path


def _write_auc_svg(path, reports) -> None:
    """Static horizontal bar chart of AUC per method."""
    from html import escape  # xml.sax.saxutils would import urllib and http.client

    bar_h, gap, left, top = 24, 10, 190, 40
    width = 640
    height = top + len(reports) * (bar_h + gap) + 20
    scale = width - left - 80
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{left}" y="20" font-size="14">ROC-AUC by method</text>',
    ]
    for row, r in enumerate(reports):
        y = top + row * (bar_h + gap)
        bar = max(1, int(round(r.auc * scale)))
        parts.append(
            f'<text x="{left - 8}" y="{y + bar_h - 8}" text-anchor="end">'
            f"{escape(r.method_name, quote=False)}</text>"
        )
        parts.append(
            f'<rect x="{left}" y="{y}" width="{bar}" height="{bar_h}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{left + bar + 6}" y="{y + bar_h - 8}">{r.auc:.4f}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def cmd_run(cfg: RunConfig) -> None:
    """All four stages in sequence, artifacts under --out.

    The CSV is loaded, and the train rows discretized and scored for
    relevance, once. ``select`` reads the sample file ``sample`` just wrote
    from the same coefficients, so it does not recompute the energies.
    """
    splits = _load_splits(cfg)
    coeffs_path, _ = cmd_build(cfg, splits)
    cfg.coefficients = str(coeffs_path)
    samples_path = cmd_sample(cfg)
    cfg.samples = str(samples_path)
    importance_path = cmd_select(cfg, check_energies=False)
    cfg.selections = [str(importance_path)]
    cmd_compare(cfg, splits)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--target", required=True, help="target column name")
    p.add_argument("--test-fraction", type=float, default=0.2, dest="test_fraction")
    p.add_argument("--bins", type=int, default=8)


def _add_build_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preselect-k", type=int, default=DEFAULT_PRESELECT_K, dest="preselect_k")
    p.add_argument("--w1", type=float, default=hubo.DEFAULT_WEIGHTS[0])
    p.add_argument("--w2", type=float, default=hubo.DEFAULT_WEIGHTS[1])
    p.add_argument("--w3", type=float, default=hubo.DEFAULT_WEIGHTS[2])
    p.add_argument("--lambda", type=float, default=hubo.DEFAULT_PENALTY[0], dest="lam")
    p.add_argument("--tau", type=float, default=hubo.DEFAULT_PENALTY[1])
    p.add_argument("--p", type=float, default=hubo.DEFAULT_PENALTY[2])


def _add_sampler_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sampler", default="sa", choices=["exhaustive", "sa", "dcqo", "random"]
    )
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--sweeps", type=int, default=DEFAULT_SWEEPS)
    p.add_argument("--t-start", type=float, default=None, dest="t_start")
    p.add_argument("--t-end", type=float, default=samplers.DEFAULT_T_END, dest="t_end")
    p.add_argument("--steps", type=int, default=dcqo.DEFAULT_STEPS)
    p.add_argument("--total-time", type=float, default=dcqo.DEFAULT_TOTAL_TIME, dest="total_time")
    p.add_argument("--mode", default="full", choices=["full", "cd_only"])
    p.add_argument("--seed", type=int, default=0)


def _add_select_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, default=DEFAULT_RHO)
    p.add_argument(
        "--delta",
        type=float,
        action="append",
        dest="deltas",
        help="importance threshold; repeat for a sweep (default 0.5)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubofs",
        description="Higher-order Ising feature selection: build, sample, select, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="MI tensors and HUBO coefficients from a CSV")
    _add_data_args(p_build)
    _add_build_args(p_build)
    p_build.add_argument("--out", default=".")

    p_sample = sub.add_parser("sample", help="sample low-energy configurations")
    p_sample.add_argument("--coefficients", required=True)
    _add_sampler_args(p_sample)
    p_sample.add_argument("--out", default=".")

    p_select = sub.add_parser("select", help="importance scores and thresholded subset")
    p_select.add_argument("--coefficients", required=True)
    p_select.add_argument("--samples", required=True)
    _add_select_args(p_select)
    p_select.add_argument("--out", default=".")

    p_compare = sub.add_parser("compare", help="evaluate selections against baselines")
    _add_data_args(p_compare)
    p_compare.add_argument(
        "--selection", action="append", dest="selections", required=True, default=None
    )
    p_compare.add_argument("--out", default=".")

    p_run = sub.add_parser("run", help="all four stages in sequence")
    _add_data_args(p_run)
    _add_build_args(p_run)
    _add_sampler_args(p_run)
    _add_select_args(p_run)
    p_run.add_argument("--out", default=".")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    for key, value in vars(args).items():
        if key == "command" or value is None:
            continue
        setattr(cfg, key, value)
    if not cfg.deltas:
        cfg.deltas = [DEFAULT_DELTA]
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    stage = args.command
    commands = {
        "build": cmd_build,
        "sample": cmd_sample,
        "select": cmd_select,
        "compare": cmd_compare,
        "run": cmd_run,
    }
    try:
        commands[stage](cfg)
    except HubofsError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
