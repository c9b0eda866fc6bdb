"""Stage-oriented command line: build -> sample -> select -> compare.

Each stage takes its inputs as values, writes plain-text artifacts (JSON /
CSV / SVG) and returns what the next stage needs. The stand-alone
subcommands read those inputs back from the artifacts, so any stage can be
re-run from its files alone; ``run`` chains all four in memory. Exit codes:
0 success, 2 usage error, 3 data error, 4 size/capability error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import baselines, dcqo, hubo, mi, postselect, samplers
from .artifacts import write_tagged, write_text
from .dataset import (
    Dataset,
    DiscretizedDataset,
    discretize,
    load_csv,
    standardize,
    stratified_split,
    subset_codes,
)
from .errors import DataError, HubofsError, UsageError

DEFAULT_RHO = 0.25
DEFAULT_DELTA = 0.5
PCA_VARIANCE = 0.95


@dataclass
class RunConfig:
    """Everything the pipeline stages need; the one place their defaults live."""

    input: str = ""
    target: str = ""
    test_fraction: float = 0.2
    bins: int = 8
    preselect_k: int = 32
    w1: float = hubo.DEFAULT_WEIGHTS[0]
    w2: float = hubo.DEFAULT_WEIGHTS[1]
    w3: float = hubo.DEFAULT_WEIGHTS[2]
    lam: float = hubo.DEFAULT_PENALTY[0]
    tau: float = hubo.DEFAULT_PENALTY[1]
    p: float = hubo.DEFAULT_PENALTY[2]
    sampler: str = "sa"
    shots: int = 2000
    sweeps: int = 500
    t_start: float | None = None
    t_end: float = samplers.DEFAULT_T_END
    steps: int = dcqo.DEFAULT_STEPS
    total_time: float = dcqo.DEFAULT_TOTAL_TIME
    mode: str = "full"
    rho: float = DEFAULT_RHO
    deltas: list[float] = field(default_factory=lambda: [DEFAULT_DELTA])
    seed: int = 0
    out: str = "."
    coefficients: str = ""  # this and the next two: inputs of the stand-alone stages
    samples: str = ""
    selections: list[str] = field(default_factory=list)


def _out_dir(cfg: RunConfig, *names: str) -> list[Path]:
    """The paths of the artifacts ``names`` in ``--out``, which is created; one that is a
    directory raises :class:`UsageError` here, before the stage does any work."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory '{out}': {exc.strerror or exc}") from exc
    paths = [out / name for name in names]
    for path in paths:
        if path.is_dir():
            raise UsageError(f"cannot write '{path}': it is a directory")
    return paths


def _artifacts(cfg: RunConfig, stage: str) -> tuple[str, ...]:
    """What ``stage`` writes in ``--out``: ``select`` adds ``sweep.csv`` when ``--delta``
    is repeated, and ``run`` writes every stage's files."""
    names = {"build": ("mi_tensors.json", "coefficients.json"), "sample": ("samples.csv",),
             "select": ("importance.csv", "sweep.csv")[: 1 + (len(cfg.deltas) > 1)],
             "compare": ("comparison.csv", "comparison.svg")}
    return names.get(stage) or sum(names.values(), ())


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


def cmd_build(cfg: RunConfig, splits: _Splits) -> tuple[hubo.HuboCoefficients, list[str]]:
    """discretize -> relevance -> preselect -> MI -> HUBO; the coefficients and the
    names of their features."""
    tensors_path, coeffs_path = _out_dir(cfg, *_artifacts(cfg, "build"))
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
    tensors = mi.compute_tensors(subset_codes(splits.binned, indices), splits.relevance[indices])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", hubo.DegenerateNormalizationWarning)
        normalized = hubo.normalize_global(tensors)
    for warning in caught:
        print(f"warning [build]: {warning.message} (n={tensors.n})", file=sys.stderr)
    coeffs = hubo.build_coefficients(normalized, cfg.w1, cfg.w2, cfg.w3)
    coeffs = hubo.apply_penalty(coeffs, normalized.relevance, cfg.lam, cfg.tau, cfg.p)
    names = [ds.feature_names[i] for i in indices]
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
    mi.save_tensors(tensors_path, tensors, provenance)
    hubo.save_coefficients(
        coeffs_path,
        coeffs,
        feature_names=names,
        source_indices=tuple(indices),
        provenance=provenance,
    )
    print(f"build: wrote {tensors_path} and {coeffs_path} (n={coeffs.n})")
    return coeffs, names


def cmd_sample(cfg: RunConfig, coeffs: hubo.HuboCoefficients) -> samplers.SampleSet:
    """Dispatch to the named sampler, write the sample CSV and return the samples it holds."""
    (path,) = _out_dir(cfg, *_artifacts(cfg, "sample"))
    if cfg.sampler == "exhaustive":
        keep = cfg.shots
        if coeffs.n <= hubo.MAX_ALL_STATES_N and keep > (1 << coeffs.n):
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
    saved = samplers.save_samples(path, result)
    print(
        f"sample: {result.sampler_name} wrote {path} "
        f"({result.total_shots} shots, min energy {result.min_energy():.6g})"
    )
    return saved


def _select_inputs(cfg: RunConfig) -> tuple[hubo.HuboCoefficients, list[str], samplers.SampleSet]:
    """Coefficients, feature names and samples of a stand-alone ``select``.

    The sample energies are recomputed: the file keeps 12 significant digits,
    and energies of another instance differ there.
    """
    coeffs, extras = hubo.load_coefficients(cfg.coefficients)
    names = extras.get("feature_names") or [f"f{i}" for i in range(coeffs.n)]
    sample_set = samplers.load_samples(cfg.samples)
    if sample_set.n != coeffs.n:
        raise DataError(f"sample file has n={sample_set.n} but coefficient file has n={coeffs.n}")
    recomputed = hubo.energy_many(coeffs, sample_set.spins).tolist()
    energies = sample_set.energies.tolist()
    stale = sum(f"{a:.12g}" != f"{b:.12g}" for a, b in zip(recomputed, energies))
    if stale:
        raise DataError(
            f"{stale} of {len(recomputed)} sample energies in {cfg.samples!r} differ "
            f"from the coefficients in {cfg.coefficients!r}; were they sampled from "
            "another build?"
        )
    return coeffs, names, sample_set


def cmd_select(
    cfg: RunConfig, coeffs: hubo.HuboCoefficients, names: list[str], sample_set: samplers.SampleSet
) -> tuple[int, ...]:
    """rho-retention, importance scoring, and delta thresholding/sweeping; the
    feature indices selected at the first delta."""
    importance_path, *sweep = _out_dir(cfg, *_artifacts(cfg, "select"))
    retained = postselect.retain_low_energy(sample_set, cfg.rho)
    scores = postselect.importance(retained)
    selections = [postselect.threshold_select(scores, d) for d in cfg.deltas]
    first, delta = selections[0], cfg.deltas[0]
    meta = [
        ("rho", f"{cfg.rho:.12g}"),
        ("retained", retained.total_shots),
        ("delta", f"{delta:.12g}"),
        ("sampler", sample_set.sampler_name),
        ("seed", sample_set.seed),
    ]
    postselect.write_importance_csv(importance_path, scores, names, first, meta)
    if sweep:
        (sweep_path,) = sweep
        rows = (
            [f"{d:.12g}", len(chosen), ";".join(names[i] for i in chosen)]
            for d, chosen in zip(cfg.deltas, selections)
        )
        header = ("delta", "n_selected", "selected_features")
        write_tagged(sweep_path, "hubofs-sweep/1", [], header, rows)
        print(f"select: wrote {sweep_path} ({len(selections)} thresholds)")
    print(
        f"select: rho={cfg.rho:g} delta={delta:g} kept {retained.total_shots} shots, "
        f"selected {len(first)}/{coeffs.n} features -> {importance_path}"
    )
    problems = []
    if not first:
        problems.append(f"the selection at delta={delta:g} is empty")
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
    return first


def _columns(ds: Dataset, names, source: str) -> list[int]:
    """Ascending dataset columns of the selected feature ``names`` (from ``source``)."""
    name_to_col = {name: idx for idx, name in enumerate(ds.feature_names)}
    for name in names:
        if name not in name_to_col:
            raise DataError(f"selected feature {name!r} from {source!r} not in the dataset")
    return sorted(name_to_col[name] for name in names)


def _read_selection(path: str, ds: Dataset) -> tuple[str, list[int]]:
    """The label (file stem) and dataset columns of an importance file's selection."""
    rows, _ = postselect.read_importance_csv(path)
    return Path(path).stem, _columns(ds, [r["feature_name"] for r in rows if r["selected"]], path)


def cmd_compare(cfg: RunConfig, splits: _Splits, selections) -> Path:
    """Evaluate ``(label, columns)`` selections against all-features, matched
    k-best (top relevance), and PCA."""
    if not selections:
        raise UsageError("compare needs at least one --selection file")
    csv_path, svg_path = _out_dir(cfg, *_artifacts(cfg, "compare"))
    train, test = splits.train, splits.test
    reports = []

    def fit_eval(label, train_x, test_x) -> None:
        model = baselines.logistic_fit(train_x, train.target)
        reports.append(baselines.evaluate(model, test_x, test.target, label))

    matched_sizes = []
    for label, columns in selections:
        if not columns:
            print(f"note [compare]: selection {label!r} is empty, skipped", file=sys.stderr)
            continue
        fit_eval(label, train.features[:, columns], test.features[:, columns])
        matched_sizes.append(len(columns))
    fit_eval("all_features", train.features, test.features)
    for size in matched_sizes:
        columns = hubo.preselect_top_k(splits.relevance, size)
        fit_eval(f"select_k_best_{size}", train.features[:, columns], test.features[:, columns])
    pca = baselines.pca_fit(train.features, PCA_VARIANCE)
    fit_eval(
        f"pca_var{PCA_VARIANCE:g}",
        baselines.pca_transform(pca, train.features),
        baselines.pca_transform(pca, test.features),
    )
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
    write_text(path, "\n".join(parts) + "\n")


def cmd_run(cfg: RunConfig) -> None:
    """All four stages in sequence, artifacts under --out, each stage handed the
    values of the one before: the CSV is loaded, the train rows binned and
    scored for relevance, and the coefficients built, once."""
    splits = _load_splits(cfg)
    coeffs, names = cmd_build(cfg, splits)
    selected = cmd_select(cfg, coeffs, names, cmd_sample(cfg, coeffs))
    picked = [names[i] for i in selected]
    cmd_compare(cfg, splits, [("importance", _columns(splits.ds, picked, "importance.csv"))])


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--target", required=True, help="target column name")
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--bins", type=int)


def _add_build_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preselect-k", type=int, dest="preselect_k")
    for flag in ("--w1", "--w2", "--w3", "--lambda", "--tau", "--p"):
        p.add_argument(flag, type=float, dest="lam" if flag == "--lambda" else None)


def _add_sampler_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sampler", choices=["exhaustive", "sa", "dcqo", "random"])
    p.add_argument("--shots", type=int)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--t-start", type=float, dest="t_start")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--steps", type=int)
    p.add_argument("--total-time", type=float, dest="total_time")
    p.add_argument("--mode", choices=["full", "cd_only"])
    p.add_argument("--seed", type=int)


def _add_select_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float)
    p.add_argument(
        "--delta",
        type=float,
        action="append",
        dest="deltas",
        help=f"importance threshold; repeat for a sweep (default {DEFAULT_DELTA:g})",
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
    p_build.add_argument("--out")

    p_sample = sub.add_parser("sample", help="sample low-energy configurations")
    p_sample.add_argument("--coefficients", required=True)
    _add_sampler_args(p_sample)
    p_sample.add_argument("--out")

    p_select = sub.add_parser("select", help="importance scores and thresholded subset")
    p_select.add_argument("--coefficients", required=True)
    p_select.add_argument("--samples", required=True)
    _add_select_args(p_select)
    p_select.add_argument("--out")

    p_compare = sub.add_parser("compare", help="evaluate selections against baselines")
    _add_data_args(p_compare)
    p_compare.add_argument("--selection", action="append", dest="selections", required=True)
    p_compare.add_argument("--out")

    p_run = sub.add_parser("run", help="all four stages in sequence")
    _add_data_args(p_run)
    _add_build_args(p_run)
    _add_sampler_args(p_run)
    _add_select_args(p_run)
    p_run.add_argument("--out")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The flags given on the command line over the ``RunConfig`` defaults."""
    given = {key: value for key, value in vars(args).items() if value is not None}
    del given["command"]
    return RunConfig(**given)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    stage = args.command
    try:
        _out_dir(cfg, *_artifacts(cfg, stage))  # before any input is read
        if stage == "build":
            cmd_build(cfg, _load_splits(cfg))
        elif stage == "sample":
            cmd_sample(cfg, hubo.load_coefficients(cfg.coefficients)[0])
        elif stage == "select":
            cmd_select(cfg, *_select_inputs(cfg))
        elif stage == "compare":
            splits = _load_splits(cfg)
            cmd_compare(cfg, splits, [_read_selection(p, splits.ds) for p in cfg.selections])
        else:
            cmd_run(cfg)
    except HubofsError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
