import csv
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import term_dict
from hubofs import baselines, dcqo, mi, samplers
from hubofs.cli import main
from hubofs.dataset import MAX_BINS, discretize, load_csv, standardize, stratified_split
from hubofs.hubo import (
    DEFAULT_PENALTY,
    DEFAULT_WEIGHTS,
    apply_penalty,
    build_coefficients,
    load_coefficients,
    normalize_global,
    preselect_top_k,
)
from hubofs.mi import MiTensors, compute_tensors
from hubofs.postselect import read_importance_csv
from hubofs.samplers import load_samples


def run_cli(*args):
    return main([str(a) for a in args])


class TestBuild:
    def test_artifacts_written(self, demo_csv, tmp_path):
        out = tmp_path / "out"
        assert run_cli("build", "--input", demo_csv, "--target", "label", "--out", out) == 0
        coeffs, extras = load_coefficients(out / "coefficients.json")
        assert coeffs.n == 8  # 6 numeric + 2 one-hot color levels
        assert coeffs.penalty_applied
        assert extras["feature_names"][0] == "strong_a"
        doc = json.loads((out / "mi_tensors.json").read_text())
        assert doc["schema"] == "hubofs-mi-tensors/2"
        assert len(doc["relevance"]) == coeffs.n
        assert "input_sha256" in doc["provenance"]

    def test_preselection_applies(self, demo_csv, tmp_path):
        out = tmp_path / "out"
        assert (
            run_cli(
                "build", "--input", demo_csv, "--target", "label",
                "--preselect-k", 4, "--out", out,
            )
            == 0
        )
        coeffs, extras = load_coefficients(out / "coefficients.json")
        assert coeffs.n == 4
        assert len(extras["source_indices"]) == 4
        assert len(coeffs.k_terms) == 4  # C(4,3)

    def test_preselected_build_matches_full_table_route(self, demo_csv, tmp_path):
        out = tmp_path / "out"
        assert (
            run_cli(
                "build", "--input", demo_csv, "--target", "label",
                "--preselect-k", 4, "--out", out,
            )
            == 0
        )
        coeffs, extras = load_coefficients(out / "coefficients.json")
        # Reference route: tensors of all 8 features, restricted to the kept
        # ones and reindexed to source_indices.
        train, _ = stratified_split(standardize(load_csv(demo_csv, "label")), 0.2)
        full = compute_tensors(discretize(train, 8))
        idx = extras["source_indices"]
        assert idx == preselect_top_k(full.relevance, 4)
        pos = {orig: new for new, orig in enumerate(idx)}
        kept = MiTensors.from_terms(
            relevance=full.relevance[idx],
            redundancy={
                (pos[i], pos[j]): v
                for (i, j), v in term_dict(full.pairs, full.redundancy).items()
                if i in pos and j in pos
            },
            triadic={
                (pos[i], pos[j], pos[k]): v
                for (i, j, k), v in term_dict(full.triples, full.triadic).items()
                if i in pos and j in pos and k in pos
            },
        )
        norm = normalize_global(kept)
        ref = build_coefficients(norm, *DEFAULT_WEIGHTS)
        ref = apply_penalty(ref, norm.relevance, *DEFAULT_PENALTY)
        assert np.array_equal(coeffs.h, ref.h)
        assert coeffs.j_terms == ref.j_terms
        assert coeffs.k_terms == ref.k_terms

    def test_mixed_column_is_named_in_one_note(self, tmp_path, capsys):
        rows = ["a,b,c,label"]
        for r in range(40):
            b = {5: "nan", 9: "?"}.get(r, str(r % 7))
            rows.append(f"{r * 0.5},{b},{'xy'[r % 3 % 2]},{r % 2}")
        path = tmp_path / "mixed.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run_cli("build", "--input", path, "--target", "label", "--out", tmp_path) == 0
        notes = [line for line in capsys.readouterr().err.splitlines() if "one-hot" in line]
        assert notes == [
            "note [build]: column 'b' holds numbers and 'nan', which is not a finite number; "
            "it became 9 one-hot indicators"
        ]

    def test_rerun_byte_identical(self, demo_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("build", "--input", demo_csv, "--target", "label", "--out", out) == 0
        assert (out_a / "coefficients.json").read_bytes() == (out_b / "coefficients.json").read_bytes()
        assert (out_a / "mi_tensors.json").read_bytes() == (out_b / "mi_tensors.json").read_bytes()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert run_cli("build", "--input", tmp_path / "nope.csv", "--target", "y") == 3
        assert "error [build]" in capsys.readouterr().err

    def test_bad_weight_exit_code(self, demo_csv, tmp_path):
        assert (
            run_cli(
                "build", "--input", demo_csv, "--target", "label",
                "--w1", -1.0, "--out", tmp_path,
            )
            == 2
        )


@pytest.fixture
def built(demo_csv, tmp_path):
    out = tmp_path / "stage"
    assert run_cli("build", "--input", demo_csv, "--target", "label", "--out", out) == 0
    return out


@pytest.mark.parametrize(
    "stage,flags",
    [
        ("build", ["--w1", "nan"]),
        ("build", ["--p", "nan"]),
        ("build", ["--lambda", "inf"]),
        ("sample", ["--t-end", "nan"]),
        ("sample", ["--t-start", "inf"]),
        ("sample", ["--sampler", "dcqo", "--total-time", "nan"]),
    ],
)
def test_non_finite_parameter_exit_code(stage, flags, built, demo_csv, tmp_path, capsys):
    if stage == "build":
        args = ["build", "--input", demo_csv, "--target", "label"]
    else:
        args = ["sample", "--coefficients", built / "coefficients.json", "--shots", 8]
    capsys.readouterr()
    assert run_cli(*args, *flags, "--out", tmp_path / "rejected") == 2
    assert f"error [{stage}]" in capsys.readouterr().err


def test_overflowing_default_t_start_names_its_cause(demo_csv, tmp_path, capsys):
    # The weights and coefficients are finite; the default t_start, 2 * n * max|c|, is not.
    out = tmp_path / "run"
    flags = ["--input", demo_csv, "--target", "label", "--w1", "1e308", "--w2", "1e308"]
    capsys.readouterr()
    assert run_cli("run", *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert "error [run]" in err and "--t-start" in err and "--w1" in err
    assert "max|coefficient|" in err and "Traceback" not in err
    sample = ["sample", "--coefficients", out / "coefficients.json", "--out", tmp_path / "s"]
    assert run_cli(*sample) == 2
    assert "--t-start" in capsys.readouterr().err


class TestSample:
    def test_sa_writes_samples(self, built):
        assert (
            run_cli(
                "sample", "--coefficients", built / "coefficients.json",
                "--sampler", "sa", "--shots", 300, "--sweeps", 80, "--seed", 3, "--out", built,
            )
            == 0
        )
        samples = load_samples(built / "samples.csv")
        assert samples.total_shots == 300
        assert samples.sampler_name == "sa"

    def test_exhaustive_clamps_keep(self, built, capsys):
        assert (
            run_cli(
                "sample", "--coefficients", built / "coefficients.json",
                "--sampler", "exhaustive", "--shots", 100000, "--out", built,
            )
            == 0
        )
        assert load_samples(built / "samples.csv").total_shots == 256
        assert "clamped" in capsys.readouterr().err

    def test_dcqo_runs_small(self, built):
        assert (
            run_cli(
                "sample", "--coefficients", built / "coefficients.json",
                "--sampler", "dcqo", "--shots", 64, "--steps", 10,
                "--total-time", 4.0, "--seed", 1, "--out", built,
            )
            == 0
        )
        samples = load_samples(built / "samples.csv")
        assert samples.sampler_name == "dcqo"
        assert samples.metadata["mode"] == "full"

    def test_dcqo_cd_only_mode(self, built):
        assert (
            run_cli(
                "sample", "--coefficients", built / "coefficients.json",
                "--sampler", "dcqo", "--shots", 32, "--steps", 8,
                "--total-time", 4.0, "--mode", "cd_only", "--out", built,
            )
            == 0
        )
        samples = load_samples(built / "samples.csv")
        assert samples.metadata["mode"] == "cd_only"
        assert samples.metadata["gates_3q_diag"] == "0"

    def test_dcqo_steps_past_the_cap_exit_4(self, built, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("schedule built past the cap")

        monkeypatch.setattr(dcqo, "schedule_lambda", refuse)
        code = run_cli(
            "sample", "--coefficients", built / "coefficients.json",
            "--sampler", "dcqo", "--steps", dcqo.MAX_STEPS + 1, "--out", built,
        )
        assert code == 4
        assert f"steps <= {dcqo.MAX_STEPS}" in capsys.readouterr().err

    @pytest.mark.parametrize("sampler", ["sa", "random", "dcqo"])
    def test_shots_past_the_cap_exit_4(self, built, capsys, monkeypatch, sampler):
        def refuse(*args):
            raise AssertionError("stream drawn past the shots cap")

        monkeypatch.setattr(samplers, "stream", refuse)
        monkeypatch.setattr(dcqo, "stream", refuse)
        code = run_cli(
            "sample", "--coefficients", built / "coefficients.json",
            "--sampler", sampler, "--shots", 10**12, "--out", built,
        )
        assert code == 4
        assert f"<= {samplers.MAX_WORDS} stream words" in capsys.readouterr().err

    @pytest.mark.parametrize("sampler", ["sa", "random", "dcqo", "exhaustive"])
    def test_zero_spins_exit_3(self, built, tmp_path, capsys, sampler):
        doc = json.loads((built / "coefficients.json").read_text())
        doc.update(n=0, h=[], J=[], K=[])
        path = tmp_path / "n0.json"
        path.write_text(json.dumps(doc))
        code = run_cli(
            "sample", "--coefficients", path, "--sampler", sampler,
            "--shots", 10, "--out", tmp_path,
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "need n >= 1 spins" in err and "Traceback" not in err
        assert not (tmp_path / "samples.csv").exists()

    def test_non_integer_index_exit_3(self, built, tmp_path, capsys):
        doc = json.loads((built / "coefficients.json").read_text())
        doc["J"][0][1] = 1.5
        path = tmp_path / "float_index.json"
        path.write_text(json.dumps(doc))
        code = run_cli("sample", "--coefficients", path, "--shots", 10, "--out", tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "malformed coefficient file" in err and "Traceback" not in err
        assert not (tmp_path / "samples.csv").exists()

    def test_exhaustive_refused_for_large_n(self, tmp_path, capsys):
        from hubofs.hubo import HuboCoefficients, save_coefficients

        c32 = HuboCoefficients.from_terms(n=32, h=np.ones(32), j_terms={}, k_terms={})
        path = tmp_path / "c32.json"
        save_coefficients(path, c32)
        code = run_cli(
            "sample", "--coefficients", path, "--sampler", "exhaustive",
            "--shots", 4, "--out", tmp_path,
        )
        assert code == 4
        assert "error [sample]" in capsys.readouterr().err
        code = run_cli(
            "sample", "--coefficients", path, "--sampler", "dcqo",
            "--shots", 4, "--out", tmp_path,
        )
        assert code == 4


class TestSelectAndCompare:
    @pytest.fixture
    def sampled(self, built):
        assert (
            run_cli(
                "sample", "--coefficients", built / "coefficients.json",
                "--sampler", "sa", "--shots", 400, "--sweeps", 100, "--seed", 2, "--out", built,
            )
            == 0
        )
        return built

    def test_select_single_delta(self, sampled):
        assert (
            run_cli(
                "select", "--coefficients", sampled / "coefficients.json",
                "--samples", sampled / "samples.csv",
                "--rho", 0.25, "--delta", 0.5, "--out", sampled,
            )
            == 0
        )
        rows, meta = read_importance_csv(sampled / "importance.csv")
        assert meta["rho"] == "0.25"
        assert all(0.0 <= r["importance"] <= 1.0 for r in rows)
        assert any(r["selected"] for r in rows)

    def test_select_sweep_row_count(self, sampled):
        deltas = [round(0.30 + 0.025 * i, 3) for i in range(17)]
        args = [
            "select", "--coefficients", sampled / "coefficients.json",
            "--samples", sampled / "samples.csv", "--rho", 0.5, "--out", sampled,
        ]
        for d in deltas:
            args += ["--delta", d]
        assert run_cli(*args) == 0
        lines = (sampled / "sweep.csv").read_text().splitlines()
        assert lines[1] == "delta,n_selected,selected_features"
        assert len(lines) == 2 + 17
        sizes = [int(line.split(",")[1]) for line in lines[2:]]
        assert sizes == sorted(sizes, reverse=True)

    def test_select_writes_rho_at_12_significant_digits(self, sampled):
        assert (
            run_cli(
                "select", "--coefficients", sampled / "coefficients.json",
                "--samples", sampled / "samples.csv",
                "--rho", "0.123456789012345", "--out", sampled,
            )
            == 0
        )
        lines = (sampled / "importance.csv").read_text().splitlines()
        assert lines[1:4] == ["# rho=0.123456789012", "# retained=49", "# delta=0.5"]

    @pytest.mark.parametrize(
        "case",
        [
            "build_out_is_a_file",
            "sample_out_under_a_file",
            "samples_csv_is_a_directory",
            "comparison_svg_is_a_directory",
        ],
    )
    def test_unwritable_output_exit_2(self, sampled, demo_csv, tmp_path, capsys, case):
        blocker = tmp_path / "blocker"
        sample = ["--coefficients", sampled / "coefficients.json", "--shots", 8]
        if case == "build_out_is_a_file":
            blocker.write_text("")
            stage, args = "build", ["--input", demo_csv, "--target", "label", "--out", blocker]
        elif case == "sample_out_under_a_file":
            blocker.write_text("")
            stage, args = "sample", [*sample, "--out", blocker / "sub"]
        elif case == "samples_csv_is_a_directory":
            (blocker / "samples.csv").mkdir(parents=True)
            stage, args = "sample", [*sample, "--out", blocker]
        else:
            select = ["--coefficients", sampled / "coefficients.json"]
            assert run_cli("select", *select, "--samples", sampled / "samples.csv",
                           "--out", sampled) == 0
            (blocker / "comparison.svg").mkdir(parents=True)
            stage, args = "compare", [
                "--input", demo_csv, "--target", "label",
                "--selection", sampled / "importance.csv", "--out", blocker,
            ]
        capsys.readouterr()
        assert run_cli(stage, *args) == 2
        err = capsys.readouterr().err
        assert f"error [{stage}]: cannot " in err
        assert str(blocker) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["build", "sample", "compare", "run"])
    def test_unwritable_output_found_before_any_work(
        self, sampled, demo_csv, tmp_path, capsys, monkeypatch, stage
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for module, name in ((mi, "compute_tensors"), (samplers, "simulated_annealing"),
                             (baselines, "logistic_fit")):
            monkeypatch.setattr(module, name, unreachable)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        data = ["--input", demo_csv, "--target", "label"]
        args = {
            "build": data,
            "sample": ["--coefficients", sampled / "coefficients.json"],
            "compare": [*data, "--selection", sampled / "importance.csv"],
            "run": data,
        }[stage]
        if stage == "compare":
            assert run_cli("select", "--coefficients", sampled / "coefficients.json",
                           "--samples", sampled / "samples.csv", "--out", sampled) == 0
        capsys.readouterr()
        assert run_cli(stage, *args, "--out", blocker) == 2
        err = capsys.readouterr().err
        assert f"error [{stage}]: cannot create output directory '{blocker}'" in err
        assert "Traceback" not in err

    def test_select_rho_one_delta_zero_selects_all(self, sampled):
        assert (
            run_cli(
                "select", "--coefficients", sampled / "coefficients.json",
                "--samples", sampled / "samples.csv",
                "--rho", 1.0, "--delta", 0.0, "--out", sampled,
            )
            == 0
        )
        rows, _ = read_importance_csv(sampled / "importance.csv")
        assert all(r["selected"] for r in rows)

    def select_stderr(self, built, capsys, sampler, shots, delta, rho=0.25):
        assert (
            run_cli(
                "sample", "--coefficients", built / "coefficients.json",
                "--sampler", sampler, "--shots", shots, "--seed", 1, "--out", built,
            )
            == 0
        )
        capsys.readouterr()
        assert (
            run_cli(
                "select", "--coefficients", built / "coefficients.json",
                "--samples", built / "samples.csv",
                "--rho", rho, "--delta", delta, "--out", built,
            )
            == 0
        )
        return capsys.readouterr().err

    def test_select_warns_on_single_retained_state(self, built, capsys):
        err = self.select_stderr(built, capsys, "exhaustive", 1, 0.5)
        assert "warning [select]: " in err
        assert "single state" in err
        assert "1 distinct configurations in 1 shots" in err
        assert "--sweeps 5 --t-end 16" in err

    def test_select_warns_on_empty_selection(self, built, capsys):
        err = self.select_stderr(built, capsys, "random", 200, 1.0, rho=1.0)
        distinct = len(load_samples(built / "samples.csv").entries)
        assert "warning [select]: the selection at delta=1 is empty;" in err
        assert "single state" not in err
        assert f"{distinct} distinct configurations in 200 shots" in err

    def test_select_spread_selection_does_not_warn(self, built, capsys):
        err = self.select_stderr(built, capsys, "random", 200, 0.0, rho=1.0)
        assert "warning" not in err

    def test_mismatched_files_rejected(self, sampled, tmp_path, demo_csv):
        other = tmp_path / "other"
        assert (
            run_cli(
                "build", "--input", demo_csv, "--target", "label",
                "--preselect-k", 4, "--out", other,
            )
            == 0
        )
        code = run_cli(
            "select", "--coefficients", other / "coefficients.json",
            "--samples", sampled / "samples.csv", "--out", tmp_path,
        )
        assert code == 3

    def test_samples_of_another_instance_rejected(self, sampled, tmp_path, demo_csv, capsys):
        other = tmp_path / "other"
        assert (
            run_cli(
                "build", "--input", demo_csv, "--target", "label", "--w1", 2.0, "--out", other,
            )
            == 0
        )
        assert load_coefficients(other / "coefficients.json")[0].n == 8
        capsys.readouterr()
        code = run_cli(
            "select", "--coefficients", other / "coefficients.json",
            "--samples", sampled / "samples.csv", "--out", tmp_path,
        )
        assert code == 3
        rows = len(load_samples(sampled / "samples.csv").counts)
        assert f"of {rows} sample energies" in capsys.readouterr().err
        assert not (tmp_path / "importance.csv").exists()

    def test_short_feature_names_exit_3(self, sampled, tmp_path, capsys):
        doc = json.loads((sampled / "coefficients.json").read_text())
        doc["feature_names"].pop()
        path = tmp_path / "short_names.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli(
            "select", "--coefficients", path, "--samples", sampled / "samples.csv",
            "--out", tmp_path,
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "feature_names must be a list of 8 strings" in err and "Traceback" not in err
        assert not (tmp_path / "importance.csv").exists()

    def test_compare_rows(self, sampled, demo_csv):
        assert (
            run_cli(
                "select", "--coefficients", sampled / "coefficients.json",
                "--samples", sampled / "samples.csv",
                "--rho", 0.25, "--delta", 0.5, "--out", sampled,
            )
            == 0
        )
        assert (
            run_cli(
                "compare", "--input", demo_csv, "--target", "label",
                "--selection", sampled / "importance.csv", "--out", sampled,
            )
            == 0
        )
        lines = (sampled / "comparison.csv").read_text().splitlines()
        assert lines[1] == "method,n,accuracy,f1,auc"
        methods = [line.split(",")[0] for line in lines[2:]]
        assert methods[0] == "importance"
        assert "all_features" in methods
        assert any(m.startswith("select_k_best_") for m in methods)
        assert any(m.startswith("pca_var") for m in methods)
        assert len(methods) == 4
        svg = (sampled / "comparison.svg").read_text()
        assert svg.startswith("<svg") and "ROC-AUC" in svg

    def test_compare_hands_the_fits_c_ordered_rows(self, sampled, demo_csv, monkeypatch):
        # The fits' bits depend on the layout; a bare column slice is Fortran-ordered.
        from hubofs import baselines

        layouts = []
        fit, evaluate = baselines.logistic_fit, baselines.evaluate

        def fit_c(X, y):
            layouts.append(X.flags.c_contiguous)
            return fit(X, y)

        def evaluate_c(model, X, y, name):
            layouts.append(X.flags.c_contiguous)
            return evaluate(model, X, y, name)

        monkeypatch.setattr(baselines, "logistic_fit", fit_c)
        monkeypatch.setattr(baselines, "evaluate", evaluate_c)
        assert (
            run_cli(
                "select", "--coefficients", sampled / "coefficients.json",
                "--samples", sampled / "samples.csv", "--out", sampled,
            )
            == 0
        )
        assert (
            run_cli(
                "compare", "--input", demo_csv, "--target", "label",
                "--selection", sampled / "importance.csv", "--out", sampled,
            )
            == 0
        )
        assert layouts == [True] * 8  # selection, all features, k-best, PCA: fit and evaluate

    def test_compare_svg_escapes_selection_name(self, sampled, demo_csv):
        run_cli(
            "select", "--coefficients", sampled / "coefficients.json",
            "--samples", sampled / "samples.csv",
            "--rho", 0.25, "--delta", 0.5, "--out", sampled,
        )
        odd = sampled / "a&<b>.csv"
        odd.write_bytes((sampled / "importance.csv").read_bytes())
        assert (
            run_cli(
                "compare", "--input", demo_csv, "--target", "label",
                "--selection", odd, "--out", sampled,
            )
            == 0
        )
        svg = (sampled / "comparison.svg").read_text()
        assert "a&amp;&lt;b&gt;" in svg
        texts = ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
        labels = [t.text for t in texts]
        assert "a&<b>" in labels

    def test_compare_duplicate_selection_identical_rows(self, sampled, demo_csv):
        run_cli(
            "select", "--coefficients", sampled / "coefficients.json",
            "--samples", sampled / "samples.csv",
            "--rho", 0.25, "--delta", 0.5, "--out", sampled,
        )
        assert (
            run_cli(
                "compare", "--input", demo_csv, "--target", "label",
                "--selection", sampled / "importance.csv",
                "--selection", sampled / "importance.csv",
                "--out", sampled,
            )
            == 0
        )
        lines = (sampled / "comparison.csv").read_text().splitlines()[2:]
        assert len(lines) == 6  # two selections, all, two matched k-best, pca
        assert lines[0].split(",")[1:] == lines[1].split(",")[1:]


class TestRun:
    def test_pipeline_with_comma_in_category_value(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "commas.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('x,city,label\n')
            for i in range(120):
                y = i % 2
                x = y + rng.normal(0, 0.5)
                city = '"Berlin, DE"' if rng.random() < 0.5 else "Paris"
                fh.write(f"{x:.5f},{city},{'pos' if y else 'neg'}\n")
        out = tmp_path / "out"
        assert (
            run_cli(
                "run", "--input", path, "--target", "label",
                "--sampler", "exhaustive", "--shots", 8,
                "--rho", 1.0, "--delta", 0.0, "--out", out,
            )
            == 0
        )
        rows, _ = read_importance_csv(out / "importance.csv")
        assert {r["feature_name"] for r in rows} == {"x", "city=Berlin, DE", "city=Paris"}
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) >= 5

    def test_line_separators_in_category_values_read_back(self, tmp_path):
        # U+2028, U+0085 and \x1c break lines for str.splitlines() but not for CSV.
        rng = np.random.default_rng(1)
        path = tmp_path / "separators.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("x,tag,label\n")
            for i in range(120):
                y = i % 2
                tag = rng.choice(["a\u2028b", "c\x85d", "e\x1cf"])
                fh.write(f"{y + rng.normal(0, 0.5):.5f},{tag},{'pos' if y else 'neg'}\n")
        data = ("--input", path, "--target", "label")
        out = tmp_path / "out"
        assert (
            run_cli(
                "run", *data, "--sampler", "exhaustive", "--shots", 8,
                "--rho", 1.0, "--delta", 0.0, "--out", out,
            )
            == 0
        )
        rows, _ = read_importance_csv(out / "importance.csv")
        names = ["x", "tag=a\u2028b", "tag=c\x85d", "tag=e\x1cf"]
        assert [r["feature_name"] for r in rows] == names
        again = tmp_path / "again"
        assert run_cli("compare", *data, "--selection", out / "importance.csv", "--out", again) == 0
        assert (again / "comparison.csv").read_bytes() == (out / "comparison.csv").read_bytes()

    @staticmethod
    def write_tag_table(path, x_name, tags):
        rng = np.random.default_rng(2)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            # QUOTE_ALL: with a "\n" terminator the writer would leave "\r" unquoted.
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow([x_name, "tag", "label"])
            for i in range(120):
                y = i % 2
                writer.writerow([f"{y + rng.normal(0, 0.5):.5f}", rng.choice(tags), y])

    def test_newlines_in_feature_names_read_back(self, tmp_path):
        path = tmp_path / "newlines.csv"
        self.write_tag_table(path, "x\ny", ["a\nb", "c\n\nd", "e\n# f=g"])
        data = ("--input", path, "--target", "label")
        out = tmp_path / "out"
        args = ("--sampler", "exhaustive", "--shots", 8, "--rho", 1.0, "--delta", 0.0)
        assert run_cli("run", *data, *args, "--out", out) == 0
        rows, _ = read_importance_csv(out / "importance.csv")
        names = ["x\ny", "tag=a\nb", "tag=c\n\nd", "tag=e\n# f=g"]
        assert [r["feature_name"] for r in rows] == names
        again = tmp_path / "again"
        assert run_cli("compare", *data, "--selection", out / "importance.csv", "--out", again) == 0
        assert (again / "comparison.csv").read_bytes() == (out / "comparison.csv").read_bytes()

    @pytest.mark.parametrize(
        "x_name, tag", [("x", "a\rb"), ("x", "a\r\nb"), ("x\ry", "a")], ids=["cr", "crlf", "header"]
    )
    def test_carriage_returns_in_feature_names_exit_3(self, tmp_path, capsys, x_name, tag):
        path = tmp_path / "returns.csv"
        self.write_tag_table(path, x_name, [tag, "e"])
        out = tmp_path / "out"
        assert run_cli("run", "--input", path, "--target", "label", "--out", out) == 3
        assert "carriage return" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_full_pipeline_deterministic(self, demo_csv, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert (
                run_cli(
                    "run", "--input", demo_csv, "--target", "label",
                    "--sampler", "sa", "--shots", 300, "--sweeps", 60,
                    "--seed", 9, "--rho", 0.25, "--delta", 0.5, "--out", out,
                )
                == 0
            )
        names = [
            "mi_tensors.json",
            "coefficients.json",
            "samples.csv",
            "importance.csv",
            "comparison.csv",
            "comparison.svg",
        ]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_run_bins_and_scores_relevance_once(self, demo_csv, tmp_path, monkeypatch):
        import hubofs.cli as cli
        import hubofs.mi as mi

        binned, scored = [], []
        monkeypatch.setattr(cli, "discretize", lambda *a: binned.append(a) or discretize(*a))
        relevance = mi.relevance
        monkeypatch.setattr(
            mi, "relevance", lambda dd: scored.append(dd.n_features) or relevance(dd)
        )
        args = ("--input", demo_csv, "--target", "label", "--preselect-k", 4)
        sampler = ("--sampler", "random", "--shots", 200, "--delta", 0.3)
        assert run_cli("run", *args, *sampler, "--out", tmp_path) == 0
        # One all-feature relevance serves preselection and the matched k-best baseline;
        # compute_tensors scores the 4 kept features itself.
        assert len(binned) == 1
        assert scored == [8, 4]
        assert "select_k_best_" in (tmp_path / "comparison.csv").read_text()

    def test_only_standalone_select_rechecks_energies(self, demo_csv, tmp_path, monkeypatch):
        import hubofs.cli as cli

        checked = []
        energy_many = cli.hubo.energy_many
        monkeypatch.setattr(
            cli.hubo, "energy_many", lambda c, s: checked.append(len(s)) or energy_many(c, s)
        )
        data = ("--input", demo_csv, "--target", "label")
        assert run_cli("run", *data, "--shots", 100, "--sweeps", 5, "--out", tmp_path) == 0
        assert checked == []
        samples = tmp_path / "samples.csv"
        files = ("--coefficients", tmp_path / "coefficients.json", "--samples", samples)
        assert run_cli("select", *files, "--out", tmp_path / "again") == 0
        assert checked == [len(load_samples(samples).counts)]
        assert (tmp_path / "again" / "importance.csv").read_bytes() == (
            tmp_path / "importance.csv"
        ).read_bytes()

    def test_bins_past_the_cap_exit_4_before_binning(
        self, demo_csv, tmp_path, monkeypatch, capsys
    ):
        import hubofs.dataset as dataset

        def fail(*args):
            raise AssertionError("a column was binned")

        monkeypatch.setattr(dataset, "_bin_column", fail)
        data = ("--input", demo_csv, "--target", "label", "--bins", MAX_BINS + 1)
        assert run_cli("build", *data, "--out", tmp_path) == 4
        assert run_cli("run", *data, "--out", tmp_path) == 4
        assert f"<= {MAX_BINS}" in capsys.readouterr().err
        assert not (tmp_path / "mi_tensors.json").exists()

    def test_bins_at_the_cap_run(self, demo_csv, tmp_path):
        data = ("--input", demo_csv, "--target", "label", "--bins", MAX_BINS)
        assert run_cli("build", *data, "--out", tmp_path) == 0

    def test_run_loads_csv_once_and_matches_the_four_stages(self, demo_csv, tmp_path, monkeypatch):
        import hubofs.cli as cli
        from hubofs import hubo, postselect

        calls = {}

        def count(owner, name):
            inner = getattr(owner, name)
            calls[name] = 0

            def counted(*args):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(owner, name, counted)

        count(cli, "load_csv")
        count(hubo, "load_coefficients")
        count(postselect, "read_importance_csv")
        count(samplers, "load_samples")
        data = ("--input", demo_csv, "--target", "label")
        sampler = ("--sampler", "dcqo", "--shots", 200, "--steps", 8, "--seed", 4)
        deltas = ("--delta", 0.3, "--delta", 0.1)
        chained, staged = tmp_path / "run", tmp_path / "stages"
        assert run_cli("run", *data, *sampler, *deltas, "--out", chained) == 0
        # run reads back only samples.csv, on purpose (see cmd_run).
        assert calls == {
            "load_csv": 1, "load_coefficients": 0, "read_importance_csv": 0, "load_samples": 1
        }
        coefficients = staged / "coefficients.json"
        assert run_cli("build", *data, "--out", staged) == 0
        assert run_cli("sample", "--coefficients", coefficients, *sampler, "--out", staged) == 0
        assert (
            run_cli(
                "select", "--coefficients", coefficients, "--samples", staged / "samples.csv",
                *deltas, "--out", staged,
            )
            == 0
        )
        selection = staged / "importance.csv"
        assert run_cli("compare", *data, "--selection", selection, "--out", staged) == 0
        assert calls["load_csv"] == 3
        for name in ("mi_tensors.json", "coefficients.json", "samples.csv", "importance.csv",
                     "sweep.csv", "comparison.csv", "comparison.svg"):
            assert (chained / name).read_bytes() == (staged / name).read_bytes(), name
        assert "importance," in (chained / "comparison.csv").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--input", "t.csv", "--target", "y"],
        ["sample", "--coefficients", "c.json"],
        ["select", "--coefficients", "c.json", "--samples", "s.csv"],
        ["compare", "--input", "t.csv", "--target", "y", "--selection", "i.csv"],
        ["run", "--input", "t.csv", "--target", "y"],
    ],
)
def test_parsed_defaults_are_the_run_config_defaults(argv):
    from dataclasses import replace

    from hubofs.cli import RunConfig, _config_from_args, build_parser

    args = build_parser().parse_args(argv)
    required = {"input": "t.csv", "target": "y", "coefficients": "c.json",
                "samples": "s.csv", "selections": ["i.csv"]}
    given = {key: value for key, value in required.items() if key in vars(args)}
    assert _config_from_args(args) == replace(RunConfig(), **given)
    # Every other flag of the subcommand takes its value from RunConfig alone.
    flags = {key: value for key, value in vars(args).items() if key not in {*given, "command"}}
    assert set(flags.values()) == {None}
