import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_instance, term_dict, write_demo_csv
from hubofs import baselines, dcqo, mi, samplers
from hubofs.cli import main
from hubofs.dataset import (
    MAX_BINS,
    Dataset,
    discretize,
    load_csv,
    standardize,
    stratified_split,
)
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

# What compare wrote for the table of test_compare_holds_no_copy_of_the_train_columns
# while it still copied the train columns into C order itself.
COMPARE_STDOUT = """\
compare: narrow                   n=3   acc=0.7997 f1=0.8020 auc=0.8873
compare: half                     n=10  acc=0.8611 f1=0.8625 auc=0.9447
compare: all_features             n=24  acc=0.8636 f1=0.8646 auc=0.9487
compare: select_k_best_3          n=3   acc=0.8611 f1=0.8625 auc=0.9450
compare: select_k_best_10         n=10  acc=0.8723 f1=0.8728 auc=0.9497
compare: pca_var0.95              n=3   acc=0.8648 f1=0.8663 auc=0.9470
"""
COMPARE_CSV = """\
# schema=hubofs-comparison/2
method,n,accuracy,f1,auc
narrow,3,0.799749687109,0.80198019802,0.887299498747
half,10,0.861076345432,0.862453531599,0.944705513784
all_features,24,0.863579474343,0.864596273292,0.948740601504
select_k_best_3,3,0.861076345432,0.862453531599,0.944968671679
select_k_best_10,10,0.872340425532,0.872817955112,0.949661654135
pca_var0.95,3,0.864831038798,0.866336633663,0.94701754386
"""

# Runs every sampler through `run`, then the four stages one by one, in this fresh
# process (argv: CSV, output directory); prints the exit codes and whether numpy.ma
# was imported.
STAGES_IN_A_FRESH_PROCESS = """
import contextlib, io, json, sys
from hubofs.cli import main
csv, out = sys.argv[1:]
data = ["--input", csv, "--target", "label"]
small = ["--shots", "100", "--sweeps", "5", "--steps", "3", "--preselect-k", "6"]
files = ["--coefficients", out + "/stages/coefficients.json"]
argvs = [["run", *data, *small, "--sampler", s, "--out", out + "/" + s]
         for s in ("sa", "dcqo", "random", "exhaustive")]
argvs += [
    ["build", *data, "--preselect-k", "6", "--out", out + "/stages"],
    ["sample", *files, "--shots", "100", "--sweeps", "5", "--out", out + "/stages"],
    ["select", *files, "--samples", out + "/stages/samples.csv", "--out", out + "/stages"],
    ["compare", *data, "--selection", out + "/stages/importance.csv", "--out", out + "/stages"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in argvs]
print(json.dumps([codes, "numpy.ma" in sys.modules]))
"""


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
        assert doc["schema"] == "hubofs-mi-tensors/3"
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
        binned = discretize(train, 8)
        full = compute_tensors(binned, mi.relevance(binned))
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

    def test_degenerate_normalization_is_one_warning_line(self, demo_csv, tmp_path, capsys):
        # One kept feature leaves one MI value, so the normalization is degenerate; the
        # warning is a line of the build, not a Python warning (an error under -W error).
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("build", "--input", demo_csv, "--target", "label",
                           "--preselect-k", 1, "--out", tmp_path / "k1")
        err = capsys.readouterr().err.splitlines()
        assert code == 0 and (tmp_path / "k1" / "coefficients.json").exists()
        assert err == ["warning [build]: all MI values are equal; normalized tensors are all "
                       "zero (n=1)"]

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


def test_overflowing_default_t_start_names_its_cause(demo_csv, built, tmp_path, capsys):
    # Each coefficient is finite, but 2 * n * (sum|h| + sum|J| + sum|K|), which bounds the
    # default t_start = 2 * n * max|c| and every energy, is not: build refuses the weights.
    out = tmp_path / "run"
    flags = ["--input", demo_csv, "--target", "label", "--w1", "1e308", "--w2", "1e308"]
    capsys.readouterr()
    assert run_cli("run", *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert "error [run]" in err and "weights w1, w2, w3 = 1e+308, 1e+308, 0.3" in err
    assert "sum|h| + sum|J| + sum|K|" in err and "Traceback" not in err
    assert not (out / "coefficients.json").exists()
    # A coefficient file that holds such an instance is malformed.
    doc = json.loads((built / "coefficients.json").read_text())
    doc["h"] = [1e308] * len(doc["h"])
    path = tmp_path / "overflowing.json"
    path.write_text(json.dumps(doc))
    assert run_cli("sample", "--coefficients", path, "--out", tmp_path / "s") == 3
    err = capsys.readouterr().err
    assert "error [sample]" in err and "must be finite" in err and "Traceback" not in err


EDGE_VALUES = ["0", "-1", "1e-320", "0.5", "1e306", "1e308", "nan", "inf"]
EDGE_FLAGS = ["--w1", "--w2", "--w3", "--lambda", "--tau", "--p", "--t-start", "--t-end",
              "--total-time", "--rho", "--delta"]


@pytest.fixture(scope="module")
def tiny_table(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    write_demo_csv(root / "tiny.csv", n_rows=60)
    return root


@settings(max_examples=100, deadline=None)
@given(
    sampler=st.sampled_from(["sa", "dcqo", "random", "exhaustive"]),
    values=st.dictionaries(st.sampled_from(EDGE_FLAGS), st.sampled_from(EDGE_VALUES), max_size=3),
)
@example(sampler="sa", values={"--w1": "1e308", "--w2": "1e308", "--w3": "1e308", "--t-start": "1"})
@example(sampler="dcqo", values={"--w1": "1e306", "--w2": "1e306", "--w3": "1e306"})
@example(sampler="exhaustive", values={"--w1": "1e308", "--w2": "1e308", "--w3": "1e308"})
@example(sampler="random", values={"--w1": "1e308", "--w2": "1e308", "--w3": "1e308"})
@example(sampler="dcqo", values={"--total-time": "1e308"})
def test_every_input_ends_in_a_documented_exit_code(tiny_table, sampler, values):
    # A numpy RuntimeWarning is an error under this suite's filter, so it fails the run too.
    flags = [item for flag_value in values.items() for item in flag_value]
    code = run_cli(
        "run", "--input", tiny_table / "tiny.csv", "--target", "label", "--sampler", sampler,
        "--shots", 16, "--sweeps", 10, "--steps", 3, *flags, "--out", tiny_table / "out",
    )
    assert code in (0, 2, 3, 4)


class TestSample:
    def test_sample_returns_its_file_and_prints_the_exact_minimum(
        self, tmp_path, monkeypatch, capsys
    ):
        # 1.234565 + 1.2e-13 prints as 1.23457 to 6 digits, and as 1.23456 once rounded
        # to the 12 digits the file holds: the stage returns the set its file holds and
        # reports the sampler's exact minimum.
        import hubofs.cli as cli

        exact = samplers.SampleSet(
            spins=[[1, -1]], counts=[3], energies=[1.234565 + 1.2e-13],
            sampler_name="random", seed=0,
        )
        monkeypatch.setattr(cli.samplers, "random_sample", lambda *args: exact)
        cfg = cli.RunConfig(sampler="random", out=str(tmp_path))
        saved = cli.cmd_sample(cfg, random_instance(0, 2))
        assert saved == load_samples(tmp_path / "samples.csv")
        assert saved.energies.tolist() == [1.234565]
        assert "min energy 1.23457)" in capsys.readouterr().out

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

    def test_sweeps_past_the_cap_exit_4(self, built, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("stream drawn past the sweeps cap")

        monkeypatch.setattr(samplers, "stream", refuse)
        sweeps = samplers.MAX_WORDS // 8 + 1  # the demo build has n = 8
        code = run_cli(
            "sample", "--coefficients", built / "coefficients.json",
            "--sampler", "sa", "--sweeps", sweeps, "--out", built,
        )
        assert code == 4
        err = capsys.readouterr().err
        assert f"sweeps*n must be <= {samplers.MAX_WORDS}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, cause",
        [
            (["--t-start", "1e300", "--t-end", "1e-300", "--sweeps", "3"], "underflows"),
            (["--sampler", "dcqo", "--total-time", "1e-310"], "dl/dt overflows"),
            (["--sampler", "dcqo", "--total-time", "1e308"], "pi * total_time finite"),
            # The demo build's max|E - constant| is about 5.04: dt * 5.04 overflows.
            (["--sampler", "dcqo", "--total-time", "5e307", "--steps", "1"],
             "dt * max|E - constant|"),
        ],
        ids=["sa_temperature_underflow", "dcqo_rate_overflow", "dcqo_schedule_overflow",
             "dcqo_phase_overflow"],
    )
    def test_degenerate_schedule_exit_2_without_warnings(self, built, tmp_path, capsys,
                                                          flags, cause):
        capsys.readouterr()
        # Pytest records a shown warning, so it would never reach stderr: assert on both.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("sample", "--coefficients", built / "coefficients.json", *flags,
                           "--out", tmp_path / "rejected")
        err = capsys.readouterr().err
        assert code == 2 and not caught
        assert cause in err and "Warning" not in err and "Traceback" not in err
        assert not (tmp_path / "rejected" / "samples.csv").exists()

    def test_subnormal_t_end_prints_no_warning(self, built, tmp_path, capsys):
        # -delta / T overflows at T = 1e-310 once |delta| > 0.018.
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("sample", "--coefficients", built / "coefficients.json",
                           "--t-end", "1e-310", "--sweeps", 2, "--shots", 100,
                           "--out", tmp_path / "cold")
        err = capsys.readouterr().err
        assert code == 0 and (tmp_path / "cold" / "samples.csv").exists()
        assert not caught and "Warning" not in err and "Traceback" not in err

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

    @pytest.mark.parametrize("stage", ["build", "sample", "select", "compare", "run"])
    def test_unwritable_output_found_before_any_work(
        self, sampled, demo_csv, tmp_path, capsys, monkeypatch, stage
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for module, name in ((mi, "compute_tensors"), (samplers, "simulated_annealing"),
                             (baselines, "logistic_fit")):
            monkeypatch.setattr(module, name, unreachable)
        data = ["--input", demo_csv, "--target", "label"]
        coefficients = ["--coefficients", sampled / "coefficients.json"]
        sweep = ["--delta", 0.3, "--delta", 0.5]
        args, last = {
            "build": (data, "coefficients.json"),
            "sample": (coefficients, "samples.csv"),
            "select": ([*coefficients, "--samples", sampled / "samples.csv", *sweep], "sweep.csv"),
            "compare": ([*data, "--selection", sampled / "importance.csv"], "comparison.svg"),
            "run": ([*data, *sweep], "comparison.svg"),
        }[stage]
        if stage == "compare":
            assert run_cli("select", *coefficients, "--samples", sampled / "samples.csv",
                           "--out", sampled) == 0
        # --out a file, then --out a directory with a directory at the stage's last artifact;
        # each with the stage's input files, then with every one of them missing.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = tmp_path / "out"
        (out / last).mkdir(parents=True)
        missing = [tmp_path / "absent" if isinstance(arg, Path) else arg for arg in args]
        for inputs in (args, missing):
            for target, error in (
                (blocker, f"cannot create output directory '{blocker}'"),
                (out, f"cannot write '{out / last}': it is a directory"),
            ):
                capsys.readouterr()
                assert run_cli(stage, *inputs, "--out", target) == 2
                err = capsys.readouterr().err
                assert f"error [{stage}]: {error}" in err
                assert "Traceback" not in err
        assert [path.name for path in out.iterdir()] == [last]

    def test_sweep_path_checked_only_for_a_sweep(self, sampled, tmp_path):
        (tmp_path / "sweep.csv").mkdir()
        inputs = ["--coefficients", sampled / "coefficients.json", "--samples",
                  sampled / "samples.csv", "--out", tmp_path]
        assert run_cli("select", *inputs, "--delta", 0.3) == 0
        assert run_cli("select", *inputs, "--delta", 0.3, "--delta", 0.5) == 2

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

    def test_compare_holds_no_copy_of_the_train_columns(self, tmp_path, capsys):
        # The widest fit, on all d features, holds its design and its Newton-scaled
        # design, n_train x (d + 1) floats each. PCA keeps 3 components and the selections
        # are narrow, so no other fit comes near. The slack covers the fit's n_train-long
        # vectors (probabilities and their temporaries, 8 at most), Python objects and
        # ufunc buffers, made small here; a third n_train x d array, such as a copy of
        # the train columns (24 such vectors), exceeds it.
        import tracemalloc

        import hubofs.cli as cli

        rng = np.random.default_rng(3)
        n, d = 4000, 24
        latent = rng.normal(size=(n, 3)) @ rng.normal(size=(3, d))
        features = latent + 0.2 * rng.normal(size=(n, d))
        target = (features[:, 0] - features[:, 1] + rng.normal(size=n) > 0).astype(np.int64)
        ds = standardize(Dataset(features, target, tuple(f"f{i}" for i in range(d))))
        train, test = stratified_split(ds, 0.2)
        splits = cli._Splits(ds, train, test, 8)
        cfg = cli.RunConfig(out=str(tmp_path))
        selections = [("narrow", [0, 3, 7]), ("half", list(range(2, 12)))]
        bufsize = np.setbufsize(64)
        try:
            cli.cmd_compare(cfg, splits, selections)  # the relevance is cached here
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                cli.cmd_compare(cfg, splits, selections)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            np.setbufsize(bufsize)
        vector = 8 * train.n_samples
        assert peak - start <= 2 * (d + 1) * vector + 8 * vector + (32 << 10)
        assert capsys.readouterr().out == 2 * COMPARE_STDOUT
        assert (tmp_path / "comparison.csv").read_text() == COMPARE_CSV

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
    def test_no_stage_imports_numpy_ma(self, demo_csv, tmp_path):
        # A plain np.unique asks np.ma.is_masked, and so imports numpy.ma (8-14 ms).
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", STAGES_IN_A_FRESH_PROCESS, str(demo_csv), str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0] * 8, False]

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
        # One all-feature relevance serves preselection, the 4 kept features' tensors
        # and the matched k-best baseline.
        assert len(binned) == 1
        assert scored == [8]
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

    @pytest.mark.parametrize(
        "sampler",
        [
            ("sa", "--sweeps", 5),
            ("dcqo", "--steps", 4),
            ("random",),
            ("exhaustive", "--preselect-k", 6),
        ],
    )
    def test_run_hands_select_the_samples_as_saved(self, demo_csv, tmp_path, monkeypatch, sampler):
        import hubofs.cli as cli

        handed = []
        select = cli.cmd_select
        monkeypatch.setattr(cli, "cmd_select", lambda *a: handed.append(a[3]) or select(*a))
        data = ("--input", demo_csv, "--target", "label", "--shots", 200)
        assert run_cli("run", *data, "--sampler", *sampler, "--out", tmp_path) == 0
        assert handed == [load_samples(tmp_path / "samples.csv")]

    def test_run_ranks_near_ties_as_select_reads_them(self, tmp_path):
        # Two states whose energies differ in the 13th digit tie in samples.csv, where
        # the lexicographically smaller one ranks first: run hands select the set that
        # save_samples returns, as the file holds it, so it keeps the same shot as select.
        import hubofs.cli as cli

        coeffs, names = random_instance(0, 3), ["a", "b", "c"]
        exact = samplers.SampleSet(
            spins=[[1, -1, 1], [-1, 1, -1]], counts=[1, 1], energies=[1.0, 1.0 + 3e-13],
            sampler_name="sa", seed=1,
        )
        inputs = {
            "run": samplers.save_samples(tmp_path / "samples.csv", exact),
            "select": load_samples(tmp_path / "samples.csv"),
            "exact": exact,
        }
        for label, sample_set in inputs.items():
            cfg = cli.RunConfig(rho=0.5, out=str(tmp_path / label))
            cli.cmd_select(cfg, coeffs, names, sample_set)
        written = {label: (tmp_path / label / "importance.csv").read_bytes() for label in inputs}
        assert written["run"] == written["select"] != written["exact"]

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
        # run reads back none of its artifacts.
        assert calls == {
            "load_csv": 1, "load_coefficients": 0, "read_importance_csv": 0, "load_samples": 0
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
