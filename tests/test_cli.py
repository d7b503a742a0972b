import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xbarlstm
from xbarlstm.data import BUNDLED_DATASET
from xbarlstm.cli import (
    EVAL_REPORT_FILE,
    LOSS_FILE,
    PLOT_LOSS_FILE,
    PLOT_PREDICTIONS_FILE,
    PREDICTIONS_FILE,
    PROGRAM_FILE,
    QUANTIZE_REPORT_FILE,
    QUANTIZED_WEIGHTS_FILE,
    WEIGHTS_FILE,
    RunConfig,
    build_parser,
    build_run_config,
    main,
    parse_config_file,
)
from xbarlstm.kernels import LstmParams, OutputLayer
from xbarlstm.weights_io import MATRIX_NAMES, read_weights, write_weights

from _oracles import gates_from_grid, grid_from_gates, window_last_prediction

TEST_DATA = Path(__file__).resolve().parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


def child_env():
    """Environment for a child process that imports the same xbarlstm as
    this one, installed or not, and fails on a numpy RuntimeWarning as
    pytest's filterwarnings = error makes this process do."""
    package_root = str(Path(xbarlstm.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
            "PYTHONWARNINGS": "error::RuntimeWarning"}


def zero_model(n_inputs=1, n_hidden=4, gates=None):
    """An all-zero model, or one whose LSTM weights are the per-gate blocks
    (W, U, b) laid out by the oracle, with a zero output layer."""
    grid = np.zeros((n_inputs + n_hidden + 1, 4 * n_hidden)) if gates is None else grid_from_gates(*gates)
    return LstmParams(grid), OutputLayer(np.zeros(n_hidden), 0.0)


def train_args(out_dir, epochs=8, seed=0, extra=()):
    return ["train", "--epochs", epochs, "--seed", seed, "--out-dir", out_dir, *extra]


class TestTrainCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*train_args(out)) == 0
        assert (out / WEIGHTS_FILE).exists()
        history = (out / LOSS_FILE).read_text().splitlines()
        assert len(history) == 8
        assert history[0].startswith("1 ")
        printed = capsys.readouterr().out
        assert "[1,16] [4,16] [1,16] [4,1] [1,1]" in printed
        assert "RMSE passengers" in printed and "RMSE normalized" in printed
        params, out_layer = read_weights(out / WEIGHTS_FILE)
        assert params.grid.shape == (1 + 4 + 1, 16)
        assert np.all(np.abs(params.grid) <= 1)

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*train_args(a, seed=3)) == 0
        assert run(*train_args(b, seed=3)) == 0
        assert (a / WEIGHTS_FILE).read_bytes() == (b / WEIGHTS_FILE).read_bytes()
        assert (a / LOSS_FILE).read_bytes() == (b / LOSS_FILE).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(*train_args(a, seed=1))
        run(*train_args(b, seed=2))
        assert (a / WEIGHTS_FILE).read_bytes() != (b / WEIGHTS_FILE).read_bytes()

    @pytest.mark.parametrize("flags, suffix", [((), ""), (("--shuffle",), "_shuffle"),
                                               (("--optimizer", "sgd"), "_sgd"), (("--look-back", "3"), "_lb3"),
                                               (("--hidden-units", "6"), "_h6")],
                             ids=["adam", "shuffle", "sgd", "lb3", "h6"])
    def test_train_reproduces_pinned_weights(self, tmp_path, flags, suffix):
        """Each of the three parameter-update branches, BPTT through more
        than one step and a model of other than four units rewrites the
        files that `train --seed 0` plus flags wrote when they were pinned."""
        out = tmp_path / "run"
        assert run("train", "--seed", 0, *flags, "--out-dir", out) == 0
        assert (out / WEIGHTS_FILE).read_bytes() == (TEST_DATA / f"weights{suffix}.txt").read_bytes()
        assert (out / LOSS_FILE).read_bytes() == (TEST_DATA / f"loss_history{suffix}.txt").read_bytes()

    def test_missing_dataset_fails(self, tmp_path, capsys):
        code = run("train", "--dataset", tmp_path / "nope.csv", "--out-dir", tmp_path / "r")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unallocatable_size_fails(self, tmp_path, capsys):
        """A grid of 284 PiB cannot be allocated: the request fails at once,
        touching no memory, and ends in one error line, not a traceback."""
        out = tmp_path / "r"
        assert run("train", "--hidden-units", 100_000_000, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_dataset_without_header_fails(self, tmp_path, capsys):
        """The bundled CSV less its header line would load as 143 points;
        its first data row is not taken for the header."""
        headless = tmp_path / "headless.csv"
        headless.write_text(BUNDLED_DATASET.read_text().split("\n", 1)[1])
        out = tmp_path / "r"
        assert run("train", "--dataset", headless, "--out-dir", out) == 1
        assert capsys.readouterr().err == (f"error: {headless}: line 1: expected a header line, "
                                           f"got a data row '1949-01,112'\n")
        assert not out.exists()


class TestQuantizeCommand:
    def test_zero_weights_zero_program(self, tmp_path, capsys):
        wfile = tmp_path / "zero.txt"
        write_weights(*zero_model(), wfile)
        out = tmp_path / "run"
        assert run("quantize", "--weights", wfile, "--out-dir", out) == 0
        report = (out / QUANTIZE_REPORT_FILE).read_text().splitlines()
        assert "max_abs_error 0" in report[3]
        body = (out / PROGRAM_FILE).read_text().splitlines()
        index_lines = [ln for ln in body if ln and ln[0].isdigit() and " " in ln and not ln.startswith(("rows", "logical"))]
        pair_lines = body[-32:]
        assert all(set(ln.split()) == {"0"} for ln in pair_lines)

    def test_error_bound_and_idempotence(self, tmp_path):
        out = tmp_path / "run"
        assert run(*train_args(out, epochs=25, seed=1)) == 0
        assert run("quantize", "--out-dir", out) == 0
        report = (out / QUANTIZE_REPORT_FILE).read_text().splitlines()
        max_err = float(report[3].split()[1])
        assert max_err <= 1 / 30 + 1e-12

        requant = tmp_path / "again"
        assert run("quantize", "--weights", out / QUANTIZED_WEIGHTS_FILE, "--out-dir", requant) == 0
        assert (requant / QUANTIZED_WEIGHTS_FILE).read_bytes() == (out / QUANTIZED_WEIGHTS_FILE).read_bytes()
        report2 = (requant / QUANTIZE_REPORT_FILE).read_text().splitlines()
        assert float(report2[3].split()[1]) == 0.0

    def test_out_of_range_warns(self, tmp_path, capsys):
        W, U, b = np.zeros((4, 1, 4)), np.zeros((4, 4, 4)), np.zeros((4, 4))
        W[0, 0, 0] = 2.5
        wfile = tmp_path / "hot.txt"
        write_weights(*zero_model(gates=(W, U, b)), wfile)
        assert run("quantize", "--weights", wfile, "--out-dir", tmp_path / "r") == 0
        assert "clamped" in capsys.readouterr().err

    def test_malformed_weight_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        assert run("quantize", "--weights", bad, "--out-dir", tmp_path / "r") == 1

    def test_report_matches_the_pinned_one(self, tmp_path):
        """Pinned weights, output layer included, at the resistance spacing
        give the pinned report byte for byte: its header, then one row per
        entry, gate by gate (W, U, b of i, f, c, o), then w_out and b_out."""
        out = tmp_path / "run"
        assert run("quantize", "--weights", TEST_DATA / WEIGHTS_FILE, "--quantize-output-layer",
                   "--spacing", "uniform_resistance", "--out-dir", out) == 0
        assert (out / QUANTIZE_REPORT_FILE).read_bytes() == (TEST_DATA / "quantize_report_resistance.txt").read_bytes()


@pytest.mark.parametrize("command", ["quantize", "evaluate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_weight_rejected(tmp_path, capsys, command, value):
    wfile = tmp_path / "weights.txt"
    write_weights(*zero_model(), wfile)
    lines = wfile.read_text().splitlines()
    k = lines.index("U_c 4 4") + 2
    lines[k] = " ".join([value] + lines[k].split()[1:])
    wfile.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r"
    assert run(command, "--weights", wfile, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'U_c' row 1" in err and "Traceback" not in err
    assert not (out / PROGRAM_FILE).exists()
    assert not (out / EVAL_REPORT_FILE).exists()


@pytest.mark.parametrize("case", [
    *[(command, flag, value) for command in ("quantize", "evaluate")
      for flag in ("--read-noise", "--level-variation") for value in ("nan", "inf")],
    ("evaluate", "program header", "nan"),
    ("evaluate", "program and --read-noise", "nan"),
    ("quantize", "--seed", "-1"),
    ("evaluate", "program header seed", "-1"),
], ids=lambda case: "-".join(case).replace(" ", "_"))
def test_non_finite_sigma_rejected(tmp_path, capsys, case):
    command, flag, value = case
    wfile = tmp_path / "weights.txt"
    write_weights(*zero_model(), wfile)
    args = [flag, value]
    if flag.startswith("program"):
        assert run("quantize", "--weights", wfile, "--out-dir", tmp_path / "q") == 0
        program = tmp_path / "q" / PROGRAM_FILE
        args = ["--program", program]
        if flag == "program header":
            program.write_text(program.read_text().replace("level_variation_sigma 0\n",
                                                           f"level_variation_sigma {value}\n"))
        elif flag == "program header seed":
            program.write_text(program.read_text().replace("seed 0\n", f"seed {value}\n"))
        else:  # the header supplies the device, but the flag is still checked
            args += ["--read-noise", value]
    capsys.readouterr()
    out = tmp_path / "r"
    assert run(command, "--weights", wfile, "--out-dir", out, *args) == 1
    err = capsys.readouterr().err
    assert "error:" in err and ("seed must be >= 0" if value == "-1" else "finite") in err and "Traceback" not in err
    assert not (out / PROGRAM_FILE).exists()
    assert not (out / EVAL_REPORT_FILE).exists()


@pytest.mark.parametrize("command", ["quantize", "evaluate"])
@pytest.mark.parametrize("header", ["W_i 1 10000000000000", "W_i -1 4"], ids=["huge-cols", "negative-rows"])
def test_bad_weight_shape_rejected(tmp_path, capsys, command, header):
    wfile = tmp_path / "weights.txt"
    write_weights(*zero_model(), wfile)
    wfile.write_text(wfile.read_text().replace("W_i 1 4\n", header + "\n", 1))
    out = tmp_path / "r"
    assert run(command, "--weights", wfile, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(wfile) in err and "'W_i'" in err and "Traceback" not in err
    assert not (out / PROGRAM_FILE).exists()
    assert not (out / EVAL_REPORT_FILE).exists()


@pytest.mark.parametrize("argv, error", [
    (["train", "--epochs", "3", "--clamp-low", "-1e308", "--clamp-high", "1e308", "--learning-rate", "1e300"],
     "training aborted: non-finite loss at epoch 2"),
    (["train", "--epochs", "1", "--clamp-low", "-1e308", "--clamp-high", "1e308", "--learning-rate", "1e307"],
     "the trained model's train RMSEs are not finite: the numbers overflow float64"),
    (["evaluate", "--weights", str(TEST_DATA / WEIGHTS_FILE), "--level-variation", "1e308"],
     f"{TEST_DATA / WEIGHTS_FILE}: crossbar predictions or RMSEs are not finite: the numbers overflow float64"),
    (["evaluate", "--weights", str(TEST_DATA / WEIGHTS_FILE), "--level-variation", "1e308", "--noise-seeds", "40"],
     f"{TEST_DATA / WEIGHTS_FILE}: crossbar predictions or RMSEs are not finite: the numbers overflow float64"),
    (["train", "--dataset", "wide.csv"], "wide.csv: values from -1e+308 to 1e+308 span more than float64 holds"),
    (["evaluate", "--dataset", "wide.csv", "--weights", str(TEST_DATA / WEIGHTS_FILE)],
     "wide.csv: values from -1e+308 to 1e+308 span more than float64 holds"),
    (["train", "--dataset", "nan.csv"], "nan.csv: line 3: not a finite number: 'nan'"),
    (["evaluate", "--dataset", "inf.csv", "--weights", str(TEST_DATA / WEIGHTS_FILE)],
     "inf.csv: line 4: not a finite number: '-inf'"),
], ids=["diverging-loss", "train-overflow", "level-variation-overflow", "sweep-overflow", "train-wide-dataset",
        "evaluate-wide-dataset", "train-nan-dataset", "evaluate-inf-dataset"])
def test_diverging_train_prints_only_its_error(tmp_path, argv, error):
    """A run whose loss or results overflow stops with the one error line:
    no numpy warning on the way there, and no out-dir written. wide.csv
    spans a range float64 cannot hold, so normalizing it would overflow;
    nan.csv and inf.csv each hold a non-finite row."""
    (tmp_path / "wide.csv").write_text('"Month","Passengers"\n"1949-01",1e308\n"1949-02",-1e308\n"1949-03",5\n')
    (tmp_path / "nan.csv").write_text('"Month","Passengers"\n"1949-01",112\n"1949-02",nan\n"1949-03",5\n')
    (tmp_path / "inf.csv").write_text('"Month","Passengers"\n"1949-01",112\n"1949-02",118\n"1949-03",-inf\n')
    out = tmp_path / "r"
    # a fresh process, so stderr is exactly what the command prints
    result = subprocess.run([sys.executable, "-m", "xbarlstm.cli", *argv, "--out-dir", str(out)],
                            capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert result.returncode == 1
    assert result.stderr == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["quantize", "--quantize-output-layer"],
    ["evaluate", "--quantize-output-layer"],
    ["evaluate", "--program", "q/program.txt"],
], ids=["quantize", "evaluate", "evaluate-program"])
def test_clamp_warnings_are_plain_lines(tmp_path, argv):
    W, U, b = np.zeros((4, 1, 4)), np.zeros((4, 4, 4)), np.zeros((4, 4))
    U[2, 1, 3] = -2.5
    params, out = zero_model(gates=(W, U, b))
    out.w_out[0] = 1.75
    wfile = tmp_path / "weights.txt"
    write_weights(params, out, wfile)
    assert run("quantize", "--weights", wfile, "--out-dir", tmp_path / "q") == 0
    # a fresh process, so stderr is exactly what the command prints
    result = subprocess.run(
        [sys.executable, "-m", "xbarlstm.cli", *argv, "--weights", str(wfile), "--out-dir", "r"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    want = ["warning: 1 weight(s) outside [-1, 1] were clamped"]
    if "--quantize-output-layer" in argv:
        want.append("warning: 1 output-layer weight(s) outside [-1, 1] were clamped")
    assert result.stderr.splitlines() == want


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run(*train_args(out, epochs=40, seed=0)) == 0
    assert run("quantize", "--out-dir", out) == 0
    return out


class TestEvaluateCommand:
    def test_reports_and_predictions(self, trained, capsys):
        assert run("evaluate", "--out-dir", trained) == 0
        printed = capsys.readouterr().out
        assert "train float RMSE passengers" in printed
        assert "test quantized RMSE passengers" in printed
        assert "delta" in printed
        rows = (trained / PREDICTIONS_FILE).read_text().splitlines()
        assert rows[0] == "time_index,actual,prediction_float,prediction_quantized"
        assert len(rows) == 1 + 144
        assert rows[1].endswith("nan,nan")  # no prediction for the first point
        assert "noisy" not in printed  # one device seed, the default, draws no sweep

    def test_deterministic_outputs(self, trained, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run("evaluate", "--weights", trained / WEIGHTS_FILE, "--out-dir", d) == 0
        assert (a / PREDICTIONS_FILE).read_bytes() == (b / PREDICTIONS_FILE).read_bytes()

    def test_program_file_equals_derived(self, trained, tmp_path):
        derived, from_file = tmp_path / "derived", tmp_path / "fromfile"
        assert run("evaluate", "--weights", trained / WEIGHTS_FILE, "--out-dir", derived) == 0
        assert run("evaluate", "--weights", trained / WEIGHTS_FILE,
                   "--program", trained / PROGRAM_FILE, "--out-dir", from_file) == 0
        da = (derived / PREDICTIONS_FILE).read_text().splitlines()
        db = (from_file / PREDICTIONS_FILE).read_text().splitlines()
        assert da == db

    @pytest.mark.parametrize("extra", [[], ["--noise-seeds", 5]])
    def test_program_header_sets_the_device(self, trained, tmp_path, capsys, extra):
        device = ["--spacing", "uniform_resistance", "--level-variation", 0.05, "--read-noise", 0.02, "--seed", 7]
        assert run("quantize", "--weights", trained / WEIGHTS_FILE, *device, "--out-dir", tmp_path / "q") == 0
        from_file, derived = tmp_path / "fromfile", tmp_path / "derived"
        capsys.readouterr()
        assert run("evaluate", "--weights", trained / WEIGHTS_FILE, "--program", tmp_path / "q" / PROGRAM_FILE,
                   *extra, "--out-dir", from_file) == 0
        printed = capsys.readouterr().out
        assert run("evaluate", "--weights", trained / WEIGHTS_FILE, *device, *extra, "--out-dir", derived) == 0
        shown = dict(re.split(r"\s{2,}", ln, maxsplit=1) for ln in printed.splitlines())
        assert shown["spacing"] == "uniform_resistance"
        assert shown["read noise sigma"] == "0.02"
        assert shown["level variation sigma"] == "0.050000000000000003"
        assert (from_file / PREDICTIONS_FILE).read_bytes() == (derived / PREDICTIONS_FILE).read_bytes()
        report_a, report_b = ([ln for ln in (d / EVAL_REPORT_FILE).read_text().splitlines()
                               if not ln.startswith("program ")] for d in (from_file, derived))
        assert report_a == report_b

    def test_zero_sigma_quantized_path_equals_float_path_on_reconstructed(self, trained, tmp_path):
        from xbarlstm.crossbar import CrossbarConfig, program_crossbar, reconstruct_weights
        from xbarlstm.data import denormalize, fit_normalizer, load_series, make_windows, normalize

        out = tmp_path / "eq"
        assert run("evaluate", "--weights", trained / WEIGHTS_FILE, "--out-dir", out) == 0
        rows = (out / PREDICTIONS_FILE).read_text().splitlines()[2:]  # first point has no prediction
        quant_column = np.array([float(r.split(",")[3]) for r in rows])

        params, out_layer = read_weights(trained / WEIGHTS_FILE)
        cfg = CrossbarConfig()
        recon = reconstruct_weights(program_crossbar(params, cfg))
        series = load_series(BUNDLED_DATASET)
        norm = fit_normalizer(series)
        windows = make_windows(normalize(series, norm), 1)
        W, U, b = (a.tolist() for a in gates_from_grid(recon.grid))
        oracle = [window_last_prediction(W, U, b, out_layer.w_out.tolist(), out_layer.b_out, x.tolist())
                  for x in windows.x]
        want = denormalize(np.array(oracle), norm)
        np.testing.assert_allclose(quant_column, want, rtol=0, atol=1e-9)

    def test_zero_sigma_seeds_zero_variance(self, trained, tmp_path, capsys):
        out = tmp_path / "zv"
        assert run("evaluate", "--weights", trained / WEIGHTS_FILE, "--out-dir", out,
                   "--noise-seeds", 4) == 0
        printed = capsys.readouterr().out
        assert "over 4 seeds" in printed
        for line in printed.splitlines():
            if "over 4 seeds" in line:
                assert line.rstrip().endswith("+/- 0.0000")

    def test_noise_reported_with_spread(self, trained, tmp_path, capsys):
        out = tmp_path / "noisy"
        assert run("evaluate", "--weights", trained / WEIGHTS_FILE, "--out-dir", out,
                   "--read-noise", 0.05, "--noise-seeds", 5, "--seed", 9) == 0
        printed = capsys.readouterr().out
        lines = [ln for ln in printed.splitlines() if "over 5 seeds" in ln]
        assert len(lines) == 2
        assert not any(ln.rstrip().endswith("+/- 0.0000") for ln in lines)

    def test_sweep_report_matches_the_pinned_one(self, tmp_path):
        """A 300-seed level-variation and read-noise sweep on pinned weights
        gives the pinned report line for line, bar the dataset line, which
        names a path. A change to the per-seed streams, the order of their
        draws or the RMSE reduction moves the noisy mean and spread."""
        out = tmp_path / "sweep"
        assert run("evaluate", "--weights", TEST_DATA / WEIGHTS_FILE, "--level-variation", 0.05,
                   "--read-noise", 0.01, "--noise-seeds", 300, "--report", "delimited", "--out-dir", out) == 0

        def lines(path):
            return [ln for ln in path.read_text().splitlines() if not ln.startswith("dataset,")]

        assert lines(out / EVAL_REPORT_FILE) == lines(TEST_DATA / "eval_report_sweep300.txt")

    @pytest.mark.parametrize("weights, flags, pinned", [
        (WEIGHTS_FILE, ("--level-variation", 0.05, "--read-noise", 0.01, "--seed", 7), "predictions_lv_rn_s7.csv"),
        ("weights_lb3.txt", ("--look-back", 3, "--spacing", "uniform_resistance", "--level-variation", 0.1,
                             "--seed", 3), "predictions_lb3_resistance_lv.csv"),
    ], ids=["lv-rn-s7", "lb3-resistance-lv"])
    def test_noisy_device_matches_the_pinned_predictions(self, tmp_path, weights, flags, pinned):
        """One level-varied device, with and without read noise, gives the
        pinned predictions at full precision: a bit moved in the level
        variation draw, the read-noise draw or the read gain's layout moves
        a digit of the quantized column."""
        out = tmp_path / "run"
        assert run("evaluate", "--weights", TEST_DATA / weights, *flags, "--out-dir", out) == 0
        assert (out / PREDICTIONS_FILE).read_bytes() == (TEST_DATA / pinned).read_bytes()

    def test_n_inputs_mismatch_rejected(self, tmp_path, capsys):
        wfile = tmp_path / "two_inputs.txt"
        write_weights(*zero_model(n_inputs=2), wfile)
        out = tmp_path / "r"
        assert run("evaluate", "--weights", wfile, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "n_inputs=2" in err and "1 feature" in err
        assert not (out / EVAL_REPORT_FILE).exists()

    def test_dims_mismatch_program_rejected(self, trained, tmp_path, capsys):
        big = tmp_path / "big.txt"
        rng = np.random.default_rng(0)
        params = LstmParams(grid_from_gates(
            rng.uniform(-1, 1, (4, 1, 6)), rng.uniform(-1, 1, (4, 6, 6)), rng.uniform(-1, 1, (4, 6))
        ))
        write_weights(params, OutputLayer(rng.uniform(-1, 1, 6), 0.0), big)
        code = run("evaluate", "--weights", big, "--program", trained / PROGRAM_FILE,
                   "--out-dir", tmp_path / "r", "--hidden-units", 6)
        assert code == 1
        assert "do not match" in capsys.readouterr().err


def test_load_pipeline_returns_the_windows_the_train_part_and_the_split_table():
    """The five values every command and the benchmark's worker unpack:
    windows third, the train part fourth, then each split's slice of the
    windows, the slices covering them in order with no gap."""
    series, norm, windows, train_part, splits = xbarlstm.cli._load_pipeline(RunConfig())
    assert (len(series), len(windows), len(train_part)) == (144, 143, 95)
    assert list(splits) == ["train", "test"]
    covered = [k for sl in splits.values() for k in range(len(windows))[sl]]
    assert covered == list(range(len(windows)))
    np.testing.assert_array_equal(windows.x[splits["train"]], train_part.x)
    np.testing.assert_array_equal(windows.y[splits["train"]], train_part.y)


@pytest.mark.parametrize("extra", [(), ("--look-back", "3", "--split", "0.5")], ids=["default", "lb3-split0.5"])
def test_train_reports_the_float_rmses_evaluate_reports(tmp_path, capsys, extra):
    """For the same weights and config, train's four RMSE lines carry
    evaluate's float RMSEs: both cut one forward over all windows by the
    same split table, which also counts both reports' windows line."""
    out = tmp_path / "run"
    assert run(*train_args(out, extra=[*extra, "--report", "delimited"])) == 0
    trained = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
    assert run("evaluate", "--out-dir", out, *extra, "--report", "delimited") == 0
    evaluated = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
    labels = [f"{name}_RMSE_{unit}" for name in ("train", "test") for unit in ("normalized", "passengers")]
    assert [trained[label] for label in labels] == [evaluated[label.replace("_RMSE", "_float_RMSE")] for label in labels]
    assert [trained["dataset"], trained["windows"]] == [evaluated["dataset"], evaluated["windows"]]


HEADER = "time_index,actual,prediction_float,prediction_quantized\n"


class TestPlotDataCommand:
    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*train_args(out, epochs=6, seed=0)) == 0
        assert run("evaluate", "--out-dir", out) == 0
        capsys.readouterr()
        assert run("plot-data", "--out-dir", out) == 0
        assert capsys.readouterr().out == (f"wrote {out / PLOT_PREDICTIONS_FILE} (144 rows)\n"
                                           f"wrote {out / PLOT_LOSS_FILE} (6 rows)\n")

        pred_rows = (out / PLOT_PREDICTIONS_FILE).read_text().splitlines()
        assert pred_rows[0] == "time_index,actual,prediction_float,prediction_quantized"
        assert len(pred_rows) == 1 + 144  # row count = series length
        # bit-for-bit identical to evaluate's prediction dump
        assert pred_rows == (out / PREDICTIONS_FILE).read_text().splitlines()

        loss_rows = (out / PLOT_LOSS_FILE).read_text().splitlines()
        assert loss_rows[0] == "epoch,loss"
        assert len(loss_rows) == 1 + 6
        raw = (out / LOSS_FILE).read_text().splitlines()
        assert [r.replace(",", " ") for r in loss_rows[1:]] == raw

    def test_missing_inputs_fail(self, tmp_path, capsys):
        assert run("plot-data", "--out-dir", tmp_path / "empty") == 1
        assert "run `train` and `evaluate` first" in capsys.readouterr().err

    @pytest.mark.parametrize("file, text, line", [
        (PREDICTIONS_FILE, "", 1),
        (PREDICTIONS_FILE, "time_index,actual,prediction\n0,112,nan\n", 1),
        (PREDICTIONS_FILE, HEADER, 2),
        (PREDICTIONS_FILE, HEADER + "0,abc\n", 2),
        (PREDICTIONS_FILE, HEADER + "0,112,nan,nan,1\n", 2),
        (PREDICTIONS_FILE, HEADER + "0,112,nan,nan\n2,118,1,1\n", 3),
        (PREDICTIONS_FILE, HEADER + "0,112,nan,nan\n1,inf,1,1\n", 3),
        (PREDICTIONS_FILE, HEADER + "0,112,nan,nan\n1,118,1,nan\n", 3),
        (LOSS_FILE, "", 1),
        (LOSS_FILE, "1 zzz\n", 1),
        (LOSS_FILE, "1 0.5\n2\n", 2),
        (LOSS_FILE, "1 0.5\n2 inf\n", 2),
        (LOSS_FILE, "1 0.5\n3 0.4\n", 2),
        (LOSS_FILE, "1.0 0.5\n", 1),
    ])
    def test_bad_run_output_is_one_error_line(self, tmp_path, capsys, file, text, line):
        """An empty file, a wrong header, a row of the wrong shape, index or
        epoch, or a value that is not a finite number (nan is a prediction
        only in the first look_back rows): exit 1, one error line naming
        the file and the line, and no output file."""
        out = tmp_path / "run"
        out.mkdir()
        (out / PREDICTIONS_FILE).write_text(HEADER + "0,112,nan,nan\n")
        (out / LOSS_FILE).write_text("1 0.5\n")
        (out / file).write_text(text)
        assert run("plot-data", "--out-dir", out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out / file}: line {line}: ") and len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == sorted([PREDICTIONS_FILE, LOSS_FILE])

    def test_nan_predictions_follow_look_back(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        rows = ["time_index,actual,prediction_float,prediction_quantized", "0,112,nan,nan", "1,118,nan,nan", "2,132,1,1"]
        (out / PREDICTIONS_FILE).write_text("\n".join(rows) + "\n")
        (out / LOSS_FILE).write_text("1 0.5\n")
        assert run("plot-data", "--out-dir", out) == 1
        assert f"{out / PREDICTIONS_FILE}: line 3: " in capsys.readouterr().err
        assert run("plot-data", "--out-dir", out, "--look-back", 2) == 0
        assert (out / PLOT_PREDICTIONS_FILE).read_text().splitlines() == rows


class TestConfigFile:
    def test_file_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# experiment config\n"
            "epochs = 5\n"
            "seed = 21\n"
            "spacing = uniform_resistance\n"
            "shuffle = true\n"
        )
        values = parse_config_file(cfgfile)
        assert values == {"epochs": 5, "seed": 21, "spacing": "uniform_resistance", "shuffle": True}

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("train", "--config", cfgfile, "--out-dir", out_a) == 0
        # the flag wins over the file
        assert run("train", "--config", cfgfile, "--seed", 22, "--out-dir", out_b) == 0
        assert (out_a / WEIGHTS_FILE).read_bytes() != (out_b / WEIGHTS_FILE).read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("epochz = 5\n")
        assert run("train", "--config", cfgfile, "--out-dir", tmp_path / "r") == 1
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("shuffle = maybe\n")
        assert run("train", "--config", cfgfile, "--out-dir", tmp_path / "r") == 1
        assert "boolean" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "twice.cfg"
        cfgfile.write_text("epochs = 3\n# again\nepochs = 5\n")
        out = tmp_path / "r"
        assert run("train", "--config", cfgfile, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {cfgfile}: line 3: key 'epochs' already set on line 1\n"
        assert not out.exists()

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("# no separator\nepochs 5\n")
        out = tmp_path / "r"
        assert run("train", "--config", cfgfile, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {cfgfile}: line 2: expected 'key = value', got 'epochs 5'\n"
        assert not out.exists()

    def test_byte_order_mark_skipped(self, tmp_path):
        cfgfile = tmp_path / "bom.cfg"
        cfgfile.write_bytes(b"\xef\xbb\xbfepochs = 3\n")
        assert parse_config_file(cfgfile) == {"epochs": 3}

    def test_bad_byte_after_byte_order_mark_names_its_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "bom.cfg"
        cfgfile.write_bytes(b"\xef\xbb\xbfepochs = 3\nseed = \xfe1\n")
        out = tmp_path / "r"
        assert run("train", "--config", cfgfile, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {cfgfile}: line 2: not UTF-8 text (invalid start byte 0xfe)\n"
        assert not out.exists()

    def test_delimited_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(*train_args(out, extra=["--report", "delimited"])) == 0
        printed = capsys.readouterr().out
        assert "train_RMSE_passengers," in printed

    def test_flag_and_file_give_the_same_config(self, tmp_path):
        # one non-default value for every key
        values = {
            "dataset": "elsewhere.csv", "hidden_units": "3", "look_back": "2", "split": "0.5", "epochs": "7",
            "learning_rate": "0.02", "optimizer": "sgd", "beta1": "0.8", "beta2": "0.99", "eps": "1e-7",
            "clamp_low": "-0.5", "clamp_high": "0.5", "seed": "5", "shuffle": "true",
            "spacing": "uniform_resistance", "read_noise": "0.01", "level_variation": "0.02", "noise_seeds": "3",
            "quantize_output_layer": "true", "out_dir": "elsewhere", "report": "delimited",
        }
        assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}
        cfgfile = tmp_path / "all.cfg"
        cfgfile.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        flags = []
        for key, value in values.items():
            flag = "--" + key.replace("_", "-")
            flags += [flag] if value == "true" else [flag, value]
        from_file = build_run_config(build_parser().parse_args(["train", "--config", str(cfgfile)]))
        from_flags = build_run_config(build_parser().parse_args(["train", *flags]))
        assert from_file == from_flags
        assert from_file != RunConfig() and from_file.beta1 == 0.8 and from_file.shuffle is True


BAD_KEYS = [
    ("optimizer", "lbfgs", "unknown optimizer 'lbfgs'"),
    ("spacing", "foo", "unknown spacing 'foo'"),
    ("report", "x", "report must be"),
    ("seed", "abc", "key 'seed': invalid literal"),
    ("seed", "-1", "seed must be >= 0"),
    ("seed", str(2**128), "seed must be < 2**128"),
    ("read_noise", "nan", "read_noise_sigma must be finite"),
    ("learning_rate", "nan", "learning_rate must be finite"),
    ("eps", "-1", "eps must be finite and > 0"),
    ("eps", "-1e-9", "eps must be finite and > 0"),
    ("read_noise", "-inf", "read_noise_sigma must be finite"),
    ("look_back", "0", "look_back must be >= 1"),
    ("split", "7", "split must be in (0, 1)"),
    ("split", "0", "split must be in (0, 1)"),
    ("split", "1", "split must be in (0, 1)"),
    ("hidden_units", "0", "hidden_units must be >= 1"),
    ("noise_seeds", "0", "noise_seeds must be >= 1"),
    ("dataset", "", "dataset must not be empty"),
]


@pytest.mark.parametrize("command", ["train", "quantize", "evaluate", "plot-data"])
@pytest.mark.parametrize("source", ["flag", "flag=", "file"])
@pytest.mark.parametrize("key, value, message", BAD_KEYS, ids=[f"{k}={v}" for k, v, _ in BAD_KEYS])
def test_bad_key_rejected_before_the_out_dir(tmp_path, capsys, command, source, key, value, message):
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        args = [flag, value]
    elif source == "flag=":
        args = [f"{flag}={value}"]
    else:
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        args = ["--config", cfgfile]
    out = tmp_path / "r"
    assert run(command, "--out-dir", out, *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "quantize", "evaluate", "plot-data"])
def test_empty_out_dir_rejected(tmp_path, monkeypatch, capsys, command):
    """An empty --out-dir is not taken for the current directory."""
    monkeypatch.chdir(tmp_path)
    assert run(command, "--out-dir", "") == 1
    err = capsys.readouterr().err
    assert err == "error: out_dir must not be empty\n"
    assert list(tmp_path.iterdir()) == []


USAGE_ERRORS = [
    (["train", "--shuffle", "-1"], "ignored explicit argument '-1'"),
    (["train", "--seed"], "argument --seed: expected one argument"),
    (["train", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["evaluate", "--bogus"], "unrecognized arguments: --bogus"),
    (["quantize", "stray"], "unrecognized arguments: stray"),
    (["plot-data", "--seed", "1", "stray"], "unrecognized arguments: stray"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_usage_error_is_one_error_line(tmp_path, capsys, argv, message):
    """argparse's own errors exit 1 with one `error:` line, like every other
    bad input, and make no out-dir."""
    out = tmp_path / "r"
    assert run(argv[0], "--out-dir", out, *argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("target", ["config", WEIGHTS_FILE, PROGRAM_FILE, "dataset", PREDICTIONS_FILE, LOSS_FILE])
def test_non_utf8_input_names_its_file(trained, tmp_path, capsys, target):
    """A byte that is not UTF-8 at the start of line 2 of any text input:
    exit 1, one error line naming the file and the line, and the out-dir as
    it was."""
    out = tmp_path / "r"
    out.mkdir()
    (out / PREDICTIONS_FILE).write_text(HEADER + "0,112,nan,nan\n")
    (out / LOSS_FILE).write_text("1 0.5\n2 0.4\n")
    good = {"config": "epochs = 2\nseed = 1\n", WEIGHTS_FILE: (trained / WEIGHTS_FILE).read_text(),
            PROGRAM_FILE: (trained / PROGRAM_FILE).read_text(), "dataset": BUNDLED_DATASET.read_text(),
            PREDICTIONS_FILE: (out / PREDICTIONS_FILE).read_text(), LOSS_FILE: (out / LOSS_FILE).read_text()}
    spoiled = out / target if target in (PREDICTIONS_FILE, LOSS_FILE) else tmp_path / target
    first, rest = good[target].split("\n", 1)
    spoiled.write_bytes(f"{first}\n".encode() + b"\xff" + rest.encode())
    models = ["--weights", trained / WEIGHTS_FILE, "--program", trained / PROGRAM_FILE]
    argv = {"config": ["train", "--config", spoiled], WEIGHTS_FILE: ["evaluate", *models[2:], "--weights", spoiled],
            PROGRAM_FILE: ["evaluate", *models[:2], "--program", spoiled],
            "dataset": ["evaluate", *models, "--dataset", spoiled]}.get(target, ["plot-data"])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(*argv, "--out-dir", out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {spoiled}: line 2: not UTF-8 text (invalid start byte 0xff)\n"
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


OUTPUTS = {
    "train": (WEIGHTS_FILE, LOSS_FILE),
    "quantize": (PROGRAM_FILE, QUANTIZED_WEIGHTS_FILE, QUANTIZE_REPORT_FILE),
    "evaluate": (EVAL_REPORT_FILE, PREDICTIONS_FILE),
    "plot-data": (PLOT_PREDICTIONS_FILE, PLOT_LOSS_FILE),
}


@pytest.mark.parametrize("command, blocked", [(c, name) for c, names in OUTPUTS.items() for name in names])
def test_unwritable_output_prints_nothing_and_leaves_nothing(tmp_path, capsys, command, blocked):
    """An output name taken by a directory: the command exits 1 with one
    error line, prints nothing on stdout and leaves none of its outputs."""
    out = tmp_path / "r"
    (out / blocked).mkdir(parents=True)
    if command == "plot-data":
        (out / PREDICTIONS_FILE).write_text("time_index,actual,prediction_float,prediction_quantized\n0,112,nan,nan\n")
        (out / LOSS_FILE).write_text("1 0.5\n")
    before = sorted(p.name for p in out.iterdir())
    args = {"train": ["--epochs", 2], "plot-data": []}.get(command, ["--weights", TEST_DATA / WEIGHTS_FILE])
    assert run(command, "--out-dir", out, *args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(out / blocked) in captured.err
    assert len(captured.err.splitlines()) == 1
    assert sorted(p.name for p in out.iterdir()) == before


def test_cli_import_leaves_numpy_random_unloaded(tmp_path):
    """numpy loads numpy.random on first use; importing the CLI must not
    use it, and neither may an evaluate at zero sigmas, on one device or
    on a derived sweep of two, so commands that draw nothing do not pay
    for it."""
    eager = subprocess.run([sys.executable, "-c", "import sys, numpy; sys.exit('numpy.random' in sys.modules)"])
    if eager.returncode:
        pytest.skip("this numpy imports numpy.random when numpy itself is imported")
    weights = tmp_path / WEIGHTS_FILE
    write_weights(*zero_model(), weights)
    evaluate = ["evaluate", "--weights", str(weights), "--out-dir", str(tmp_path / "r")]
    probe = (
        "import sys, xbarlstm.cli\n"
        "if 'numpy.random' in sys.modules: sys.exit('numpy.random was imported by the CLI')\n"
        f"for argv in {[evaluate, evaluate + ['--noise-seeds', '2']]!r}:\n"
        "    code = xbarlstm.cli.main(argv)\n"
        "    if code or 'numpy.random' in sys.modules: sys.exit(f'{argv}: exit {code}, numpy.random loaded')\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module", ["xbarlstm", "xbarlstm.cli"])
def test_import_loads_no_numpy(module):
    probe = f"import sys, {module}\nsys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=child_env()).returncode == 0


# `python -m xbarlstm.cli ARGS` in a process that reports whether numpy was loaded
CLI_PROBE = """
import runpy, sys
try:
    runpy.run_module("xbarlstm.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, code", [([], 0), (["--spacing", "bogus"], 1), (["--learning-rate", "nan"], 1)])
def test_plot_data_loads_no_numpy(tmp_path, argv, code):
    """plot-data reads and writes text only; a bad key value still stops it
    with its one error line."""
    out = tmp_path / "run"
    out.mkdir()
    (out / PREDICTIONS_FILE).write_text(HEADER + "0,112,nan,nan\n")
    (out / LOSS_FILE).write_text("1 0.5\n")
    result = subprocess.run([sys.executable, "-c", CLI_PROBE, "plot-data", "--out-dir", str(out), *argv],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == code, result.stderr
    *errors, loaded = result.stderr.splitlines()
    assert loaded == "numpy loaded: False"
    assert len(errors) == code and all(line.startswith("error:") for line in errors)
    assert (out / PLOT_LOSS_FILE).exists() == (code == 0)


NUMERIC_MODULES = {"crossbar", "data", "kernels", "training", "weights_io"}
# `python -m xbarlstm.cli ARGS`, or with no ARGS only `cli._load_pipeline` on
# the default config, in a process that reports the numeric modules it loaded
MODULES_PROBE = """
import json, runpy, sys
code = 0
if sys.argv[1:]:
    try:
        runpy.run_module("xbarlstm.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    from xbarlstm import cli
    cli._load_pipeline(cli.RunConfig())
loaded = {name.removeprefix("xbarlstm.") for name in sys.modules if name.startswith("xbarlstm.")}
print(json.dumps(sorted(loaded & NUMERIC)), file=sys.stderr)
sys.exit(code)
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """train never loads crossbar, quantize never loads training, evaluate
    runs all five numeric modules and plot-data none; the data prep every
    worker of the benchmark sets up with loads data alone."""
    out = tmp_path / "run"
    common = ["--out-dir", str(out)]
    expected = [
        (["train", "--epochs", "2", *common], ["data", "kernels", "training", "weights_io"]),
        (["quantize", *common], ["crossbar", "data", "kernels", "weights_io"]),
        (["evaluate", "--program", str(out / PROGRAM_FILE), *common], sorted(NUMERIC_MODULES)),
        (["plot-data", *common], []),
        ([], ["data"]),
    ]
    probe = f"NUMERIC = {NUMERIC_MODULES!r}\n{MODULES_PROBE}"
    for argv, modules in expected:
        result = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=child_env())
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stderr.splitlines()[-1]) == modules, argv


# Sets a counting wrapper on every xbarlstm.cli name that perfbench/tracing.py
# wraps, as its Tracer.install does, then runs the four commands.
WRAPPER_PROBE = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from xbarlstm import cli, training

# bound before the numeric names load, so its wrapper below must outlive that load
cli.train = training.train
entered = {}

def counting(attr, fn):
    def counted(*args, **kwargs):
        entered[attr] += 1
        return fn(*args, **kwargs)
    return counted

for owner, attr, _, _ in tracing.TARGETS:
    if owner == "xbarlstm.cli":
        entered[attr] = 0
        setattr(cli, attr, counting(attr, getattr(cli, attr)))
common = ["--epochs", "3", "--out-dir", sys.argv[2]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (["train", *common], ["quantize", *common],
                                         ["evaluate", "--program", f"{sys.argv[2]}/{cli.PROGRAM_FILE}", *common],
                                         ["plot-data", *common])]
print(json.dumps({"codes": codes, "entered": entered}))
"""


def test_tracer_wrappers_are_the_names_the_commands_call(tmp_path):
    """The CLI binds its numeric names once, on first use, and keeps a name
    already set: a wrapper set on xbarlstm.cli in a fresh process, as the
    benchmark's tracer sets its spans, is what train, quantize, evaluate
    and plot-data call, also when it was set before that first use."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    result = subprocess.run([sys.executable, "-c", WRAPPER_PROBE, str(tracing), str(tmp_path / "run")],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0, 0, 0]
    assert "train" in report["entered"] and "read_program" in report["entered"]
    assert [attr for attr, calls in report["entered"].items() if calls == 0] == []


def test_every_exported_name_resolves():
    """A stale entry in the one name table, xbarlstm.__all__, fails here,
    not in a user's import or in a command's first call."""
    from xbarlstm import cli

    assert [name for name in xbarlstm.__all__ if getattr(xbarlstm, name, None) is None] == []
    cli._load_numeric(*sorted(set(xbarlstm._EXPORTS.values())))
    assert [name for name in xbarlstm.__all__ if name not in vars(cli)] == []


def test_configs_are_one_object_wherever_imported():
    from xbarlstm import cli, config, crossbar, data, training

    assert xbarlstm.TrainConfig is training.TrainConfig is cli.TrainConfig is config.TrainConfig
    assert xbarlstm.CrossbarConfig is crossbar.CrossbarConfig is cli.CrossbarConfig is config.CrossbarConfig
    assert data.BUNDLED_DATASET is cli.BUNDLED_DATASET is config.BUNDLED_DATASET
    assert crossbar.SPACINGS is config.SPACINGS


MUTANTS = ["x", "1.5", "-1", "nan", "inf", "1e400", "1e308", "", "99999999999999999999"]


def _mutations(lines, positions):
    """(description, lines) with token j of line i replaced by each mutant;
    j = None replaces everything after the first token."""
    for i, j in positions:
        for mutant in MUTANTS:
            tokens = lines[i].split(" ")
            tokens[1 if j is None else j:None if j is None else j + 1] = [mutant]
            yield f"line {i + 1} token {j} -> {mutant!r}", lines[:i] + [" ".join(tokens)] + lines[i + 1:]


@pytest.mark.parametrize("target", [PROGRAM_FILE, WEIGHTS_FILE])
def test_mutated_input_fails_cleanly(trained, tmp_path, capsys, target):
    """Every header value and one body token of a real file, replaced one at
    a time: evaluate exits 0 or 1, and a failure is one error line naming
    the file."""
    lines = (trained / target).read_text().splitlines()
    if target == PROGRAM_FILE:
        body = next(i for i, ln in enumerate(lines) if ln.startswith("#")) + 1
        positions = [(i, None) for i in range(1, body - 1)] + [(body, 0)]
    else:
        headers = [i for i, ln in enumerate(lines) if ln.split()[0] in MATRIX_NAMES]
        positions = [(i, j) for i in headers for j in (1, 2)] + [(headers[0] + 1, 0)]
    mutated = tmp_path / target
    problems = []
    count = 0
    for where, text in _mutations(lines, positions):
        count += 1
        mutated.write_text("\n".join(text) + "\n")
        files = {PROGRAM_FILE: trained / PROGRAM_FILE, WEIGHTS_FILE: trained / WEIGHTS_FILE, target: mutated}
        code = run("evaluate", "--weights", files[WEIGHTS_FILE], "--program", files[PROGRAM_FILE],
                   "--out-dir", tmp_path / "r")
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        if code not in (0, 1) or (code == 1 and (len(errors) != 1 or str(mutated) not in errors[0])):
            problems.append(f"{where}: exit {code}, stderr {err!r}")
    assert count == len(positions) * len(MUTANTS)
    assert not problems, "\n".join(problems)


FUZZ_TOKENS = MUTANTS + ["0", "-0", "1e-300", "0x10", "uniform_resistance", "uniform_conductance", "5e-07"]


def _fuzzed(text, rng, count, sep, key_lines=()):
    """count seeded truncations of text at a random character, count
    replacements of one token of a random line, and count more on each line
    that starts with a key in key_lines."""
    lines = text.splitlines()
    picks = [rng.randrange(len(lines)) for _ in range(count)]
    for key in key_lines:
        picks += [next(i for i, ln in enumerate(lines) if ln.startswith(key))] * count
    cases = [text[: rng.randrange(len(text))] for _ in range(count)]
    for i in picks:
        tokens = lines[i].split(sep)
        tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
        cases.append("\n".join(lines[:i] + [sep.join(tokens)] + lines[i + 1:]) + "\n")
    return cases


def test_fuzzed_inputs_fail_cleanly(trained, tmp_path, capsys):
    """Seeded truncations and token replacements of the weight file, the
    program file (its spacing and level-table lines included) and the
    dataset CSV, each through evaluate in process, and of predictions.csv
    and loss_history.txt, each through plot-data: every run exits 0 or 1
    with no exception escaping, and a run that exits 1 leaves the out-dir
    as it was; plot-data's exit 1 comes with one error line."""
    rng = random.Random(20261018)
    good = {"weights": trained / WEIGHTS_FILE, "program": trained / PROGRAM_FILE, "dataset": BUNDLED_DATASET}
    cases = [(name, text) for name, sep, keys in (("weights", " ", ()), ("program", " ", ("spacing", "levels_siemens")),
                                                 ("dataset", ",", ()))
             for text in _fuzzed(Path(good[name]).read_text(), rng, 30, sep, keys)]
    out = tmp_path / "r"
    assert run("evaluate", *(f"--{k}={v}" for k, v in good.items()), "--out-dir", out) == 0
    run_outputs = {PREDICTIONS_FILE: (out / PREDICTIONS_FILE).read_text(), LOSS_FILE: (trained / LOSS_FILE).read_text()}
    cases += [(name, text) for name, sep in ((PREDICTIONS_FILE, ","), (LOSS_FILE, " "))
              for text in _fuzzed(run_outputs[name], rng, 30, sep)]
    problems = []
    for n, (name, text) in enumerate(cases):
        if name in run_outputs:
            out = tmp_path / f"{n}-plot"
            out.mkdir()
            for file, good_text in run_outputs.items():
                (out / file).write_text(text if file == name else good_text)
            mutated, argv = out / name, ["plot-data", "--out-dir", out]
        else:
            mutated = tmp_path / f"{n}-{name}"
            mutated.write_text(text)
            argv = ["evaluate", *(f"--{k}={v}" for k, v in {**good, name: mutated}.items()), "--out-dir", out]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        try:
            code = run(*argv)
        except Exception as exc:  # any escape is a finding
            problems.append(f"{mutated}: {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code not in (0, 1):
            problems.append(f"{mutated}: exit {code}")
        elif code == 1 and {p.name: p.read_bytes() for p in out.iterdir()} != before:
            problems.append(f"{mutated}: exit 1 changed the out-dir")
        elif code == 1 and name in run_outputs and (len(err.splitlines()) != 1 or not err.startswith("error:")):
            problems.append(f"{mutated}: exit 1 with stderr {err!r}")
    # per file 30 truncations and 30 replacements, 30 per key line
    assert len(cases) == 5 * 2 * 30 + 2 * 30
    assert not problems, "\n".join(problems)


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "xbarlstm.cli", "train", "--epochs", "2",
         "--out-dir", str(tmp_path / "run")],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "run" / WEIGHTS_FILE).exists()
