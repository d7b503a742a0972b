import dataclasses
import os
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
from xbarlstm.core import Dims, LstmParams, OutputLayer
from xbarlstm.weights_io import MATRIX_NAMES, read_weights, write_weights

from _oracles import gates_from_grid, grid_from_gates, window_last_prediction

TEST_DATA = Path(__file__).resolve().parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


def child_env():
    """Environment for a child process that imports the same xbarlstm as
    this one, installed or not."""
    package_root = str(Path(xbarlstm.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


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
        assert params.dims == Dims(1, 4)
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
                                               (("--optimizer", "sgd"), "_sgd")], ids=["adam", "shuffle", "sgd"])
    def test_train_reproduces_pinned_weights(self, tmp_path, flags, suffix):
        """Each of the three parameter-update branches rewrites the files
        that `train --seed 0` plus flags wrote when they were pinned."""
        out = tmp_path / "run"
        assert run("train", "--seed", 0, *flags, "--out-dir", out) == 0
        assert (out / WEIGHTS_FILE).read_bytes() == (TEST_DATA / f"weights{suffix}.txt").read_bytes()
        assert (out / LOSS_FILE).read_bytes() == (TEST_DATA / f"loss_history{suffix}.txt").read_bytes()

    def test_missing_dataset_fails(self, tmp_path, capsys):
        code = run("train", "--dataset", tmp_path / "nope.csv", "--out-dir", tmp_path / "r")
        assert code == 1
        assert "error:" in capsys.readouterr().err


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


class TestPlotDataCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run(*train_args(out, epochs=6, seed=0)) == 0
        assert run("evaluate", "--out-dir", out) == 0
        assert run("plot-data", "--out-dir", out) == 0

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

    def test_malformed_loss_history_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / PREDICTIONS_FILE).write_text("time_index,actual,prediction_float,prediction_quantized\n0,112,nan,nan\n")
        (out / LOSS_FILE).write_text("1 0.5\n2\n")
        assert run("plot-data", "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2" in err
        assert not (out / PLOT_PREDICTIONS_FILE).exists()
        assert not (out / PLOT_LOSS_FILE).exists()


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
    use it, and neither may an evaluate at zero sigmas on one device, so
    commands that draw nothing do not pay for it."""
    eager = subprocess.run([sys.executable, "-c", "import sys, numpy; sys.exit('numpy.random' in sys.modules)"])
    if eager.returncode:
        pytest.skip("this numpy imports numpy.random when numpy itself is imported")
    weights = tmp_path / WEIGHTS_FILE
    write_weights(*zero_model(), weights)
    probe = (
        "import sys, xbarlstm.cli\n"
        "if 'numpy.random' in sys.modules: sys.exit('numpy.random was imported by the CLI')\n"
        f"code = xbarlstm.cli.main(['evaluate', '--weights', {str(weights)!r}, '--out-dir', {str(tmp_path / 'r')!r}])\n"
        "sys.exit(code or 'numpy.random' in sys.modules and 'numpy.random was imported by evaluate')\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr


MUTANTS = ["x", "1.5", "-1", "nan", "inf", "1e400", "", "99999999999999999999"]


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


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "xbarlstm.cli", "train", "--epochs", "2",
         "--out-dir", str(tmp_path / "run")],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "run" / WEIGHTS_FILE).exists()
