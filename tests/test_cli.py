import os
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
    main,
    parse_config_file,
)
from xbarlstm.core import Dims, LstmParams, OutputLayer
from xbarlstm.weights_io import read_weights, write_weights


def run(*argv):
    return main([str(a) for a in argv])


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
        assert np.all(np.abs(params.W) <= 1) and np.all(np.abs(params.U) <= 1)

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

    def test_missing_dataset_fails(self, tmp_path, capsys):
        code = run("train", "--dataset", tmp_path / "nope.csv", "--out-dir", tmp_path / "r")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestQuantizeCommand:
    def test_zero_weights_zero_program(self, tmp_path, capsys):
        wfile = tmp_path / "zero.txt"
        write_weights(LstmParams.zeros(Dims(1, 4)), OutputLayer.zeros(Dims(1, 4)), wfile)
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
        params = LstmParams.zeros(Dims(1, 4))
        params.W[0, 0, 0] = 2.5
        wfile = tmp_path / "hot.txt"
        write_weights(params, OutputLayer.zeros(Dims(1, 4)), wfile)
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
    write_weights(LstmParams.zeros(Dims(1, 4)), OutputLayer.zeros(Dims(1, 4)), wfile)
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

    def test_zero_sigma_quantized_path_equals_float_path_on_reconstructed(self, trained, tmp_path):
        from xbarlstm.crossbar import CrossbarConfig, program_crossbar, reconstruct_weights
        from xbarlstm.data import denormalize, fit_normalizer, load_series, make_windows, normalize
        from xbarlstm.training import batch_predictions

        out = tmp_path / "eq"
        assert run("evaluate", "--weights", trained / WEIGHTS_FILE, "--out-dir", out) == 0
        rows = (out / PREDICTIONS_FILE).read_text().splitlines()[2:]  # first point has no prediction
        quant_column = np.array([float(r.split(",")[3]) for r in rows])

        params, out_layer = read_weights(trained / WEIGHTS_FILE)
        cfg = CrossbarConfig()
        recon = reconstruct_weights(program_crossbar(params, cfg), cfg.levels)
        series = load_series(BUNDLED_DATASET)
        norm = fit_normalizer(series)
        windows = make_windows(normalize(series, norm), 1)
        want = denormalize(batch_predictions(recon, out_layer, windows), norm)
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

    def test_n_inputs_mismatch_rejected(self, tmp_path, capsys):
        wfile = tmp_path / "two_inputs.txt"
        write_weights(LstmParams.zeros(Dims(2, 4)), OutputLayer.zeros(Dims(2, 4)), wfile)
        out = tmp_path / "r"
        assert run("evaluate", "--weights", wfile, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "n_inputs=2" in err and "1 feature" in err
        assert not (out / EVAL_REPORT_FILE).exists()

    def test_dims_mismatch_program_rejected(self, trained, tmp_path, capsys):
        big = tmp_path / "big.txt"
        rng = np.random.default_rng(0)
        params = LstmParams(
            rng.uniform(-1, 1, (4, 1, 6)), rng.uniform(-1, 1, (4, 6, 6)), rng.uniform(-1, 1, (4, 6))
        )
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


def test_console_entry_point(tmp_path):
    # the child imports the same xbarlstm as this process, installed or not
    package_root = str(Path(xbarlstm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "xbarlstm.cli", "train", "--epochs", "2",
         "--out-dir", str(tmp_path / "run")],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "run" / WEIGHTS_FILE).exists()
