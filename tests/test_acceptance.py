"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from xbarlstm.cli import main as cli_main
from xbarlstm.crossbar import (
    CrossbarConfig,
    crossbar_window_predictions,
    level_weights,
    program_crossbar,
    quantize_levels,
    read_program,
    reconstruct_weights,
    write_program,
)
from xbarlstm.data import (
    BUNDLED_DATASET,
    WindowedSeries,
    fit_normalizer,
    load_series,
    make_windows,
    normalize,
    rmse,
    split,
)
from xbarlstm.training import TrainConfig, batch_predictions, train
from xbarlstm.weights_io import read_weights, write_weights

from _oracles import finite_difference_check, gates_from_grid, random_model, sequence_predictions_loop

EXPERIMENT_SEEDS = (0, 1, 2, 3, 4)


def report(number, ok, detail, elapsed):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.2f}s)"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def experiment_runs():
    """The forecasting experiment at 100 epochs for five seeds, float and quantized."""
    series = load_series(BUNDLED_DATASET)
    norm = fit_normalizer(series)
    windows = make_windows(normalize(series, norm), look_back=1)
    train_part, test_part = split(0.67, windows)
    xbar_cfg = CrossbarConfig()

    runs = []
    t0 = time.perf_counter()
    for seed in EXPERIMENT_SEEDS:
        params, out, history = train(train_part, TrainConfig(epochs=100, seed=seed))
        recon = reconstruct_weights(program_crossbar(params, xbar_cfg))
        run = {"seed": seed, "history": history}
        for name, part in (("train", train_part), ("test", test_part)):
            run[f"float_{name}"] = rmse(batch_predictions(params, out, part), part.y, denorm=norm)
            run[f"quant_{name}"] = rmse(batch_predictions(recon, out, part), part.y, denorm=norm)
        runs.append(run)
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240001)
    worst = 0.0
    for _ in range(20):
        params, out = random_model(rng)
        look_back = int(rng.integers(1, 4))  # sequence length <= 3
        n_samples = int(rng.integers(1, 5))
        batch = WindowedSeries(
            rng.uniform(0, 1, (n_samples, look_back)), rng.uniform(0, 1, n_samples), look_back
        )
        check = finite_difference_check(params, out, batch, step=1e-5, tolerance=1e-5)
        worst = max(worst, max(check.group_errors.values()))
        if not check.passed:
            break
    elapsed = time.perf_counter() - t0
    ok = check.passed and elapsed < 10.0
    report(1, ok, f"BPTT vs central differences on 20 random models, worst rel err {worst:.2e} < 1e-5", elapsed)


def test_criterion_2_crossbar_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240002)
    worst = 0.0
    for k in range(100):
        spacing = "uniform_conductance" if k % 2 == 0 else "uniform_resistance"
        cfg = CrossbarConfig(spacing)
        params, out = random_model(rng)
        program = program_crossbar(params, cfg)
        recon = reconstruct_weights(program)
        xs = rng.uniform(-1, 1, (int(rng.integers(1, 21)), 1))
        # step t's prediction is the last-step one of the window xs[: t + 1]
        got = np.array([
            crossbar_window_predictions(program, out, WindowedSeries(xs[: t + 1, 0][None], np.zeros(1), t + 1))[0]
            for t in range(len(xs))
        ])
        W, U, b = (a.tolist() for a in gates_from_grid(recon.grid))
        want = sequence_predictions_loop(W, U, b, out.w_out.tolist(), out.b_out, xs.tolist())
        worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(2, ok, f"crossbar vs scalar float oracle on 100 random pairs, max |delta| {worst:.2e} <= 1e-9", elapsed)


def test_criterion_3_quantizer_bound():
    t0 = time.perf_counter()
    sweep = np.linspace(-1.0, 1.0, 2001)  # 1e-3 resolution
    details = []
    ok = True
    for spacing in ("uniform_conductance", "uniform_resistance"):
        recon = level_weights(*quantize_levels(sweep, spacing)[:2], spacing)
        max_err = float(np.max(np.abs(recon - sweep)))
        bound = np.max(np.diff(level_weights(np.arange(16), np.zeros(16, dtype=int), spacing))) / 2 + 1e-12
        if spacing == "uniform_conductance":
            bound = 1 / 30 + 1e-12
        monotone = bool(np.all(np.diff(recon) >= 0))
        idempotent = np.array_equal(level_weights(*quantize_levels(recon, spacing)[:2], spacing), recon)
        ok = ok and max_err <= bound and monotone and idempotent
        details.append(f"{spacing}: max err {max_err:.5f} <= {bound:.5f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(3, ok, "quantizer half-step bound, monotone, idempotent; " + "; ".join(details), elapsed)


def test_criterion_4_experiment_reproduction(experiment_runs):
    runs = experiment_runs["runs"]
    elapsed = experiment_runs["elapsed"]
    med_train = float(np.median([r["float_train"] for r in runs]))
    med_test = float(np.median([r["float_test"] for r in runs]))
    ok = 15.0 <= med_train <= 40.0 and 35.0 <= med_test <= 70.0 and elapsed < 120.0
    report(
        4, ok,
        f"median over {len(runs)} seeds: train RMSE {med_train:.2f} in [15, 40], "
        f"test RMSE {med_test:.2f} in [35, 70] passengers",
        elapsed,
    )


def test_criterion_5_quantization_impact(experiment_runs):
    t0 = time.perf_counter()
    runs = experiment_runs["runs"]
    ok = True
    directions = []
    for r in runs:
        for part in ("train", "test"):
            delta = r[f"quant_{part}"] - r[f"float_{part}"]
            ok = ok and abs(delta) <= 15.0
            directions.append(f"seed {r['seed']} {part} {delta:+.2f}")
    elapsed = time.perf_counter() - t0
    report(5, ok, "per-seed |quantized - float| RMSE <= 15 passengers; deltas: " + ", ".join(directions), elapsed)


def test_criterion_6_command_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True
    compared = []
    for rep in ("a", "b"):
        base = tmp_path / rep
        args = ["--out-dir", str(base), "--epochs", "12", "--seed", "5"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["train", *args]) == 0
            assert cli_main(["quantize", *args, "--level-variation", "0.03"]) == 0
            assert cli_main(["evaluate", *args, "--read-noise", "0.02", "--noise-seeds", "3"]) == 0
            assert cli_main(["plot-data", *args]) == 0
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        identical = (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        ok = ok and identical
        compared.append(name)
    elapsed = time.perf_counter() - t0
    report(6, ok, f"byte-identical rerun of every command ({len(compared)} files, noise enabled)", elapsed)


def test_criterion_7_format_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240007)
    ok = True
    for k in range(50):
        n_hidden = int(rng.integers(2, 7))
        params, out = random_model(rng, n_hidden=n_hidden)
        w1, w2 = tmp_path / f"w{k}.txt", tmp_path / f"w{k}b.txt"
        write_weights(params, out, w1)
        write_weights(*read_weights(w1), w2)
        ok = ok and w1.read_bytes() == w2.read_bytes()

        spacing = "uniform_conductance" if k % 2 == 0 else "uniform_resistance"
        sigma = 0.0 if k % 3 == 0 else 0.02
        cfg = CrossbarConfig(spacing, level_variation_sigma=sigma, seed=k)
        p1, p2 = tmp_path / f"p{k}.txt", tmp_path / f"p{k}b.txt"
        write_program(program_crossbar(params, cfg), p1)
        write_program(read_program(p1), p2)
        ok = ok and p1.read_bytes() == p2.read_bytes()
    elapsed = time.perf_counter() - t0
    report(7, ok, "weight and program files export -> import -> export byte-identical on 50 random models", elapsed)
