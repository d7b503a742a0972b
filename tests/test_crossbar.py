import os
import random
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from xbarlstm import crossbar, kernels
from xbarlstm.crossbar import (
    MC_CHUNK,
    SPACINGS,
    CrossbarConfig,
    _pcg64_states,
    crossbar_window_predictions,
    level_conductances,
    level_weights,
    monte_carlo,
    program_crossbar,
    quantize_levels,
    quantize_output_layer,
    read_program,
    reconstruct_weights,
    seed_sequence_words,
    sweep,
    write_program,
)
from xbarlstm.data import Normalizer, WindowedSeries, rmse
from xbarlstm.kernels import LstmParams, OutputLayer, crossbar_unroll

from _oracles import (
    device_predictions_loop,
    dot_loop,
    gates_from_grid,
    grid_from_gates,
    lstm_step_loops,
    nearest_level_exhaustive,
    oracle_gates,
    random_params,
    sequence_predictions_loop,
    zero_params,
)


def zero_gates(n_inputs, n_hidden):
    return np.zeros((4, n_inputs, n_hidden)), np.zeros((4, n_hidden, n_hidden)), np.zeros((4, n_hidden))


def one_window(xs):
    """xs [T, 1] as a batch of one window, for per-window forwards."""
    return WindowedSeries(np.asarray(xs)[:, 0][None], np.zeros(1), len(xs))


def step_predictions(program, out, xs):
    """The crossbar prediction after every step of xs [T, 1]: step t's is the
    last-step prediction of the window xs[: t + 1]."""
    return [crossbar_window_predictions(program, out, one_window(xs[: t + 1]))[0] for t in range(len(xs))]


def device_oracle(program, out, windows, seed):
    """The loop oracle's predictions of device ``seed`` of program."""
    cfg = program.cfg
    return device_predictions_loop(program.level_plus.tolist(), program.level_minus.tolist(),
                                   level_conductances(cfg.spacing).tolist(), cfg.level_variation_sigma,
                                   cfg.read_noise_sigma, seed, out.w_out.tolist(), out.b_out, windows.x[:, :, None])


def quantize_one(w, spacing="uniform_conductance"):
    """One weight through the quantizer: its (level_plus, level_minus) pair
    and the weight read back from that pair."""
    lp, lm, _ = quantize_levels([w], spacing)
    return (int(lp[0]), int(lm[0])), float(level_weights(lp, lm, spacing)[0])


def max_weight_step(spacing):
    """Largest gap between adjacent levels in weight units; half of it
    bounds the quantization error."""
    return np.max(np.diff(level_weights(np.arange(16), np.zeros(16, dtype=int), spacing)))



class TestLevelSet:
    """level_conductances(spacing) is the 16-level table."""

    def test_uniform_conductance_endpoints(self):
        g = level_conductances("uniform_conductance")
        assert g[0] == pytest.approx(0.5e-6, rel=1e-12)
        assert g[0] == pytest.approx(1.0 / 2000e3, rel=1e-12)
        assert g[-1] == pytest.approx(5e-6, rel=1e-12)
        assert g[-1] == pytest.approx(1.0 / 200e3, rel=1e-12)

    def test_uniform_conductance_step(self):
        steps = np.diff(level_conductances("uniform_conductance"))
        npt.assert_allclose(steps, (5e-6 - 0.5e-6) / 15, rtol=1e-12)
        npt.assert_allclose(steps, 0.3e-6, rtol=1e-12)

    def test_uniform_resistance_step(self):
        resistances = 1.0 / level_conductances("uniform_resistance")
        npt.assert_allclose(np.diff(resistances), -120e3, rtol=1e-12)
        assert resistances[0] == 2000e3
        assert resistances[-1] == pytest.approx(200e3, rel=1e-12)  # 1 / (1 / 200e3) is not exact

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    def test_invariants(self, spacing):
        g = level_conductances(spacing)
        assert g.shape == (16,)
        assert np.all(np.diff(g) > 0)
        assert (1.0 / g).min() == pytest.approx(200e3, rel=1e-12)
        assert (1.0 / g).max() == pytest.approx(2000e3, rel=1e-12)

    def test_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            level_conductances("logarithmic")


class TestMapWeightToPair:
    """quantize_levels maps each weight onto a differential level pair."""

    def test_zero(self):
        assert quantize_one(0.0) == ((0, 0), 0.0)

    def test_endpoints(self):
        pair, q = quantize_one(1.0)
        assert pair == (15, 0)
        assert q == pytest.approx(1.0, abs=1e-15)
        pair, q = quantize_one(-1.0)
        assert pair == (0, 15)
        assert q == pytest.approx(-1.0, abs=1e-15)

    def test_halfway_tie_rounds_to_higher_conductance(self):
        # 0.5 targets 2.75 uS, exactly between level 7 (2.6) and level 8 (2.9)
        pair, q = quantize_one(0.5)
        assert pair == (8, 0)
        assert q == pytest.approx((2.9e-6 - 0.5e-6) / 4.5e-6, rel=1e-12)
        assert q == pytest.approx(8 / 15, rel=1e-12)
        assert quantize_one(-0.5)[0] == (0, 8)

    def test_out_of_range_clamps_and_counts(self):
        level_plus, level_minus, n_clamped = quantize_levels([1.7, -2.0, 1.0, -1.0, 0.3], "uniform_conductance")
        assert n_clamped == 2  # the endpoints themselves are in range
        assert list(zip(level_plus[:4], level_minus[:4])) == [(15, 0), (0, 15), (15, 0), (0, 15)]

    @pytest.mark.parametrize("spacing,index_space", [("uniform_conductance", True), ("uniform_resistance", False)])
    def test_matches_exhaustive_search(self, spacing, index_space):
        # exact half-step ties under uniform conductance spacing; uniform
        # resistance midpoints are not exact in floating point, so the oracle's
        # weight-space scan and the quantizer may round them apart
        ties = (np.arange(15) + 0.5) / 15
        sweep = np.concatenate([
            np.linspace(-1, 1, 401),
            np.random.default_rng(0).uniform(-1, 1, 400),
            [0.0, -0.0, 1.0, -1.0, 1.5, -1.5],
            ties, -ties,
        ])
        # the same weights through program_crossbar, as the grid of a one-unit model
        grid = np.zeros((len(sweep) // 4 + 3, 4))
        grid.reshape(-1)[: len(sweep)] = sweep
        program = program_crossbar(LstmParams(grid), CrossbarConfig(spacing))
        assert program.n_clamped == 2
        level_plus, level_minus = program.level_plus.reshape(-1), program.level_minus.reshape(-1)
        recon = reconstruct_weights(program).grid.reshape(-1)
        for k, w in enumerate(sweep):
            want_pair, want_recon = nearest_level_exhaustive(w, level_conductances(spacing), index_space)
            pair, q = quantize_one(w, spacing)
            assert quantize_levels([w], spacing)[2] == (1 if abs(w) > 1 else 0), f"w={w}"
            assert pair == want_pair == (level_plus[k], level_minus[k]), f"w={w}"
            assert q == recon[k], f"w={w}"
            assert q == pytest.approx(want_recon, abs=1e-15)

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, spacing, bad):
        cfg = CrossbarConfig(spacing)
        with pytest.raises(ValueError, match="non-finite"):
            quantize_levels([0.5, bad], spacing)
        W, U, b = zero_gates(1, 2)
        U[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            program_crossbar(LstmParams(grid_from_gates(W, U, b)), cfg)

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    def test_quantizer_properties(self, spacing):
        half_step = max_weight_step(spacing) / 2
        sweep = np.linspace(-1, 1, 2001)
        recon = level_weights(*quantize_levels(sweep, spacing)[:2], spacing)
        assert np.max(np.abs(recon - sweep)) <= half_step + 1e-12
        assert np.all(np.diff(recon) >= 0)  # monotone
        for w, r in zip(sweep, recon):
            assert r == quantize_one(r, spacing)[1]  # idempotent
            assert np.sign(r) in (0.0, np.sign(w))  # sign preserved

    def test_uniform_conductance_half_step_value(self):
        assert max_weight_step("uniform_conductance") / 2 == pytest.approx(1 / 30, rel=1e-12)


class TestProgramCrossbar:
    def test_all_zero(self):
        program = program_crossbar(zero_params(1, 4), CrossbarConfig())
        npt.assert_array_equal(program.level_plus, 0)
        npt.assert_array_equal(program.level_minus, 0)
        assert program.n_clamped == 0

    def test_shape_for_single_input_four_unit_model(self):
        program = program_crossbar(random_params(0), CrossbarConfig())
        assert program.level_plus.shape == program.level_minus.shape == (1 + 4 + 1, 16)

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    def test_reconstruction_is_entrywise_quantization(self, spacing):
        cfg = CrossbarConfig(spacing)
        params = random_params(3)
        recon = reconstruct_weights(program_crossbar(params, cfg))
        for got, w in zip(recon.grid.reshape(-1), params.grid.reshape(-1)):
            assert got == pytest.approx(quantize_one(w, spacing)[1], abs=1e-15)

    def test_out_of_range_counted(self):
        W, U, b = zero_gates(1, 2)
        W[0, 0, 0] = 1.5
        U[1, 1, 1] = -3.0
        program = program_crossbar(LstmParams(grid_from_gates(W, U, b)), CrossbarConfig())
        assert program.n_clamped == 2
        recon_W, recon_U, _ = gates_from_grid(reconstruct_weights(program).grid)
        assert recon_W[0, 0, 0] == 1.0
        assert recon_U[1, 1, 1] == -1.0

    def test_quantization_idempotent_through_program(self):
        cfg = CrossbarConfig()
        params = random_params(4)
        once = reconstruct_weights(program_crossbar(params, cfg))
        twice = reconstruct_weights(program_crossbar(once, cfg))
        npt.assert_array_equal(once.grid, twice.grid)

    def test_level_variation_leaves_the_program_ideal(self):
        """Programming draws nothing: with level variation the program is
        the same level map and ideal grid, and only its device differs."""
        params = random_params(5)
        cfg = CrossbarConfig(level_variation_sigma=0.05, seed=9)
        program = program_crossbar(params, cfg)
        ideal = program_crossbar(params, replace(cfg, level_variation_sigma=0.0))
        npt.assert_array_equal(program.level_plus, ideal.level_plus)
        npt.assert_array_equal(program.level_minus, ideal.level_minus)
        npt.assert_array_equal(program.grid(), ideal.grid())
        npt.assert_array_equal(program.grid(), reconstruct_weights(program).grid)
        windows = WindowedSeries(np.random.default_rng(5).uniform(0, 1, (4, 2)), np.zeros(4), 2)
        out = OutputLayer(np.full(4, 0.5), 0.0)
        assert np.all(crossbar_window_predictions(program, out, windows)
                      != crossbar_window_predictions(ideal, out, windows))

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
    def test_swapping_the_seed_equals_programming_with_that_seed(self, sigma, seed):
        """The level map does not depend on the seed and the device is drawn
        from cfg.seed only when it runs, so replacing a program's seed is
        the same as programming with that seed."""
        params = random_params(44)
        cfg = CrossbarConfig("uniform_resistance", read_noise_sigma=0.01,
                             level_variation_sigma=sigma, seed=3)
        program = program_crossbar(params, cfg)
        got = replace(program, cfg=replace(program.cfg, seed=seed))
        want = program_crossbar(params, replace(cfg, seed=seed))
        assert got.cfg == want.cfg
        npt.assert_array_equal(got.level_plus, want.level_plus)
        npt.assert_array_equal(got.level_minus, want.level_minus)
        windows = WindowedSeries(np.random.default_rng(7).uniform(0, 1, (5, 2)), np.zeros(5), 2)
        out = OutputLayer(np.full(4, 0.3), 0.1)
        npt.assert_array_equal(crossbar_window_predictions(got, out, windows),
                               crossbar_window_predictions(want, out, windows))


def oracle_predictions(params, out, xs):
    """Per-step predictions of the scalar loop oracle on params."""
    return sequence_predictions_loop(*oracle_gates(params), out.w_out.tolist(), out.b_out, np.asarray(xs).tolist())


class TestCrossbarDot:
    """Column reads of the programmed grid, as the unroll returns them."""

    def test_zero_inputs_zero_output(self):
        program = program_crossbar(random_params(6), CrossbarConfig())
        # with x and h at zero, only the bias row drives the columns
        _, reads, _, _ = crossbar_unroll(program.grid(), np.zeros((1, 1, 1)))
        npt.assert_array_equal(reads[0, :, 0], program.grid()[-1].reshape(4, 4))
        program = program_crossbar(zero_params(1, 4), CrossbarConfig())
        _, reads, _, _ = crossbar_unroll(program.grid(), np.full((1, 1, 1), 0.8))
        npt.assert_array_equal(reads, 0.0)

    def test_matches_reconstructed_dot_product(self):
        cfg = CrossbarConfig()
        params = random_params(7)
        program = program_crossbar(params, cfg)
        recon_W, recon_U, recon_b = gates_from_grid(reconstruct_weights(program).grid)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (1, 2, 1))
        h, reads, _, _ = crossbar_unroll(program.grid(), X)
        # step 0 drives [x, 0, 1]; step 1 drives [x, h_0, 1]
        for t, h_prev in ((0, np.zeros(4)), (1, h[0, 0])):
            v = np.concatenate([X[0, t], h_prev, [1.0]])
            for g in range(4):
                for unit in range(4):
                    column_weights = np.concatenate([recon_W[g][:, unit], recon_U[g][:, unit], [recon_b[g][unit]]])
                    want = dot_loop(v.tolist(), column_weights.tolist())
                    assert reads[t, g, 0, unit] == pytest.approx(want, abs=1e-12)

    def test_read_noise_reproducible(self):
        cfg = CrossbarConfig(read_noise_sigma=0.02, seed=3)
        params = random_params(8)
        program = program_crossbar(params, cfg)
        out = OutputLayer(np.array([0.4, 0.1, -0.2, 0.3]), 0.0)
        windows = WindowedSeries(np.random.default_rng(1).uniform(0, 1, (5, 2)), np.zeros(5), 2)
        a = crossbar_window_predictions(program, out, windows)
        b = crossbar_window_predictions(program, out, windows)
        c = crossbar_window_predictions(program_crossbar(params, replace(cfg, seed=6)), out, windows)
        clean = crossbar_window_predictions(program_crossbar(params, replace(cfg, read_noise_sigma=0.0)), out, windows)
        npt.assert_array_equal(a, b)
        assert np.all(a != c)
        assert np.all(a != clean)

    def test_noise_mean_converges_to_clean_value(self):
        cfg = CrossbarConfig(read_noise_sigma=0.01, seed=0)
        params = random_params(9)
        program = program_crossbar(params, cfg)
        out = OutputLayer(np.array([0.0, 0.0, 1.0, 0.0]), 0.0)
        # 10,000 copies of one window, each read with its own noise draws
        windows = WindowedSeries(np.full((10_000, 1), 0.8), np.zeros(10_000), 1)
        clean = crossbar_window_predictions(program_crossbar(params, replace(cfg, read_noise_sigma=0.0)),
                                            out, windows)[0]
        samples = crossbar_window_predictions(program, out, windows)
        assert abs(clean) > 0.05
        assert samples.std() > 0
        assert abs(samples.mean() - clean) < 0.01 * abs(clean)


class TestCrossbarStep:
    def test_zero_program_matches_core_zero_case(self):
        program = program_crossbar(zero_params(1, 4), CrossbarConfig())
        h, _, acts, C = crossbar_unroll(program.grid(), np.full((1, 1, 1), 0.7))
        i, f, c_tilde, o = acts[0, :, 0]
        npt.assert_array_equal(i, 0.5)
        npt.assert_array_equal(f, 0.5)
        npt.assert_array_equal(o, 0.5)
        npt.assert_array_equal(c_tilde, 0.0)
        npt.assert_array_equal(h, 0.0)
        npt.assert_array_equal(C, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_core_step_on_reconstructed_weights(self, seed):
        cfg = CrossbarConfig()
        params = random_params(seed)
        program = program_crossbar(params, cfg)
        recon = reconstruct_weights(program)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-1, 1, (3, 1))
        h, _, acts, C = crossbar_unroll(program.grid(), xs[None])
        state = ([0.0] * 4, [0.0] * 4)
        for t in range(3):
            i, f, c_tilde, o, *state = lstm_step_loops(*oracle_gates(recon), xs[t].tolist(), *state)
            npt.assert_allclose(acts[t, :, 0].reshape(-1), i + f + c_tilde + o, rtol=0, atol=1e-9)
            npt.assert_allclose(h[t, 0], state[0], rtol=0, atol=1e-9)
            npt.assert_allclose(C[t, 0], state[1], rtol=0, atol=1e-9)


class TestCrossbarForward:
    def test_empty_window_batch(self):
        program = program_crossbar(random_params(12), CrossbarConfig(read_noise_sigma=0.01))
        out = OutputLayer(np.ones(4), 0.0)
        preds = crossbar_window_predictions(program, out, WindowedSeries(np.zeros((0, 3)), np.zeros(0), 3))
        assert preds.shape == (0,)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_float_path_on_reconstructed_weights(self, seed):
        cfg = CrossbarConfig()
        params = random_params(seed + 20)
        program = program_crossbar(params, cfg)
        recon = reconstruct_weights(program)
        rng = np.random.default_rng(seed)
        out = OutputLayer(rng.uniform(-1, 1, 4), rng.uniform(-1, 1))
        xs = rng.uniform(-1, 1, (15, 1))
        got = step_predictions(program, out, xs)
        npt.assert_allclose(got, oracle_predictions(recon, out, xs), rtol=0, atol=1e-9)

    def test_quantized_output_layer_changes_only_that_stage(self):
        cfg = CrossbarConfig()
        params = random_params(30)
        program = program_crossbar(params, cfg)
        rng = np.random.default_rng(1)
        out = OutputLayer(rng.uniform(-1, 1, 4), rng.uniform(-1, 1))
        out_q = OutputLayer(
            np.array([quantize_one(v, cfg.spacing)[1] for v in out.w_out]),
            quantize_one(out.b_out, cfg.spacing)[1],
        )
        windows = WindowedSeries(rng.uniform(-1, 1, (10, 2)), np.zeros(10), 2)
        plain = crossbar_window_predictions(program, out, windows)
        quantized = crossbar_window_predictions(program, quantize_output_layer(out, cfg.spacing)[0], windows)
        explicit = crossbar_window_predictions(program, out_q, windows)
        npt.assert_allclose(quantized, explicit, rtol=0, atol=1e-15)
        assert not np.allclose(plain, quantized, atol=1e-12)

    def test_read_noise_deterministic_per_seed(self):
        params = random_params(31)
        out = OutputLayer(np.full(4, 0.5), 0.1)
        windows = WindowedSeries(np.random.default_rng(2).uniform(-1, 1, (8, 3)), np.zeros(8), 3)
        cfg_a = CrossbarConfig(read_noise_sigma=0.05, seed=77)
        program = program_crossbar(params, cfg_a)
        one = crossbar_window_predictions(program, out, windows)
        two = crossbar_window_predictions(program, out, windows)
        other = crossbar_window_predictions(program_crossbar(params, replace(cfg_a, seed=78)), out, windows)
        npt.assert_array_equal(one, two)
        assert np.all(one != other)

    def test_noisy_forward_equals_chained_steps(self):
        params = random_params(32)
        out = OutputLayer(np.array([0.3, -0.2, 0.5, 0.1]), 0.05)
        rng = np.random.default_rng(3)
        windows = WindowedSeries(rng.uniform(-1, 1, (3, 6)), np.zeros(3), 6)
        for level_variation in (0.0, 0.04):
            cfg = CrossbarConfig(read_noise_sigma=0.03, level_variation_sigma=level_variation, seed=5)
            program = program_crossbar(params, cfg)
            preds = crossbar_window_predictions(program, out, windows)
            npt.assert_allclose(preds, device_oracle(program, out, windows, 5), rtol=0, atol=1e-12)

    def test_level_variation_shifts_predictions_deterministically(self):
        params = random_params(33)
        out = OutputLayer(np.full(4, 0.4), 0.0)
        windows = WindowedSeries(np.random.default_rng(4).uniform(-1, 1, (10, 3)), np.zeros(10), 3)
        ideal_cfg = CrossbarConfig(seed=1)
        vary_cfg = CrossbarConfig(level_variation_sigma=0.05, seed=1)
        ideal = crossbar_window_predictions(program_crossbar(params, ideal_cfg), out, windows)
        vary1 = crossbar_window_predictions(program_crossbar(params, vary_cfg), out, windows)
        vary2 = crossbar_window_predictions(program_crossbar(params, vary_cfg), out, windows)
        npt.assert_array_equal(vary1, vary2)
        assert not np.allclose(ideal, vary1, atol=1e-12)

    def test_window_batch_matches_per_window_forward(self):
        cfg = CrossbarConfig()
        params = random_params(34)
        program = program_crossbar(params, cfg)
        out = OutputLayer(np.array([0.2, 0.1, -0.3, 0.4]), -0.1)
        rng = np.random.default_rng(6)
        windows = WindowedSeries(rng.uniform(0, 1, (9, 3)), rng.uniform(0, 1, 9), 3)
        batch = crossbar_window_predictions(program, out, windows)
        recon = reconstruct_weights(program)
        for k in range(9):
            alone = crossbar_window_predictions(program, out, one_window(windows.x[k][:, None]))
            want = oracle_predictions(recon, out, windows.x[k])[-1]
            assert batch[k] == pytest.approx(want, abs=1e-12)
            assert alone[0] == pytest.approx(want, abs=1e-12)


SWEEP_SEEDS = [int(s) for s in np.random.SeedSequence(2024).generate_state(300, np.uint64)]


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("look_back", [1, 3])
@pytest.mark.parametrize("level_variation, read_noise", [(0, 0), (0.05, 0), (0, 0.01), (0.05, 0.01)])
def test_monte_carlo_rows_equal_per_device_forwards(spacing, look_back, level_variation, read_noise):
    """Row k is device seeds[k]'s one-seed forward, bit for bit, for sweeps
    shorter than a chunk, one past a chunk and with a short last chunk; the
    seeds on each side of the first chunk boundary match the loop oracle.
    Four seeds stack as many devices as there are gates, so a device axis
    paired with the gate axis would broadcast silently. A program seeded
    2024 sweeps SWEEP_SEEDS: each split's value k is 1-D rmse on row k, and
    an empty split is refused as rmse refuses it."""
    rng = np.random.default_rng(look_back)
    windows = WindowedSeries(rng.uniform(0, 1, (25, look_back)), rng.uniform(0, 1, 25), look_back)
    out = OutputLayer(rng.uniform(-1, 1, 4), 0.1)
    cfg = CrossbarConfig(spacing, read_noise, level_variation, seed=3)
    program = program_crossbar(random_params(50), cfg)
    want = np.array([monte_carlo(program, out, windows, [s])[0] for s in SWEEP_SEEDS])
    for k in range(MC_CHUNK - 2, MC_CHUNK + 2):
        npt.assert_allclose(want[k], device_oracle(program, out, windows, SWEEP_SEEDS[k]), rtol=0, atol=1e-12)
    for count in (0, 1, 4, MC_CHUNK - 1, MC_CHUNK + 1, len(SWEEP_SEEDS)):
        got = monte_carlo(program, out, windows, SWEEP_SEEDS[:count])
        assert got.shape == (count, len(windows))
        assert np.array_equal(got, want[:count])
    assert len(SWEEP_SEEDS) % MC_CHUNK != 0
    assert (len(np.unique(want, axis=0)) == 1) == (level_variation == read_noise == 0)
    norm, splits = Normalizer(104.0, 622.0), {"train": slice(0, 16), "test": slice(16, None)}
    for count in (0, 1, MC_CHUNK + 1, len(SWEEP_SEEDS)):
        got = sweep(replace(program, cfg=replace(cfg, seed=2024)), out, windows, count, splits, norm)
        for name, sl in splits.items():
            assert got[name].shape == (count,)
            assert got[name].tolist() == [rmse(row[sl], windows.y[sl], denorm=norm) for row in want[:count]]
    with pytest.raises(ValueError, match="^rmse of empty sequences is undefined$"):
        sweep(program, out, windows, 1, {**splits, "x": slice(200, None)}, norm)


def test_monte_carlo_reuses_its_chunk_arrays(monkeypatch):
    """A sweep allocates its chunk arrays once: every full chunk unrolls on
    views of the same varied-grid and gain arrays and into the one
    workspace the sweep made; only the short last chunk allocates its own
    results."""
    calls = []
    unroll = kernels.crossbar_unroll

    def recorder(grid, X, gain=None, work=None):
        calls.append((grid, gain, work))
        return unroll(grid, X, gain, work=work)

    monkeypatch.setattr(kernels, "crossbar_unroll", recorder)
    rng = np.random.default_rng(7)
    windows = WindowedSeries(rng.uniform(0, 1, (25, 1)), rng.uniform(0, 1, 25), 1)
    program = program_crossbar(random_params(50), CrossbarConfig(read_noise_sigma=0.01, level_variation_sigma=0.05))
    monte_carlo(program, OutputLayer(rng.uniform(-1, 1, 4), 0.1), windows, SWEEP_SEEDS)
    assert len(SWEEP_SEEDS) % MC_CHUNK != 0
    assert len(calls) == -(-len(SWEEP_SEEDS) // MC_CHUNK)
    (grid0, gain0, work0), *full, (_, _, tail_work) = calls
    assert isinstance(work0, kernels.Workspace) and tail_work is None
    for grid, gain, work in full:
        assert work is work0
        assert np.shares_memory(grid, grid0) and np.shares_memory(gain, gain0)


@pytest.mark.parametrize("workers, shares", [
    (1, [([(36, 8, 0), (36, 8, 1)], [MC_CHUNK] * 4 + [4] * 2)]),
    (2, [([(24, 8, 0), (24, 8, 1)], [8] * 6), ([(12, 8, 0), (12, 8, 1)], [8] * 2 + [4] * 2)]),
], ids=["1-worker", "2-workers"])
def test_sweep_derives_each_streams_seed_words_once(monkeypatch, workers, shares):
    """A sweep derives its device seeds in one call on the calling thread.
    Each share derives each stream's seed words in one call on its own
    thread, share 0 on the caller's, and the streams' PCG64 states one chunk
    at a time: 36 devices in chunks of MC_CHUNK // workers."""
    assert MC_CHUNK == 16
    monkeypatch.setattr(crossbar, "SWEEP_WORKERS", workers)
    words, states, count = {}, {}, 2 * MC_CHUNK + 4
    seed_words, pcg64_states = crossbar.seed_sequence_words, crossbar._pcg64_states

    def record(log, entry):  # each thread's records apart, as threads interleave
        log.setdefault(threading.get_ident(), []).append(entry)

    monkeypatch.setattr(crossbar, "seed_sequence_words",
                        lambda seeds, n, key=None: record(words, (len(seeds), n, key)) or seed_words(seeds, n, key))
    monkeypatch.setattr(crossbar, "_pcg64_states", lambda rows: record(states, len(rows)) or pcg64_states(rows))
    rng = np.random.default_rng(8)
    windows = WindowedSeries(rng.uniform(0, 1, (25, 1)), rng.uniform(0, 1, 25), 1)
    program = program_crossbar(random_params(50), CrossbarConfig(read_noise_sigma=0.01, level_variation_sigma=0.05))
    sweep(program, OutputLayer(rng.uniform(-1, 1, 4), 0.1), windows, count, {"all": slice(None)}, Normalizer(0.0, 1.0))
    caller = threading.get_ident()
    device_seeds, *caller_words = words.pop(caller)
    assert device_seeds == (1, 2 * count, None)
    caller_states = states.pop(caller)
    assert words.keys() == states.keys()
    assert [(caller_words, caller_states), *((words[ident], states[ident]) for ident in states)] == shares


def test_sweep_workers_are_at_most_two_and_no_more_than_the_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert 1 <= crossbar.SWEEP_WORKERS <= min(2, cpus)


@pytest.mark.parametrize("level_variation, read_noise", [(0, 0), (0.05, 0.01)])
def test_sweep_values_do_not_depend_on_the_worker_count(monkeypatch, level_variation, read_noise):
    """One worker and two give bit-identical values, and both equal rmse on
    monte_carlo's rows, for sweeps with no device, one, one either side of
    a two-worker chunk and of a full chunk, two chunks and a short one, and
    every seed of SWEEP_SEEDS."""
    rng = np.random.default_rng(9)
    windows = WindowedSeries(rng.uniform(0, 1, (25, 1)), rng.uniform(0, 1, 25), 1)
    out = OutputLayer(rng.uniform(-1, 1, 4), 0.1)
    cfg = CrossbarConfig(read_noise_sigma=read_noise, level_variation_sigma=level_variation, seed=2024)
    program = program_crossbar(random_params(53), cfg)
    want = monte_carlo(program, out, windows, SWEEP_SEEDS)
    norm, splits = Normalizer(104.0, 622.0), {"train": slice(0, 16), "test": slice(16, None)}
    half = MC_CHUNK // 2
    for count in (0, 1, half - 1, half + 1, MC_CHUNK - 1, MC_CHUNK + 1, 2 * MC_CHUNK + 5, len(SWEEP_SEEDS)):
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(crossbar, "SWEEP_WORKERS", workers)
            got.append(sweep(program, out, windows, count, splits, norm))
        for name, sl in splits.items():
            assert got[0][name].tobytes() == got[1][name].tobytes()
            assert got[1][name].tolist() == [rmse(row[sl], windows.y[sl], denorm=norm) for row in want[:count]]


def test_sweep_on_more_workers_than_cpus_with_threads_switching_often(monkeypatch):
    """Four workers, more than this host's cap, and a thread switch every
    microsecond: each share writes only its own devices, so the values are
    still those of one worker bit for bit."""
    rng = np.random.default_rng(11)
    windows = WindowedSeries(rng.uniform(0, 1, (25, 1)), rng.uniform(0, 1, 25), 1)
    out = OutputLayer(rng.uniform(-1, 1, 4), 0.1)
    program = program_crossbar(random_params(56), CrossbarConfig(read_noise_sigma=0.01, level_variation_sigma=0.05))
    args = out, windows, len(SWEEP_SEEDS), {"all": slice(None)}, Normalizer(0.0, 1.0)
    monkeypatch.setattr(crossbar, "SWEEP_WORKERS", 1)
    want = sweep(program, *args)["all"]
    monkeypatch.setattr(crossbar, "SWEEP_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sweep(program, *args)["all"]
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


def test_sweep_workers_keep_the_callers_errstate(monkeypatch):
    """A worker thread starts with numpy's default errstate; the sweep runs
    it under the caller's, so an overflow the caller ignores warns nowhere,
    which pytest's filterwarnings = error would turn into a failure."""
    monkeypatch.setattr(crossbar, "SWEEP_WORKERS", 2)
    windows = WindowedSeries(np.full((5, 1), 0.5), np.zeros(5), 1)
    program = program_crossbar(random_params(54), CrossbarConfig(level_variation_sigma=1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        got = sweep(program, OutputLayer(np.ones(4), 0.0), windows, 2 * MC_CHUNK + 5, {"all": slice(None)},
                    Normalizer(0.0, 1.0))
    assert not np.all(np.isfinite(got["all"]))


@pytest.mark.parametrize("failing", [0, 1], ids=["caller-share", "worker-share"])
def test_a_failing_share_fails_the_sweep_once_every_share_has_stopped(monkeypatch, failing):
    """The failing share's own exception reaches the caller, after the
    other share has run to its end and its thread has stopped."""
    monkeypatch.setattr(crossbar, "SWEEP_WORKERS", 2)
    error, finished, device_chunks = RuntimeError("share failed"), [], crossbar._device_chunks

    def chunks(program, out, windows, seeds, chunk=MC_CHUNK):
        share = 0 if threading.current_thread() is threading.main_thread() else 1
        if share == failing:
            raise error
        yield from device_chunks(program, out, windows, seeds, chunk)
        finished.append(share)

    monkeypatch.setattr(crossbar, "_device_chunks", chunks)
    rng = np.random.default_rng(10)
    windows = WindowedSeries(rng.uniform(0, 1, (25, 1)), rng.uniform(0, 1, 25), 1)
    program = program_crossbar(random_params(55), CrossbarConfig(read_noise_sigma=0.01))
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        sweep(program, OutputLayer(np.ones(4), 0.0), windows, 4 * MC_CHUNK, {"all": slice(None)}, Normalizer(0.0, 1.0))
    assert info.value is error
    assert finished == [1 - failing]
    assert threading.active_count() == threads


def test_monte_carlo_rejects_a_negative_seed_as_the_config_does():
    program = program_crossbar(random_params(51), CrossbarConfig(read_noise_sigma=0.01))
    windows = WindowedSeries(np.zeros((3, 1)), np.zeros(3), 1)
    out = OutputLayer(np.ones(4), 0.0)
    for call in (lambda: CrossbarConfig(seed=-1), lambda: monte_carlo(program, out, windows, [3, -1])):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            call()


def test_seeds_are_checked_where_a_caller_hands_them_in(monkeypatch):
    """monte_carlo checks every seed its caller gives, crossbar_window_predictions
    through it; the chunk loop checks none, so sweep's derived seeds go unchecked."""
    checked = []
    monkeypatch.setattr(crossbar, "_check_seed", checked.append)
    program = program_crossbar(random_params(51), CrossbarConfig(read_noise_sigma=0.01, seed=9))
    windows = WindowedSeries(np.zeros((3, 1)), np.zeros(3), 1)
    out = OutputLayer(np.ones(4), 0.0)
    monte_carlo(program, out, windows, [3, 5, 7])
    crossbar_window_predictions(program, out, windows)
    assert checked == [3, 5, 7, 9]
    sweep(program, out, windows, 2 * MC_CHUNK + 1, {"all": slice(None)}, Normalizer(0.0, 1.0))
    assert checked == [3, 5, 7, 9]


def test_monte_carlo_rejects_a_seed_beyond_128_bits_as_the_config_does():
    program = program_crossbar(random_params(51), CrossbarConfig(read_noise_sigma=0.01))
    windows = WindowedSeries(np.zeros((3, 1)), np.zeros(3), 1)
    out = OutputLayer(np.ones(4), 0.0)
    for call in (lambda: CrossbarConfig(seed=2**128), lambda: monte_carlo(program, out, windows, [3, 2**128])):
        with pytest.raises(ValueError, match=rf"seed must be < 2\*\*128, got {2**128}"):
            call()


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1, 2**96 + 3, 2**128 - 1]


@pytest.mark.parametrize("key", [0, 1])
def test_pcg64_states_equal_numpy_seeding(key):
    """The (state, inc) derived chunk by chunk from one stream's seed words
    of every seed is what numpy itself builds:
    PCG64(SeedSequence(s).spawn(2)[key])."""
    rng = random.Random(key)
    seeds = EDGE_SEEDS + [rng.randrange(2**bits) for bits in (8, 32, 33, 64, 65, 96, 97, 128) for _ in range(40)]
    want = []
    for seed in seeds:
        state = np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[key]).state["state"]
        want.append((state["state"], state["inc"]))
    words = seed_sequence_words(seeds, 8, key).astype("<u4").view("<u8")
    assert words.shape == (len(seeds), 4)
    chunks = [_pcg64_states(words[start : start + MC_CHUNK]) for start in range(0, len(seeds), MC_CHUNK)]
    assert [state for chunk in chunks for state in chunk] == want
    assert _pcg64_states(words[:0]) == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("base", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**128 - 1, 2**96 + 0xB1F5EED])
@pytest.mark.parametrize("count", [1, 2, 7, 17, 256, 2000])
def test_sweep_device_seeds_equal_numpy_seed_sequence(monkeypatch, base, count, workers):
    """The sweep's device seeds are SeedSequence(base).generate_state(count,
    uint64) of its program's seed, derived without numpy.random. They run in
    min(workers, MC_CHUNK-device chunks) contiguous shares, in chunks of
    MC_CHUNK // that many devices; the shares are equal whole numbers of
    chunks but the last, which is not longer."""
    seen = []

    def chunks(program, out, windows, seeds, chunk=MC_CHUNK):
        seen.append((seeds, chunk))
        for start in range(0, len(seeds), chunk):
            yield np.zeros((len(seeds[start : start + chunk]), len(windows)))

    monkeypatch.setattr(crossbar, "SWEEP_WORKERS", workers)
    monkeypatch.setattr(crossbar, "_device_chunks", chunks)
    program = program_crossbar(random_params(52), CrossbarConfig(seed=base))
    windows = WindowedSeries(np.zeros((3, 1)), np.zeros(3), 1)
    sweep(program, OutputLayer(np.ones(4), 0.0), windows, count, {"all": slice(None)}, Normalizer(0.0, 1.0))
    want = [int(s) for s in np.random.SeedSequence(base).generate_state(count, np.uint64)]
    # threads record in any order: put the shares in seed order
    shares = sorted(seen, key=lambda call: want.index(call[0][0]) if call[0] else count)
    assert [s for seeds, _ in shares for s in seeds] == want
    n_shares = min(workers, -(-count // MC_CHUNK))
    chunk = MC_CHUNK // n_shares
    assert [size for _, size in shares] == [chunk] * n_shares
    sizes = [len(seeds) for seeds, _ in shares]
    assert all(n == sizes[0] and n % chunk == 0 for n in sizes[:-1]) and 0 < sizes[-1] <= sizes[0]


def _set_header(key, value):
    """A program-file mutation: header field ``key`` holds ``value``."""
    return lambda lines: [f"{key} {value}" if ln.split(" ", 1)[0] == key else ln for ln in lines]


class TestProgramFile:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = CrossbarConfig(seed=42)
        program = program_crossbar(random_params(40), cfg)
        p1 = tmp_path / "prog.txt"
        p2 = tmp_path / "prog2.txt"
        write_program(program, p1)
        restored = read_program(p1)
        write_program(restored, p2)
        assert p1.read_bytes() == p2.read_bytes()
        npt.assert_array_equal(program.level_plus, restored.level_plus)
        npt.assert_array_equal(program.level_minus, restored.level_minus)

    def test_round_trip_with_perturbation(self, tmp_path):
        cfg = CrossbarConfig(level_variation_sigma=0.04, read_noise_sigma=0.01, seed=13)
        program = program_crossbar(random_params(41), cfg)
        path = tmp_path / "prog.txt"
        write_program(program, path)
        restored = read_program(path)
        assert restored.cfg.read_noise_sigma == cfg.read_noise_sigma
        assert restored.cfg.level_variation_sigma == cfg.level_variation_sigma
        assert restored.cfg.seed == cfg.seed
        # the same devices: the file's level map, sigmas and seed rebuild them
        windows = WindowedSeries(np.random.default_rng(13).uniform(0, 1, (6, 2)), np.zeros(6), 2)
        out = OutputLayer(np.full(4, 0.25), 0.0)
        seeds = [cfg.seed, 0, 2**63 + 11]
        npt.assert_array_equal(monte_carlo(restored, out, windows, seeds), monte_carlo(program, out, windows, seeds))

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    def test_round_trip_both_spacings(self, tmp_path, spacing):
        cfg = CrossbarConfig(spacing)
        program = program_crossbar(random_params(42), cfg)
        path = tmp_path / "prog.txt"
        write_program(program, path)
        restored = read_program(path)
        assert restored.cfg.spacing == spacing
        npt.assert_array_equal(program.level_plus, restored.level_plus)

    def test_v1_file_round_trips_byte_identically(self, tmp_path):
        # written by the v1 writer: uniform resistance, both sigmas, seed 7, one clamped weight
        original = Path(__file__).parent / "data" / "program_v1.txt"
        path = tmp_path / "again.txt"
        write_program(read_program(original), path)
        assert path.read_bytes() == original.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a program\n")
        with pytest.raises(ValueError, match="not a crossbar program"):
            read_program(path)

    @pytest.mark.parametrize("mutate, match", [
        (lambda lines: [ln for ln in lines if not ln.startswith("n_clamped")], "header"),
        (lambda lines: [ln for ln in lines if not ln.startswith("levels_siemens")], "header"),
        (lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:], "header"),
        (lambda lines: lines[:-1] + [lines[-1] + " 0"], "expected 32 column lines of 6 level indices each"),
        (_set_header("seed", "1.5"), "seed is not an integer: '1.5'"),
        (_set_header("n_hidden", "four"), "n_hidden is not an integer: 'four'"),
        (_set_header("read_noise_sigma", "x"), "read_noise_sigma is not numeric: 'x'"),
        (_set_header("level_variation_sigma", "1e400"), "level_variation_sigma must be finite"),
        (_set_header("spacing", "x"), "unknown spacing 'x'"),
        (_set_header("levels_siemens", "x"), "levels_siemens is not numeric: 'x'"),
        (_set_header("levels_siemens", "1.5"), "level table does not match"),
        (_set_header("n_clamped", "-1"), r"n_clamped must be in \[0, 96\]"),
        (_set_header("n_clamped", "97"), r"n_clamped must be in \[0, 96\], got 97"),
        (_set_header("seed", str(2**128)), rf"seed must be < 2\*\*128, got {2**128}"),
        (lambda lines: lines[:-1] + ["99999999999999999999 " + lines[-1].split(" ", 1)[1]], "level index"),
        (lambda lines: lines[:-1] + ["x " + lines[-1].split(" ", 1)[1]], "level index"),
        (lambda lines: lines[:-1] + ["16 " + lines[-1].split(" ", 1)[1]], "level index out of range$"),
        (_set_header("n_inputs", "0"), "n_inputs must be >= 1, got 0"),
        (_set_header("n_hidden", "0"), "n_hidden must be >= 1, got 0"),
        (_set_header("rows", "7"), "header dimensions are inconsistent"),
    ], ids=["no-n_clamped", "no-levels_siemens", "swapped-header", "ragged-column", "fractional-seed",
            "word-n_hidden", "word-sigma", "overflowing-sigma", "unknown-spacing", "word-levels", "short-levels",
            "negative-n_clamped", "n_clamped-97", "huge-seed", "overflowing-level", "word-level", "level-16",
            "zero-n_inputs", "zero-n_hidden", "rows-off-by-one"])
    def test_rejects_malformed(self, tmp_path, mutate, match):
        path = tmp_path / "bad.txt"
        write_program(program_crossbar(random_params(45), CrossbarConfig(level_variation_sigma=0.02)), path)
        path.write_text("\n".join(mutate(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=match) as excinfo:
            read_program(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_rejects_bad_level_index(self, tmp_path):
        cfg = CrossbarConfig()
        program = program_crossbar(random_params(43), cfg)
        path = tmp_path / "prog.txt"
        write_program(program, path)
        text = path.read_text().splitlines()
        text[-1] = text[-1].replace(text[-1].split()[0], "99", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="out of range"):
            read_program(path)

    def test_values_at_their_upper_bounds_load(self, tmp_path):
        """15, the last level of the table, is a valid index, and every one
        of the 6 x 16 weights may have been clamped; 16 and 97 are among the
        malformed inputs above."""
        path = tmp_path / "prog.txt"
        write_program(program_crossbar(random_params(44), CrossbarConfig()), path)
        text = _set_header("n_clamped", "96")(path.read_text().splitlines())
        text[-1] = " ".join(["15"] + text[-1].split()[1:])  # row 0 of the last minus column
        path.write_text("\n".join(text) + "\n")
        program = read_program(path)
        assert program.level_minus[0, -1] == 15 and program.n_clamped == 96
