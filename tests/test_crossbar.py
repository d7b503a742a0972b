import warnings

import numpy as np
import numpy.testing as npt
import pytest

from xbarlstm.core import Dims, LstmParams, LstmState, OutputLayer, forward_sequence, lstm_step
from xbarlstm.crossbar import (
    CrossbarConfig,
    LevelSet,
    build_level_set,
    crossbar_dot,
    crossbar_forward,
    crossbar_lstm_step,
    crossbar_window_predictions,
    map_weight_to_pair,
    program_crossbar,
    quantize_weight,
    read_program,
    reconstruct_weights,
    write_program,
)
from xbarlstm.data import WindowedSeries

from _oracles import dot_loop, nearest_level_exhaustive


def random_params(seed, n_inputs=1, n_hidden=4):
    rng = np.random.default_rng(seed)
    return LstmParams(
        rng.uniform(-1, 1, (4, n_inputs, n_hidden)),
        rng.uniform(-1, 1, (4, n_hidden, n_hidden)),
        rng.uniform(-1, 1, (4, n_hidden)),
    )


class TestLevelSet:
    def test_uniform_conductance_endpoints(self):
        levels = build_level_set("uniform_conductance")
        assert levels.g_min == pytest.approx(0.5e-6, rel=1e-12)
        assert levels.g_min == pytest.approx(1.0 / 2000e3, rel=1e-12)
        assert levels.g_max == pytest.approx(5e-6, rel=1e-12)
        assert levels.g_max == pytest.approx(1.0 / 200e3, rel=1e-12)

    def test_uniform_conductance_step(self):
        levels = build_level_set("uniform_conductance")
        steps = np.diff(levels.conductances)
        npt.assert_allclose(steps, (5e-6 - 0.5e-6) / 15, rtol=1e-12)
        npt.assert_allclose(steps, 0.3e-6, rtol=1e-12)

    def test_uniform_resistance_step(self):
        levels = build_level_set("uniform_resistance")
        steps = np.diff(levels.resistances)
        npt.assert_allclose(steps, -120e3, rtol=1e-12)
        assert levels.resistances[0] == 2000e3
        assert levels.resistances[-1] == 200e3

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    def test_invariants(self, spacing):
        levels = build_level_set(spacing)
        assert len(levels.conductances) == 16
        assert np.all(np.diff(levels.conductances) > 0)
        npt.assert_allclose(levels.conductances * levels.resistances, 1.0, rtol=1e-12)
        assert levels.resistances.min() == pytest.approx(200e3, rel=1e-12)
        assert levels.resistances.max() == pytest.approx(2000e3, rel=1e-12)

    def test_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            build_level_set("logarithmic")

    def test_level_count_enforced(self):
        with pytest.raises(ValueError, match="16"):
            LevelSet(np.arange(1, 9) * 1e5, 1.0 / (np.arange(1, 9) * 1e5), "uniform_conductance")


class TestMapWeightToPair:
    def test_zero(self):
        levels = build_level_set()
        assert map_weight_to_pair(0.0, levels) == (0, 0)
        assert quantize_weight(0.0, levels) == 0.0

    def test_endpoints(self):
        levels = build_level_set()
        assert map_weight_to_pair(1.0, levels) == (15, 0)
        assert quantize_weight(1.0, levels) == pytest.approx(1.0, abs=1e-15)
        assert map_weight_to_pair(-1.0, levels) == (0, 15)
        assert quantize_weight(-1.0, levels) == pytest.approx(-1.0, abs=1e-15)

    def test_halfway_tie_rounds_to_higher_conductance(self):
        levels = build_level_set("uniform_conductance")
        # 0.5 targets 2.75 uS, exactly between level 7 (2.6) and level 8 (2.9)
        assert map_weight_to_pair(0.5, levels) == (8, 0)
        assert quantize_weight(0.5, levels) == pytest.approx((2.9e-6 - 0.5e-6) / 4.5e-6, rel=1e-12)
        assert quantize_weight(0.5, levels) == pytest.approx(8 / 15, rel=1e-12)
        assert map_weight_to_pair(-0.5, levels) == (0, 8)

    def test_out_of_range_clamps_with_warning(self):
        levels = build_level_set()
        with pytest.warns(UserWarning, match="clamped"):
            assert map_weight_to_pair(1.7, levels) == (15, 0)
        with pytest.warns(UserWarning, match="clamped"):
            assert map_weight_to_pair(-2.0, levels) == (0, 15)

    @pytest.mark.parametrize("spacing,index_space", [("uniform_conductance", True), ("uniform_resistance", False)])
    def test_matches_exhaustive_search(self, spacing, index_space):
        levels = build_level_set(spacing)
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
        program = program_crossbar(LstmParams.from_grid(grid), CrossbarConfig(levels=levels))
        assert program.n_clamped == 2
        level_plus, level_minus = program.level_plus.reshape(-1), program.level_minus.reshape(-1)
        recon = reconstruct_weights(program, levels).grid().reshape(-1)
        for k, w in enumerate(sweep):
            want_pair, want_recon = nearest_level_exhaustive(w, levels.conductances, index_space)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pair = map_weight_to_pair(w, levels)
                q = quantize_weight(w, levels)
            assert len(caught) == (2 if abs(w) > 1 else 0), f"w={w}"
            assert pair == want_pair == (level_plus[k], level_minus[k]), f"w={w}"
            assert q == recon[k], f"w={w}"
            assert q == pytest.approx(want_recon, abs=1e-15)

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, spacing, bad):
        cfg = CrossbarConfig(levels=build_level_set(spacing))
        with pytest.raises(ValueError, match="non-finite"):
            map_weight_to_pair(bad, cfg.levels)
        with pytest.raises(ValueError, match="non-finite"):
            quantize_weight(bad, cfg.levels)
        params = LstmParams.zeros(Dims(1, 2))
        params.U[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            program_crossbar(params, cfg)

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    def test_quantizer_properties(self, spacing):
        levels = build_level_set(spacing)
        half_step = levels.max_weight_step / 2
        sweep = np.linspace(-1, 1, 2001)
        recon = np.array([quantize_weight(w, levels) for w in sweep])
        assert np.max(np.abs(recon - sweep)) <= half_step + 1e-12
        assert np.all(np.diff(recon) >= 0)  # monotone
        for w, r in zip(sweep, recon):
            assert r == quantize_weight(r, levels)  # idempotent
            assert np.sign(r) in (0.0, np.sign(w))  # sign preserved

    def test_uniform_conductance_half_step_value(self):
        levels = build_level_set("uniform_conductance")
        assert levels.max_weight_step / 2 == pytest.approx(1 / 30, rel=1e-12)


class TestProgramCrossbar:
    def test_all_zero(self):
        program = program_crossbar(LstmParams.zeros(Dims(1, 4)), CrossbarConfig())
        npt.assert_array_equal(program.level_plus, 0)
        npt.assert_array_equal(program.level_minus, 0)
        assert program.n_clamped == 0

    def test_shape_for_single_input_four_unit_model(self):
        program = program_crossbar(random_params(0), CrossbarConfig())
        assert program.n_rows == 1 + 4 + 1
        assert program.n_columns == 16
        assert program.level_plus.shape == (6, 16)

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    def test_reconstruction_is_entrywise_quantization(self, spacing):
        cfg = CrossbarConfig(levels=build_level_set(spacing))
        params = random_params(3)
        recon = reconstruct_weights(program_crossbar(params, cfg), cfg.levels)
        for arr, ref in ((recon.W, params.W), (recon.U, params.U), (recon.b, params.b)):
            flat, rflat = arr.reshape(-1), ref.reshape(-1)
            for got, w in zip(flat, rflat):
                assert got == pytest.approx(quantize_weight(w, cfg.levels), abs=1e-15)

    def test_out_of_range_counted(self):
        params = LstmParams.zeros(Dims(1, 2))
        params.W[0, 0, 0] = 1.5
        params.U[1, 1, 1] = -3.0
        program = program_crossbar(params, CrossbarConfig())
        assert program.n_clamped == 2
        recon = reconstruct_weights(program, program.cfg.levels)
        assert recon.W[0, 0, 0] == 1.0
        assert recon.U[1, 1, 1] == -1.0

    def test_quantization_idempotent_through_program(self):
        cfg = CrossbarConfig()
        params = random_params(4)
        once = reconstruct_weights(program_crossbar(params, cfg), cfg.levels)
        twice = reconstruct_weights(program_crossbar(once, cfg), cfg.levels)
        npt.assert_array_equal(once.W, twice.W)
        npt.assert_array_equal(once.U, twice.U)
        npt.assert_array_equal(once.b, twice.b)

    def test_level_variation_stores_perturbed_conductances(self):
        cfg = CrossbarConfig(level_variation_sigma=0.05, seed=9)
        program = program_crossbar(random_params(5), cfg)
        assert program.g_plus is not None
        ideal_p, ideal_m = cfg.levels.conductances[program.level_plus], cfg.levels.conductances[program.level_minus]
        assert not np.array_equal(program.g_plus, ideal_p)
        # same seed -> same device state
        again = program_crossbar(random_params(5), cfg)
        npt.assert_array_equal(program.g_plus, again.g_plus)
        npt.assert_array_equal(program.g_minus, again.g_minus)


class TestCrossbarDot:
    def test_zero_inputs_zero_output(self):
        program = program_crossbar(random_params(6), CrossbarConfig())
        for gate in "ifco":
            for unit in range(4):
                assert crossbar_dot(program, np.zeros(6), gate, unit) == 0.0

    def test_matches_reconstructed_dot_product(self):
        cfg = CrossbarConfig()
        params = random_params(7)
        program = program_crossbar(params, cfg)
        recon = reconstruct_weights(program, cfg.levels)
        rng = np.random.default_rng(0)
        v = np.concatenate([rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 4), [1.0]])
        for g, gate in enumerate("ifco"):
            for unit in range(4):
                column_weights = np.concatenate([recon.W[g][:, unit], recon.U[g][:, unit], [recon.b[g][unit]]])
                want = dot_loop(v.tolist(), column_weights.tolist())
                assert crossbar_dot(program, v, gate, unit) == pytest.approx(want, abs=1e-12)

    def test_read_noise_reproducible(self):
        cfg = CrossbarConfig(read_noise_sigma=0.02, seed=3)
        program = program_crossbar(random_params(8), cfg)
        v = np.array([0.4, 0.1, -0.2, 0.3, 0.0, 1.0])
        a = crossbar_dot(program, v, "c", 1, rng=np.random.default_rng(5))
        b = crossbar_dot(program, v, "c", 1, rng=np.random.default_rng(5))
        c = crossbar_dot(program, v, "c", 1, rng=np.random.default_rng(6))
        clean = crossbar_dot(program, v, "c", 1)
        assert a == b
        assert a != c
        assert a != clean

    def test_noise_mean_converges_to_clean_value(self):
        cfg = CrossbarConfig(read_noise_sigma=0.01, seed=0)
        program = program_crossbar(random_params(9), cfg)
        v = np.array([0.8, 0.2, -0.4, 0.6, -0.1, 1.0])
        clean = crossbar_dot(program, v, "o", 2)
        assert abs(clean) > 0.05
        samples = np.array([
            crossbar_dot(program, v, "o", 2, rng=np.random.default_rng(seed))
            for seed in range(10_000)
        ])
        assert abs(samples.mean() - clean) < 0.01 * abs(clean)

    def test_bad_gate_and_unit(self):
        program = program_crossbar(random_params(10), CrossbarConfig())
        v = np.zeros(6)
        with pytest.raises(ValueError, match="gate"):
            crossbar_dot(program, v, "z", 0)
        with pytest.raises(ValueError, match="unit"):
            crossbar_dot(program, v, "i", 4)
        with pytest.raises(ValueError, match="input_voltages"):
            crossbar_dot(program, np.zeros(5), "i", 0)


class TestCrossbarStep:
    def test_zero_program_matches_core_zero_case(self):
        dims = Dims(1, 4)
        cfg = CrossbarConfig()
        program = program_crossbar(LstmParams.zeros(dims), cfg)
        gates, state, trace = crossbar_lstm_step(program, [0.7], LstmState.zeros(dims), cfg)
        npt.assert_array_equal(gates.i, 0.5)
        npt.assert_array_equal(gates.f, 0.5)
        npt.assert_array_equal(gates.o, 0.5)
        npt.assert_array_equal(gates.c_tilde, 0.0)
        npt.assert_array_equal(state.h, 0.0)
        npt.assert_array_equal(state.C, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_core_step_on_reconstructed_weights(self, seed):
        cfg = CrossbarConfig()
        params = random_params(seed)
        program = program_crossbar(params, cfg)
        recon = reconstruct_weights(program, cfg.levels)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, 1)
        prev = LstmState(rng.uniform(-0.9, 0.9, 4), rng.uniform(-1, 1, 4))
        got_gates, got_state, _ = crossbar_lstm_step(program, x, prev, cfg)
        want_gates, want_state = lstm_step(recon, x, prev)
        npt.assert_allclose(got_gates.i, want_gates.i, rtol=0, atol=1e-9)
        npt.assert_allclose(got_gates.f, want_gates.f, rtol=0, atol=1e-9)
        npt.assert_allclose(got_gates.c_tilde, want_gates.c_tilde, rtol=0, atol=1e-9)
        npt.assert_allclose(got_gates.o, want_gates.o, rtol=0, atol=1e-9)
        npt.assert_allclose(got_state.h, want_state.h, rtol=0, atol=1e-9)
        npt.assert_allclose(got_state.C, want_state.C, rtol=0, atol=1e-9)

    def test_schedule(self):
        cfg = CrossbarConfig()
        program = program_crossbar(random_params(11), cfg)
        _, _, trace = crossbar_lstm_step(program, [0.2], LstmState.zeros(Dims(1, 4)), cfg)
        assert len(trace) == 4 * 4
        seen = {(r.unit, r.gate) for r in trace}
        assert len(seen) == 16  # no column read twice within a step
        assert [r.cycle for r in trace] == sorted(r.cycle for r in trace)


class TestCrossbarForward:
    def test_empty_sequence(self):
        cfg = CrossbarConfig()
        program = program_crossbar(random_params(12), cfg)
        out = OutputLayer(np.ones(4), 0.0)
        assert crossbar_forward(program, out, [], cfg) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_float_path_on_reconstructed_weights(self, seed):
        cfg = CrossbarConfig()
        params = random_params(seed + 20)
        program = program_crossbar(params, cfg)
        recon = reconstruct_weights(program, cfg.levels)
        rng = np.random.default_rng(seed)
        out = OutputLayer(rng.uniform(-1, 1, 4), rng.uniform(-1, 1))
        xs = rng.uniform(-1, 1, (15, 1))
        got = crossbar_forward(program, out, xs, cfg)
        want, _ = forward_sequence(recon, out, xs)
        npt.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_quantized_output_layer_changes_only_that_stage(self):
        cfg = CrossbarConfig()
        cfg_q = CrossbarConfig(quantize_output_layer=True)
        params = random_params(30)
        program = program_crossbar(params, cfg)
        rng = np.random.default_rng(1)
        out = OutputLayer(rng.uniform(-1, 1, 4), rng.uniform(-1, 1))
        out_q = OutputLayer(
            np.array([quantize_weight(v, cfg.levels) for v in out.w_out]),
            quantize_weight(out.b_out, cfg.levels),
        )
        xs = rng.uniform(-1, 1, (10, 1))
        plain = crossbar_forward(program, out, xs, cfg)
        quantized = crossbar_forward(program, out, xs, cfg_q)
        explicit = crossbar_forward(program, out_q, xs, cfg)
        npt.assert_allclose(quantized, explicit, rtol=0, atol=1e-15)
        assert not np.allclose(plain, quantized, atol=1e-12)

    def test_read_noise_deterministic_per_seed(self):
        params = random_params(31)
        out = OutputLayer(np.full(4, 0.5), 0.1)
        xs = np.random.default_rng(2).uniform(-1, 1, (8, 1))
        cfg_a = CrossbarConfig(read_noise_sigma=0.05, seed=77)
        cfg_b = CrossbarConfig(read_noise_sigma=0.05, seed=78)
        program = program_crossbar(params, cfg_a)
        one = crossbar_forward(program, out, xs, cfg_a)
        two = crossbar_forward(program, out, xs, cfg_a)
        other = crossbar_forward(program, out, xs, cfg_b)
        assert one == two
        assert one != other

    def test_noisy_forward_equals_chained_steps(self):
        from xbarlstm.crossbar import _read_rng

        cfg = CrossbarConfig(read_noise_sigma=0.03, seed=5)
        params = random_params(32)
        program = program_crossbar(params, cfg)
        out = OutputLayer(np.array([0.3, -0.2, 0.5, 0.1]), 0.05)
        xs = np.random.default_rng(3).uniform(-1, 1, (6, 1))
        preds = crossbar_forward(program, out, xs, cfg)
        rng = _read_rng(cfg)
        state = LstmState.zeros(Dims(1, 4))
        manual = []
        for x in xs:
            _, state, _ = crossbar_lstm_step(program, x, state, cfg, rng=rng)
            manual.append(float(state.h @ out.w_out + out.b_out))
        npt.assert_allclose(preds, manual, rtol=0, atol=1e-12)

    def test_level_variation_shifts_predictions_deterministically(self):
        params = random_params(33)
        out = OutputLayer(np.full(4, 0.4), 0.0)
        xs = np.random.default_rng(4).uniform(-1, 1, (10, 1))
        ideal_cfg = CrossbarConfig(seed=1)
        vary_cfg = CrossbarConfig(level_variation_sigma=0.05, seed=1)
        ideal = crossbar_forward(program_crossbar(params, ideal_cfg), out, xs, ideal_cfg)
        vary1 = crossbar_forward(program_crossbar(params, vary_cfg), out, xs, vary_cfg)
        vary2 = crossbar_forward(program_crossbar(params, vary_cfg), out, xs, vary_cfg)
        assert vary1 == vary2
        assert not np.allclose(ideal, vary1, atol=1e-12)

    def test_window_batch_matches_per_window_forward(self):
        cfg = CrossbarConfig()
        params = random_params(34)
        program = program_crossbar(params, cfg)
        out = OutputLayer(np.array([0.2, 0.1, -0.3, 0.4]), -0.1)
        rng = np.random.default_rng(6)
        windows = WindowedSeries(rng.uniform(0, 1, (9, 3)), rng.uniform(0, 1, 9), 3)
        batch = crossbar_window_predictions(program, out, windows, cfg)
        for k in range(9):
            preds = crossbar_forward(program, out, windows.x[k][:, None], cfg)
            assert batch[k] == pytest.approx(preds[-1], abs=1e-12)


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
        npt.assert_array_equal(program.g_plus, restored.g_plus)
        npt.assert_array_equal(program.g_minus, restored.g_minus)
        assert restored.cfg.read_noise_sigma == cfg.read_noise_sigma

    @pytest.mark.parametrize("spacing", ["uniform_conductance", "uniform_resistance"])
    def test_round_trip_both_spacings(self, tmp_path, spacing):
        cfg = CrossbarConfig(levels=build_level_set(spacing))
        program = program_crossbar(random_params(42), cfg)
        path = tmp_path / "prog.txt"
        write_program(program, path)
        restored = read_program(path)
        assert restored.cfg.levels.spacing == spacing
        npt.assert_array_equal(program.level_plus, restored.level_plus)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a program\n")
        with pytest.raises(ValueError, match="not a crossbar program"):
            read_program(path)

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
