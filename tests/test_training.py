import numpy as np
import pytest

from xbarlstm.data import WindowedSeries, fit_normalizer, load_series, make_windows, normalize, split
from xbarlstm.data import BUNDLED_DATASET
from xbarlstm.kernels import LstmParams, OutputLayer
from xbarlstm.training import TrainConfig, batch_predictions, init_parameters, train

from _oracles import (
    bptt_gradients,
    finite_difference_check,
    finite_difference_grads,
    gates_from_grid,
    grid_from_gates,
    max_rel_error,
    mse_loop,
    random_model,
)


def random_batch(seed, n_samples=3, look_back=2):
    rng = np.random.default_rng(seed + 999)
    return WindowedSeries(
        rng.uniform(0, 1, (n_samples, look_back)), rng.uniform(0, 1, n_samples), look_back
    )


def airline_train_split():
    series = load_series(BUNDLED_DATASET)
    norm = fit_normalizer(series)
    windows = make_windows(normalize(series, norm), look_back=1)
    train_part, _ = split(0.67, windows)
    return train_part


class TestBpttGradients:
    def test_zero_lstm_bias_gradient(self):
        # all LSTM params zero: prediction is b_out, so d(mse)/d(b_out) = 2(b_out - t)
        params = LstmParams(np.zeros((6, 16)))
        out = OutputLayer(np.zeros(4), 0.3)
        batch = WindowedSeries(np.array([[0.6]]), np.array([0.9]), 1)
        loss, _, _, d_b_out = bptt_gradients(params, out, batch)
        assert abs(d_b_out - 2 * (0.3 - 0.9)) < 1e-14
        assert abs(loss - (0.3 - 0.9) ** 2) < 1e-14

    def test_loss_equals_separate_forward(self):
        params, out = random_model(1, scale=0.8)
        batch = random_batch(1)
        loss, *_ = bptt_gradients(params, out, batch)
        preds = batch_predictions(params, out, batch)
        assert abs(loss - mse_loop(preds.tolist(), batch.y.tolist())) < 1e-14

    @pytest.mark.parametrize("seed,look_back", [(0, 1), (1, 2), (2, 3)])
    def test_matches_central_differences(self, seed, look_back):
        params, out = random_model(seed, scale=0.8)
        batch = random_batch(seed, n_samples=4, look_back=look_back)
        _, d_grid, d_w_out, d_b_out = bptt_gradients(params, out, batch)

        # perturb the per-gate blocks and rebuild the grid from them, so the
        # layout comes from the loop oracle on both sides
        W, U, b = gates_from_grid(params.grid)
        b_out_box = np.array([out.b_out])

        def loss_fn():
            model = LstmParams(grid_from_gates(W, U, b)), OutputLayer(out.w_out, b_out_box[0])
            preds = batch_predictions(*model, batch)
            return float(np.mean((preds - batch.y) ** 2))

        numeric = finite_difference_grads(loss_fn, [W, U, b, out.w_out, b_out_box], step=1e-5)
        analytic = [*gates_from_grid(d_grid), d_w_out, np.array([d_b_out])]
        for a, n in zip(analytic, numeric, strict=True):
            assert max_rel_error(a, n) < 1e-5


class TestFiniteDifferenceCheck:
    def test_zero_model_passes(self):
        params = LstmParams(np.zeros((6, 16)))
        out = OutputLayer(np.zeros(4), 0.0)
        batch = WindowedSeries(np.array([[0.2], [0.4]]), np.zeros(2), 1)
        report = finite_difference_check(params, out, batch, step=1e-5, tolerance=1e-4)
        assert report.passed
        assert all(err < 1e-6 for err in report.group_errors.values())

    def test_random_model_passes(self):
        params, out = random_model(3, scale=0.8)
        batch = random_batch(3)
        report = finite_difference_check(params, out, batch, step=1e-5, tolerance=1e-4)
        assert report.passed

    def test_corrupted_gradient_fails(self):
        params, out = random_model(4, scale=0.8)
        batch = random_batch(4)
        _, d_grid, d_w_out, d_b_out = bptt_gradients(params, out, batch)
        d_grid[0] += 0.05  # the input-weight row
        bad = (d_grid, d_w_out, d_b_out)
        report = finite_difference_check(params, out, batch, step=1e-5, tolerance=1e-4, gradients=bad)
        assert not report.passed
        with pytest.raises(ValueError):  # a group left out is an error, not a skipped check
            finite_difference_check(params, out, batch, gradients=bad[:2])

    def test_bad_step_rejected(self):
        params, out = random_model(5, scale=0.8)
        with pytest.raises(ValueError, match="step"):
            finite_difference_check(params, out, random_batch(5), step=0.0)


class TestTrain:
    def test_deterministic(self):
        """A second training in the same process, after another one in
        between, ends on the same bytes: each allocates its own workspace."""
        data = airline_train_split()
        cfg = TrainConfig(epochs=5, seed=11)
        params_a, out_a, hist_a = train(data, cfg)
        train(data, TrainConfig(epochs=3, seed=5, shuffle=True))
        params_b, out_b, hist_b = train(data, cfg)
        assert hist_a == hist_b
        assert params_a.grid.tobytes() == params_b.grid.tobytes() and out_a.w_out.tobytes() == out_b.w_out.tobytes()
        assert out_a.b_out == out_b.b_out

    def test_loss_decreases_on_airline(self):
        data = airline_train_split()
        params, out, hist = train(data, TrainConfig(epochs=30, seed=0))
        assert len(hist) == 30
        assert hist[-1] < hist[0]

    def test_clamp_invariant(self):
        data = airline_train_split()
        params, out, _ = train(data, TrainConfig(epochs=10, seed=2, learning_rate=0.5))
        for arr in (params.grid, out.w_out):
            assert np.all(arr >= -1.0) and np.all(arr <= 1.0)
        assert -1.0 <= out.b_out <= 1.0
        # a narrow, asymmetric range that the large steps press against on both sides
        params, out, _ = train(data, TrainConfig(epochs=10, seed=2, clamp_low=-0.3, clamp_high=0.4, learning_rate=0.5))
        theta = np.concatenate([params.grid.ravel(), out.w_out, [out.b_out]])
        assert np.all(theta >= -0.3) and np.all(theta <= 0.4)
        assert theta.min() == -0.3 and theta.max() == 0.4

    @pytest.mark.parametrize("n_hidden", [1, 4, 6])
    def test_init_lies_in_a_narrow_clamp_range(self, n_hidden):
        """The first epoch's loss is taken on the initial weights, so they
        already lie in the range training keeps, the orthogonal recurrent
        block included."""
        low, high = -0.3, 0.4
        params, out = init_parameters(1, n_hidden, np.random.default_rng(n_hidden), low, high)
        for arr in (params.grid, out.w_out):
            assert np.all(arr >= low) and np.all(arr <= high)
        assert low <= out.b_out <= high

    def test_shuffle_keeps_determinism(self):
        data = airline_train_split()
        cfg = TrainConfig(epochs=5, seed=3, shuffle=True)
        _, _, a = train(data, cfg)
        _, _, b = train(data, cfg)
        assert a == b

    @pytest.mark.parametrize("n_inputs, n_hidden", [(1, 1), (2, 3)])
    def test_sizes_come_from_the_inputs_and_the_config(self, n_inputs, n_hidden):
        """The grid is as wide in inputs as a step of dataset.inputs() and
        holds cfg.hidden_units units."""
        class Wide(WindowedSeries):  # each step's value n_inputs times
            def inputs(self):
                return np.repeat(super().inputs(), n_inputs, axis=-1)

        rng = np.random.default_rng(n_inputs)
        data = Wide(rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, 5), 3)
        params, out, hist = train(data, TrainConfig(epochs=2, hidden_units=n_hidden))
        assert params.grid.shape == (n_inputs + n_hidden + 1, 4 * n_hidden)
        assert out.w_out.shape == (n_hidden,) and len(hist) == 2

    def test_empty_dataset_rejected(self):
        data = WindowedSeries(np.empty((0, 1)), np.empty(0), 1)
        with pytest.raises(ValueError, match="training dataset is empty"):
            train(data, TrainConfig(epochs=1))

    def test_nan_loss_aborts_with_epoch(self):
        data = WindowedSeries(np.array([[0.5]]), np.array([np.inf]), 1)
        with pytest.raises(RuntimeError, match="epoch 1"):
            train(data, TrainConfig(epochs=3, seed=0))

    def test_sgd_also_trains(self):
        data = airline_train_split()
        _, _, hist = train(data, TrainConfig(epochs=20, seed=1, optimizer="sgd", learning_rate=0.5))
        assert hist[-1] < hist[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            TrainConfig(clamp_low=1.0, clamp_high=-1.0)
        for name in ("learning_rate", "eps"):
            for value in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    TrainConfig(**{name: value})
        for name in ("beta1", "beta2"):
            for value in (-0.1, 1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\)"):
                    TrainConfig(**{name: value})
        for bounds in ({"clamp_low": -np.inf}, {"clamp_high": np.inf}, {"clamp_low": np.nan},
                       {"clamp_low": 0.5, "clamp_high": 0.5}):
            with pytest.raises(ValueError, match="must be finite and non-empty"):
                TrainConfig(**bounds)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError, match=rf"seed must be < 2\*\*128, got {2**128}"):
            TrainConfig(seed=2**128)  # the one seed rule, config._check_seed, as the crossbar's
        with pytest.raises(ValueError, match="hidden_units must be >= 1, got 0"):
            TrainConfig(hidden_units=0)
        TrainConfig(beta1=0.0, beta2=0.0, seed=0)  # the closed ends are valid
        TrainConfig(seed=2**128 - 1)

    def test_loss_trend_across_seeds(self):
        # median loss over the last 10 epochs beats the first 10 for >= 4 of 5 seeds
        data = airline_train_split()
        improved = 0
        for seed in range(5):
            _, _, hist = train(data, TrainConfig(epochs=100, seed=seed))
            if np.median(hist[-10:]) < np.median(hist[:10]):
                improved += 1
        assert improved >= 4
