import math

import numpy as np
import numpy.testing as npt
import pytest

from xbarlstm.data import WindowedSeries
from xbarlstm.kernels import LstmParams, OutputLayer, crossbar_unroll, grid_dims, lstm_cell, sigmoid
from xbarlstm.training import batch_predictions

from _oracles import (
    dot_loop,
    lstm_step_loops,
    oracle_gates,
    random_params,
    sequence_predictions_loop,
    sigmoid_scalar,
    sigmoid_where,
    zero_params,
)

EDGES = [0.0, 5e-324, 1e-300, 36.7, 710.0, 745.2, math.inf]
EDGE_VALUES = np.array(EDGES + [-x for x in EDGES] + [math.nan])


def cell_step(params, x, h_prev, C_prev):
    """One step of the one cell: drive the grid rows with [x, h_prev, 1];
    the cell takes the 4M column reads gate-first, as [4, M]."""
    return lstm_cell((np.concatenate([x, h_prev, [1.0]]) @ params.grid).reshape(4, -1), C_prev)


def oracle_step(params, x, h_prev, C_prev):
    return lstm_step_loops(*oracle_gates(params), list(x), list(h_prev), list(C_prev))


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_tanh_at_zero(self):
        # the candidate column of the cell is the tanh one
        acts, _, _ = lstm_cell(np.zeros((4, 1)), np.zeros(1))
        assert acts[2] == 0.0
        npt.assert_array_equal(acts[[0, 1, 3]], 0.5)

    def test_sigmoid_symmetry(self):
        xs = np.linspace(-20, 20, 101)
        npt.assert_allclose(sigmoid(xs) + sigmoid(-xs), 1.0, rtol=0, atol=1e-15)

    def test_saturation_is_graceful(self):
        assert sigmoid(1e4) == 1.0
        assert sigmoid(-1e4) == 0.0

    def test_monotone(self):
        xs = np.linspace(-6, 6, 200)
        assert np.all(np.diff(sigmoid(xs)) > 0)

    @pytest.mark.parametrize("scratch", [False, True], ids=["alloc", "scratch"])
    def test_edge_values_match_scalar_oracle(self, scratch):
        """Also through a scratch (e, mask) pair holding stale values: sigmoid
        and the cell then give the allocating call's bits, NaN signs included."""
        pair = (np.full(EDGE_VALUES.shape, 7.0), np.ones(EDGE_VALUES.shape, bool)) if scratch else None
        got = sigmoid(EDGE_VALUES, scratch=pair)
        npt.assert_allclose(got, [sigmoid_scalar(x) for x in EDGE_VALUES], rtol=1e-15, atol=0)
        assert np.array_equal(got.view(np.uint64), sigmoid(EDGE_VALUES).view(np.uint64))
        a = np.stack([EDGE_VALUES, EDGE_VALUES[::-1], -EDGE_VALUES, EDGE_VALUES[::-1]])
        if scratch:
            pair = np.full(a.shape, -3.0), np.zeros(a.shape, bool)
        C_prev = np.linspace(-2.0, 2.0, len(EDGE_VALUES))
        for g, w in zip(lstm_cell(a, C_prev, scratch=pair), lstm_cell(a, C_prev)):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    @pytest.mark.parametrize("shape", [None, (95, 16), (8, 143, 16)], ids=["edges", "train", "sweep"])
    @pytest.mark.parametrize("into", [False, True], ids=["alloc", "out"])
    def test_sigmoid_equals_the_where_form_exactly(self, shape, into):
        """Edge values and the cell's shapes in train and in a stacked sweep,
        written to a fresh array or to out=: the same bits as the where()
        form, NaN positions included."""
        if shape is None:
            xs = EDGE_VALUES
        else:
            xs = 12.0 * np.random.default_rng(len(shape)).standard_normal(shape)
            xs.reshape(-1)[: len(EDGE_VALUES)] = EDGE_VALUES
        out = np.full(xs.shape, 7.0) if into else None
        got = sigmoid(xs, out=out)
        assert got is out or out is None
        assert np.array_equal(got, sigmoid_where(xs), equal_nan=True)

    def test_cell_writes_into_out(self):
        """out= targets receive what the allocating call returns, also when
        the new cell state overwrites the previous one."""
        rng = np.random.default_rng(4)
        a, C_prev = rng.standard_normal((4, 3, 5, 2)), rng.standard_normal((3, 5, 2))
        want = lstm_cell(a, C_prev)
        out = np.empty_like(a), C_prev.copy(), np.empty_like(C_prev)
        got = lstm_cell(a, out[1], out=out)
        assert all(g is o for g, o in zip(got, out))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestLstmStep:
    def test_zero_params_zero_state(self):
        params = zero_params(1, 4)
        acts, C, h = cell_step(params, [0.37], np.zeros(4), np.zeros(4))
        i, f, c_tilde, o = acts
        npt.assert_array_equal(i, 0.5)
        npt.assert_array_equal(f, 0.5)
        npt.assert_array_equal(o, 0.5)
        npt.assert_array_equal(c_tilde, 0.0)
        npt.assert_array_equal(h, 0.0)
        npt.assert_array_equal(C, 0.0)

    def test_zero_params_nonzero_cell(self):
        params = zero_params(1, 3)
        _, C, h = cell_step(params, [2.0], np.zeros(3), np.ones(3))
        npt.assert_allclose(C, 0.5, rtol=0, atol=0)
        npt.assert_allclose(h, 0.5 * np.tanh(0.5), rtol=0, atol=1e-16)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_inputs, n_hidden = 1, 4
        params = random_params(rng, n_inputs, n_hidden)
        x = rng.uniform(-1, 1, n_inputs)
        h_prev, C_prev = rng.uniform(-0.9, 0.9, n_hidden), rng.uniform(-2, 2, n_hidden)
        acts, C, h = cell_step(params, x, h_prev, C_prev)
        i, f, c_tilde, o, want_h, want_C = oracle_step(params, x, h_prev, C_prev)
        npt.assert_allclose(acts.reshape(-1), i + f + c_tilde + o, rtol=0, atol=1e-12)
        npt.assert_allclose(h, want_h, rtol=0, atol=1e-12)
        npt.assert_allclose(C, want_C, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_inputs,n_hidden", [(2, 3), (3, 8), (5, 2)])
    def test_oracle_agreement_other_dims(self, n_inputs, n_hidden):
        rng = np.random.default_rng(n_inputs * 100 + n_hidden)
        params = random_params(rng, n_inputs, n_hidden)
        x = rng.uniform(-1, 1, n_inputs)
        h_prev, C_prev = rng.uniform(-0.9, 0.9, n_hidden), rng.uniform(-2, 2, n_hidden)
        _, C, h = cell_step(params, x, h_prev, C_prev)
        _, _, _, _, want_h, want_C = oracle_step(params, x, h_prev, C_prev)
        npt.assert_allclose(h, want_h, rtol=0, atol=1e-12)
        npt.assert_allclose(C, want_C, rtol=0, atol=1e-12)

    def test_gate_ranges(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            params = random_params(rng, 1, 4, scale=3.0)
            x = rng.uniform(-5, 5, 1)
            C_prev = rng.uniform(-3, 3, 4)
            acts, C, h = cell_step(params, x, rng.uniform(-0.99, 0.99, 4), C_prev)
            i, f, c_tilde, o = acts
            assert np.all((i > 0) & (i < 1))
            assert np.all((f > 0) & (f < 1))
            assert np.all((o > 0) & (o < 1))
            assert np.all((c_tilde > -1) & (c_tilde < 1))
            assert np.all(np.abs(h) < 1)
            assert np.all(np.abs(C) <= np.abs(C_prev) + 1)


class TestDenseOutput:
    """The affine readout w_out . h + b_out that every forward applies."""

    def test_bias_passthrough(self):
        # zero weights keep h at 0, so only the bias reaches the prediction
        windows = WindowedSeries(np.full((3, 2), 0.4), np.zeros(3), 2)
        preds = batch_predictions(zero_params(1, 4), OutputLayer(np.ones(4), 0.7), windows)
        npt.assert_array_equal(preds, 0.7)

    def test_selector(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 1, 4)
        windows = WindowedSeries(rng.uniform(0, 1, (5, 3)), np.zeros(5), 3)
        h, *_ = crossbar_unroll(params.grid, windows.x[:, :, None])
        preds = batch_predictions(params, OutputLayer(np.array([1.0, 0, 0, 0]), 0.0), windows)
        npt.assert_array_equal(preds, h[-1, :, 0])

    def test_matches_loop_dot(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            params = random_params(rng, 1, 6)
            out = OutputLayer(rng.uniform(-1, 1, 6), rng.uniform(-1, 1))
            windows = WindowedSeries(rng.uniform(0, 1, (4, 2)), np.zeros(4), 2)
            h, *_ = crossbar_unroll(params.grid, windows.x[:, :, None])
            got = batch_predictions(params, out, windows)
            want = [dot_loop(out.w_out.tolist(), h[-1, s].tolist()) + out.b_out for s in range(4)]
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestForwardSequence:
    """The float path over a sequence: the one unroll on params.grid."""

    def test_single_step_is_step_plus_dense(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 1, 4)
        out = OutputLayer(rng.uniform(-1, 1, 4), rng.uniform(-1, 1))
        x = rng.uniform(-1, 1, 1)
        h, _, _, C = crossbar_unroll(params.grid, x[None, None, :])
        _, _, _, _, want_h, want_C = oracle_step(params, x, [0.0] * 4, [0.0] * 4)
        npt.assert_allclose(h[0, 0], want_h, rtol=0, atol=1e-12)
        npt.assert_allclose(C[0, 0], want_C, rtol=0, atol=1e-12)
        want = dot_loop(out.w_out.tolist(), want_h) + out.b_out
        assert h[0, 0] @ out.w_out + out.b_out == pytest.approx(want, abs=1e-12)

    def test_two_steps_equal_manual_chaining(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, 2, 3)
        out = OutputLayer(rng.uniform(-1, 1, 3), 0.1)
        xs = rng.uniform(-1, 1, (2, 2))
        h, _, _, C = crossbar_unroll(params.grid, xs[None])
        state = ([0.0] * 3, [0.0] * 3)
        for t in range(2):
            *_, want_h, want_C = oracle_step(params, xs[t], *state)
            state = (want_h, want_C)
            npt.assert_allclose(h[t, 0], want_h, rtol=0, atol=1e-12)
            npt.assert_allclose(C[t, 0], want_C, rtol=0, atol=1e-12)
        want = sequence_predictions_loop(*oracle_gates(params), out.w_out.tolist(), out.b_out, xs.tolist())
        npt.assert_allclose(h[:, 0] @ out.w_out + out.b_out, want, rtol=0, atol=1e-12)

    def test_zero_fixed_point(self):
        params = zero_params(1, 4)
        rng = np.random.default_rng(5)
        h, _, _, C = crossbar_unroll(params.grid, rng.uniform(-9, 9, (1, 12, 1)))
        npt.assert_array_equal(h, 0.0)
        npt.assert_array_equal(C, 0.0)

    def test_stateless_between_calls(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 1, 4)
        xs = rng.uniform(-1, 1, (1, 5, 1))
        a = crossbar_unroll(params.grid, xs)
        b = crossbar_unroll(params.grid, xs)
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)


class TestValidation:
    def test_params_shape_checks(self):
        assert grid_dims(zero_params(3, 6).grid.shape) == (3, 6)
        # 4M columns need N + M + 1 rows with N >= 1; the gate axis needs 4 | columns
        for shape in [(5, 16), (6, 15), (6, 2), (6, 0), (6,), (1, 6, 16)]:
            with pytest.raises(ValueError, match=r"is not \[n_inputs \+ n_hidden \+ 1, 4 \* n_hidden\]"):
                LstmParams(np.zeros(shape))

    @pytest.mark.parametrize("make", [lambda: LstmParams(np.zeros((6, 16))), lambda: OutputLayer(np.zeros(4), 0.0)],
                             ids=["LstmParams", "OutputLayer"])
    def test_equality_is_identity(self, make):
        """Two equal-valued instances compare unequal, not by the ambiguous
        truth value of an ndarray field; an instance equals itself."""
        a, b = make(), make()
        assert (a == b) is False and (a != b) is True and a == a

    def test_output_weights_must_be_a_vector(self):
        with pytest.raises(ValueError, match=r"w_out must be a vector, got shape \(4, 1\)"):
            OutputLayer(np.zeros((4, 1)), 0.0)
