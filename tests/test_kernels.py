"""The unroll and BPTT kernels must agree with the scalar loop oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from xbarlstm import kernels
from xbarlstm.core import LstmParams, OutputLayer, forward_sequence

from _oracles import (
    batch_loss_and_grads_loop,
    batch_mse_loops,
    crossbar_unroll_loop,
    window_last_prediction,
)


def random_case(seed, B=7, T=3, N=2, M=4):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-1, 1, (4, N, M))
    U = rng.uniform(-1, 1, (4, M, M))
    b = rng.uniform(-1, 1, (4, M))
    w_out = rng.uniform(-1, 1, M)
    b_out = rng.uniform(-1, 1)
    X = rng.uniform(-1, 1, (B, T, N))
    y = rng.uniform(0, 1, B)
    return W, U, b, w_out, b_out, X, y


def last_predictions(W, U, b, w_out, b_out, X):
    h, *_ = kernels.crossbar_unroll(LstmParams(W, U, b).grid(), X)
    return h[-1] @ w_out + b_out


@pytest.mark.parametrize("seed", range(4))
def test_predictions_loop_vs_numpy(seed):
    W, U, b, w_out, b_out, X, _ = random_case(seed)
    got = last_predictions(W, U, b, w_out, b_out, X)
    want = [window_last_prediction(W.tolist(), U.tolist(), b.tolist(), w_out.tolist(), b_out, X[s].tolist())
            for s in range(len(X))]
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_grads_loop_vs_numpy(seed):
    W, U, b, w_out, b_out, X, y = random_case(seed)
    la, *ga = batch_loss_and_grads_loop(W.tolist(), U.tolist(), b.tolist(), w_out.tolist(), b_out,
                                        X.tolist(), y.tolist())
    lb, d_grid, dw_out, db_out = kernels.batch_loss_and_grads(LstmParams(W, U, b).grid(), w_out, b_out, X, y)
    d = LstmParams.from_grid(d_grid)
    assert abs(la - lb) < 1e-12
    for x, z in zip(ga, (d.W, d.U, d.b, dw_out, db_out)):
        npt.assert_allclose(x, z, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("seed", range(4))
def test_crossbar_loop_vs_numpy(seed):
    rng = np.random.default_rng(seed + 100)
    R, M, B, T = 6, 4, 3, 5
    gp = rng.uniform(0.5e-6, 5e-6, (R, 4 * M))
    gm = rng.uniform(0.5e-6, 5e-6, (R, 4 * M))
    X = rng.uniform(-1, 1, (B, T, 1))
    noise = 0.01 * rng.standard_normal((B, T, 4 * M))
    k = 1.0 / 4.5e-6
    ha, ra = crossbar_unroll_loop(gp, gm, k, X, noise)
    hb, rb, _, _ = kernels.crossbar_unroll((gp - gm) * k, X, noise)
    npt.assert_allclose(ha, hb.transpose(1, 0, 2), rtol=0, atol=1e-12)
    npt.assert_allclose(ra, rb.transpose(1, 0, 2), rtol=0, atol=1e-12)


def test_predictions_match_scalar_oracle():
    W, U, b, w_out, b_out, X, _ = random_case(5, B=4, T=2, N=1, M=4)
    got = last_predictions(W, U, b, w_out, b_out, X)
    for s in range(4):
        want = window_last_prediction(
            W.tolist(), U.tolist(), b.tolist(), w_out.tolist(), b_out, X[s, :, 0].tolist()
        )
        assert abs(got[s] - want) < 1e-12


def test_predictions_match_forward_sequence():
    W, U, b, w_out, b_out, X, _ = random_case(6, B=5, T=4, N=3, M=2)
    params = LstmParams(W, U, b)
    out = OutputLayer(w_out, b_out)
    got = last_predictions(W, U, b, w_out, b_out, X)
    for s in range(5):
        preds, _ = forward_sequence(params, out, X[s])
        assert abs(got[s] - preds[-1]) < 1e-12


def test_loss_matches_scalar_oracle():
    W, U, b, w_out, b_out, X, y = random_case(7, B=3, T=2, N=1, M=3)
    loss, *_ = kernels.batch_loss_and_grads(LstmParams(W, U, b).grid(), w_out, b_out, X, y)
    want = batch_mse_loops(
        W.tolist(), U.tolist(), b.tolist(), w_out.tolist(), b_out,
        [X[s, :, 0].tolist() for s in range(3)], y.tolist(),
    )
    assert abs(loss - want) < 1e-12
