"""The unroll and BPTT kernels must agree with the scalar loop oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from xbarlstm import kernels

from _oracles import (
    batch_loss_and_grads_loop,
    batch_mse_loops,
    crossbar_unroll_loop,
    gates_from_grid,
    grid_from_gates,
    sequence_predictions_loop,
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


def read_order(a):
    """Per-read values [..., B, T, 4M] in grid column order, laid out as the
    unroll takes its gain, in the crossbar's read order: [..., B, T, M, 4]."""
    return a.reshape(*a.shape[:-1], 4, -1).swapaxes(-1, -2)


def grid_columns(a):
    """The unroll's gate-first reads [T, 4, ..., B, M] in grid column order,
    [T, ..., B, 4M]."""
    T, _, *lead, B, M = a.shape
    n = len(lead)
    return a.transpose(0, *range(2, n + 3), 1, n + 3).reshape(T, *lead, B, 4 * M)


def last_predictions(W, U, b, w_out, b_out, X):
    h, *_ = kernels.crossbar_unroll(grid_from_gates(W, U, b), X)
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
    lb, d_grid, dw_out, db_out = kernels.batch_loss_and_grads(grid_from_gates(W, U, b), w_out, b_out, X, y)
    assert abs(la - lb) < 1e-12
    for x, z in zip(ga, (*gates_from_grid(d_grid), dw_out, db_out)):
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
    hb, rb, _, _ = kernels.crossbar_unroll((gp - gm) * k, X, read_order(1.0 + noise))
    npt.assert_allclose(ha, hb.transpose(1, 0, 2), rtol=0, atol=1e-12)
    npt.assert_allclose(ra, grid_columns(rb).transpose(1, 0, 2), rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid_lead, noise_lead",
                         [((3,), (3,)), ((3,), None), ((), (3,)), ((2, 1), (3,)), ((), (4,))])
def test_device_axes_equal_per_device_calls(grid_lead, noise_lead):
    """Stacked devices on leading axes of the grid and the noise broadcast;
    each device's results equal its own call exactly and the read-by-read
    oracle to 1e-12. Four devices on the noise alone is the case where the
    gate axis of the grid could pair with the device axis and broadcast.
    Every gate of every step's reads and gates is one C-contiguous block,
    the layout the cell's per-gate ufuncs rest on."""
    rng = np.random.default_rng(300)
    R, M, B, T = 6, 4, 3, 4
    gp = rng.uniform(0.5e-6, 5e-6, (*grid_lead, R, 4 * M))
    gm = rng.uniform(0.5e-6, 5e-6, (*grid_lead, R, 4 * M))
    X = rng.uniform(-1, 1, (B, T, 1))
    noise = None if noise_lead is None else 0.01 * rng.standard_normal((*noise_lead, B, T, 4 * M))
    k = 1.0 / 4.5e-6
    grid = (gp - gm) * k
    lead = np.broadcast_shapes(grid_lead, () if noise is None else noise_lead)
    stacked = kernels.crossbar_unroll(grid, X, None if noise is None else read_order(1.0 + noise))
    assert [a.shape for a in stacked] == [(T, *gates, *lead, B, M) for gates in ((), (4,), (4,), ())]
    assert all(a[t][g].flags.c_contiguous for a in stacked[1:3] for t in range(T) for g in range(4))
    for device in np.ndindex(lead):
        g_index = tuple(i if n > 1 else 0 for i, n in zip(device[len(lead) - len(grid_lead):], grid_lead))
        n_index = None if noise is None else device[len(lead) - len(noise_lead):]
        one_noise = None if noise is None else noise[n_index]
        one = kernels.crossbar_unroll(grid[g_index], X, None if one_noise is None else read_order(1.0 + one_noise))
        for a, b, gates in zip(stacked, one, ((), (slice(None),), (slice(None),), ())):
            assert np.array_equal(a[(slice(None), *gates, *device)], b)
        h, reads = crossbar_unroll_loop(gp[g_index], gm[g_index], k, X,
                                        np.zeros((B, T, 4 * M)) if one_noise is None else one_noise)
        npt.assert_allclose(h, stacked[0][(slice(None), *device)].transpose(1, 0, 2), rtol=0, atol=1e-12)
        npt.assert_allclose(reads, grid_columns(stacked[1])[(slice(None), *device)].transpose(1, 0, 2),
                            rtol=0, atol=1e-12)


def test_unit_gain_equals_no_gain():
    """A read-noise gain of all ones reads exactly as no gain at all."""
    rng = np.random.default_rng(301)
    R, M, B, T = 6, 4, 3, 4
    grid = rng.uniform(-1, 1, (R, 4 * M))
    X = rng.uniform(-1, 1, (B, T, 1))
    for a, b in zip(kernels.crossbar_unroll(grid, X, np.ones((B, T, M, 4))), kernels.crossbar_unroll(grid, X)):
        assert np.array_equal(a, b)


def test_gain_is_taken_in_read_order():
    """gain[..., b, t, m, g] scales the read of gate g of unit m at step t
    of window b: at look-back 1 each first-step read is the ungained read
    times its own gain, for one device and for a stack of three."""
    rng = np.random.default_rng(304)
    R, M, B = 6, 4, 3
    grid = rng.uniform(-1, 1, (R, 4 * M))
    X = rng.uniform(-1, 1, (B, 1, 1))
    plain = kernels.crossbar_unroll(grid, X)[1][0]
    for lead in ((), (3,)):
        gain = rng.uniform(0.5, 1.5, (*lead, B, 1, M, 4))
        reads = kernels.crossbar_unroll(grid, X, gain)[1][0]
        for *device, b, _, m, g in np.ndindex(gain.shape):
            assert reads[(g, *device, b, m)] == plain[g, b, m] * gain[(*device, b, 0, m, g)]


@pytest.mark.parametrize("T", [1, 3])
def test_out_arrays_are_written_and_returned(T, monkeypatch):
    """With a workspace given, the unroll writes its results into the
    workspace's out arrays and returns that very tuple, equal bit for bit
    to a call that allocates, and every step's cell computes in the
    workspace's scratch. The result arrays and the drive's input
    columns start NaN-filled, and a second call into them, on other stacked
    devices, equals its own fresh call, so nothing carries over between
    calls: at look-back 3 the drive's h columns, which the first call
    left holding its h, start the second call at zero."""
    scratches, cell = [], kernels.lstm_cell
    monkeypatch.setattr(kernels, "lstm_cell",
                        lambda a, C_prev, out, scratch: scratches.append(scratch) or cell(a, C_prev, out, scratch))
    rng = np.random.default_rng(302)
    S, R, M, B = 2, 6, 4, 3
    X = rng.uniform(-1, 1, (B, T, 1))
    work = kernels.Workspace((R, 4 * M), X.shape, (S,))
    for a in (*work.out, work.V[..., :1]):
        a.fill(np.nan)
    for _ in range(2):
        grid = rng.uniform(-1, 1, (S, R, 4 * M))
        gain = read_order(1.0 + 0.01 * rng.standard_normal((S, B, T, 4 * M)))
        scratches.clear()
        got = kernels.crossbar_unroll(grid, X, gain, work=work)
        assert got is work.out
        assert len(scratches) == T and all(scratch is work.scratch for scratch in scratches)
        for a, b in zip(got, kernels.crossbar_unroll(grid, X, gain)):
            assert np.array_equal(a, b)


def test_one_workspace_serves_every_call_on_its_shapes():
    """One workspace reused at look-back 3 across BPTT calls on other
    windows, a permuted batch and another grid, and across a forward alone
    between them, which leaves its last h in the drive: every call equals a
    fresh call without a workspace bit for bit, and BPTT's gradients are
    views of the workspace's one flat gradient [grid, w_out, b_out]."""
    rng = np.random.default_rng(303)
    W, U, b, w_out, b_out, X, y = random_case(303, B=5, T=3, N=1, M=4)
    grid = grid_from_gates(W, U, b)
    X2, y2 = rng.uniform(-1, 1, X.shape), rng.uniform(0, 1, len(y))
    perm = rng.permutation(len(y))
    work = kernels.Workspace(grid.shape, X.shape)
    for g, Xb, yb, forward_first in ((grid, X, y, False), (grid, X2, y2, True), (grid, X2[perm], y2[perm], False),
                                     (0.5 * grid, X, y, True)):
        if forward_first:
            for a, c in zip(kernels.crossbar_unroll(g, X2, work=work), kernels.crossbar_unroll(g, X2)):
                assert np.array_equal(a, c)
        loss, d_grid, d_w_out, d_b_out = kernels.batch_loss_and_grads(g, w_out, b_out, Xb, yb, work)
        want = kernels.batch_loss_and_grads(g, w_out, b_out, Xb, yb)
        assert loss == want[0] and d_b_out == want[3]
        assert np.array_equal(d_grid, want[1]) and np.array_equal(d_w_out, want[2])
        assert np.array_equal(work.grad, np.concatenate([want[1].ravel(), want[2], [want[3]]]))
        assert np.shares_memory(d_grid, work.grad) and np.shares_memory(d_w_out, work.grad)


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
    h, *_ = kernels.crossbar_unroll(grid_from_gates(W, U, b), X)
    got = h @ w_out + b_out  # every step's prediction, [T, B]
    for s in range(5):
        want = sequence_predictions_loop(W.tolist(), U.tolist(), b.tolist(), w_out.tolist(), b_out, X[s].tolist())
        npt.assert_allclose(got[:, s], want, rtol=0, atol=1e-12)


def test_loss_matches_scalar_oracle():
    W, U, b, w_out, b_out, X, y = random_case(7, B=3, T=2, N=1, M=3)
    loss, *_ = kernels.batch_loss_and_grads(grid_from_gates(W, U, b), w_out, b_out, X, y)
    want = batch_mse_loops(
        W.tolist(), U.tolist(), b.tolist(), w_out.tolist(), b_out,
        [X[s, :, 0].tolist() for s in range(3)], y.tolist(),
    )
    assert abs(loss - want) < 1e-12
