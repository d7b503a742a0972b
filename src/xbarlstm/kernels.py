"""The one unroll of the LSTM cell over a window batch, and its BPTT.

Both the float path and the crossbar path run here: the float path passes
``LstmParams.grid`` and no gain; the crossbar path, ``crossbar.monte_carlo``,
passes the differential column currents of each device in weight units,
the ideal ``CrossbarProgram.grid()`` or its level-varied draw, with the
device's per-read gains 1 + noise, and its chunk's result arrays to write
into. The scalar loop versions that check these kernels live with the
tests, in ``tests/_oracles.py``.

Array conventions: weight grid [N + M + 1, 4M] with rows [x; h; bias] and
column g * M + m carrying gate g of hidden unit m, gate order (i, f, c, o);
window batches X [B, T, N]; results laid out [T, B, .]. The forward also
takes a stack of devices on leading axes of the grid and the gain, and
then lays its results out [T, ..., B, .].
"""

import numpy as np

from .core import lstm_cell


def crossbar_unroll(grid, X, gain=None, out=None):
    """Run every window of X from the zero state through the cell on grid.

    Each step drives the rows with [x_t, h_{t-1}, 1] and reads all 4M
    columns at once. With gain [B, T, 4M] given, read (b, t, col) is
    multiplied by gain[b, t, col], a read-noise gain 1 + noise. Returns
    (h, reads, acts, C): hidden outputs and cell states [T, B, M], column
    reads and post-activation gates [T, B, 4M]. out, numpy-style, is such
    a tuple of arrays to write them into, and is then what is returned;
    without it they are allocated.

    Leading device axes on grid [..., R, 4M] and gain [..., B, T, 4M]
    broadcast against each other; the windows are shared, and the results
    gain the broadcast axes after T, as [T, ..., B, .]. Each device's
    results equal those of its own call bit for bit.
    """
    B, T, N = X.shape
    *lead, R, C4 = grid.shape
    if gain is not None:
        lead = np.broadcast_shapes(tuple(lead), gain.shape[:-3])
    M = C4 // 4
    if R != N + M + 1:
        raise ValueError(f"weights have n_inputs={R - M - 1} but the windows carry {N} feature(s) per step")
    if out is None:
        out = (np.empty((T, *lead, B, M)), np.empty((T, *lead, B, C4)), np.empty((T, *lead, B, C4)),
               np.empty((T, *lead, B, M)))
    h, reads, acts, C = out
    V = np.zeros((*lead, B, R))
    V[..., R - 1] = 1.0
    C_prev = np.zeros((*lead, B, M))
    for t in range(T):
        V[..., :N] = X[:, t, :]
        np.matmul(V, grid, out=reads[t])
        if gain is not None:
            reads[t] *= gain[..., t, :]
        lstm_cell(reads[t], C_prev, out=(acts[t], C[t], h[t]))
        C_prev = C[t]
        if t + 1 < T:
            V[..., N : N + M] = h[t]
    return out


def batch_loss_and_grads(grid, w_out, b_out, X, y):
    """Batch MSE of the last-step predictions and its exact gradients.

    Returns (loss, d_grid, d_w_out, d_b_out): d_grid shaped like grid,
    d_w_out like w_out, d_b_out a float.
    """
    B, T, N = X.shape
    M = w_out.shape[0]
    h, _, acts, C = crossbar_unroll(grid, X)

    errs = h[-1] @ w_out + b_out - y
    loss = float((errs * errs).sum() / B)
    errs = errs * 2.0 / B  # d loss / d prediction

    d_w_out = h[-1].T @ errs
    d_b_out = float(errs.sum())
    dH = errs[:, None] * w_out
    dC = 0.0
    d_grid = np.zeros(grid.shape)
    tc = np.tanh(C)
    d_tc = 1.0 - tc * tc
    # a sigmoid gate's slope is a * (1 - a), and da below carries its a; tanh's is 1 - c_tilde**2
    d_acts = 1.0 - acts
    c_tilde = acts[..., 2 * M : 3 * M]
    d_acts[..., 2 * M : 3 * M] = 1.0 - c_tilde * c_tilde
    V = np.zeros((B, grid.shape[0]))
    V[:, -1] = 1.0
    U2 = grid[N : N + M]
    for t in range(T - 1, -1, -1):
        a = acts[t]
        i, f, g, o = a[:, :M], a[:, M : 2 * M], a[:, 2 * M : 3 * M], a[:, 3 * M :]
        h_prev, C_prev = (h[t - 1], C[t - 1]) if t > 0 else (0.0, 0.0)
        dC = dC + dH * o * d_tc[t]
        da = np.concatenate([dC * g * i, dC * C_prev * f, dC * i, dH * tc[t] * o], axis=1) * d_acts[t]
        V[:, :N] = X[:, t, :]
        V[:, N : N + M] = h_prev
        d_grid += V.T @ da
        if t > 0:
            dH = da @ U2.T
            dC = dC * f
    return loss, d_grid, d_w_out, d_b_out
