"""The one unroll of the LSTM cell over a window batch, and its BPTT.

Both the float path and the crossbar path run here: the float path passes
``LstmParams.grid()`` and no noise, the crossbar path
``CrossbarProgram.grid()``, the differential column currents in weight
units, with its per-read noise factors. The scalar loop versions that
check these kernels live with the tests, in ``tests/_oracles.py``.

Array conventions: weight grid [N + M + 1, 4M] with rows [x; h; bias] and
column g * M + m carrying gate g of hidden unit m, gate order (i, f, c, o);
window batches X [B, T, N]; results laid out [T, B, .].
"""

import numpy as np

from .core import lstm_cell


def crossbar_unroll(grid, X, noise=None):
    """Run every window of X from the zero state through the cell on grid.

    Each step drives the rows with [x_t, h_{t-1}, 1] and reads all 4M
    columns at once. With noise [B, T, 4M] given, read (b, t, col) is
    scaled by 1 + noise[b, t, col]. Returns (h, reads, acts, C): hidden
    outputs and cell states [T, B, M], column reads and post-activation
    gates [T, B, 4M].
    """
    B, T, N = X.shape
    R, C4 = grid.shape
    M = C4 // 4
    if R != N + M + 1:
        raise ValueError(f"weights have n_inputs={R - M - 1} but the windows carry {N} feature(s) per step")
    h = np.empty((T, B, M))
    C = np.empty((T, B, M))
    reads = np.empty((T, B, C4))
    acts = np.empty((T, B, C4))
    V = np.zeros((B, R))
    V[:, R - 1] = 1.0
    C_t = np.zeros((B, M))
    for t in range(T):
        V[:, :N] = X[:, t, :]
        np.matmul(V, grid, out=reads[t])
        if noise is not None:
            reads[t] *= 1.0 + noise[:, t, :]
        acts[t], C_t, h[t] = lstm_cell(reads[t], C_t)
        C[t] = C_t
        V[:, N : N + M] = h[t]
    return h, reads, acts, C


def batch_loss_and_grads(grid, w_out, b_out, X, y):
    """Batch MSE of the last-step predictions and its exact gradients.

    Returns (loss, d_grid, d_w_out, d_b_out) with d_grid shaped like grid.
    """
    B, T, N = X.shape
    M = w_out.shape[0]
    h, _, acts, C = crossbar_unroll(grid, X)

    errs = h[-1] @ w_out + b_out - y
    loss = float(np.mean(errs**2))
    dpred = 2.0 * errs / B

    dw_out = h[-1].T @ dpred
    db_out = float(np.sum(dpred))
    dH = np.outer(dpred, w_out)
    dC = np.zeros((B, M))
    d_grid = np.zeros_like(grid)
    da = np.empty((B, 4 * M))
    V = np.zeros((B, grid.shape[0]))
    V[:, -1] = 1.0
    U2 = grid[N : N + M]
    for t in range(T - 1, -1, -1):
        i, f, g, o = (acts[t][:, k * M : (k + 1) * M] for k in range(4))
        tc = np.tanh(C[t])
        dC = dC + dH * o * (1.0 - tc * tc)
        C_prev = C[t - 1] if t > 0 else 0.0
        da[:, :M] = dC * g * i * (1.0 - i)
        da[:, M : 2 * M] = dC * C_prev * f * (1.0 - f)
        da[:, 2 * M : 3 * M] = dC * i * (1.0 - g * g)
        da[:, 3 * M :] = dH * tc * o * (1.0 - o)
        V[:, :N] = X[:, t, :]
        V[:, N : N + M] = h[t - 1] if t > 0 else 0.0
        d_grid += V.T @ da
        dH = da @ U2.T
        dC = dC * f
    return loss, d_grid, dw_out, db_out
