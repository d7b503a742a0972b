"""The one unroll of the LSTM cell over a window batch, and its BPTT.

Both the float path and the crossbar path run here: the float path passes
``LstmParams.grid`` and no noise, the crossbar path
``CrossbarProgram.grid()``, the differential column currents in weight
units, with its per-read noise factors. The scalar loop versions that
check these kernels live with the tests, in ``tests/_oracles.py``.

Array conventions: weight grid [N + M + 1, 4M] with rows [x; h; bias] and
column g * M + m carrying gate g of hidden unit m, gate order (i, f, c, o);
window batches X [B, T, N]; results laid out [T, B, .]. The forward also
takes a stack of devices on leading axes of the grid and the noise, and
then lays its results out [T, ..., B, .].
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

    Leading device axes on grid [..., R, 4M] and noise [..., B, T, 4M]
    broadcast against each other; the windows are shared, and the results
    gain the broadcast axes after T, as [T, ..., B, .]. Each device's
    results equal those of its own call bit for bit.
    """
    B, T, N = X.shape
    *lead, R, C4 = grid.shape
    if noise is not None:
        lead = np.broadcast_shapes(tuple(lead), noise.shape[:-3])
    M = C4 // 4
    if R != N + M + 1:
        raise ValueError(f"weights have n_inputs={R - M - 1} but the windows carry {N} feature(s) per step")
    h = np.empty((T, *lead, B, M))
    C = np.empty((T, *lead, B, M))
    reads = np.empty((T, *lead, B, C4))
    acts = np.empty((T, *lead, B, C4))
    V = np.zeros((*lead, B, R))
    V[..., R - 1] = 1.0
    C_prev = np.zeros((*lead, B, M))
    scale = None if noise is None else 1.0 + noise
    for t in range(T):
        V[..., :N] = X[:, t, :]
        np.matmul(V, grid, out=reads[t])
        if scale is not None:
            reads[t] *= scale[..., t, :]
        lstm_cell(reads[t], C_prev, out=(acts[t], C[t], h[t]))
        C_prev = C[t]
        V[..., N : N + M] = h[t]
    return h, reads, acts, C


def batch_loss_and_grads(grid, w_out, b_out, X, y, out=None):
    """Batch MSE of the last-step predictions and its exact gradients.

    Returns (loss, d_grid, d_w_out, d_b_out): d_grid shaped like grid,
    d_b_out a 0-d array. out, numpy-style, is a (d_grid, d_w_out, d_b_out)
    tuple of arrays to write the gradients into; without it they are
    allocated.
    """
    B, T, N = X.shape
    M = w_out.shape[0]
    if out is None:
        out = np.empty(grid.shape), np.empty(M), np.empty(())
    d_grid, d_w_out, d_b_out = out
    h, _, acts, C = crossbar_unroll(grid, X)

    errs = h[-1] @ w_out
    errs += b_out
    errs -= y
    loss = float((errs * errs).sum() / B)
    errs *= 2.0
    errs /= B  # now d loss / d prediction

    np.matmul(h[-1].T, errs, out=d_w_out)
    d_b_out[...] = errs.sum()
    dH = errs[:, None] * w_out
    dC = np.zeros((B, M))
    d_grid[...] = 0.0
    # every step's slope factors at once: d_tc = 1 - tanh(C)**2, d_acts = 1 - a
    # on the sigmoid gates and 1 - c_tilde**2 on the c block
    tc = np.tanh(C)
    d_tc = tc * tc
    np.subtract(1.0, d_tc, out=d_tc)
    d_acts = np.subtract(1.0, acts)
    d_c = d_acts[..., 2 * M : 3 * M]
    np.multiply(acts[..., 2 * M : 3 * M], acts[..., 2 * M : 3 * M], out=d_c)
    np.subtract(1.0, d_c, out=d_c)
    da = np.empty((B, 4 * M))
    da_i, da_f, da_g, da_o = da[:, :M], da[:, M : 2 * M], da[:, 2 * M : 3 * M], da[:, 3 * M :]
    tmp = np.empty((B, M))
    V = np.zeros((B, grid.shape[0]))
    V[:, -1] = 1.0
    U2 = grid[N : N + M]
    for t in range(T - 1, -1, -1):
        a, s = acts[t], d_acts[t]
        i, f, g, o = a[:, :M], a[:, M : 2 * M], a[:, 2 * M : 3 * M], a[:, 3 * M :]
        np.multiply(dH, o, out=tmp)
        tmp *= d_tc[t]
        dC += tmp
        np.multiply(dC, g, out=da_i)
        da_i *= i
        da_i *= s[:, :M]
        np.multiply(dC, C[t - 1] if t > 0 else 0.0, out=da_f)
        da_f *= f
        da_f *= s[:, M : 2 * M]
        np.multiply(dC, i, out=da_g)
        da_g *= s[:, 2 * M : 3 * M]
        np.multiply(dH, tc[t], out=da_o)
        da_o *= o
        da_o *= s[:, 3 * M :]
        V[:, :N] = X[:, t, :]
        V[:, N : N + M] = h[t - 1] if t > 0 else 0.0
        d_grid += V.T @ da
        if t > 0:
            dH = da @ U2.T
            dC *= f
    return loss, d_grid, d_w_out, d_b_out
