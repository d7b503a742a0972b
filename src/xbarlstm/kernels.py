"""The one unroll of the LSTM cell over a window batch, and its BPTT.

Both the float path and the crossbar path run here: the float path passes
``LstmParams.grid`` and no gain; the crossbar path, the chunk loop behind
``crossbar.monte_carlo`` and ``crossbar.sweep``, passes the differential
column currents of each device in weight units, the ideal
``CrossbarProgram.grid()`` or its level-varied draw, with the device's
per-read gains 1 + noise. Callers that run them every epoch or chunk pass
a Workspace, their arrays allocated once. The scalar loop versions that
check these kernels live with the tests, in ``tests/_oracles.py``.

Array conventions: weight grid [N + M + 1, 4M] with rows [x; h; bias] and
column g * M + m carrying gate g of hidden unit m, gate order (i, f, c, o);
window batches X [B, T, N]; results laid out [T, B, M], and column reads,
gates and read gains gate-first, [T, 4, B, M], the reads and gates one
contiguous block per gate. The forward also takes a stack of devices on
leading axes of the grid and the gain: results [T, (4,) ..., B, M].
"""

import numpy as np

from .core import lstm_cell


class Workspace:
    """The arrays an unroll and its BPTT write, allocated once for one grid
    shape, window shape [B, T, N] and device stack lead: out = (h, reads,
    acts, C), a step's sigmoid scratch, the drive V [..., B, R], BPTT's da
    [4, B, M] and grad, flat in theta's layout [grid, w_out, b_out], viewed
    as d_grid and d_w_out. Calls rewrite all they read but V's bias column
    (1) and, at look-back 1, its h columns (0); an unroll leaves V driving
    its last step."""

    def __init__(self, grid_shape, X_shape, lead=()):
        (B, T, _), (R, C4) = X_shape, grid_shape[-2:]
        M = C4 // 4
        state, gates = (T, *lead, B, M), (T, 4, *lead, B, M)
        self.out = np.empty(state), np.empty(gates), np.empty(gates), np.empty(state)
        self.scratch = np.empty(gates[1:]), np.empty(gates[1:], bool)
        self.V, self.da, self.grad = np.zeros((*lead, B, R)), np.empty((4, B, M)), np.empty(R * C4 + M + 1)
        self.V[..., -1] = 1.0
        self.d_grid, self.d_w_out = self.grad[: R * C4].reshape(R, C4), self.grad[R * C4 : -1]


def crossbar_unroll(grid, X, gain=None, work=None):
    """Run every window of X from the zero state through the cell on grid.

    Each step drives the rows with [x_t, h_{t-1}, 1] and reads all 4M
    columns at once. With gain [T, 4, B, M] given, read (t, g, b, m) is
    multiplied by gain[t, g, b, m], a read-noise gain 1 + noise. Returns
    (h, reads, acts, C): hidden outputs and cell states [T, B, M], column
    reads and post-activation gates gate-first, [T, 4, B, M]. They are
    written into work, a Workspace for these shapes, and its out is what is
    returned; without it they are allocated.

    Leading device axes on grid [..., R, 4M] and gain [T, 4, ..., B, M]
    broadcast against each other; the windows are shared, and the results
    gain the broadcast axes before B, as [T, (4,) ..., B, M]. Each device's
    results equal those of its own call bit for bit.
    """
    B, T, N = X.shape
    *lead, R, C4 = grid.shape
    if gain is not None:
        lead = np.broadcast_shapes(tuple(lead), gain.shape[2:-2])
    M = C4 // 4
    if R != N + M + 1:
        raise ValueError(f"weights have n_inputs={R - M - 1} but the windows carry {N} feature(s) per step")
    # gate-first views [4, ..., R, M] of the grid and [T, 4, ..., B, M] of the
    # gain, no copy; unit axes give each every device axis, so the gate axis never pairs with one
    L = len(lead)
    grid4 = grid.reshape(*(1,) * (L + 2 - grid.ndim), *grid.shape[:-1], 4, M).transpose(L + 1, *range(L + 1), L + 2)
    if gain is not None:
        gain = gain.reshape(T, 4, *(1,) * (L + 4 - gain.ndim), *gain.shape[2:])
    work = work or Workspace(grid.shape, X.shape, lead)
    (h, reads, acts, C), V, C_prev = work.out, work.V, 0.0
    if T > 1:
        V[..., N : N + M] = 0.0  # the h the last call left in the drive
    for t in range(T):
        V[..., :N] = X[:, t, :]
        np.matmul(V, grid4, out=reads[t])
        if gain is not None:
            reads[t] *= gain[t]
        lstm_cell(reads[t], C_prev, out=(acts[t], C[t], h[t]), scratch=work.scratch)
        C_prev = C[t]
        if t + 1 < T:
            V[..., N : N + M] = h[t]
    return work.out


def batch_loss_and_grads(grid, w_out, b_out, X, y, work=None):
    """Batch MSE of the last-step predictions and its exact gradients.

    Returns (loss, d_grid, d_w_out, d_b_out): d_grid shaped like grid,
    d_w_out like w_out, d_b_out a float, all three written into the flat
    gradient of work, a Workspace for these shapes, or of a new one.
    """
    B, T, N = X.shape
    M = w_out.shape[0]
    work = work or Workspace(grid.shape, X.shape)
    h, _, acts, C = crossbar_unroll(grid, X, work=work)
    grad, d_grid, d_w_out, V, da = work.grad, work.d_grid, work.d_w_out, work.V, work.da

    errs = h[-1] @ w_out + b_out - y
    loss = float(np.add.reduce(errs * errs) / B)
    errs = errs * 2.0 / B  # d loss / d prediction

    np.matmul(h[-1].T, errs, out=d_w_out)
    grad[-1] = d_b_out = float(np.add.reduce(errs))
    dH = errs[:, None] * w_out
    dC = 0.0
    d_grid.fill(0.0)
    d_gates = d_grid.reshape(-1, 4, M).transpose(1, 0, 2)  # gate-first view [4, R, M]
    tc = np.tanh(C)
    d_tc = 1.0 - tc * tc
    # a sigmoid gate's slope is a * (1 - a), and da below carries its a; tanh's is 1 - c_tilde**2
    d_acts = 1.0 - acts
    d_acts[:, 2] = 1.0 - np.square(acts[:, 2])
    U2 = grid[N : N + M]
    for t in range(T - 1, -1, -1):
        i, f, g, o = acts[t]
        h_prev, C_prev = (h[t - 1], C[t - 1]) if t > 0 else (0.0, 0.0)
        dC = dC + dH * o * d_tc[t]
        np.multiply(dC * g, i, out=da[0])
        np.multiply(dC * C_prev, f, out=da[1])
        np.multiply(dC, i, out=da[2])
        np.multiply(dH * tc[t], o, out=da[3])
        da *= d_acts[t]
        if t < T - 1:  # the unroll left V driving its last step
            V[:, :N] = X[:, t, :]
            V[:, N : N + M] = h_prev
        d_gates += V.T @ da
        if t > 0:
            # one [B, 4M] contraction in U2's (g, m) column order keeps dH's
            # bits; a sum of per-gate products would round differently
            dH = da.transpose(1, 0, 2).reshape(B, 4 * M) @ U2.T
            dC = dC * f
    return loss, d_grid, d_w_out, d_b_out
