"""The LSTM model: its weights, output layer and cell equations, the one
unroll of the cell over a window batch, and its BPTT.

:func:`lstm_cell` is the one place the gate equations are written, and
:func:`crossbar_unroll` the one unroll. Both the float path and the crossbar
path run there: the float path passes ``LstmParams.grid`` and no gain; the
crossbar path, the chunk loop behind ``crossbar.monte_carlo`` and
``crossbar.sweep``, passes the differential column currents of each device
in weight units, the ideal ``CrossbarProgram.grid()`` or its level-varied
draw, with the device's per-read gains 1 + noise. Callers that run them
every epoch or chunk pass a Workspace, their arrays allocated once. The
crossbar and training modules own quantization and parameter updates. The
scalar loop versions that check these kernels live with the tests, in
``tests/_oracles.py``.

Array conventions: gate order is (input, forget, cell, output) everywhere.
Weight grid [N + M + 1, 4M] with rows [x; h; bias] and column g * M + m
carrying gate g of hidden unit m, the one weight layout that training and
the crossbar share; window batches X [B, T, N]; read gains in the
crossbar's read order [B, T, M, 4], window, step, cycle, gate; results laid
out [T, B, M], and column reads and gates gate-first, [T, 4, B, M], one
contiguous block per gate. The forward also takes a stack of devices on
leading axes of the grid and the gain: results [T, (4,) ..., B, M].
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class LstmParams:
    """Gate weights of one LSTM layer as the crossbar holds them.

    grid: [n_inputs + n_hidden + 1, 4 * n_hidden], rows [x; h; bias] by
    columns g * M + m carrying gate g of hidden unit m, gate order
    (i, f, c, o). This is the crossbar's row and column order, so
    [x_t, h_prev, 1] @ grid gives every gate pre-activation of one step.
    """

    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        rows, cols = self.grid.shape if self.grid.ndim == 2 else (0, 0)
        if cols < 4 or cols % 4 or rows < cols // 4 + 2:
            raise ValueError(f"grid of shape {self.grid.shape} is not [n_inputs + n_hidden + 1, 4 * n_hidden]")


def grid_dims(shape) -> tuple:
    """(n_inputs, n_hidden) of a [n_inputs + n_hidden + 1, 4 * n_hidden] grid shape."""
    return shape[0] - shape[1] // 4 - 1, shape[1] // 4


@dataclass
class OutputLayer:
    """Affine readout with no activation: prediction = w_out . h + b_out."""

    w_out: np.ndarray
    b_out: float

    def __post_init__(self):
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.b_out = float(self.b_out)
        if self.w_out.ndim != 1:
            raise ValueError(f"w_out must be a vector, got shape {self.w_out.shape}")


def sigmoid(x, out=None, scratch=None):
    """Logistic function, saturates gracefully for large |x|: exp only ever
    sees -|x|, so it never overflows. With out given the result is written
    there, numpy-style; a scalar x gives a float. scratch, a float and a
    bool array of x's shape, holds the intermediates instead of new ones."""
    x = np.asarray(x, dtype=np.float64)
    e, mask = scratch or (np.empty_like(x), np.empty(x.shape, bool))
    np.negative(np.abs(x, out=e), out=e)  # -|x|
    np.exp(e, out=e)
    if out is None:
        out = np.empty_like(x)
    np.add(e, 1.0, out=out)
    # e where x < 0, else 1 (e <= 1 there); NaN stays NaN
    np.greater_equal(x, 0, out=mask)
    np.maximum(e, mask, out=e)
    np.divide(e, out, out=out)
    return float(out) if out.ndim == 0 else out


def lstm_cell(a: np.ndarray, C_prev: np.ndarray, out=None, scratch=None):
    """The LSTM cell equations, the only place they are written.

    a holds gate pre-activations gate-first, [4, *S] in gate order
    (i, f, c, o), so each gate is one contiguous block; C_prev is the
    previous cell state [*S]:

    i, f, o = sigma(a_i, a_f, a_o),  c_tilde = tanh(a_c),
    C_t = f * C_prev + i * c_tilde,  h_t = o * tanh(C_t).

    Returns (acts, C_t, h_t) with acts the post-activation gates in a's
    layout and C_t, h_t shaped [*S]. out, numpy-style, is an (acts, C_t,
    h_t) tuple of arrays to write them into; C_t may be C_prev itself.
    Without out they are allocated; with out and sigmoid's scratch, nothing is.
    """
    if out is None:
        state = np.broadcast_shapes(a.shape[1:], C_prev.shape)
        out = np.empty(a.shape), np.empty(state), np.empty(state)
    acts, C_t, h_t = out
    # one sigmoid over all four blocks, c's included and then overwritten:
    # at train's sizes that is cheaper than skipping the c block
    sigmoid(a, out=acts, scratch=scratch)
    i, f, c_tilde, o = acts
    np.tanh(a[2], out=c_tilde)
    np.multiply(i, c_tilde, out=h_t)  # h_t holds i * c_tilde until C_t is done
    np.multiply(f, C_prev, out=C_t)
    C_t += h_t
    np.tanh(C_t, out=h_t)
    h_t *= o
    return acts, C_t, h_t


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
    columns at once. With gain [B, T, M, 4] given, in the crossbar's read
    order, the read of gate g of unit m at step t of window b is multiplied
    by gain[b, t, m, g], a read-noise gain 1 + noise. Returns
    (h, reads, acts, C): hidden outputs and cell states [T, B, M], column
    reads and post-activation gates gate-first, [T, 4, B, M]. They are
    written into work, a Workspace for these shapes, and its out is what is
    returned; without it they are allocated.

    Leading device axes on grid [..., R, 4M] and gain [..., B, T, M, 4]
    broadcast against each other; the windows are shared, and the results
    gain the broadcast axes before B, as [T, (4,) ..., B, M]. Each device's
    results equal those of its own call bit for bit.
    """
    B, T, N = X.shape
    *lead, R, C4 = grid.shape
    if gain is not None:
        lead = np.broadcast_shapes(tuple(lead), gain.shape[:-4])
    M = C4 // 4
    if R != N + M + 1:
        raise ValueError(f"weights have n_inputs={R - M - 1} but the windows carry {N} feature(s) per step")
    # gate-first views [4, ..., R, M] of the grid and [T, 4, ..., B, M] of the
    # gain, no copy; unit axes give each every device axis, so the gate axis never pairs with one
    L = len(lead)
    grid4 = grid.reshape(*(1,) * (L + 2 - grid.ndim), *grid.shape[:-1], 4, M).transpose(L + 1, *range(L + 1), L + 2)
    if gain is not None:
        gain = gain.reshape(*(1,) * (L + 4 - gain.ndim), *gain.shape).transpose(L + 1, L + 3, *range(L), L, L + 2)
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
