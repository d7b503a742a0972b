"""The LSTM model: its weights, output layer and cell equations.

:func:`lstm_cell` is the one place the gate equations are written; the one
unroll over a window batch, shared by the float and the crossbar path, is
``kernels.crossbar_unroll``. Everything here is a pure function of its
inputs; the crossbar and training modules own quantization and parameter
updates.

Gate axis order is (input, forget, cell, output) everywhere, matching the
left-to-right column packing of ``LstmParams.grid``, the one weight layout
that the training kernels and the crossbar share.
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


def sigmoid(x, out=None):
    """Logistic function, saturates gracefully for large |x|: exp only ever
    sees -|x|, so it never overflows. With out given the result is written
    there, numpy-style; a scalar x gives a float."""
    x = np.asarray(x, dtype=np.float64)
    e = np.empty_like(x)
    np.copysign(x, -1.0, out=e)  # -|x|
    np.exp(e, out=e)
    if out is None:
        out = np.empty_like(x)
    np.add(e, 1.0, out=out)
    # e where x < 0, else 1 (e <= 1 there); NaN stays NaN
    np.maximum(e, x >= 0, out=e)
    np.divide(e, out, out=out)
    return float(out) if out.ndim == 0 else out


def lstm_cell(a: np.ndarray, C_prev: np.ndarray, out=None):
    """The LSTM cell equations, the only place they are written.

    a holds gate pre-activations gate-first, [4, *S] in gate order
    (i, f, c, o), so each gate is one contiguous block; C_prev is the
    previous cell state [*S]:

    i, f, o = sigma(a_i, a_f, a_o),  c_tilde = tanh(a_c),
    C_t = f * C_prev + i * c_tilde,  h_t = o * tanh(C_t).

    Returns (acts, C_t, h_t) with acts the post-activation gates in a's
    layout and C_t, h_t shaped [*S]. out, numpy-style, is an (acts, C_t,
    h_t) tuple of arrays to write them into; C_t may be C_prev itself.
    Without out they are allocated.
    """
    if out is None:
        state = np.broadcast_shapes(a.shape[1:], C_prev.shape)
        out = np.empty(a.shape), np.empty(state), np.empty(state)
    acts, C_t, h_t = out
    # one sigmoid over all four blocks, c's included and then overwritten:
    # at train's sizes that is cheaper than skipping the c block
    sigmoid(a, out=acts)
    i, f, c_tilde, o = acts
    np.tanh(a[2], out=c_tilde)
    np.multiply(i, c_tilde, out=h_t)  # h_t holds i * c_tilde until C_t is done
    np.multiply(f, C_prev, out=C_t)
    C_t += h_t
    np.tanh(C_t, out=h_t)
    h_t *= o
    return acts, C_t, h_t
