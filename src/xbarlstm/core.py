"""The LSTM model: its dimensions, weights, output layer and cell equations.

:func:`lstm_cell` is the one place the gate equations are written; the one
unroll over a window batch, shared by the float and the crossbar path, is
``kernels.crossbar_unroll``. Everything here is a pure function of its
inputs; the crossbar and training modules own quantization and parameter
updates.

Gate axis order is (input, forget, cell, output) everywhere, matching the
left-to-right column packing of :meth:`LstmParams.grid`, the one weight
layout that the training kernels and the crossbar share.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dims:
    """Model dimensions: n_inputs per step, n_hidden LSTM units."""

    n_inputs: int
    n_hidden: int

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ValueError(f"n_inputs must be >= 1, got {self.n_inputs}")
        if self.n_hidden < 1:
            raise ValueError(f"n_hidden must be >= 1, got {self.n_hidden}")


@dataclass
class LstmParams:
    """Gate weights of one LSTM layer, stacked on a leading gate axis.

    W: [4, n_inputs, n_hidden] input weights, U: [4, n_hidden, n_hidden]
    recurrent weights, b: [4, n_hidden] biases; gate order (i, f, c, o).
    """

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.U = np.asarray(self.U, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        n, m = self.dims.n_inputs, self.dims.n_hidden
        if self.W.shape != (4, n, m):
            raise ValueError(f"W must be [4, n_inputs, n_hidden], got {self.W.shape}")
        if self.U.shape != (4, m, m):
            raise ValueError(f"U must be [4, n_hidden, n_hidden], got {self.U.shape}")
        if self.b.shape != (4, m):
            raise ValueError(f"b must be [4, n_hidden], got {self.b.shape}")

    @property
    def dims(self) -> Dims:
        return Dims(self.W.shape[1], self.W.shape[2])

    @classmethod
    def zeros(cls, dims: Dims) -> "LstmParams":
        n, m = dims.n_inputs, dims.n_hidden
        return cls(np.zeros((4, n, m)), np.zeros((4, m, m)), np.zeros((4, m)))

    def copy(self) -> "LstmParams":
        return LstmParams(self.W.copy(), self.U.copy(), self.b.copy())

    def grid(self) -> np.ndarray:
        """The one weight layout: rows [x; h; bias] by 4M columns, column
        g * M + m carrying gate g of hidden unit m. This is the crossbar's
        row and column order, so [x_t, h_prev, 1] @ grid gives every gate
        pre-activation of one step."""
        n, m = self.dims.n_inputs, self.dims.n_hidden
        stacked = np.concatenate([self.W, self.U, self.b[:, None, :]], axis=1)
        return stacked.transpose(1, 0, 2).reshape(n + m + 1, 4 * m)

    @classmethod
    def from_grid(cls, grid) -> "LstmParams":
        """Inverse of :meth:`grid`; the dims follow from the grid's shape."""
        grid = np.asarray(grid, dtype=np.float64)
        rows, cols = grid.shape
        m = cols // 4
        n = rows - m - 1
        if cols != 4 * m or n < 1:
            raise ValueError(f"grid of shape {grid.shape} is not [n_inputs + n_hidden + 1, 4 * n_hidden]")
        gates = grid.reshape(rows, 4, m).transpose(1, 0, 2)
        return cls(gates[:, :n].copy(), gates[:, n : n + m].copy(), gates[:, n + m].copy())


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

    @classmethod
    def zeros(cls, dims: Dims) -> "OutputLayer":
        return cls(np.zeros(dims.n_hidden), 0.0)

    def copy(self) -> "OutputLayer":
        return OutputLayer(self.w_out.copy(), self.b_out)


def sigmoid(x, out=None):
    """Logistic function, saturates gracefully for large |x|: exp only ever
    sees -|x|, so it never overflows. With out given the result is written
    there, numpy-style; a scalar x gives a float."""
    x = np.asarray(x, dtype=np.float64)
    e = np.empty_like(x)
    np.abs(x, out=e)
    np.negative(e, out=e)
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

    a holds gate pre-activations [..., 4M] in grid column order (gate g of
    unit m at g * M + m), C_prev the previous cell state [..., M]:

    i, f, o = sigma(a_i, a_f, a_o),  c_tilde = tanh(a_c),
    C_t = f * C_prev + i * c_tilde,  h_t = o * tanh(C_t).

    Returns (acts, C_t, h_t) with acts the post-activation gates in a's
    layout. out, numpy-style, is an (acts, C_t, h_t) tuple of arrays to
    write them into; C_t may be C_prev itself. Without out they are
    allocated.
    """
    m = C_prev.shape[-1]
    if out is None:
        state = np.broadcast_shapes(a.shape[:-1] + (m,), C_prev.shape)
        out = np.empty(a.shape), np.empty(state), np.empty(state)
    acts, C_t, h_t = out
    # one sigmoid over all 4M columns, c's included and then overwritten: at
    # these widths that is cheaper than skipping the c block
    sigmoid(a, out=acts)
    i, f, c_tilde, o = acts[..., :m], acts[..., m : 2 * m], acts[..., 2 * m : 3 * m], acts[..., 3 * m :]
    np.tanh(a[..., 2 * m : 3 * m], out=c_tilde)
    np.multiply(i, c_tilde, out=h_t)  # h_t holds i * c_tilde until C_t is done
    np.multiply(f, C_prev, out=C_t)
    C_t += h_t
    np.tanh(C_t, out=h_t)
    h_t *= o
    return acts, C_t, h_t
