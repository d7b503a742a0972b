"""Floating-point reference LSTM: cell step, dense output, sequence forward.

This is the exact double-precision path the crossbar model is checked
against. Everything here is a pure function of immutable inputs; the
crossbar and training modules own quantization and parameter updates.

Gate axis order is (input, forget, cell, output) everywhere, matching the
left-to-right column packing of :meth:`LstmParams.grid`, the one weight
layout that the training kernels and the crossbar share.
"""

from dataclasses import dataclass

import numpy as np

GATES = ("i", "f", "c", "o")


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
class LstmState:
    """Hidden output h and cell state C carried between time steps."""

    h: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.float64)
        self.C = np.asarray(self.C, dtype=np.float64)
        if self.h.shape != self.C.shape or self.h.ndim != 1:
            raise ValueError(f"h and C must be equal-length vectors, got {self.h.shape} and {self.C.shape}")

    @classmethod
    def zeros(cls, dims: Dims) -> "LstmState":
        return cls(np.zeros(dims.n_hidden), np.zeros(dims.n_hidden))

    def copy(self) -> "LstmState":
        return LstmState(self.h.copy(), self.C.copy())


@dataclass
class GateActivations:
    """Post-activation gate values of one step: i, f, o in (0,1), c_tilde in (-1,1)."""

    i: np.ndarray
    f: np.ndarray
    c_tilde: np.ndarray
    o: np.ndarray


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


def sigmoid(x):
    """Logistic function, saturates gracefully for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def tanh(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.tanh(x)
    if out.ndim == 0:
        return float(out)
    return out


def lstm_cell(a: np.ndarray, C_prev: np.ndarray):
    """The LSTM cell equations, the only place they are written.

    a holds gate pre-activations [..., 4M] in grid column order (gate g of
    unit m at g * M + m), C_prev the previous cell state [..., M]:

    i, f, o = sigma(a_i, a_f, a_o),  c_tilde = tanh(a_c),
    C_t = f * C_prev + i * c_tilde,  h_t = o * tanh(C_t).

    Returns (acts, C_t, h_t) with acts the post-activation gates in a's layout.
    """
    m = C_prev.shape[-1]
    acts = sigmoid(a)
    acts[..., 2 * m : 3 * m] = np.tanh(a[..., 2 * m : 3 * m])
    i, f, c_tilde, o = (acts[..., g * m : (g + 1) * m] for g in range(4))
    C_t = f * C_prev + i * c_tilde
    return acts, C_t, o * np.tanh(C_t)


def lstm_step(params: LstmParams, x_t: np.ndarray, prev: LstmState):
    """One LSTM cell step on the float weights.

    Returns (GateActivations, LstmState); gate internals are exposed so the
    crossbar path can be cross-checked cycle by cycle.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    n, m = params.dims.n_inputs, params.dims.n_hidden
    if x_t.shape != (n,):
        raise ValueError(f"x_t has shape {x_t.shape}, expected ({n},) to match W")
    if prev.h.shape != (m,):
        raise ValueError(f"prev.h has shape {prev.h.shape}, expected ({m},) to match U")
    acts, C_t, h_t = lstm_cell(np.concatenate([x_t, prev.h, [1.0]]) @ params.grid(), prev.C)
    return GateActivations(*acts.reshape(4, m)), LstmState(h_t, C_t)


def dense_output(h: np.ndarray, out: OutputLayer) -> float:
    """Affine readout w_out . h + b_out, no nonlinearity."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != out.w_out.shape:
        raise ValueError(f"h has shape {h.shape}, expected {out.w_out.shape} to match w_out")
    return float(h @ out.w_out + out.b_out)


def forward_sequence(params: LstmParams, out: OutputLayer, inputs, initial: LstmState | None = None):
    """Run the cell over a sequence, reading out a prediction after every step.

    Returns (predictions, final_state). With no initial state the run starts
    from h = 0, C = 0, so the first step's cell state is i * c_tilde.
    """
    state = LstmState.zeros(params.dims) if initial is None else initial.copy()
    predictions = []
    for x_t in inputs:
        _, state = lstm_step(params, np.atleast_1d(np.asarray(x_t, dtype=np.float64)), state)
        predictions.append(dense_output(state.h, out))
    return predictions, state
