"""From-scratch BPTT training with range-constrained weights.

The trainer unrolls the cell through every window, computes exact
reverse-mode gradients of the mean squared error, and clamps every
parameter (LSTM and output layer) back into the configured range after
each update. A training allocates its arrays once and every epoch writes
into them: BPTT its gradients, Adam its formula's ufuncs, in place.
"""

import math

import numpy as np

from . import kernels
from .config import TrainConfig
from .kernels import LstmParams, OutputLayer


def batch_predictions(params: LstmParams, out: OutputLayer, batch) -> np.ndarray:
    """Last-step prediction of every window, each run from the zero state."""
    h, *_ = kernels.crossbar_unroll(params.grid, batch.inputs())
    return h[-1] @ out.w_out + out.b_out


def init_parameters(n_inputs: int, n_hidden: int, rng: "np.random.Generator", clamp_low, clamp_high):
    """Seeded init: uniform Glorot input/output weights, orthogonal recurrent
    weights, zero biases except a forget-gate bias of one. Every weight is
    then clamped into [clamp_low, clamp_high], the range training keeps."""
    n, m = n_inputs, n_hidden
    grid = np.zeros((n + m + 1, 4 * m))
    gates = grid.reshape(n + m + 1, 4, m).transpose(1, 0, 2)  # gates[g]: gate g's [R, M] columns
    limit_w = min(np.sqrt(6.0 / (n + m)), clamp_high)
    gates[:, :n] = rng.uniform(-limit_w, limit_w, (4, n, m))
    for g in range(4):
        q, r = np.linalg.qr(rng.standard_normal((m, m)))
        gates[g, n : n + m] = q * np.sign(np.diag(r))
    gates[1, n + m] = 1.0  # forget gate starts open
    np.clip(grid, clamp_low, clamp_high, out=grid)
    limit_out = min(np.sqrt(6.0 / (m + 1)), clamp_high)
    w_out = rng.uniform(-limit_out, limit_out, m)
    return LstmParams(grid), OutputLayer(np.clip(w_out, clamp_low, clamp_high), 0.0)


def train(dataset, cfg: TrainConfig):
    """Train an LSTM of cfg.hidden_units units, as wide in its inputs as a
    step of dataset.inputs(), with cfg.epochs full-batch updates; every
    parameter is clamped into [cfg.clamp_low, cfg.clamp_high] after each step.

    Returns (params, out_layer, loss_history) with one loss entry per epoch,
    evaluated before that epoch's update. Deterministic for a fixed seed.
    """
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    X, y = dataset.inputs(), dataset.y
    rng = np.random.default_rng(cfg.seed)
    params, out = init_parameters(X.shape[-1], cfg.hidden_units, rng, cfg.clamp_low, cfg.clamp_high)

    # Adam, SGD and the clamp are elementwise, so they run once per epoch on
    # one flat vector theta = [grid, w_out, b_out], which the kernel reads
    # through views; BPTT writes its gradients in the same layout, to work.grad.
    theta = np.concatenate([params.grid.ravel(), out.w_out, [out.b_out]])
    n = params.grid.size
    grid, w_out, b_out = theta[:n].reshape(params.grid.shape), theta[n:-1], theta[-1:].reshape(())
    work = kernels.Workspace(grid.shape, X.shape)
    grad, m_state, v_state, tmp, step = work.grad, *np.zeros((4, theta.size))

    loss_history = []
    # a diverging run overflows on its way to the non-finite loss reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            batch = rng.permutation(len(y)) if cfg.shuffle else slice(None)
            loss = kernels.batch_loss_and_grads(grid, w_out, b_out, X[batch], y[batch], work)[0]
            if not math.isfinite(loss):
                raise RuntimeError(f"training aborted: non-finite loss at epoch {epoch + 1}")
            loss_history.append(loss)

            if cfg.optimizer == "adam":
                bc1, bc2 = 1.0 - cfg.beta1 ** (epoch + 1), 1.0 - cfg.beta2 ** (epoch + 1)
                # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, step = lr (m / bc1) / (sqrt(v / bc2) + eps)
                m_state *= cfg.beta1
                m_state += np.multiply(grad, 1.0 - cfg.beta1, out=tmp)
                v_state *= cfg.beta2
                v_state += np.multiply(np.multiply(grad, grad, out=tmp), 1.0 - cfg.beta2, out=tmp)
                np.multiply(np.divide(m_state, bc1, out=step), cfg.learning_rate, out=step)
                step /= np.add(np.sqrt(np.divide(v_state, bc2, out=tmp), out=tmp), cfg.eps, out=tmp)
            else:
                np.multiply(grad, cfg.learning_rate, out=step)
            theta -= step
            # np.clip as its two ufuncs: its Python wrapper costs more than both
            np.minimum(np.maximum(theta, cfg.clamp_low, out=theta), cfg.clamp_high, out=theta)

    return LstmParams(grid), OutputLayer(w_out, b_out), loss_history
