"""From-scratch BPTT training with range-constrained weights.

The trainer unrolls the cell through every window, computes exact
reverse-mode gradients of the mean squared error, and clamps every
parameter (LSTM and output layer) back into the configured range after
each update. Gradient correctness is checkable against central finite
differences via :func:`finite_difference_check`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import Dims, LstmParams, OutputLayer


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.01
    optimizer: str = "adam"  # "adam" or "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clamp_low: float = -1.0
    clamp_high: float = 1.0
    seed: int = 0
    shuffle: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("learning_rate", "eps"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not -np.inf < self.clamp_low < self.clamp_high < np.inf:
            raise ValueError(f"clamp range [{self.clamp_low}, {self.clamp_high}] must be finite and non-empty")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def batch_predictions(params: LstmParams, out: OutputLayer, batch) -> np.ndarray:
    """Last-step prediction of every window, each run from the zero state."""
    h, *_ = kernels.crossbar_unroll(params.grid, batch.inputs())
    return h[-1] @ out.w_out + out.b_out


def bptt_gradients(params: LstmParams, out: OutputLayer, batch):
    """Exact gradients of the batch MSE through all time steps.

    Returns (loss, d_grid, d_w_out, d_b_out), the gradients shaped like
    params.grid, out.w_out and out.b_out (d_b_out a 0-d array).
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    return kernels.batch_loss_and_grads(params.grid, out.w_out, out.b_out, batch.inputs(), batch.y)


def init_parameters(dims: Dims, rng: "np.random.Generator", clamp_low=-1.0, clamp_high=1.0):
    """Seeded init: uniform Glorot input/output weights, orthogonal recurrent
    weights, zero biases except a forget-gate bias of one. Every weight is
    then clamped into [clamp_low, clamp_high], the range training keeps."""
    n, m = dims.n_inputs, dims.n_hidden
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


def train(dims: Dims, dataset, cfg: TrainConfig):
    """Run cfg.epochs full-batch updates; every parameter is clamped into
    [cfg.clamp_low, cfg.clamp_high] after each step.

    Returns (params, out_layer, loss_history) with one loss entry per epoch,
    evaluated before that epoch's update. Deterministic for a fixed seed.
    """
    if dims.n_inputs != 1:
        raise ValueError("train consumes windowed series: one value per step, n_inputs must be 1")
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    params, out = init_parameters(dims, rng, cfg.clamp_low, cfg.clamp_high)
    X, y = dataset.inputs(), dataset.y

    # Adam, SGD and the clamp are elementwise, so they run once per epoch on
    # one flat vector theta = [grid, w_out, b_out]; the kernel reads and
    # writes its parts through views.
    theta = np.concatenate([params.grid.ravel(), out.w_out, [out.b_out]])
    grad = np.empty_like(theta)
    views, grad_views = _parts(theta, params.grid.shape), _parts(grad, params.grid.shape)
    m_state, v_state = np.zeros(theta.shape), np.zeros(theta.shape)
    step, scratch = np.empty(theta.shape), np.empty(theta.shape)

    loss_history = []
    for epoch in range(cfg.epochs):
        if cfg.shuffle:
            perm = rng.permutation(len(y))
            Xe, ye = X[perm], y[perm]
        else:
            Xe, ye = X, y
        loss, *_ = kernels.batch_loss_and_grads(*views, Xe, ye, out=grad_views)
        if not math.isfinite(loss):
            raise RuntimeError(f"training aborted: non-finite loss at epoch {epoch + 1}")
        loss_history.append(loss)

        if cfg.optimizer == "adam":
            t = epoch + 1
            bc1 = 1.0 - cfg.beta1**t
            bc2 = 1.0 - cfg.beta2**t
            # m = beta1 * m + (1 - beta1) * g and v = beta2 * v + (1 - beta2) * g**2
            m_state *= cfg.beta1
            np.multiply(grad, 1.0 - cfg.beta1, out=scratch)
            m_state += scratch
            v_state *= cfg.beta2
            np.multiply(grad, grad, out=scratch)
            scratch *= 1.0 - cfg.beta2
            v_state += scratch
            # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m_state, bc1, out=step)
            step *= cfg.learning_rate
            np.divide(v_state, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += cfg.eps
            step /= scratch
        else:
            np.multiply(grad, cfg.learning_rate, out=step)
        theta -= step
        np.clip(theta, cfg.clamp_low, cfg.clamp_high, out=theta)

    grid, w_out, b_out = views
    return LstmParams(grid), OutputLayer(w_out, b_out), loss_history


def _parts(flat, grid_shape):
    """Views (grid, w_out, b_out) of a flat [grid, w_out, b_out] vector; b_out is 0-d."""
    n = grid_shape[0] * grid_shape[1]
    return flat[:n].reshape(grid_shape), flat[n:-1], flat[-1:].reshape(())


@dataclass
class FdCheckReport:
    """Per-group max relative error between analytic and numeric gradients."""

    group_errors: dict
    passed: bool
    step: float
    tolerance: float
    magnitude_floor: float = 1e-8

    def __str__(self):
        lines = [f"finite-difference check (step={self.step:g}, tol={self.tolerance:g}):"]
        for name, err in self.group_errors.items():
            lines.append(f"  {name:6s} max rel err = {err:.3e}")
        lines.append("  PASS" if self.passed else "  FAIL")
        return "\n".join(lines)


def finite_difference_check(params: LstmParams, out: OutputLayer, batch,
                            step: float = 1e-5, tolerance: float = 1e-4,
                            gradients=None, magnitude_floor: float = 1e-8) -> FdCheckReport:
    """Compare analytic gradients against central finite differences.

    Relative error is reported per group (grid, w_out, b_out) where either
    gradient magnitude exceeds magnitude_floor; a supplied (d_grid, d_w_out,
    d_b_out) triple is checked instead of a freshly computed one (handy as a
    negative control).
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if gradients is None:
        _, *gradients = bptt_gradients(params, out, batch)

    X, y = batch.inputs(), batch.y
    wrt = {"grid": params.grid.copy(), "w_out": out.w_out.copy(), "b_out": np.array(out.b_out)}

    def loss_at():
        h, *_ = kernels.crossbar_unroll(wrt["grid"], X)
        return float(np.mean((h[-1] @ wrt["w_out"] + wrt["b_out"] - y) ** 2))

    errors = {}
    for (name, arr), analytic in zip(wrt.items(), gradients, strict=True):
        numeric = np.zeros(arr.shape)
        flat, nflat = arr.reshape(-1), numeric.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            up = loss_at()
            flat[idx] = keep - step
            down = loss_at()
            flat[idx] = keep
            nflat[idx] = (up - down) / (2.0 * step)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        mask = scale > magnitude_floor
        rel = np.zeros_like(scale)
        rel[mask] = np.abs(analytic - numeric)[mask] / scale[mask]
        errors[name] = float(rel.max())
    worst = max(errors.values())
    return FdCheckReport(errors, worst < tolerance, step, tolerance, magnitude_floor)
