"""From-scratch BPTT training with range-constrained weights.

The trainer unrolls the cell through every window, computes exact
reverse-mode gradients of the mean squared error, and clamps every
parameter (LSTM and output layer) back into the configured range after
each update. Gradient correctness is checkable against central finite
differences via :func:`finite_difference_check`.
"""

from dataclasses import dataclass, field

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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not self.clamp_low < self.clamp_high:
            raise ValueError(f"clamp range [{self.clamp_low}, {self.clamp_high}] is empty")


@dataclass
class GradientSet:
    """Gradients, shape-congruent to LstmParams plus the output layer."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    w_out: np.ndarray
    b_out: float

    def groups(self):
        return {"W": self.W, "U": self.U, "b": self.b, "w_out": self.w_out,
                "b_out": np.array([self.b_out])}


def mse_loss(predictions, targets) -> float:
    """Mean of squared differences."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} predictions vs {t.shape} targets")
    if p.size == 0:
        raise ValueError("mse_loss of empty sequences is undefined")
    return float(np.mean((p - t) ** 2))


def _batch_arrays(batch):
    """WindowedSeries -> (X [B, T, 1], y [B]); each window value is one step."""
    X = np.ascontiguousarray(batch.x[:, :, None], dtype=np.float64)
    y = np.ascontiguousarray(batch.y, dtype=np.float64)
    return X, y


def batch_predictions(params: LstmParams, out: OutputLayer, batch) -> np.ndarray:
    """Last-step prediction of every window, each run from the zero state."""
    X, _ = _batch_arrays(batch)
    h, *_ = kernels.crossbar_unroll(params.grid(), X)
    return h[-1] @ out.w_out + out.b_out


def bptt_gradients(params: LstmParams, out: OutputLayer, batch):
    """Exact gradients of the batch MSE through all time steps.

    Returns (GradientSet, loss).
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    X, y = _batch_arrays(batch)
    loss, d_grid, dw_out, db_out = kernels.batch_loss_and_grads(params.grid(), out.w_out, out.b_out, X, y)
    d = LstmParams.from_grid(d_grid)
    return GradientSet(d.W, d.U, d.b, dw_out, db_out), float(loss)


def init_parameters(dims: Dims, rng: np.random.Generator, clamp_low=-1.0, clamp_high=1.0):
    """Seeded init: uniform Glorot input/output weights, orthogonal recurrent
    weights, zero biases except a forget-gate bias of one."""
    n, m = dims.n_inputs, dims.n_hidden
    limit_w = min(np.sqrt(6.0 / (n + m)), clamp_high)
    W = rng.uniform(-limit_w, limit_w, (4, n, m))
    U = np.empty((4, m, m))
    for g in range(4):
        q, r = np.linalg.qr(rng.standard_normal((m, m)))
        U[g] = q * np.sign(np.diag(r))
    b = np.zeros((4, m))
    b[1, :] = 1.0  # forget gate starts open
    limit_out = min(np.sqrt(6.0 / (m + 1)), clamp_high)
    w_out = rng.uniform(-limit_out, limit_out, m)
    params = LstmParams(np.clip(W, clamp_low, clamp_high), U, np.clip(b, clamp_low, clamp_high))
    return params, OutputLayer(np.clip(w_out, clamp_low, clamp_high), 0.0)


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
    X, y = _batch_arrays(dataset)

    # Adam, SGD and the clamp are elementwise, so they run on the weight grid
    tensors = [params.grid(), out.w_out, np.array([out.b_out])]
    m_state = [np.zeros_like(p) for p in tensors]
    v_state = [np.zeros_like(p) for p in tensors]

    loss_history = []
    for epoch in range(cfg.epochs):
        if cfg.shuffle:
            perm = rng.permutation(len(y))
            Xe, ye = np.ascontiguousarray(X[perm]), np.ascontiguousarray(y[perm])
        else:
            Xe, ye = X, y
        loss, *grads = kernels.batch_loss_and_grads(tensors[0], tensors[1], tensors[2][0], Xe, ye)
        if not np.isfinite(loss):
            raise RuntimeError(f"training aborted: non-finite loss at epoch {epoch + 1}")
        loss_history.append(float(loss))

        if cfg.optimizer == "adam":
            t = epoch + 1
            bc1 = 1.0 - cfg.beta1**t
            bc2 = 1.0 - cfg.beta2**t
            for k, grad in enumerate(grads):
                m_state[k] = cfg.beta1 * m_state[k] + (1.0 - cfg.beta1) * grad
                v_state[k] = cfg.beta2 * v_state[k] + (1.0 - cfg.beta2) * grad**2
                tensors[k] -= cfg.learning_rate * (m_state[k] / bc1) / (np.sqrt(v_state[k] / bc2) + cfg.eps)
        else:
            for p, grad in zip(tensors, grads):
                p -= cfg.learning_rate * grad

        for p in tensors:
            np.clip(p, cfg.clamp_low, cfg.clamp_high, out=p)

    grid, w_out, b_out = tensors
    return LstmParams.from_grid(grid), OutputLayer(w_out, b_out[0]), loss_history


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
                            gradients: GradientSet | None = None,
                            magnitude_floor: float = 1e-8) -> FdCheckReport:
    """Compare analytic gradients against central finite differences.

    Relative error is reported where either gradient magnitude exceeds
    magnitude_floor; a supplied GradientSet is checked instead of a freshly
    computed one (handy as a negative control).
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    if gradients is None:
        gradients, _ = bptt_gradients(params, out, batch)

    X, y = _batch_arrays(batch)
    grid = params.grid()
    w_out = out.w_out.copy()
    b_out_box = np.array([out.b_out])

    def loss_at():
        h, *_ = kernels.crossbar_unroll(grid, X)
        return float(np.mean((h[-1] @ w_out + b_out_box[0] - y) ** 2))

    numeric = {}
    for name, arr in (("grid", grid), ("w_out", w_out), ("b_out", b_out_box)):
        numeric[name] = np.zeros_like(arr)
        flat, nflat = arr.reshape(-1), numeric[name].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            up = loss_at()
            flat[idx] = keep - step
            down = loss_at()
            flat[idx] = keep
            nflat[idx] = (up - down) / (2.0 * step)
    d = LstmParams.from_grid(numeric.pop("grid"))
    numeric.update(W=d.W, U=d.U, b=d.b)

    errors = {}
    worst = 0.0
    for name, analytic in gradients.groups().items():
        scale = np.maximum(np.abs(analytic), np.abs(numeric[name]))
        mask = scale > magnitude_floor
        rel = np.zeros_like(scale)
        rel[mask] = np.abs(analytic - numeric[name])[mask] / scale[mask]
        errors[name] = float(rel.max()) if rel.size else 0.0
        worst = max(worst, errors[name])
    return FdCheckReport(errors, worst < tolerance, step, tolerance, magnitude_floor)
