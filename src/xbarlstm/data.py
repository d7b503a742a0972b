"""Dataset ingestion, min-max normalization, windowing, split, and RMSE.

The 144-point monthly airline passenger series ships with the package so
experiments and tests run hermetically. CSV format: one header line, then
rows of ``"<YYYY-MM>",<integer passengers>``; blank trailing lines are
ignored.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BUNDLED_DATASET = Path(__file__).parent / "data" / "airline-passengers.csv"


@dataclass
class TimeSeries:
    values: np.ndarray
    labels: list | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.size == 0:
            raise ValueError("time series is empty")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("time series contains non-finite values")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class Normalizer:
    min: float
    max: float

    def __post_init__(self):
        if not self.min < self.max:
            raise ValueError(f"degenerate range [{self.min}, {self.max}]")


@dataclass
class WindowedSeries:
    """Supervised pairs: x[k] = values[k : k+look_back], y[k] = values[k+look_back]."""

    x: np.ndarray
    y: np.ndarray
    look_back: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.x.shape[1] != self.look_back:
            raise ValueError(f"window array {self.x.shape} does not match look_back={self.look_back}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError(f"{self.x.shape[0]} windows but {self.y.shape} targets")

    def __len__(self):
        return self.x.shape[0]

    def __getitem__(self, k):
        return self.x[k], self.y[k]

    def take(self, start, stop):
        return WindowedSeries(self.x[start:stop], self.y[start:stop], self.look_back)

    def inputs(self) -> np.ndarray:
        """The windows as the kernels' input X [B, T, 1], one series value per step."""
        return np.ascontiguousarray(self.x[:, :, None])


def load_series(path) -> TimeSeries:
    """Read a passenger-count CSV; raises with the line number on bad rows."""
    path = Path(path)
    labels = []
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: file is empty")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue  # blank trailing lines
        if len(row) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
        label, raw = row
        try:
            values.append(float(raw))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number: {raw!r}") from None
        labels.append(label)
    if not values:
        raise ValueError(f"{path}: no data rows")
    return TimeSeries(np.array(values), labels)


def fit_normalizer(series: TimeSeries) -> Normalizer:
    lo = float(np.min(series.values))
    hi = float(np.max(series.values))
    if lo == hi:
        raise ValueError("cannot normalize a constant series (zero range)")
    return Normalizer(lo, hi)


def normalize(series: TimeSeries, n: Normalizer) -> TimeSeries:
    scaled = (series.values - n.min) / (n.max - n.min)
    return TimeSeries(scaled, series.labels)


def denormalize(values, n: Normalizer) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * (n.max - n.min) + n.min


def make_windows(series: TimeSeries, look_back: int) -> WindowedSeries:
    """Stride-1 sliding windows; sample count = len(series) - look_back."""
    if look_back < 1:
        raise ValueError(f"look_back must be >= 1, got {look_back}")
    v = series.values
    if len(v) <= look_back:
        raise ValueError(f"series of length {len(v)} is too short for look_back={look_back}")
    count = len(v) - look_back
    x = np.empty((count, look_back))
    for k in range(count):
        x[k] = v[k : k + look_back]
    return WindowedSeries(x, v[look_back:].copy(), look_back)


def split(train_fraction: float, windows: WindowedSeries):
    """Chronological split into floor(n * fraction) train samples and the rest."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(windows)
    n_train = int(math.floor(n * train_fraction))
    if n_train == 0 or n_train == n:
        raise ValueError(f"split of {n} samples at {train_fraction} leaves one side empty")
    return windows.take(0, n_train), windows.take(n_train, n)


def rmse(predictions, targets, denorm: Normalizer | None = None) -> float:
    """Root of the mean squared error; with a Normalizer, both sides are
    mapped back to original units first."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} predictions vs {t.shape} targets")
    if p.size == 0:
        raise ValueError("rmse of empty sequences is undefined")
    if denorm is not None:
        p = denormalize(p, denorm)
        t = denormalize(t, denorm)
    return float(np.sqrt(np.mean((p - t) ** 2)))
