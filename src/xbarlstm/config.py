"""The crossbar and training configs, the dataset's path and the text parsers.

They need no numpy, so the CLI checks every key before it loads numpy;
crossbar, training and data import them from here.
"""

import io
import math
import operator
from dataclasses import dataclass
from pathlib import Path

BUNDLED_DATASET = Path(__file__).parent / "data" / "airline-passengers.csv"

SPACINGS = ("uniform_conductance", "uniform_resistance")


def open_text(path, newline=None) -> io.StringIO:
    """The file as open(path, newline=newline) reads UTF-8 text, one leading
    byte order mark dropped. A byte that is not UTF-8 raises one ValueError
    naming the file and its line."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return io.StringIO(data.decode(), newline=newline)
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b".").splitlines())  # the byte's own line included
        raise ValueError(f"{path}: line {line}: not UTF-8 text ({exc.reason} {data[exc.start]:#04x})") from None


def is_number(token: str) -> bool:
    """Whether float() parses the string."""
    try:
        float(token)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class CrossbarConfig:
    spacing: str = "uniform_conductance"
    read_noise_sigma: float = 0.0
    level_variation_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.spacing not in SPACINGS:
            raise ValueError(f"unknown spacing {self.spacing!r}")
        for name in ("read_noise_sigma", "level_variation_sigma"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """The one seed rule, for the training seed and each device seed: an
    integer that fits the four 32-bit entropy words of crossbar.seed_sequence_words."""
    value = operator.index(seed)
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if value >= 2**128:
        raise ValueError(f"seed must be < 2**128, got {seed}")


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
    hidden_units: int = 4

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        for name in ("learning_rate", "eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not -math.inf < self.clamp_low < self.clamp_high < math.inf:
            raise ValueError(f"clamp range [{self.clamp_low}, {self.clamp_high}] must be finite and non-empty")
        _check_seed(self.seed)
        if self.hidden_units < 1:
            raise ValueError(f"hidden_units must be >= 1, got {self.hidden_units}")
