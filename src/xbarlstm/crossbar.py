"""Behavioral model of the memristive crossbar LSTM.

Weights live on a grid of GST memristors with 16 programmable conductance
levels. A signed weight w in [-1, 1] becomes a differential column pair:
the side matching sign(w) is programmed to the level nearest
G_min + |w| * (G_max - G_min), the other side is parked at level 0
(G_min), so w = 0 is exactly representable and the column current
k * sum(V * (G_plus - G_minus)) with k = 1 / (G_max - G_min) reads out in
weight units.

Rows are ordered [x inputs, h inputs, bias]; the bias row is driven with a
constant 1. Logical column g * M + m carries gate g of hidden unit m, in
gate order (i, f, c, o) - the layout of LstmParams.grid, so the float
path is this path on the ideal weight grid. Evaluation is time
multiplexed: one hidden unit per cycle, four column reads per cycle, M
cycles per time step, with the new h latched into the memory units only
after all M cycles. All M cycles of a step therefore see the same h, and
kernels.crossbar_unroll computes a step's reads together. A Monte-Carlo
sweep over device seeds (monte_carlo) stacks the devices on the kernel's
leading axis, a chunk at a time.

Analog non-idealities are behavioral knobs: multiplicative Gaussian
conductance error at program time (level_variation_sigma) and
multiplicative Gaussian current noise per column read (read_noise_sigma).
A program carries its device config, and every forward reads that one.
Peripheral CMOS stages (mirrors, converters, adders) are taken as ideal
unit-gain. The output layer is not part of the program: a caller that maps
it onto the crossbar too passes the layer from quantize_output_layer.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .core import Dims, LstmParams, OutputLayer

N_LEVELS = 16
R_MIN_OHM = 200e3
R_MAX_OHM = 2000e3

SPACINGS = ("uniform_conductance", "uniform_resistance")
# Devices per stacked unroll in monte_carlo. Eight keeps each per-step array
# of a 143-window, 4-unit sweep ([8, 143, 16], ~146 KB) in cache; chunks of
# 256 ran slower and took ~50 MB more memory.
MC_CHUNK = 8


@dataclass(frozen=True)
class LevelSet:
    """The 16 programmable conductance levels, indexed by ascending conductance.

    Level 0 is the weakest device (G_min = 1/2000 kOhm), level 15 the
    strongest (G_max = 1/200 kOhm); resistances run opposite.
    """

    resistances: np.ndarray
    conductances: np.ndarray
    spacing: str

    def __post_init__(self):
        object.__setattr__(self, "resistances", np.asarray(self.resistances, dtype=np.float64))
        object.__setattr__(self, "conductances", np.asarray(self.conductances, dtype=np.float64))
        if self.spacing not in SPACINGS:
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if len(self.conductances) != N_LEVELS or len(self.resistances) != N_LEVELS:
            raise ValueError(f"level set must hold exactly {N_LEVELS} levels")
        if not np.all(np.diff(self.conductances) > 0):
            raise ValueError("conductances must be strictly increasing")
        if not np.allclose(self.conductances * self.resistances, 1.0, rtol=1e-12):
            raise ValueError("conductances must be reciprocals of resistances")

    @property
    def g_min(self) -> float:
        return float(self.conductances[0])

    @property
    def g_max(self) -> float:
        return float(self.conductances[-1])

    @property
    def k_scale(self) -> float:
        """Current-to-weight-units scale of a differential column read."""
        return 1.0 / (self.g_max - self.g_min)

    @property
    def weight_values(self) -> np.ndarray:
        """Level conductances expressed in weight units, 0 at G_min to 1 at G_max."""
        return (self.conductances - self.g_min) * self.k_scale

    @property
    def max_weight_step(self) -> float:
        """Largest gap between adjacent levels in weight units; half of this
        bounds the quantization error."""
        return float(np.max(np.diff(self.weight_values)))


def build_level_set(spacing: str = "uniform_conductance") -> LevelSet:
    """16 levels spanning 200 kOhm to 2000 kOhm, spaced uniformly either in
    conductance (0.5 to 5 uS, step 0.3 uS) or in resistance (step 120 kOhm)."""
    if spacing == "uniform_conductance":
        g = np.linspace(1.0 / R_MAX_OHM, 1.0 / R_MIN_OHM, N_LEVELS)
        return LevelSet(1.0 / g, g, spacing)
    if spacing == "uniform_resistance":
        r = np.linspace(R_MAX_OHM, R_MIN_OHM, N_LEVELS)
        return LevelSet(r, 1.0 / r, spacing)
    raise ValueError(f"unknown spacing {spacing!r}")


@dataclass(frozen=True)
class CrossbarConfig:
    levels: LevelSet = None
    read_noise_sigma: float = 0.0
    level_variation_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.levels is None:
            object.__setattr__(self, "levels", build_level_set())
        for name in ("read_noise_sigma", "level_variation_sigma"):
            sigma = getattr(self, name)
            if not (np.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _nearest_level(mags: np.ndarray, levels: LevelSet) -> np.ndarray:
    """Index of the level nearest to G_min + mag * (G_max - G_min) for every
    magnitude in [0, 1]; exact half-way ties go to the higher conductance."""
    if levels.spacing == "uniform_conductance":
        # uniform spacing: work in level-step units, where the tie point
        # (k + 0.5) is exactly representable and floor(t + 0.5) rounds it up
        t = mags * (N_LEVELS - 1)
        return np.minimum(np.floor(t + 0.5).astype(np.int64), N_LEVELS - 1)
    target = levels.g_min + mags * (levels.g_max - levels.g_min)
    d = np.abs(target[..., None] - levels.conductances)
    return (N_LEVELS - 1 - np.argmin(d[..., ::-1], axis=-1)).astype(np.int64)


def quantize_levels(weights, levels: LevelSet):
    """The one quantizer: differential-pair level indices for an array of weights.

    Weights outside [-1, 1] are clamped and counted. The side matching the
    sign carries the magnitude; the other side sits at level 0. Returns
    (level_plus, level_minus, n_clamped); non-finite weights raise ValueError.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("cannot quantize a non-finite weight")
    n_clamped = int(np.count_nonzero(np.abs(w) > 1.0))
    w = np.clip(w, -1.0, 1.0)
    idx = _nearest_level(np.abs(w), levels)
    positive = w >= 0
    return np.where(positive, idx, 0), np.where(positive, 0, idx), n_clamped


def _pair_weights(g_plus, g_minus, levels: LevelSet) -> np.ndarray:
    """Weights read out from differential conductance pairs given in siemens."""
    return (g_plus - g_minus) * levels.k_scale


def level_weights(level_plus, level_minus, levels: LevelSet) -> np.ndarray:
    """Weights read out from ideal differential level pairs."""
    g = levels.conductances
    return _pair_weights(g[level_plus], g[level_minus], levels)


def quantize_output_layer(out: OutputLayer, levels: LevelSet):
    """Output layer after the same round trip, for when it is mapped onto
    the crossbar too. Out-of-range entries are clamped and counted; returns
    (OutputLayer, n_clamped)."""
    lp, lm, n_clamped = quantize_levels(np.append(out.w_out, out.b_out), levels)
    q = level_weights(lp, lm, levels)
    return OutputLayer(q[:-1], q[-1]), n_clamped


@dataclass(frozen=True)
class CrossbarProgram:
    """Programmed state of one crossbar: its device config, per-cell level
    indices plus, when level variation is enabled, the perturbed
    conductances actually stored."""

    dims: Dims
    cfg: CrossbarConfig
    level_plus: np.ndarray   # [rows, 4M] int
    level_minus: np.ndarray  # [rows, 4M] int
    g_plus: np.ndarray | None = None   # perturbed siemens, only if level_variation_sigma > 0
    g_minus: np.ndarray | None = None
    n_clamped: int = 0

    @property
    def n_rows(self) -> int:
        return self.dims.n_inputs + self.dims.n_hidden + 1

    @property
    def n_columns(self) -> int:
        return 4 * self.dims.n_hidden

    def grid(self) -> np.ndarray:
        """What reads see, (G_plus - G_minus) * k in weight units, laid out
        like LstmParams.grid: perturbed conductances if programmed with
        level variation, ideal level values otherwise."""
        if self.g_plus is None:
            return level_weights(self.level_plus, self.level_minus, self.cfg.levels)
        return _pair_weights(self.g_plus, self.g_minus, self.cfg.levels)

    @property
    def _variation_shape(self) -> tuple:
        """One device's level-variation draws: plus side, then minus side."""
        return (2, self.n_rows, self.n_columns)

    def _read_shape(self, batch: int, steps: int) -> tuple:
        """One device's read-noise draws for [batch, steps] of windows, in
        (window, step, cycle, gate) order, the order of the reads on the
        device; _read_noise lays them out."""
        return (batch, steps, self.dims.n_hidden, 4)

    def _varied(self, pert: np.ndarray):
        """Conductances (g_plus, g_minus) of this level map under level
        variation, from standard normal draws pert [..., 2, rows, 4M]."""
        sigma = self.cfg.level_variation_sigma
        g = self.cfg.levels.conductances
        return (np.maximum(g[self.level_plus] * (1.0 + sigma * pert[..., 0, :, :]), 0.0),
                np.maximum(g[self.level_minus] * (1.0 + sigma * pert[..., 1, :, :]), 0.0))

    def with_seed(self, seed: int) -> "CrossbarProgram":
        """The same level map as device ``seed``: level variation re-drawn
        from the seed, read noise seeded by it.

        Reproducible from (seed, level_variation_sigma), which is what lets
        an exported program rebuild the same device state on import.
        """
        cfg = replace(self.cfg, seed=seed)
        if cfg.level_variation_sigma <= 0:
            return replace(self, cfg=cfg, g_plus=None, g_minus=None)
        ss_prog, _ = _seed_streams(seed)
        g_plus, g_minus = self._varied(np.random.default_rng(ss_prog).standard_normal(self._variation_shape))
        return replace(self, cfg=cfg, g_plus=g_plus, g_minus=g_minus)


def _seed_streams(seed: int):
    """A device seed's two child seeds: level variation, then read noise."""
    return np.random.SeedSequence(seed).spawn(2)


def program_crossbar(params: LstmParams, cfg: CrossbarConfig) -> CrossbarProgram:
    """Map every entry of the weight grid onto a differential level pair.

    Out-of-range weights are clamped and counted on the returned program.
    With level_variation_sigma > 0 each device's conductance is perturbed
    multiplicatively with a seeded Gaussian and stored alongside the ideal
    level indices.
    """
    level_plus, level_minus, n_clamped = quantize_levels(params.grid, cfg.levels)
    return CrossbarProgram(params.dims, cfg, level_plus, level_minus, n_clamped=n_clamped).with_seed(cfg.seed)


def reconstruct_weights(program: CrossbarProgram) -> LstmParams:
    """Ideal quantized weights implied by the programmed level indices
    (programming perturbations are deliberately ignored)."""
    return LstmParams(level_weights(program.level_plus, program.level_minus, program.cfg.levels))


def _read_noise(draws: np.ndarray, sigma: float) -> np.ndarray:
    """Noise factors laid out [..., B, T, 4M] like the grid's columns, from
    standard normal draws [..., B, T, M, 4] made in (window, step, cycle,
    gate) order: cycle m reads the four gate columns of unit m."""
    *lead, M, _ = draws.shape
    return np.ascontiguousarray((sigma * draws).swapaxes(-1, -2).reshape(*lead, 4 * M))


def _unroll_program(program: CrossbarProgram, X: np.ndarray) -> np.ndarray:
    """Unroll X [B, T, N] on the programmed grid with the program's seeded
    read noise; returns h [T, B, M]."""
    cfg = program.cfg
    noise = None
    if cfg.read_noise_sigma > 0:
        _, ss_read = _seed_streams(cfg.seed)
        draws = np.random.default_rng(ss_read).standard_normal(program._read_shape(*X.shape[:2]))
        noise = _read_noise(draws, cfg.read_noise_sigma)
    h, *_ = kernels.crossbar_unroll(program.grid(), X, noise)
    return h


def crossbar_forward(program: CrossbarProgram, out: OutputLayer, inputs):
    """Run a sequence through the crossbar cell from the zero state, reading
    out the affine output layer ``out`` every step.

    Read noise is seeded from the program's seed, so a fixed device
    reproduces the same noisy predictions. Returns the list of per-step
    predictions.
    """
    X = np.asarray(inputs, dtype=np.float64)
    if X.size == 0:
        return []
    if X.ndim == 1:
        X = X[:, None]
    h = _unroll_program(program, X[None])
    return list(h[:, 0] @ out.w_out + out.b_out)


def crossbar_window_predictions(program: CrossbarProgram, out: OutputLayer, windows) -> np.ndarray:
    """Last-step crossbar prediction of every window, each from the zero state.

    One seeded noise stream covers the whole batch in window order; with the
    sigmas at zero this equals the float path on the reconstructed weights.
    """
    h = _unroll_program(program, windows.inputs())
    return h[-1] @ out.w_out + out.b_out


def monte_carlo(program: CrossbarProgram, out: OutputLayer, windows, seeds) -> np.ndarray:
    """Last-step crossbar predictions of every window on one device per seed,
    [S, B]: row k is crossbar_window_predictions(program.with_seed(seeds[k]),
    out, windows), bit for bit.

    Each seed's streams are drawn as with_seed and the per-device read noise
    draw them, and MC_CHUNK devices at a time run as one stacked unroll.
    """
    X = windows.inputs()
    B, T = X.shape[:2]
    cfg = program.cfg
    vary, read = cfg.level_variation_sigma > 0, cfg.read_noise_sigma > 0
    pert = np.empty((MC_CHUNK, *program._variation_shape))
    draws = np.empty((MC_CHUNK, *program._read_shape(B, T)))
    grid = level_weights(program.level_plus, program.level_minus, cfg.levels)
    noise = None
    preds = np.empty((len(seeds), B))
    for start in range(0, len(seeds), MC_CHUNK):
        chunk = seeds[start : start + MC_CHUNK]
        for k, seed in enumerate(chunk):
            if seed < 0:  # the check and message of with_seed's CrossbarConfig
                raise ValueError(f"seed must be >= 0, got {seed}")
            ss_prog, ss_read = _seed_streams(seed)
            if vary:
                np.random.default_rng(ss_prog).standard_normal(out=pert[k])
            if read:
                np.random.default_rng(ss_read).standard_normal(out=draws[k])
        n = len(chunk)
        if vary:
            grid = _pair_weights(*program._varied(pert[:n]), cfg.levels)
        if read:
            noise = _read_noise(draws[:n], cfg.read_noise_sigma)
        h, *_ = kernels.crossbar_unroll(grid, X, noise)
        preds[start : start + n] = h[-1] @ out.w_out + out.b_out
    return preds


# ---------------------------------------------------------------------------
# program map file: header, then one line of row level indices per physical
# column (plus line then minus line, logical columns in gate-major order)
# ---------------------------------------------------------------------------

_PROGRAM_MAGIC = "xbarlstm-program v1"
# every header field, in the order written and required on read
_HEADER_KEYS = ("rows", "logical_columns", "n_inputs", "n_hidden", "spacing", "read_noise_sigma",
                "level_variation_sigma", "seed", "levels_siemens", "n_clamped")


def write_program(program: CrossbarProgram, path) -> None:
    cfg = program.cfg
    values = (
        program.n_rows, program.n_columns, program.dims.n_inputs, program.dims.n_hidden,
        cfg.levels.spacing, f"{cfg.read_noise_sigma:.17g}", f"{cfg.level_variation_sigma:.17g}", cfg.seed,
        " ".join(f"{g:.17g}" for g in cfg.levels.conductances), program.n_clamped,
    )
    lines = [_PROGRAM_MAGIC, *(f"{key} {value}" for key, value in zip(_HEADER_KEYS, values)),
             "# one line per physical column: plus then minus per logical column"]
    for col in range(program.n_columns):
        for side in (program.level_plus, program.level_minus):
            lines.append(" ".join(str(int(v)) for v in side[:, col]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_program(path) -> CrossbarProgram:
    """Parse a program map file: every header field in write order, then the
    column lines. Perturbed conductances are re-derived from the recorded
    seed and level_variation_sigma. A bad file raises ValueError naming the
    file and the field."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    try:
        return _parse_program(lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_program(lines) -> CrossbarProgram:
    if not lines or lines[0] != _PROGRAM_MAGIC:
        raise ValueError("not a crossbar program file")
    fields = [ln.partition(" ") for ln in lines[1 : 1 + len(_HEADER_KEYS)]]
    if tuple(key for key, _, _ in fields) != _HEADER_KEYS:
        raise ValueError(f"header must hold the fields {', '.join(_HEADER_KEYS)} in that order")
    header = {key: value for key, _, value in fields}

    def number(key, kind=int):
        try:
            return kind(header[key])
        except ValueError:
            raise ValueError(f"{key} is not {'an integer' if kind is int else 'numeric'}: {header[key]!r}") from None

    dims = Dims(number("n_inputs"), number("n_hidden"))
    levels = build_level_set(header["spacing"])
    stored = number("levels_siemens", lambda raw: np.array(raw.split(), dtype=np.float64))
    if not np.array_equal(stored, levels.conductances):
        raise ValueError(f"level table does not match spacing {header['spacing']!r}")
    cfg = CrossbarConfig(levels, number("read_noise_sigma", float), number("level_variation_sigma", float),
                         number("seed"))

    n_rows, n_cols, n_clamped = number("rows"), number("logical_columns"), number("n_clamped")
    if n_rows != dims.n_inputs + dims.n_hidden + 1 or n_cols != 4 * dims.n_hidden:
        raise ValueError("header dimensions are inconsistent")
    if not 0 <= n_clamped <= n_rows * n_cols:
        raise ValueError(f"n_clamped must be in [0, {n_rows * n_cols}], got {n_clamped}")
    body = [ln.split() for ln in lines[1 + len(_HEADER_KEYS):]]
    if len(body) != 2 * n_cols or any(len(values) != n_rows for values in body):
        raise ValueError(f"expected {2 * n_cols} column lines of {n_rows} level indices each")
    try:
        idx = np.array(body, dtype=np.int64).reshape(n_cols, 2, n_rows)
    except (ValueError, OverflowError):
        raise ValueError("level index is not an integer") from None
    if np.any((idx < 0) | (idx >= N_LEVELS)):
        raise ValueError("level index out of range")
    program = CrossbarProgram(dims, cfg, idx[:, 0].T, idx[:, 1].T, n_clamped=n_clamped)
    return program.with_seed(cfg.seed)
