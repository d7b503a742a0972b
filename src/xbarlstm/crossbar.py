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
gate order (i, f, c, o) - the layout of LstmParams.grid(), so the float
path is this path on the ideal weight grid. Evaluation is time
multiplexed: one hidden unit per cycle, four column reads per cycle, M
cycles per time step, with the new h latched into the memory units only
after all M cycles.

Analog non-idealities are behavioral knobs: multiplicative Gaussian
conductance error at program time (level_variation_sigma) and
multiplicative Gaussian current noise per column read (read_noise_sigma).
Peripheral CMOS stages (mirrors, converters, adders) are taken as ideal
unit-gain, and the output layer stays at full precision unless
quantize_output_layer is set.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import GATES, Dims, GateActivations, LstmParams, LstmState, OutputLayer, lstm_cell

N_LEVELS = 16
R_MIN_OHM = 200e3
R_MAX_OHM = 2000e3

SPACINGS = ("uniform_conductance", "uniform_resistance")


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
    quantize_output_layer: bool = False

    def __post_init__(self):
        if self.levels is None:
            object.__setattr__(self, "levels", build_level_set())
        if self.read_noise_sigma < 0 or self.level_variation_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")


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


def level_weights(level_plus, level_minus, levels: LevelSet) -> np.ndarray:
    """Weights read out from ideal differential level pairs."""
    g = levels.conductances
    return (g[level_plus] - g[level_minus]) * levels.k_scale


def map_weight_to_pair(w: float, levels: LevelSet):
    """Differential-pair level indices (level_plus, level_minus) for one weight.

    Weights outside [-1, 1] are clamped with a warning.
    """
    lp, lm, n_clamped = quantize_levels([w], levels)
    if n_clamped:
        warnings.warn(f"weight {float(w):g} outside [-1, 1]; clamped", stacklevel=2)
    return int(lp[0]), int(lm[0])


def quantize_weight(w: float, levels: LevelSet) -> float:
    """Weight after a round trip through the differential pair mapping."""
    lp, lm = map_weight_to_pair(w, levels)
    return float(level_weights(lp, lm, levels))


def quantize_output_layer(out: OutputLayer, levels: LevelSet) -> OutputLayer:
    """Output layer after the same round trip, for when it is mapped onto
    the crossbar too; out-of-range entries are clamped with a warning."""
    lp, lm, n_clamped = quantize_levels(np.append(out.w_out, out.b_out), levels)
    if n_clamped:
        warnings.warn(f"{n_clamped} output-layer weight(s) outside [-1, 1]; clamped", stacklevel=2)
    q = level_weights(lp, lm, levels)
    return OutputLayer(q[:-1], q[-1])


@dataclass
class CrossbarProgram:
    """Programmed state of one crossbar: per-cell level indices plus, when
    level variation is enabled, the perturbed conductances actually stored."""

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
        like LstmParams.grid(): perturbed conductances if programmed with
        level variation, ideal level values otherwise."""
        if self.g_plus is None:
            return level_weights(self.level_plus, self.level_minus, self.cfg.levels)
        return (self.g_plus - self.g_minus) * self.cfg.levels.k_scale


def program_crossbar(params: LstmParams, cfg: CrossbarConfig) -> CrossbarProgram:
    """Map every W, U, b entry onto a differential level pair.

    Out-of-range weights are clamped and counted on the returned program.
    With level_variation_sigma > 0 each device's conductance is perturbed
    multiplicatively with a seeded Gaussian and stored alongside the ideal
    level indices.
    """
    level_plus, level_minus, n_clamped = quantize_levels(params.grid(), cfg.levels)
    program = CrossbarProgram(params.dims, cfg, level_plus, level_minus, n_clamped=n_clamped)
    _apply_level_variation(program)
    return program


def _apply_level_variation(program: CrossbarProgram) -> None:
    """Store seeded multiplicative conductance perturbations on the program.

    Reproducible from (seed, level_variation_sigma), which is what lets an
    exported program rebuild the same device state on import.
    """
    cfg = program.cfg
    if cfg.level_variation_sigma <= 0:
        return
    ss_prog, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(ss_prog)
    g = cfg.levels.conductances
    pert = rng.standard_normal((2, program.n_rows, program.n_columns))
    sigma = cfg.level_variation_sigma
    program.g_plus = np.maximum(g[program.level_plus] * (1.0 + sigma * pert[0]), 0.0)
    program.g_minus = np.maximum(g[program.level_minus] * (1.0 + sigma * pert[1]), 0.0)


def reconstruct_weights(program: CrossbarProgram, levels: LevelSet) -> LstmParams:
    """Ideal quantized weights implied by the programmed level indices
    (programming perturbations are deliberately ignored)."""
    return LstmParams.from_grid(level_weights(program.level_plus, program.level_minus, levels))


def _column_index(program: CrossbarProgram, gate, unit: int) -> int:
    if isinstance(gate, str):
        if gate not in GATES:
            raise ValueError(f"unknown gate {gate!r}, expected one of {GATES}")
        gate = GATES.index(gate)
    if not 0 <= gate < 4:
        raise ValueError(f"gate index {gate} out of range")
    if not 0 <= unit < program.dims.n_hidden:
        raise ValueError(f"unit {unit} out of range for n_hidden={program.dims.n_hidden}")
    return gate * program.dims.n_hidden + unit


def crossbar_dot(program: CrossbarProgram, input_voltages, gate, unit: int,
                 rng: np.random.Generator | None = None) -> float:
    """Weighted summation from one logical column, in weight units.

    input_voltages covers every row including the bias row. With the
    program's read_noise_sigma > 0 and an rng supplied, the current picks up
    one multiplicative Gaussian error.
    """
    v = np.asarray(input_voltages, dtype=np.float64)
    if v.shape != (program.n_rows,):
        raise ValueError(f"input_voltages has shape {v.shape}, expected ({program.n_rows},)")
    col = _column_index(program, gate, unit)
    value = float(v @ program.grid()[:, col])
    sigma = program.cfg.read_noise_sigma
    if sigma > 0 and rng is not None:
        value *= 1.0 + sigma * rng.standard_normal()
    return value


@dataclass
class CycleRead:
    """One column read of the time-multiplexed schedule."""

    cycle: int
    unit: int
    gate: str
    value: float


def crossbar_lstm_step(program: CrossbarProgram, x_t, prev: LstmState, cfg: CrossbarConfig,
                       rng: np.random.Generator | None = None):
    """One time step on the crossbar: cycle m' reads the four gate columns of
    hidden unit m', applies the ideal activation circuits, and updates that
    unit's cell state and output.

    All M cycles see the h vector latched at the previous step, so the reads
    of one step are computed together. Read noise uses cfg.read_noise_sigma,
    one draw per read in cycle order. Returns (GateActivations, LstmState,
    cycle_trace) with one CycleRead per read.
    """
    x_t = np.atleast_1d(np.asarray(x_t, dtype=np.float64))
    n, m = program.dims.n_inputs, program.dims.n_hidden
    if x_t.shape != (n,):
        raise ValueError(f"x_t has shape {x_t.shape}, expected ({n},)")
    if prev.h.shape != (m,):
        raise ValueError(f"prev.h has shape {prev.h.shape}, expected ({m},)")
    reads = np.concatenate([x_t, prev.h, [1.0]]) @ program.grid()
    if cfg.read_noise_sigma > 0 and rng is not None:
        reads *= 1.0 + _read_noise(rng, (1, 1, m), cfg.read_noise_sigma)[0, 0]
    acts, C_t, h_t = lstm_cell(reads, prev.C)
    trace = [CycleRead(unit, unit, GATES[g], float(reads[g * m + unit])) for unit in range(m) for g in range(4)]
    return GateActivations(*acts.reshape(4, m)), LstmState(h_t, C_t), trace


def _read_noise(rng: np.random.Generator, shape_btm: tuple, sigma: float) -> np.ndarray:
    """Noise factors laid out [B, T, 4M]; drawn in (window, step, cycle, gate)
    order so a step-by-step replay consumes the identical stream."""
    B, T, M = shape_btm
    draws = sigma * rng.standard_normal((B, T, M, 4))
    return np.ascontiguousarray(draws.transpose(0, 1, 3, 2).reshape(B, T, 4 * M))


def _read_rng(cfg: CrossbarConfig) -> np.random.Generator:
    _, ss_read = np.random.SeedSequence(cfg.seed).spawn(2)
    return np.random.default_rng(ss_read)


def _unroll_program(program: CrossbarProgram, out: OutputLayer, X: np.ndarray, cfg: CrossbarConfig):
    """Unroll X [B, T, N] on the programmed grid with cfg's seeded read noise;
    returns h [T, B, M] and the output layer the readout applies."""
    noise = None
    if cfg.read_noise_sigma > 0:
        noise = _read_noise(_read_rng(cfg), X.shape[:2] + (program.dims.n_hidden,), cfg.read_noise_sigma)
    h, *_ = kernels.crossbar_unroll(program.grid(), X, noise)
    if cfg.quantize_output_layer:
        out = quantize_output_layer(out, cfg.levels)
    return h, out


def crossbar_forward(program: CrossbarProgram, out: OutputLayer, inputs, cfg: CrossbarConfig):
    """Run a sequence through the crossbar cell from the zero state, reading
    out the (ideal, optionally quantized) affine output layer every step.

    Read noise is seeded from cfg.seed, so a fixed config reproduces the
    same noisy predictions. Returns the list of per-step predictions.
    """
    X = np.asarray(inputs, dtype=np.float64)
    if X.size == 0:
        return []
    if X.ndim == 1:
        X = X[:, None]
    h, out = _unroll_program(program, out, X[None], cfg)
    return list(h[:, 0] @ out.w_out + out.b_out)


def crossbar_window_predictions(program: CrossbarProgram, out: OutputLayer, windows,
                                cfg: CrossbarConfig) -> np.ndarray:
    """Last-step crossbar prediction of every window, each from the zero state.

    One seeded noise stream covers the whole batch in window order; with the
    sigmas at zero this equals the float path on the reconstructed weights.
    """
    X = np.ascontiguousarray(windows.x[:, :, None], dtype=np.float64)
    h, out = _unroll_program(program, out, X, cfg)
    return h[-1] @ out.w_out + out.b_out


# ---------------------------------------------------------------------------
# program map file: header, then one line of row level indices per physical
# column (plus line then minus line, logical columns in gate-major order)
# ---------------------------------------------------------------------------

_PROGRAM_MAGIC = "xbarlstm-program v1"


def write_program(program: CrossbarProgram, path) -> None:
    cfg = program.cfg
    lines = [
        _PROGRAM_MAGIC,
        f"rows {program.n_rows}",
        f"logical_columns {program.n_columns}",
        f"n_inputs {program.dims.n_inputs}",
        f"n_hidden {program.dims.n_hidden}",
        f"spacing {cfg.levels.spacing}",
        f"read_noise_sigma {cfg.read_noise_sigma:.17g}",
        f"level_variation_sigma {cfg.level_variation_sigma:.17g}",
        f"seed {cfg.seed}",
        "levels_siemens " + " ".join(f"{g:.17g}" for g in cfg.levels.conductances),
        f"n_clamped {program.n_clamped}",
        "# one line per physical column: plus then minus per logical column",
    ]
    for col in range(program.n_columns):
        for side in (program.level_plus, program.level_minus):
            lines.append(" ".join(str(int(v)) for v in side[:, col]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_program(path) -> CrossbarProgram:
    """Parse a program map file; perturbed conductances are re-derived from
    the recorded seed and level_variation_sigma."""
    with open(path) as fh:
        raw = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines or lines[0] != _PROGRAM_MAGIC:
        raise ValueError(f"{path}: not a crossbar program file")

    header = {}
    body_start = None
    for k, ln in enumerate(lines[1:], start=1):
        parts = ln.split(None, 1)
        if parts[0] in ("rows", "logical_columns", "n_inputs", "n_hidden", "spacing",
                        "read_noise_sigma", "level_variation_sigma", "seed",
                        "levels_siemens", "n_clamped"):
            header[parts[0]] = parts[1] if len(parts) > 1 else ""
        else:
            body_start = k
            break
    required = {"rows", "logical_columns", "n_inputs", "n_hidden", "spacing",
                "read_noise_sigma", "level_variation_sigma", "seed"}
    missing = required - header.keys()
    if missing:
        raise ValueError(f"{path}: missing header fields {sorted(missing)}")

    dims = Dims(int(header["n_inputs"]), int(header["n_hidden"]))
    levels = build_level_set(header["spacing"])
    if "levels_siemens" in header:
        stored = np.array([float(v) for v in header["levels_siemens"].split()])
        if stored.shape != levels.conductances.shape or not np.array_equal(stored, levels.conductances):
            raise ValueError(f"{path}: level table does not match spacing {header['spacing']!r}")
    cfg = CrossbarConfig(
        levels=levels,
        read_noise_sigma=float(header["read_noise_sigma"]),
        level_variation_sigma=float(header["level_variation_sigma"]),
        seed=int(header["seed"]),
    )

    n_rows = int(header["rows"])
    n_cols = int(header["logical_columns"])
    if n_rows != dims.n_inputs + dims.n_hidden + 1 or n_cols != 4 * dims.n_hidden:
        raise ValueError(f"{path}: header dimensions are inconsistent")
    body = lines[body_start:] if body_start is not None else []
    if len(body) != 2 * n_cols:
        raise ValueError(f"{path}: expected {2 * n_cols} column lines, got {len(body)}")

    level_plus = np.empty((n_rows, n_cols), dtype=np.int64)
    level_minus = np.empty((n_rows, n_cols), dtype=np.int64)
    for col in range(n_cols):
        for side, dest in ((0, level_plus), (1, level_minus)):
            values = body[2 * col + side].split()
            if len(values) != n_rows:
                raise ValueError(f"{path}: column line {2 * col + side} has {len(values)} entries, expected {n_rows}")
            idx = np.array([int(v) for v in values])
            if np.any((idx < 0) | (idx >= N_LEVELS)):
                raise ValueError(f"{path}: level index out of range in column {col}")
            dest[:, col] = idx

    program = CrossbarProgram(dims, cfg, level_plus, level_minus,
                              n_clamped=int(header.get("n_clamped", "0")))
    _apply_level_variation(program)
    return program
