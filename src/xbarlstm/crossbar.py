"""Behavioral model of the memristive crossbar LSTM.

Weights live on a grid of GST memristors with 16 programmable conductance
levels from 200 kOhm to 2000 kOhm. The table's one free choice is its
spacing, the string a CrossbarConfig holds, and level_conductances(spacing)
is the one place the 16 conductances are computed. A signed weight w in
[-1, 1] becomes a differential column pair: the side matching sign(w) is
programmed to the level nearest G_min + |w| * (G_max - G_min), the other
side is parked at level 0 (G_min), so w = 0 is exactly representable and
the column current k * sum(V * (G_plus - G_minus)) with
k = 1 / (G_max - G_min) reads out in weight units.

Rows are ordered [x inputs, h inputs, bias]; the bias row is driven with a
constant 1. Logical column g * M + m carries gate g of hidden unit m, in
gate order (i, f, c, o) - the layout of LstmParams.grid, so the float
path is this path on the ideal weight grid. Evaluation is time
multiplexed: one hidden unit per cycle, four column reads per cycle, M
cycles per time step, with the new h latched into the memory units only
after all M cycles. All M cycles of a step therefore see the same h, and
kernels.crossbar_unroll computes a step's reads together.

Analog non-idealities are behavioral knobs: multiplicative Gaussian
conductance error at program time (level_variation_sigma) and
multiplicative Gaussian current noise per column read (read_noise_sigma).
A CrossbarProgram is what the program file holds, the level map and its device
config (spacing, sigmas, seed). One chunk loop draws a device from a seed and
runs it, a chunk of devices stacked on the kernel's device axis at a time:
monte_carlo stacks its predictions, one row per seed, and sweep reduces each
chunk to per-device RMSEs as it is drawn, a contiguous share of the seeds on
each worker thread (numpy's draws, matmuls and ufuncs release the GIL), 16
devices in flight in all. The loop's chunk-sized arrays (the draws, the varied
grid and the unroll's workspace) are allocated once per call and written in
place, so a sweep does not fault in fresh ~293 KB arrays per chunk. The varied
grid is one expression of the level-variation draws, which it leaves intact;
the read-noise draws become the read gains 1 + sigma * z in their own buffer.
A device seed s in [0, 2**128) draws from the two streams of
SeedSequence(s).spawn(2), whose seed words are derived for all seeds of a call
at once. crossbar_window_predictions is monte_carlo's one-seed case.
Peripheral CMOS stages (mirrors, converters, adders) are taken as ideal
unit-gain. The output layer is not part of the program: a caller that maps
it onto the crossbar too passes the layer from quantize_output_layer.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import SPACINGS, CrossbarConfig, _check_seed, open_text  # noqa: F401  (SPACINGS re-exported)
from .data import Normalizer, denormalize
from .kernels import LstmParams, OutputLayer, grid_dims

N_LEVELS = 16
R_MIN_OHM = 200e3
R_MAX_OHM = 2000e3

# Devices in flight per stacked unroll, split across a sweep's workers: two at most, and no more
# than the CPUs this process may run on. Sixteen halves the numpy calls per device against eight
# while each per-step array of a 143-window, 4-unit sweep ([4, 16, 143, 4], ~293 KB) stays in
# cache, as the cell allocates nothing per step; chunks of 256 ran slower and took ~50 MB more.
MC_CHUNK = 16
SWEEP_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def level_conductances(spacing: str) -> np.ndarray:
    """The 16 level conductances in siemens, ascending: level 0 is G_min =
    1/2000 kOhm, level 15 is G_max = 1/200 kOhm. They are spaced uniformly
    either in conductance (0.5 to 5 uS, step 0.3 uS) or in resistance
    (step 120 kOhm)."""
    if spacing == "uniform_conductance":
        return np.linspace(1.0 / R_MAX_OHM, 1.0 / R_MIN_OHM, N_LEVELS)
    if spacing == "uniform_resistance":
        return 1.0 / np.linspace(R_MAX_OHM, R_MIN_OHM, N_LEVELS)
    raise ValueError(f"unknown spacing {spacing!r}")


def _k_scale(g: np.ndarray) -> float:
    """Current-to-weight-units scale of a differential column read, 1 / (G_max - G_min)."""
    return 1.0 / (g[-1] - g[0])


def _nearest_level(mags: np.ndarray, spacing: str) -> np.ndarray:
    """Index of the level nearest to G_min + mag * (G_max - G_min) for every
    magnitude in [0, 1]; exact half-way ties go to the higher conductance."""
    if spacing == "uniform_conductance":
        # uniform spacing: work in level-step units, where the tie point
        # (k + 0.5) is exactly representable and floor(t + 0.5) rounds it up
        t = mags * (N_LEVELS - 1)
        return np.floor(t + 0.5).astype(np.int64)
    g = level_conductances(spacing)
    target = g[0] + mags * (g[-1] - g[0])
    d = np.abs(target[..., None] - g)
    return (N_LEVELS - 1 - np.argmin(d[..., ::-1], axis=-1)).astype(np.int64)


def quantize_levels(weights, spacing: str):
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
    idx = _nearest_level(np.abs(w), spacing)
    positive = w >= 0
    return np.where(positive, idx, 0), np.where(positive, 0, idx), n_clamped


def level_weights(level_plus, level_minus, spacing: str) -> np.ndarray:
    """Weights read out from ideal differential level pairs."""
    g = level_conductances(spacing)
    return (g[level_plus] - g[level_minus]) * _k_scale(g)


def quantize_output_layer(out: OutputLayer, spacing: str):
    """Output layer after the same round trip, for when it is mapped onto
    the crossbar too. Out-of-range entries are clamped and counted; returns
    (OutputLayer, n_clamped)."""
    lp, lm, n_clamped = quantize_levels(np.append(out.w_out, out.b_out), spacing)
    q = level_weights(lp, lm, spacing)
    return OutputLayer(q[:-1], q[-1]), n_clamped


@dataclass(frozen=True)
class CrossbarProgram:
    """What program.txt holds: the per-cell level indices of one crossbar,
    the number of weights clamped to fit them, and the device config. The
    device itself, level variation and read noise drawn from a seed, is
    realized only in monte_carlo."""

    cfg: CrossbarConfig
    level_plus: np.ndarray   # [rows, 4M] int
    level_minus: np.ndarray  # [rows, 4M] int
    n_clamped: int = 0

    def grid(self) -> np.ndarray:
        """The ideal level grid, (G_plus - G_minus) * k in weight units, laid
        out like LstmParams.grid."""
        return level_weights(self.level_plus, self.level_minus, self.cfg.spacing)


def program_crossbar(params: LstmParams, cfg: CrossbarConfig) -> CrossbarProgram:
    """Map every entry of the weight grid onto a differential level pair.
    Out-of-range weights are clamped and counted on the returned program."""
    level_plus, level_minus, n_clamped = quantize_levels(params.grid, cfg.spacing)
    return CrossbarProgram(cfg, level_plus, level_minus, n_clamped)


def reconstruct_weights(program: CrossbarProgram) -> LstmParams:
    """Ideal quantized weights implied by the programmed level indices."""
    return LstmParams(program.grid())


def crossbar_window_predictions(program: CrossbarProgram, out: OutputLayer, windows) -> np.ndarray:
    """Last-step crossbar prediction of every window, each from the zero
    state, on the device of the program's own seed; with the sigmas at zero
    this equals the float path on the reconstructed weights."""
    return monte_carlo(program, out, windows, [program.cfg.seed])[0]


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def seed_sequence_words(seeds, n_words: int, key: int | None = None) -> np.ndarray:
    """SeedSequence(s).generate_state(n_words, uint32) for every seed s in
    [0, 2**128), or that of SeedSequence(s, spawn_key=(key,)) when a key is
    given, computed for all seeds in one pass: [S, n_words] uint32.

    numpy's entropy is the seed's 32-bit words, then the spawn key. With a
    key the seed's words are zero-padded to the pool size of four; without
    one, each pool word past the entropy hashes a zero, which is the same.
    So each seed here is its four 32-bit words, then the key if any, through
    numpy's pool mixing on [S] arrays. generate_state then cycles the pool,
    word i xored with INIT_B * MULT_B**i and multiplied by the next power.
    """
    words = np.frombuffer(b"".join(int(s).to_bytes(16, "little") for s in seeds), dtype="<u4")
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> np.uint32(16)

    pool = [hashmix(word) for word in words.reshape(-1, 4).T.astype(np.uint32)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    if key is not None:
        key_word = np.full(len(seeds), key, np.uint32)
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(key_word))
    consts = np.full(n_words + 1, _MULT_B, np.uint32)
    consts[0] = _INIT_B
    consts = np.cumprod(consts, dtype=np.uint32)  # INIT_B * MULT_B**i mod 2**32
    # take, unlike fancy indexing, keeps [S, n_words] C-contiguous for the callers' uint64 view
    value = np.stack(pool, axis=-1).take(np.arange(n_words) % 4, axis=1) ^ consts[:-1]
    value *= consts[1:]
    return value ^ value >> np.uint32(16)


def _pcg64_states(words) -> list:
    """(state, inc) of PCG64(SeedSequence(s).spawn(2)[key]) for each row of
    one stream's seed_sequence_words(seeds, 8, key), viewed as [n, 4] uint64.

    spawn(2)[key] is SeedSequence(s, spawn_key=(key,)). PCG64 takes its
    generate_state(4, uint64) and runs srandom_r on it: the first two 64-bit
    words are the initial state and the last two the stream, high word first.
    """
    states = []
    for s_hi, s_lo, i_hi, i_lo in words.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def monte_carlo(program: CrossbarProgram, out: OutputLayer, windows, seeds) -> np.ndarray:
    """Last-step crossbar predictions of every window on one device per seed, [S, B].

    This is where a device is realized. Seed s spawns two streams from
    SeedSequence(s), their seed words derived for all seeds at once. The
    first draws the level variation: a multiplicative Gaussian error on
    every plus conductance, then on every minus one. The second draws the
    read noise: a multiplicative Gaussian factor per column read, in
    (window, step, cycle, gate) order, cycle m reading the four gate columns
    of unit m. A zero sigma draws nothing. MC_CHUNK devices at a time run as
    one stacked unroll, and row k equals the one-seed call on seeds[k] bit
    for bit. It checks the caller's seeds; sweep derives its own in range.
    """
    for seed in seeds:
        _check_seed(seed)
    return np.concatenate([np.empty((0, len(windows))), *_device_chunks(program, out, windows, seeds)])


def _device_chunks(program: CrossbarProgram, out: OutputLayer, windows, seeds, chunk: int = MC_CHUNK):
    """monte_carlo's rows, chunk at a time: each chunk a fresh [n, B] array. It checks no seed."""
    X = windows.inputs()
    B, T = X.shape[:2]
    cfg = program.cfg
    g, (rows, cols) = level_conductances(cfg.spacing), program.level_plus.shape
    vary, read = cfg.level_variation_sigma > 0, cfg.read_noise_sigma > 0
    size = min(chunk, len(seeds))
    pert = np.empty((size, 2, rows, cols))
    draws = np.empty((size, B, T, cols // 4, 4))
    # one reused generator per stream, re-seeded to each device's state
    streams = [(np.random.Generator(np.random.PCG64(0)), seed_sequence_words(seeds, 8, key).astype("<u4").view("<u8"),
                buf) for key, on, buf in ((0, vary, pert), (1, read, draws)) if on]
    g_sides = np.stack([g[program.level_plus], g[program.level_minus]])
    grid = np.empty((size, rows, cols)) if vary else program.grid()
    work = kernels.Workspace((rows, cols), X.shape, (size,) if vary or read else ())  # the unroll's arrays
    for start in range(0, len(seeds), chunk):
        n = min(chunk, len(seeds) - start)
        for gen, words, buf in streams:
            for k, (state, inc) in enumerate(_pcg64_states(words[start : start + n])):
                gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                           "has_uint32": 0, "uinteger": 0}
                gen.standard_normal(out=buf[k])
        if vary:  # max(G * (1 + sigma * z), 0) per side, then (plus - minus) * k
            sides = np.maximum(g_sides * (1.0 + cfg.level_variation_sigma * pert[:n]), 0.0)
            np.multiply(sides[:, 0] - sides[:, 1], _k_scale(g), out=grid[:n])
        if read:  # the draws become the gains 1 + sigma * z in place
            draws[:n] *= cfg.read_noise_sigma
            draws[:n] += 1.0
        # the short last chunk, if any, allocates its own results
        h = kernels.crossbar_unroll(grid[:n] if vary else grid, X, draws[:n] if read else None,
                                    work=work if n == size else None)[0]
        preds = np.matmul(h[-1], out.w_out, out=np.empty((n, B)))  # at zero sigmas, one [B] row for all n
        preds += out.b_out
        yield preds


def sweep(program: CrossbarProgram, out: OutputLayer, windows, count: int, splits: dict, norm: Normalizer) -> dict:
    """Passenger RMSE of each split, {name: slice of windows}, per device,
    {name: [count]}, on the devices SeedSequence(program.cfg.seed)
    .generate_state(count, uint64). Each chunk is reduced as it is drawn, with
    data.rmse's own operations, so value k equals rmse on monte_carlo's row k.
    Up to SWEEP_WORKERS threads each reduce a contiguous share of the seeds, under
    the caller's errstate; a failing share raises once every share has stopped."""
    seeds = seed_sequence_words([program.cfg.seed], 2 * count)[0].astype("<u4").view("<u8").tolist()
    target = denormalize(windows.y, norm)
    if not all(len(target[sl]) for sl in splits.values()):
        raise ValueError("rmse of empty sequences is undefined")
    sums = {name: np.empty(count) for name in splits}
    workers = max(1, min(SWEEP_WORKERS, -(-count // MC_CHUNK)))
    size = MC_CHUNK // workers  # devices per chunk, so MC_CHUNK are in flight in all
    share = -(-count // (workers * size)) * size  # devices per worker, in whole chunks
    errstate, errors = np.geterr(), [None] * workers

    def reduce_share(k):
        try:
            with np.errstate(**errstate):
                chunks = _device_chunks(program, out, windows, seeds[k * share : (k + 1) * share], size)
                for chunk, start in zip(chunks, range(k * share, count, size)):
                    squared = (denormalize(chunk, norm) - target) ** 2
                    for name, sl in splits.items():  # the short last chunk's slice stops at count
                        np.add.reduce(squared[:, sl], axis=1, out=sums[name][start : start + size])
        except BaseException as exc:  # raised in the caller once every share has stopped
            errors[k] = exc
    threads = [threading.Thread(target=reduce_share, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    reduce_share(0)
    for thread in threads:
        thread.join()
    for exc in filter(None, errors):  # the first failing share's
        raise exc
    return {name: np.sqrt(sums[name] / len(target[sl])) for name, sl in splits.items()}


# ---------------------------------------------------------------------------
# program map file: header, then one line of row level indices per physical
# column (plus line then minus line, logical columns in gate-major order)
# ---------------------------------------------------------------------------

_PROGRAM_MAGIC = "xbarlstm-program v1"
# every header field, in the order written and required on read
_HEADER_KEYS = ("rows", "logical_columns", "n_inputs", "n_hidden", "spacing", "read_noise_sigma",
                "level_variation_sigma", "seed", "levels_siemens", "n_clamped")


def write_program(program: CrossbarProgram, path) -> None:
    cfg, shape = program.cfg, program.level_plus.shape
    values = (
        *shape, *grid_dims(shape),
        cfg.spacing, f"{cfg.read_noise_sigma:.17g}", f"{cfg.level_variation_sigma:.17g}", cfg.seed,
        " ".join(f"{g:.17g}" for g in level_conductances(cfg.spacing)), program.n_clamped,
    )
    lines = [_PROGRAM_MAGIC, *(f"{key} {value}" for key, value in zip(_HEADER_KEYS, values)),
             "# one line per physical column: plus then minus per logical column"]
    for col in range(shape[1]):
        for side in (program.level_plus, program.level_minus):
            lines.append(" ".join(str(int(v)) for v in side[:, col]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_program(path) -> CrossbarProgram:
    """Parse a program map file: every header field in write order, then the
    column lines. A bad file raises ValueError naming the file and the
    field."""
    with open_text(path) as fh:
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

    n_inputs, n_hidden = number("n_inputs"), number("n_hidden")
    for key, value in (("n_inputs", n_inputs), ("n_hidden", n_hidden)):
        if value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")
    g = level_conductances(header["spacing"])
    stored = number("levels_siemens", lambda raw: np.array(raw.split(), dtype=np.float64))
    if not np.array_equal(stored, g):
        raise ValueError(f"level table does not match spacing {header['spacing']!r}")
    cfg = CrossbarConfig(header["spacing"], number("read_noise_sigma", float), number("level_variation_sigma", float),
                         number("seed"))

    rows, cols, n_clamped = number("rows"), number("logical_columns"), number("n_clamped")
    if rows != n_inputs + n_hidden + 1 or cols != 4 * n_hidden:
        raise ValueError("header dimensions are inconsistent")
    if not 0 <= n_clamped <= rows * cols:
        raise ValueError(f"n_clamped must be in [0, {rows * cols}], got {n_clamped}")
    body = [ln.split() for ln in lines[1 + len(_HEADER_KEYS):]]
    if len(body) != 2 * cols or any(len(values) != rows for values in body):
        raise ValueError(f"expected {2 * cols} column lines of {rows} level indices each")
    try:
        idx = np.array(body, dtype=np.int64).reshape(cols, 2, rows)
    except (ValueError, OverflowError):
        raise ValueError("level index is not an integer") from None
    if np.any((idx < 0) | (idx >= N_LEVELS)):
        raise ValueError("level index out of range")
    return CrossbarProgram(cfg, idx[:, 0].T, idx[:, 1].T, n_clamped)
