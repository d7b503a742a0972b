"""Command-line pipeline: train, quantize, evaluate, plot-data.

Every command reads an optional flat ``key = value`` config file plus
command-line overrides of the same names, runs deterministically for a
fixed (config, seed), and exits nonzero on any validation failure. The
fields of RunConfig are the one key table: one flag each, one coercion for
flag and file values, one check by the config that owns the key. See
README for the key reference and the produced files.
"""

import argparse
import dataclasses
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dims, LstmParams, OutputLayer, gate_blocks
from .crossbar import (
    CrossbarConfig,
    build_level_set,
    crossbar_window_predictions,
    monte_carlo,
    program_crossbar,
    quantize_output_layer,
    read_program,
    reconstruct_weights,
    write_program,
)
from .data import BUNDLED_DATASET, denormalize, fit_normalizer, load_series, make_windows, normalize, rmse, split
from .training import TrainConfig, batch_predictions, train
from .weights_io import packed_shapes, read_weights, write_weights

WEIGHTS_FILE = "weights.txt"
QUANTIZED_WEIGHTS_FILE = "weights_quantized.txt"
LOSS_FILE = "loss_history.txt"
PROGRAM_FILE = "program.txt"
QUANTIZE_REPORT_FILE = "quantize_report.txt"
EVAL_REPORT_FILE = "eval_report.txt"
PREDICTIONS_FILE = "predictions.csv"
PLOT_PREDICTIONS_FILE = "plot_predictions.csv"
PLOT_LOSS_FILE = "plot_loss.csv"
# Seeds per monte_carlo call in an evaluate sweep; a block's predictions are
# reduced to per-seed RMSE before the next, so no [seeds, windows] array of a
# whole sweep is held.
SWEEP_BLOCK = 256


@dataclass
class RunConfig:
    dataset: str = str(BUNDLED_DATASET)
    hidden_units: int = 4
    look_back: int = 1
    split: float = 0.67
    epochs: int = 100
    learning_rate: float = 0.01
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clamp_low: float = -1.0
    clamp_high: float = 1.0
    seed: int = 0
    shuffle: bool = False
    spacing: str = "uniform_conductance"
    read_noise: float = 0.0
    level_variation: float = 0.0
    noise_seeds: int = 1
    quantize_output_layer: bool = False
    out_dir: str = "runs"
    report: str = "table"

    def __post_init__(self):
        if self.report not in ("table", "delimited"):
            raise ValueError(f"report must be 'table' or 'delimited', got {self.report!r}")
        if self.noise_seeds < 1:
            raise ValueError(f"noise_seeds must be >= 1, got {self.noise_seeds}")
        if self.hidden_units < 1:
            raise ValueError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if self.look_back < 1:
            raise ValueError(f"look_back must be >= 1, got {self.look_back}")
        if not 0.0 < self.split < 1.0:
            raise ValueError(f"split must be in (0, 1), got {self.split}")
        self.train_config()
        self.crossbar_config()

    @property
    def dims(self) -> Dims:
        return Dims(1, self.hidden_units)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in dataclasses.fields(TrainConfig)})

    def crossbar_config(self) -> CrossbarConfig:
        return CrossbarConfig(build_level_set(self.spacing), read_noise_sigma=self.read_noise,
                              level_variation_sigma=self.level_variation, seed=self.seed)


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(field: dataclasses.Field, raw: str):
    """A flag or config-file string as the field's type; errors name the key."""
    try:
        if field.type is bool:
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"expected a boolean, got {raw!r}")
            return _BOOL_WORDS[word]
        return field.type(raw.strip())
    except ValueError as exc:
        raise ValueError(f"key {field.name!r}: {exc}") from None


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file; blank lines and '#' comments ignored."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            try:
                values[key] = _coerce(fields[key], raw.strip())
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config is not None:
        values.update(parse_config_file(args.config))
    for f in dataclasses.fields(RunConfig):
        override = getattr(args, f.name)
        if override is not None:
            values[f.name] = override if isinstance(override, bool) else _coerce(f, override)
    return RunConfig(**values)


def _load_pipeline(cfg: RunConfig):
    """Dataset -> normalizer -> windows -> chronological split."""
    series = load_series(cfg.dataset)
    norm = fit_normalizer(series)
    windows = make_windows(normalize(series, norm), cfg.look_back)
    train_part, test_part = split(cfg.split, windows)
    return series, norm, windows, train_part, test_part


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _report_lines(pairs, fmt: str):
    """(label, value) pairs as an aligned table or 'key,value' lines."""
    if fmt == "delimited":
        return [f"{label.replace(' ', '_')},{value}" for label, value in pairs]
    width = max(len(label) for label, _ in pairs)
    return [f"{label:<{width}}  {value}" for label, value in pairs]


def _write_text(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def cmd_train(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    series, norm, windows, train_part, test_part = _load_pipeline(cfg)

    params, out, history = train(cfg.dims, train_part, cfg.train_config())
    out_dir.mkdir(parents=True, exist_ok=True)
    write_weights(params, out, out_dir / WEIGHTS_FILE)
    _write_text(out_dir / LOSS_FILE, [f"{epoch + 1} {_fmt(loss)}" for epoch, loss in enumerate(history)])

    rmse_rows = []
    for name, part in (("train", train_part), ("test", test_part)):
        preds = batch_predictions(params, out, part)
        rmse_rows.append((f"{name} RMSE normalized", f"{rmse(preds, part.y):.6f}"))
        rmse_rows.append((f"{name} RMSE passengers", f"{rmse(preds, part.y, denorm=norm):.4f}"))

    shapes = packed_shapes(cfg.dims)
    pairs = [
        ("dataset", f"{cfg.dataset} ({len(series)} points)"),
        ("windows", f"{len(windows)} = {len(train_part)} train + {len(test_part)} test"),
        ("epochs", str(cfg.epochs)),
        ("seed", str(cfg.seed)),
        ("final epoch loss", f"{history[-1]:.8f}"),
        ("weight matrices", " ".join(f"[{r},{c}]" for r, c in shapes)),
        *rmse_rows,
        ("weights file", str(out_dir / WEIGHTS_FILE)),
        ("loss history file", str(out_dir / LOSS_FILE)),
    ]
    print("\n".join(_report_lines(pairs, cfg.report)))
    return 0


def _quantization_table(params: LstmParams, quantized: LstmParams, out: OutputLayer, out_q: OutputLayer | None):
    """Per-entry (name, row, col, original, quantized, abs_error) rows, the
    error taken against the clamped original; output layer entries are
    included only when it is quantized too."""
    blocks, q_blocks = gate_blocks(params), gate_blocks(quantized)
    pairs = [(f"{kind}_{gate}", blocks[f"{kind}_{gate}"], q_blocks[f"{kind}_{gate}"])
             for gate in "ifco" for kind in "WUb"]
    if out_q is not None:
        pairs += [("w_out", out.w_out[:, None], out_q.w_out[:, None]),
                  ("b_out", np.array([[out.b_out]]), np.array([[out_q.b_out]]))]
    table = []
    for name, original, q in pairs:
        for (r, c), v in np.ndenumerate(original):
            table.append((name, r, c, v, q[r, c], abs(q[r, c] - min(max(v, -1.0), 1.0))))
    return table


def _warn_clamped(n_weights: int, n_output: int) -> None:
    """One plain stderr line per stage whose out-of-range weights were clamped."""
    if n_weights:
        print(f"warning: {n_weights} weight(s) outside [-1, 1] were clamped", file=sys.stderr)
    if n_output:
        print(f"warning: {n_output} output-layer weight(s) outside [-1, 1] were clamped", file=sys.stderr)


def cmd_quantize(cfg: RunConfig, weights_path) -> int:
    out_dir = Path(cfg.out_dir)
    params, out = read_weights(weights_path)
    xbar_cfg = cfg.crossbar_config()

    program = program_crossbar(params, xbar_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_program(program, out_dir / PROGRAM_FILE)

    quantized = reconstruct_weights(program)
    out_q, n_out_clamped = quantize_output_layer(out, xbar_cfg.levels) if cfg.quantize_output_layer else (None, 0)
    write_weights(quantized, out_q or out, out_dir / QUANTIZED_WEIGHTS_FILE)

    table = _quantization_table(params, quantized, out, out_q)
    errors = np.array([row[5] for row in table])
    header = [
        f"spacing {xbar_cfg.levels.spacing}",
        f"entries {len(table)}",
        f"clamped {program.n_clamped}",
        f"max_abs_error {_fmt(float(errors.max()))}",
        f"mean_abs_error {_fmt(float(errors.mean()))}",
        "name row col original quantized abs_error",
    ]
    body = [
        f"{name} {r} {c} {_fmt(v)} {_fmt(q)} {_fmt(e)}"
        for name, r, c, v, q, e in table
    ]
    _write_text(out_dir / QUANTIZE_REPORT_FILE, header + body)

    _warn_clamped(program.n_clamped, n_out_clamped)
    pairs = [
        ("spacing", xbar_cfg.levels.spacing),
        ("entries", str(len(table))),
        ("max abs quantization error", f"{errors.max():.6f}"),
        ("mean abs quantization error", f"{errors.mean():.6f}"),
        ("program file", str(out_dir / PROGRAM_FILE)),
        ("quantized weights file", str(out_dir / QUANTIZED_WEIGHTS_FILE)),
        ("report file", str(out_dir / QUANTIZE_REPORT_FILE)),
    ]
    print("\n".join(_report_lines(pairs, cfg.report)))
    return 0


def _noise_seed_list(base_seed: int, count: int):
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(count, np.uint64)]


def cmd_evaluate(cfg: RunConfig, weights_path, program_path=None) -> int:
    """Float vs crossbar path on both splits. The device comes from the
    program file when one is given, header spacing, sigmas and seed
    included, else from the weights and cfg; each sweep seed re-draws it
    from the same level map."""
    out_dir = Path(cfg.out_dir)
    params, out = read_weights(weights_path)
    if program_path is not None:
        program = read_program(program_path)
        if program.dims != params.dims:
            raise ValueError(f"{program_path}: program dims {program.dims} do not match weights dims {params.dims}")
    else:
        program = program_crossbar(params, cfg.crossbar_config())
    device = program.cfg
    xbar_out, n_out_clamped = quantize_output_layer(out, device.levels) if cfg.quantize_output_layer else (out, 0)

    series, norm, windows, train_part, test_part = _load_pipeline(cfg)
    n_train = len(train_part)

    float_preds = batch_predictions(params, out, windows)
    xbar_preds = crossbar_window_predictions(program, xbar_out, windows)

    splits = {"train": slice(0, n_train), "test": slice(n_train, None)}

    def split_rmse(preds):
        return {name: (rmse(preds[sl], windows.y[sl]), rmse(preds[sl], windows.y[sl], denorm=norm))
                for name, sl in splits.items()}

    float_rmse = split_rmse(float_preds)
    xbar_rmse = split_rmse(xbar_preds)

    pairs = [
        ("dataset", f"{cfg.dataset} ({len(series)} points)"),
        ("windows", f"{len(windows)} = {n_train} train + {len(test_part)} test"),
        ("spacing", device.levels.spacing),
        ("read noise sigma", _fmt(device.read_noise_sigma)),
        ("level variation sigma", _fmt(device.level_variation_sigma)),
        ("program", str(program_path) if program_path else "derived from weights"),
    ]
    for name in ("train", "test"):
        fn, fp = float_rmse[name]
        qn, qp = xbar_rmse[name]
        pairs += [
            (f"{name} float RMSE normalized", f"{fn:.6f}"),
            (f"{name} float RMSE passengers", f"{fp:.4f}"),
            (f"{name} quantized RMSE normalized", f"{qn:.6f}"),
            (f"{name} quantized RMSE passengers", f"{qp:.4f}"),
            (f"{name} delta passengers", f"{qp - fp:+.4f}"),
        ]

    if cfg.noise_seeds > 1:
        seeds = _noise_seed_list(device.seed, cfg.noise_seeds)
        targets = denormalize(windows.y, norm)
        noisy = {name: np.empty(len(seeds)) for name in splits}
        for start in range(0, len(seeds), SWEEP_BLOCK):
            # per-seed passenger RMSE, reduced in place as data.rmse does it
            block = monte_carlo(program, xbar_out, windows, seeds[start : start + SWEEP_BLOCK])
            block *= norm.max - norm.min
            block += norm.min
            block -= targets
            block **= 2
            for name, sl in splits.items():
                noisy[name][start : start + len(block)] = np.sqrt(block[:, sl].mean(axis=-1))
        for name, arr in noisy.items():
            pairs.append((
                f"{name} noisy RMSE passengers over {cfg.noise_seeds} seeds",
                f"{arr.mean():.4f} +/- {arr.std():.4f}",
            ))

    lines = _report_lines(pairs, cfg.report)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / EVAL_REPORT_FILE, lines)
    _warn_clamped(program.n_clamped, n_out_clamped)
    print("\n".join(lines))

    # full-precision prediction dump over the whole series, for plot-data;
    # the first look_back points have no prediction
    pad = np.full(cfg.look_back, np.nan)
    columns = zip(series.values, *(np.concatenate([pad, denormalize(p, norm)]) for p in (float_preds, xbar_preds)))
    rows = ["time_index,actual,prediction_float,prediction_quantized"]
    rows += [f"{t},{_fmt(v)},{_fmt(f)},{_fmt(q)}" for t, (v, f, q) in enumerate(columns)]
    _write_text(out_dir / PREDICTIONS_FILE, rows)
    return 0


def cmd_plotdata(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    predictions = out_dir / PREDICTIONS_FILE
    losses = out_dir / LOSS_FILE
    for needed in (predictions, losses):
        if not needed.exists():
            raise FileNotFoundError(f"missing run output {needed}; run `train` and `evaluate` first")

    pred_lines = predictions.read_text().splitlines()
    loss_rows = ["epoch,loss"]
    for lineno, line in enumerate(losses.read_text().splitlines(), start=1):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{losses}: line {lineno}: expected 'epoch loss'")
        loss_rows.append(f"{parts[0]},{parts[1]}")

    _write_text(out_dir / PLOT_PREDICTIONS_FILE, pred_lines)
    _write_text(out_dir / PLOT_LOSS_FILE, loss_rows)

    print(f"wrote {out_dir / PLOT_PREDICTIONS_FILE} ({len(pred_lines) - 1} rows)")
    print(f"wrote {out_dir / PLOT_LOSS_FILE} ({len(loss_rows) - 1} rows)")
    return 0


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    """--config plus one flag per RunConfig field, --<name with _ -> ->; values
    stay strings until build_run_config coerces them like file values."""
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        kind = {"action": argparse.BooleanOptionalAction} if f.type is bool else {"metavar": f.type.__name__.upper()}
        parser.add_argument("--" + f.name.replace("_", "-"), default=None,
                            help=f"default: {f.default}".replace("%", "%%"), **kind)


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError instead of printing usage and exiting
    2, so main reports it like any other bad input: one error line, exit 1."""

    def error(self, message):
        raise ValueError(message)


@functools.cache  # one parser per process; one per main call would linger as cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xbarlstm",
        description="Train a small LSTM forecaster and evaluate it on a behavioral 16-level memristive crossbar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in (
        ("train", "train the model, write weights and loss history"),
        ("quantize", "program weights onto the crossbar and report quantization error"),
        ("evaluate", "compare float and crossbar paths on the train/test splits"),
        ("plot-data", "emit delimited prediction and loss curves from prior run outputs"),
    )}
    for command in commands.values():
        _add_override_flags(command)
    for name in ("quantize", "evaluate"):
        commands[name].add_argument("--weights", type=Path, default=None,
                                    help="weight file (default: <out-dir>/weights.txt)")
    commands["evaluate"].add_argument("--program", type=Path, default=None,
                                      help="crossbar program file (default: derive from weights)")
    return parser


def _is_negative_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _attach_negative_values(argv):
    """'--key -1e-9' as '--key=-1e-9'. argparse takes a token that starts
    with '-' for an option unless it is a plain decimal, so a negative value
    in exponent form or -inf would never reach the check of its key. Other
    tokens stay apart, so an error names them as they were typed."""
    joined = []
    for token in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] and _is_negative_number(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
        cfg = build_run_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "plot-data":
            return cmd_plotdata(cfg)
        weights = args.weights or Path(cfg.out_dir) / WEIGHTS_FILE
        if args.command == "quantize":
            return cmd_quantize(cfg, weights)
        return cmd_evaluate(cfg, weights, args.program)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
