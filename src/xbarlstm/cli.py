"""Command-line pipeline: train, quantize, evaluate, plot-data.

Every command reads an optional flat ``key = value`` config file plus
command-line overrides of the same names, runs deterministically for a
fixed (config, seed), and exits nonzero on any validation failure. See
README for the key reference and the produced files.
"""

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dims, LstmParams, OutputLayer
from .crossbar import (
    CrossbarConfig,
    build_level_set,
    crossbar_window_predictions,
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

    @property
    def dims(self) -> Dims:
        return Dims(1, self.hidden_units)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, learning_rate=self.learning_rate, optimizer=self.optimizer,
            beta1=self.beta1, beta2=self.beta2, eps=self.eps,
            clamp_low=self.clamp_low, clamp_high=self.clamp_high,
            seed=self.seed, shuffle=self.shuffle,
        )

    def crossbar_config(self) -> CrossbarConfig:
        return CrossbarConfig(
            levels=build_level_set(self.spacing),
            read_noise_sigma=self.read_noise,
            level_variation_sigma=self.level_variation,
            seed=self.seed,
            quantize_output_layer=self.quantize_output_layer,
        )


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(field: dataclasses.Field, raw: str):
    if field.type == "bool" or field.type is bool:
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"key {field.name!r}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if field.type == "int" or field.type is int:
        return int(raw)
    if field.type == "float" or field.type is float:
        return float(raw)
    return raw.strip()


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
        override = getattr(args, f.name, None)
        if override is not None:
            values[f.name] = override
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
    out_dir.mkdir(parents=True, exist_ok=True)
    series, norm, windows, train_part, test_part = _load_pipeline(cfg)

    params, out, history = train(cfg.dims, train_part, cfg.train_config())
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
    pairs = []
    for g, gate in enumerate("ifco"):
        pairs += [(f"W_{gate}", params.W[g], quantized.W[g]), (f"U_{gate}", params.U[g], quantized.U[g]),
                  (f"b_{gate}", params.b[g][None, :], quantized.b[g][None, :])]
    if out_q is not None:
        pairs += [("w_out", out.w_out[:, None], out_q.w_out[:, None]),
                  ("b_out", np.array([[out.b_out]]), np.array([[out_q.b_out]]))]
    table = []
    for name, original, q in pairs:
        for (r, c), v in np.ndenumerate(original):
            table.append((name, r, c, v, q[r, c], abs(q[r, c] - min(max(v, -1.0), 1.0))))
    return table


def cmd_quantize(cfg: RunConfig, weights_path) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, out = read_weights(weights_path)
    xbar_cfg = cfg.crossbar_config()

    program = program_crossbar(params, xbar_cfg)
    write_program(program, out_dir / PROGRAM_FILE)

    quantized = reconstruct_weights(program, xbar_cfg.levels)
    out_q = quantize_output_layer(out, xbar_cfg.levels) if cfg.quantize_output_layer else None
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

    if program.n_clamped:
        print(f"warning: {program.n_clamped} weight(s) outside [-1, 1] were clamped", file=sys.stderr)
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
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, out = read_weights(weights_path)
    xbar_cfg = cfg.crossbar_config()
    if program_path is not None:
        program = read_program(program_path)
        if program.dims != params.dims:
            raise ValueError(f"program dims {program.dims} do not match weights dims {params.dims}")
    else:
        program = program_crossbar(params, xbar_cfg)

    series, norm, windows, train_part, test_part = _load_pipeline(cfg)
    n_train = len(train_part)

    float_preds = batch_predictions(params, out, windows)
    xbar_preds = crossbar_window_predictions(program, out, windows, xbar_cfg)

    def split_rmse(preds):
        parts = {}
        for name, sl, target in (("train", slice(0, n_train), train_part.y),
                                 ("test", slice(n_train, None), test_part.y)):
            parts[name] = (rmse(preds[sl], target), rmse(preds[sl], target, denorm=norm))
        return parts

    float_rmse = split_rmse(float_preds)
    xbar_rmse = split_rmse(xbar_preds)

    pairs = [
        ("dataset", f"{cfg.dataset} ({len(series)} points)"),
        ("windows", f"{len(windows)} = {n_train} train + {len(test_part)} test"),
        ("spacing", xbar_cfg.levels.spacing),
        ("read noise sigma", _fmt(cfg.read_noise)),
        ("level variation sigma", _fmt(cfg.level_variation)),
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
        per_split = {"train": [], "test": []}
        for s in _noise_seed_list(cfg.seed, cfg.noise_seeds):
            cfg_s = dataclasses.replace(xbar_cfg, seed=s)
            program_s = program if program_path is not None else program_crossbar(params, cfg_s)
            preds_s = crossbar_window_predictions(program_s, out, windows, cfg_s)
            noisy = split_rmse(preds_s)
            for name in ("train", "test"):
                per_split[name].append(noisy[name][1])
        for name in ("train", "test"):
            arr = np.array(per_split[name])
            pairs.append((
                f"{name} noisy RMSE passengers over {cfg.noise_seeds} seeds",
                f"{arr.mean():.4f} +/- {arr.std():.4f}",
            ))

    lines = _report_lines(pairs, cfg.report)
    _write_text(out_dir / EVAL_REPORT_FILE, lines)
    print("\n".join(lines))

    # full-precision prediction dump over the whole series, for plot-data
    look = cfg.look_back
    rows = ["time_index,actual,prediction_float,prediction_quantized"]
    denorm_float = denormalize(float_preds, norm)
    denorm_xbar = denormalize(xbar_preds, norm)
    for t in range(len(series)):
        if t < look:
            rows.append(f"{t},{_fmt(series.values[t])},nan,nan")
        else:
            k = t - look
            rows.append(f"{t},{_fmt(series.values[t])},{_fmt(denorm_float[k])},{_fmt(denorm_xbar[k])}")
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
    _write_text(out_dir / PLOT_PREDICTIONS_FILE, pred_lines)

    loss_rows = ["epoch,loss"]
    for lineno, line in enumerate(losses.read_text().splitlines(), start=1):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{losses}: line {lineno}: expected 'epoch loss'")
        loss_rows.append(f"{parts[0]},{parts[1]}")
    _write_text(out_dir / PLOT_LOSS_FILE, loss_rows)

    print(f"wrote {out_dir / PLOT_PREDICTIONS_FILE} ({len(pred_lines) - 1} rows)")
    print(f"wrote {out_dir / PLOT_LOSS_FILE} ({len(loss_rows) - 1} rows)")
    return 0


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    parser.add_argument("--dataset", type=str, default=None)
    parser.add_argument("--hidden-units", dest="hidden_units", type=int, default=None)
    parser.add_argument("--look-back", dest="look_back", type=int, default=None)
    parser.add_argument("--split", type=float, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    parser.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--shuffle", action=argparse.BooleanOptionalAction, default=None)
    parser.add_argument("--spacing", choices=("uniform_conductance", "uniform_resistance"), default=None)
    parser.add_argument("--read-noise", dest="read_noise", type=float, default=None)
    parser.add_argument("--level-variation", dest="level_variation", type=float, default=None)
    parser.add_argument("--noise-seeds", dest="noise_seeds", type=int, default=None)
    parser.add_argument("--quantize-output-layer", dest="quantize_output_layer",
                        action=argparse.BooleanOptionalAction, default=None)
    parser.add_argument("--out-dir", dest="out_dir", type=str, default=None)
    parser.add_argument("--report", choices=("table", "delimited"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbarlstm",
        description="Train a small LSTM forecaster and evaluate it on a behavioral 16-level memristive crossbar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the model, write weights and loss history")
    _add_override_flags(p_train)

    p_quant = sub.add_parser("quantize", help="program weights onto the crossbar and report quantization error")
    _add_override_flags(p_quant)
    p_quant.add_argument("--weights", type=Path, default=None, help="weight file (default: <out-dir>/weights.txt)")

    p_eval = sub.add_parser("evaluate", help="compare float and crossbar paths on the train/test splits")
    _add_override_flags(p_eval)
    p_eval.add_argument("--weights", type=Path, default=None, help="weight file (default: <out-dir>/weights.txt)")
    p_eval.add_argument("--program", type=Path, default=None, help="crossbar program file (default: derive from weights)")

    p_plot = sub.add_parser("plot-data", help="emit delimited prediction and loss curves from prior run outputs")
    _add_override_flags(p_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "quantize":
            weights = args.weights or Path(cfg.out_dir) / WEIGHTS_FILE
            return cmd_quantize(cfg, weights)
        if args.command == "evaluate":
            weights = args.weights or Path(cfg.out_dir) / WEIGHTS_FILE
            return cmd_evaluate(cfg, weights, args.program)
        if args.command == "plot-data":
            return cmd_plotdata(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
