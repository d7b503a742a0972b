"""Command-line pipeline: train, quantize, evaluate, plot-data.

Every command reads an optional flat ``key = value`` config file, each key
set at most once, plus command-line overrides of the same names, runs
deterministically for a fixed (config, seed), and exits nonzero on any
validation failure. RunConfig's fields are the one key table, TrainConfig's
training keys first: one flag each, one coercion for flag and file values,
one check by the config that owns the key. See README for the key
reference and the produced files.
"""

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import xbarlstm

from .config import BUNDLED_DATASET, CrossbarConfig, TrainConfig, is_number, open_text


@functools.cache  # binds once per set of modules; each command calls it
def _load_numeric(*modules: str) -> None:
    """Bind np and the public names of the named package submodules into
    this module's globals on first use, so a command loads only the modules
    it runs and plot-data never loads numpy. A name already bound keeps its
    value, so a wrapper set on this module, as perfbench/tracing.py sets its
    spans, stays the one the commands call."""
    import numpy

    bound = globals()
    bound.setdefault("np", numpy)
    for name, module in xbarlstm._EXPORTS.items():
        if module in modules:
            bound.setdefault(name, getattr(xbarlstm, name))


def __getattr__(name: str):
    """cli.<public name> before a command binds it (PEP 562): binds np and the
    names of the one submodule xbarlstm._EXPORTS gives for name, or np alone."""
    if name != "np" and name not in xbarlstm._EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_numeric(xbarlstm._EXPORTS.get(name))
    return globals()[name]


WEIGHTS_FILE = "weights.txt"
QUANTIZED_WEIGHTS_FILE = "weights_quantized.txt"
LOSS_FILE = "loss_history.txt"
PROGRAM_FILE = "program.txt"
QUANTIZE_REPORT_FILE = "quantize_report.txt"
EVAL_REPORT_FILE = "eval_report.txt"
PREDICTIONS_FILE = "predictions.csv"
PLOT_PREDICTIONS_FILE = "plot_predictions.csv"
PLOT_LOSS_FILE = "plot_loss.csv"
PREDICTIONS_HEADER = "time_index,actual,prediction_float,prediction_quantized"


@dataclasses.dataclass(frozen=True)
class RunConfig(TrainConfig):
    """TrainConfig's keys first, then the data, device and output keys."""

    dataset: str = str(BUNDLED_DATASET)
    look_back: int = 1
    split: float = 0.67
    spacing: str = CrossbarConfig.spacing
    read_noise: float = CrossbarConfig.read_noise_sigma
    level_variation: float = CrossbarConfig.level_variation_sigma
    noise_seeds: int = 1
    quantize_output_layer: bool = False
    out_dir: str = "runs"
    report: str = "table"

    def __post_init__(self):
        for name in ("dataset", "out_dir"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if self.report not in ("table", "delimited"):
            raise ValueError(f"report must be 'table' or 'delimited', got {self.report!r}")
        if self.noise_seeds < 1:
            raise ValueError(f"noise_seeds must be >= 1, got {self.noise_seeds}")
        if self.look_back < 1:
            raise ValueError(f"look_back must be >= 1, got {self.look_back}")
        if not 0.0 < self.split < 1.0:
            raise ValueError(f"split must be in (0, 1), got {self.split}")
        super().__post_init__()
        self.crossbar_config()

    def crossbar_config(self) -> CrossbarConfig:
        return CrossbarConfig(self.spacing, read_noise_sigma=self.read_noise,
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
    values, set_on = {}, {}
    with open_text(path) as fh:
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
            if key in set_on:
                raise ValueError(f"{path}: line {lineno}: key {key!r} already set on line {set_on[key]}")
            set_on[key] = lineno
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
    """Dataset -> normalizer -> windows -> chronological split: series, norm, windows, train_part, {"train": slice,
    "test": slice} of windows, the slices in order with no gap."""
    _load_numeric("data")
    series = load_series(cfg.dataset)
    norm = fit_normalizer(series)
    windows = make_windows(normalize(series, norm), cfg.look_back)
    train_part, _ = split(cfg.split, windows)
    n_train = len(train_part)
    return series, norm, windows, train_part, {"train": slice(0, n_train), "test": slice(n_train, None)}


def _data_pairs(cfg: RunConfig, series, windows, splits: dict) -> list:
    """The dataset and windows report lines, each split counted from the table."""
    parts = " + ".join(f"{len(windows.y[sl])} {name}" for name, sl in splits.items())
    return [("dataset", f"{cfg.dataset} ({len(series)} points)"), ("windows", f"{len(windows)} = {parts}")]


def _load_device(cfg: RunConfig, weights_path, program_path=None):
    """The weights and the device they run on, from the program file when one
    is given, header spacing, sigmas and seed included, else from the weights
    and cfg: params, out, program, the output layer the crossbar runs (out
    quantized on the program's spacing if quantize_output_layer, else out
    itself) and one stderr warning per stage that clamped weights to [-1, 1]."""
    _load_numeric("weights_io", "crossbar")
    params, out = read_weights(weights_path)
    if program_path is not None:
        program = read_program(program_path)
        if program.level_plus.shape != params.grid.shape:
            raise ValueError(f"{program_path}: program grid {program.level_plus.shape} and weights grid "
                             f"{params.grid.shape} do not match")
    else:
        program = program_crossbar(params, cfg.crossbar_config())
    xbar_out, n_out_clamped = quantize_output_layer(out, program.cfg.spacing) if cfg.quantize_output_layer else (out, 0)
    stages = ((program.n_clamped, ""), (n_out_clamped, "output-layer "))
    warnings = [f"warning: {n} {stage}weight(s) outside [-1, 1] were clamped" for n, stage in stages if n]
    return params, out, program, xbar_out, warnings


def _split_rmse(preds, windows, splits: dict, norm) -> dict:
    """{name: (normalized, passengers)} RMSE of preds on each split's slice of windows."""
    return {name: (rmse(preds[sl], windows.y[sl]), rmse(preds[sl], windows.y[sl], denorm=norm))
            for name, sl in splits.items()}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _report_lines(pairs, fmt: str):
    """(label, value) pairs as an aligned table or 'key,value' lines."""
    if fmt == "delimited":
        return [f"{label.replace(' ', '_')},{value}" for label, value in pairs]
    width = max(len(label) for label, _ in pairs)
    return [f"{label:<{width}}  {value}" for label, value in pairs]


def _require_finite(what: str, values, source=None) -> None:
    """Refuse results that overflowed float64, which a command's errstate
    lets through as inf or nan rather than as numpy warnings: one
    ValueError, naming source, the file the numbers came from, if given."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"{f'{source}: ' if source else ''}{what} are not finite: the numbers overflow float64")


def _finish(out_dir: Path, files: dict, stdout, stderr=()) -> int:
    """The one ending of every command: make out_dir, write files into it,
    then print the stderr and stdout lines. files maps each file name to
    its lines or to a function that writes the file at the path it is
    given. If one cannot be written, the ones already written are removed
    and nothing is printed, so a failed command leaves no half set of
    outputs and only its error line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, content in files.items():
            path = out_dir / name
            if callable(content):
                content(path)
            else:
                path.write_text("\n".join(content) + "\n")
            written.append(path)
    except OSError:
        for path in written:
            path.unlink()
        raise
    for line in stderr:
        print(line, file=sys.stderr)
    print("\n".join(stdout))
    return 0


def cmd_train(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    _load_numeric("training", "weights_io")
    series, norm, windows, train_part, splits = _load_pipeline(cfg)

    params, out, history = train(train_part, cfg)

    with np.errstate(over="ignore", invalid="ignore"):
        split_rmse = _split_rmse(batch_predictions(params, out, windows), windows, splits, norm)

    shapes = packed_shapes(params)
    pairs = [
        *_data_pairs(cfg, series, windows, splits),
        ("epochs", str(cfg.epochs)),
        ("seed", str(cfg.seed)),
        ("final epoch loss", f"{history[-1]:.8f}"),
        ("weight matrices", " ".join(f"[{r},{c}]" for r, c in shapes)),
    ]
    for name, (normalized, passengers) in split_rmse.items():
        _require_finite(f"the trained model's {name} RMSEs", [normalized, passengers])
        pairs.append((f"{name} RMSE normalized", f"{normalized:.6f}"))
        pairs.append((f"{name} RMSE passengers", f"{passengers:.4f}"))
    pairs += [("weights file", str(out_dir / WEIGHTS_FILE)),
              ("loss history file", str(out_dir / LOSS_FILE))]
    files = {
        WEIGHTS_FILE: lambda path: write_weights(params, out, path),
        LOSS_FILE: [f"{epoch + 1} {_fmt(loss)}" for epoch, loss in enumerate(history)],
    }
    return _finish(out_dir, files, _report_lines(pairs, cfg.report))


def _quantization_table(params: "LstmParams", quantized: "LstmParams", out: "OutputLayer", out_q: "OutputLayer"):
    """Per-entry (name, row, col, original, quantized, abs_error) rows, the
    error taken against the clamped original; output layer entries are
    included only when it is quantized too, that is when out_q is not out."""
    mats, q_mats = named_matrices(params, out), named_matrices(quantized, out_q)
    names = [f"{kind}_{gate}" for gate in "ifco" for kind in "WUb"] + (["w_out", "b_out"] if out_q is not out else [])
    table = []
    for name in names:
        for (r, c), v in np.ndenumerate(mats[name]):
            q = q_mats[name][r, c]
            table.append((name, r, c, v, q, abs(q - min(max(v, -1.0), 1.0))))
    return table


def cmd_quantize(cfg: RunConfig, weights_path) -> int:
    out_dir = Path(cfg.out_dir)
    params, out, program, out_q, warnings = _load_device(cfg, weights_path)
    quantized = reconstruct_weights(program)

    table = _quantization_table(params, quantized, out, out_q)
    errors = np.array([row[5] for row in table])
    header = [
        f"spacing {program.cfg.spacing}",
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
    pairs = [
        ("spacing", program.cfg.spacing),
        ("entries", str(len(table))),
        ("max abs quantization error", f"{errors.max():.6f}"),
        ("mean abs quantization error", f"{errors.mean():.6f}"),
        ("program file", str(out_dir / PROGRAM_FILE)),
        ("quantized weights file", str(out_dir / QUANTIZED_WEIGHTS_FILE)),
        ("report file", str(out_dir / QUANTIZE_REPORT_FILE)),
    ]
    files = {
        PROGRAM_FILE: lambda path: write_program(program, path),
        QUANTIZED_WEIGHTS_FILE: lambda path: write_weights(quantized, out_q, path),
        QUANTIZE_REPORT_FILE: header + body,
    }
    return _finish(out_dir, files, _report_lines(pairs, cfg.report), warnings)


def cmd_evaluate(cfg: RunConfig, weights_path, program_path=None) -> int:
    """Float vs crossbar path on both splits; each sweep seed re-draws _load_device's device from its level map."""
    out_dir = Path(cfg.out_dir)
    _load_numeric("training")
    params, out, program, xbar_out, warnings = _load_device(cfg, weights_path, program_path)
    series, norm, windows, _, splits = _load_pipeline(cfg)

    with np.errstate(over="ignore", invalid="ignore"):
        float_preds = batch_predictions(params, out, windows)
        xbar_preds = crossbar_window_predictions(program, xbar_out, windows)
        float_rmse, xbar_rmse = (_split_rmse(preds, windows, splits, norm) for preds in (float_preds, xbar_preds))
        noisy = sweep(program, xbar_out, windows, cfg.noise_seeds, splits, norm) if cfg.noise_seeds > 1 else {}
    _require_finite("float predictions or RMSEs", [float_preds, *float_rmse.values()], weights_path)
    _require_finite("crossbar predictions or RMSEs", [xbar_preds, *xbar_rmse.values(), *noisy.values()],
                    program_path or weights_path)

    pairs = [
        *_data_pairs(cfg, series, windows, splits),
        ("spacing", program.cfg.spacing),
        ("read noise sigma", _fmt(program.cfg.read_noise_sigma)),
        ("level variation sigma", _fmt(program.cfg.level_variation_sigma)),
        ("program", str(program_path) if program_path else "derived from weights"),
    ]
    for name, (fn, fp) in float_rmse.items():
        qn, qp = xbar_rmse[name]
        pairs += [
            (f"{name} float RMSE normalized", f"{fn:.6f}"),
            (f"{name} float RMSE passengers", f"{fp:.4f}"),
            (f"{name} quantized RMSE normalized", f"{qn:.6f}"),
            (f"{name} quantized RMSE passengers", f"{qp:.4f}"),
            (f"{name} delta passengers", f"{qp - fp:+.4f}"),
        ]

    for name, arr in noisy.items():
        pairs.append((
            f"{name} noisy RMSE passengers over {cfg.noise_seeds} seeds",
            f"{arr.mean():.4f} +/- {arr.std():.4f}",
        ))

    # full-precision prediction dump over the whole series, for plot-data;
    # the first look_back points have no prediction
    pad = np.full(cfg.look_back, np.nan)
    columns = zip(series.values, *(np.concatenate([pad, denormalize(p, norm)]) for p in (float_preds, xbar_preds)))
    rows = [PREDICTIONS_HEADER]
    rows += [f"{t},{_fmt(v)},{_fmt(f)},{_fmt(q)}" for t, (v, f, q) in enumerate(columns)]

    lines = _report_lines(pairs, cfg.report)
    files = {EVAL_REPORT_FILE: lines, PREDICTIONS_FILE: rows}
    return _finish(out_dir, files, lines, warnings)


def _checked_lines(path: Path, header, expected: str, valid) -> list:
    """A run output's lines: the header unless it is None, then at least one
    row, row n (from 0) passing valid(n, line). Anything else raises one
    ValueError naming the file, the line and what was expected."""
    lines = open_text(path).read().splitlines()
    head = [] if header is None else [header]
    if lines[: len(head)] != head:
        got = repr(lines[0]) if lines else "end of file"
        raise ValueError(f"{path}: line 1: expected the header {header!r}, got {got}")
    if len(lines) == len(head):
        raise ValueError(f"{path}: line {len(head) + 1}: expected {expected}, got end of file")
    for n, line in enumerate(lines[len(head):]):
        try:
            ok = valid(n, line)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{path}: line {n + len(head) + 1}: expected {expected}, got {line!r}")
    return lines


def cmd_plotdata(cfg: RunConfig) -> int:
    """evaluate's predictions and train's loss history, checked line by line
    and copied out as delimited curves; uses no numpy."""
    out_dir = Path(cfg.out_dir)
    predictions = out_dir / PREDICTIONS_FILE
    losses = out_dir / LOSS_FILE
    for needed in (predictions, losses):
        if not needed.exists():
            raise FileNotFoundError(f"missing run output {needed}; run `train` and `evaluate` first")

    def prediction_row(n, line):
        index, actual, *preds = line.split(",")
        return (len(preds) == 2 and int(index) == n and math.isfinite(float(actual))
                and all(math.isfinite(p) or (n < cfg.look_back and math.isnan(p)) for p in map(float, preds)))

    def loss_row(n, line):
        epoch, loss = line.split()
        return int(epoch) == n + 1 and math.isfinite(float(loss))

    pred_lines = _checked_lines(predictions, PREDICTIONS_HEADER,
                                f"'<time index>,<actual>,<float>,<quantized>', finite numbers but for "
                                f"nan predictions at time index < look_back = {cfg.look_back}", prediction_row)
    loss_rows = ["epoch,loss"] + [",".join(line.split()) for line in
                                  _checked_lines(losses, None, "'<epoch> <finite loss>'", loss_row)]

    stdout = [f"wrote {out_dir / PLOT_PREDICTIONS_FILE} ({len(pred_lines) - 1} rows)",
              f"wrote {out_dir / PLOT_LOSS_FILE} ({len(loss_rows) - 1} rows)"]
    return _finish(out_dir, {PLOT_PREDICTIONS_FILE: pred_lines, PLOT_LOSS_FILE: loss_rows}, stdout)


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


def _attach_negative_values(argv):
    """'--key -1e-9' as '--key=-1e-9'. argparse takes a token that starts
    with '-' for an option unless it is a plain decimal, so a negative value
    in exponent form or -inf would never reach the check of its key. Other
    tokens stay apart, so an error names them as they were typed."""
    joined = []
    for token in argv:
        negative = token.startswith("-") and is_number(token)
        if negative and joined and joined[-1].startswith("--") and "=" not in joined[-1]:
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
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
