"""One benchmark workload in a fresh process: set up, run timed iterations, check each.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE RESULT_JSON [--setup-only]

Run from the repository root with ``src`` on PYTHONPATH (``run.py`` does
this). Writes a JSON result holding ``ready`` (the CLOCK_MONOTONIC time at
which the first timed iteration starts), the import time of
``xbarlstm.cli``, per-iteration wall seconds with the probe seconds around
each, the checks that failed, artifact digests, accuracy figures and, with
TRACE 1, the per-span totals.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
from xbarlstm import cli  # noqa: E402  (the import is part of what setup_s measures)

IMPORT_S = time.perf_counter() - T0

import probes  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
DATASET = "src/xbarlstm/data/airline-passengers.csv"
SEED_GROUP = 5
# The acceptance gate's experiment: over seeds 0-4 the median RMSE, in
# passengers, lies in these bands. Some other groups of five seeds miss them
# (seeds 525-529 give a median test RMSE of 115), so only this group is checked.
ACCEPTANCE_SEEDS = range(5)
TRAIN_BAND = (15.0, 40.0)
TEST_BAND = (35.0, 70.0)
# Largest |noisy - float| test RMSE, in passengers, allowed for the sweep.
MAX_DELTA = 15.0
SWEEP_SEEDS = 2000
SWEEP_ARGS = ["--level-variation", "0.05", "--read-noise", "0.01", "--noise-seeds", str(SWEEP_SEEDS)]
# The weights the sweep reuses are trained with the paper's configuration.
SWEEP_TRAIN_SEED = 0
COMMAND_TIMEOUT_S = 120


def parse_report(text):
    """'label  value' report lines -> {label: value}."""
    pairs = (re.split(r"\s{2,}", line.strip(), maxsplit=1) for line in text.splitlines())
    return {p[0]: p[1] for p in pairs if len(p) == 2}


def passengers(report, label):
    """First number of a report value, or nan when the label is missing."""
    match = re.match(r"[-+]?[\d.]+", report.get(label, ""))
    return float(match.group()) if match else math.nan


def digest(out_dir, texts):
    """sha256 of every file in out_dir plus of each captured report text."""
    out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(out_dir).iterdir())}
    out.update({name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()})
    return out


def combined(digests):
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    Path(path).mkdir(parents=True)
    return path


def run_in_process(argv):
    """cli.main(argv) with its report captured; returns (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    """Shared bookkeeping: per-seed reference digests and per-iteration problems."""

    min_iterations = 2
    expected_spans = ()
    nominal_s = probes.PROBE_NOMINAL_S

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.reference = {}  # seed -> artifact digests of its first iteration
        self.accuracy = {}  # seed -> {metric: passengers}
        self.in_children = False  # whether the measured work runs in child processes
        _, _, self.windows, self.train_part, _ = cli._load_pipeline(cli.RunConfig(dataset=DATASET))

    def probe(self):
        """Reference probe times taken between two iterations."""
        return [probes.probe_seconds() for _ in range(2)]

    def same_as_first(self, key, digests, problems):
        first = self.reference.setdefault(key, digests)
        if digests != first:
            changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
            problems.append(f"seed {key}: artifacts differ from its first iteration: {changed}")

    def finish(self):
        """Run-level checks once all iterations are done; returns problems."""
        return []

    def details(self):
        return {"artifact_sha256": {str(k): combined(v) for k, v in self.reference.items()},
                "accuracy": {str(k): v for k, v in self.accuracy.items()}}


class Train(Workload):
    """``train`` in-process with the paper's configuration (look-back 1,
    100 epochs, Adam), cycling through five seeds derived from the workload seed."""

    expected_spans = ("cli.cmd_train", "data.prep", "training.train", "kernels.batch_loss_and_grads",
                      "training.batch_predictions", "weights_io.write_weights")
    min_iterations = 2 * SEED_GROUP

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.seeds = [SEED_GROUP * seed + k for k in range(SEED_GROUP)]
        self.epochs = cli.RunConfig().epochs

    def iterate(self, i):
        s = self.seeds[i % SEED_GROUP]
        out = fresh_dir(f"{self.work}/seed-{s}")
        t0 = time.perf_counter()
        rc, text = run_in_process(["train", "--seed", str(s), "--dataset", DATASET, "--out-dir", out])
        wall = time.perf_counter() - t0
        problems = [] if rc == 0 else [f"train exited {rc}"]
        report = parse_report(text)
        self.accuracy[s] = {"rmse_train_float_pax": passengers(report, "train RMSE passengers"),
                            "rmse_test_float_pax": passengers(report, "test RMSE passengers")}
        if not all(map(math.isfinite, self.accuracy[s].values())):
            problems.append(f"seed {s}: train report has no finite RMSE")
        self.same_as_first(s, digest(out, {"stdout": text}), problems)
        return wall, problems

    def finish(self):
        """Runs the acceptance gate's experiment, untimed, and checks its bands."""
        train, test = [], []
        for s in ACCEPTANCE_SEEDS:
            out = fresh_dir(f"{self.work}/acceptance-seed-{s}")
            rc, text = run_in_process(["train", "--seed", str(s), "--dataset", DATASET, "--out-dir", out])
            report = parse_report(text)
            train.append(passengers(report, "train RMSE passengers"))
            test.append(passengers(report, "test RMSE passengers"))
        problems = []
        for label, values, (low, high) in (("train", train, TRAIN_BAND), ("test", test, TEST_BAND)):
            if not low <= statistics.median(values) <= high:
                problems.append(f"acceptance seeds: median {label} RMSE {statistics.median(values)} "
                                f"outside [{low}, {high}]")
        return problems

    def details(self):
        return {**super().details(), "epochs_per_iteration": self.epochs,
                "windows_per_epoch": len(self.train_part)}


class McSweep(Workload):
    """``evaluate`` in-process: a 2000-seed level-variation and read-noise
    sweep over fixed weights trained during setup."""

    expected_spans = ("cli.cmd_evaluate", "data.prep", "weights_io.read_weights", "crossbar.program_crossbar",
                      "crossbar.crossbar_window_predictions", "kernels.crossbar_unroll",
                      "training.batch_predictions")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        weights_dir = fresh_dir(f"{work}/weights")
        rc, text = run_in_process(["train", "--seed", str(SWEEP_TRAIN_SEED), "--dataset", DATASET,
                                   "--out-dir", weights_dir])
        if rc != 0:
            raise RuntimeError(f"training the sweep's weights exited {rc}")
        self.weights = f"{weights_dir}/{cli.WEIGHTS_FILE}"
        self.train_test_rmse = passengers(parse_report(text), "test RMSE passengers")
        steps = self.windows.x.shape[1]
        self.reads_per_iteration = SWEEP_SEEDS * len(self.windows) * steps * 4 * cli.RunConfig().hidden_units

    def iterate(self, i):
        out = fresh_dir(f"{self.work}/sweep")
        argv = ["evaluate", *SWEEP_ARGS, "--seed", str(self.seed), "--weights", self.weights,
                "--dataset", DATASET, "--out-dir", out]
        t0 = time.perf_counter()
        rc, text = run_in_process(argv)
        wall = time.perf_counter() - t0
        problems = [] if rc == 0 else [f"evaluate exited {rc}"]
        report = parse_report(text)
        acc = {"rmse_test_float_pax": passengers(report, "test float RMSE passengers"),
               "rmse_test_xbar_pax": passengers(report, "test quantized RMSE passengers"),
               "rmse_test_noisy_pax": passengers(report, f"test noisy RMSE passengers over {SWEEP_SEEDS} seeds")}
        self.accuracy[self.seed] = acc
        if acc["rmse_test_float_pax"] != self.train_test_rmse:
            problems.append(f"evaluate float test RMSE {acc['rmse_test_float_pax']} != train's {self.train_test_rmse}")
        if not abs(acc["rmse_test_noisy_pax"] - acc["rmse_test_float_pax"]) <= MAX_DELTA:
            problems.append(f"noisy test RMSE {acc['rmse_test_noisy_pax']} is not within {MAX_DELTA} of float")
        self.same_as_first(self.seed, digest(out, {"stdout": text}), problems)
        return wall, problems

    def details(self):
        return {**super().details(), "reads_per_iteration": self.reads_per_iteration}


class PipelineCli(Workload):
    """train -> quantize -> evaluate --program -> plot-data, each as a fresh
    ``python -m xbarlstm.cli`` process, cycling through five seeds."""

    expected_spans = tracing.SPAN_NAMES
    min_iterations = 2 * SEED_GROUP
    nominal_s = probes.FLOOR_NOMINAL_S
    commands = ("train", "quantize", "evaluate", "plot-data")

    def __init__(self, seed, work, trace):
        super().__init__(seed, work)
        self.seeds = [SEED_GROUP * seed + k for k in range(SEED_GROUP)]
        self.trace = trace
        self.in_children = True
        self.cmd_s = {name: [] for name in self.commands}
        self.span_lists = []
        self.import_s = []
        self.rng_streams = 0

    def probe(self):
        return [probes.process_seconds(probes.FLOOR_CODE, os.environ, os.getcwd()) for _ in range(2)]

    def argvs(self, s, out):
        common = ["--dataset", DATASET, "--out-dir", out]
        return (["train", "--seed", str(s), *common],
                ["quantize", *common],
                ["evaluate", "--program", f"{out}/{cli.PROGRAM_FILE}", *common],
                ["plot-data", *common])

    def iterate(self, i):
        s = self.seeds[i % SEED_GROUP]
        out = fresh_dir(f"{self.work}/seed-{s}")
        problems, texts, wall = [], {}, 0.0
        spans_path = f"{self.work}/spans.json"
        for name, argv in zip(self.commands, self.argvs(s, out)):
            prefix = [sys.executable, str(BENCH_DIR / "tracing.py"), spans_path] if self.trace else \
                [sys.executable, "-m", "xbarlstm.cli"]
            t0 = time.perf_counter()
            proc = subprocess.run(prefix + argv, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
            dt = time.perf_counter() - t0
            wall += dt
            self.cmd_s[name].append(dt)
            texts[f"stdout {name}"] = proc.stdout
            if proc.returncode != 0:
                problems.append(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            if self.trace:
                self.collect_spans(spans_path, i)
        train, evaluate = parse_report(texts["stdout train"]), parse_report(texts["stdout evaluate"])
        acc = {"rmse_train_float_pax": passengers(train, "train RMSE passengers"),
               "rmse_test_float_pax": passengers(train, "test RMSE passengers"),
               "rmse_test_xbar_pax": passengers(evaluate, "test quantized RMSE passengers")}
        self.accuracy[s] = acc
        if passengers(evaluate, "test float RMSE passengers") != acc["rmse_test_float_pax"]:
            problems.append(f"seed {s}: evaluate float test RMSE differs from train's report")
        if not all(map(math.isfinite, acc.values())):
            problems.append(f"seed {s}: reports have no finite RMSE")
        self.same_as_first(s, digest(out, texts), problems)
        return wall, problems

    def collect_spans(self, spans_path, i):
        with open(spans_path) as fh:
            dump = json.load(fh)
        os.remove(spans_path)
        for span in dump["spans"]:
            span[4] = i
        self.span_lists.append(dump["spans"])
        self.import_s.append(dump["import_s"])
        self.rng_streams += dump["rng_streams"]

    def details(self):
        return {**super().details(), "cmd_s": self.cmd_s}


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def main(argv):
    name, seed, seconds, trace, result_path = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    setup_only = "--setup-only" in argv[5:]
    if not Path(cli.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        raise SystemExit(f"xbarlstm was imported from {cli.__file__}, outside {Path.cwd()}")
    # A fixed path: reports name their out-dir, and their digests are compared across runs.
    work = fresh_dir(f".bench_build/perfbench/{name}")
    tracer = tracing.Tracer() if trace and name != "pipeline_cli" else None
    if tracer:
        tracer.install()
    if name == "train":
        workload = Train(seed, work)
    elif name == "mc_sweep":
        workload = McSweep(seed, work)
    else:
        workload = PipelineCli(seed, work, trace)
    result = {"ready": time.monotonic(), "import_s": IMPORT_S}
    if not setup_only:
        if tracer:
            tracer.reset()
        walls, refs, failed, problems = [], [], 0, []
        start = time.perf_counter()
        i = 0
        before = workload.probe()
        while i < workload.min_iterations or time.perf_counter() - start < seconds:
            if tracer:
                tracer.request = i
            try:
                wall, iteration_problems = workload.iterate(i)
            except Exception as exc:  # an iteration that raises is a failed iteration, not a crashed run
                wall, iteration_problems = math.nan, [f"iteration {i} raised {exc!r}"]
            after = workload.probe()
            walls.append(wall)
            refs.append(statistics.median(before + after))
            before = after
            failed += bool(iteration_problems)
            problems += iteration_problems
            i += 1
        if trace:
            span_lists = [tracer.spans] if tracer else workload.span_lists
            rows = tracing.summarize(span_lists)
            missing = [s for s in workload.expected_spans if rows[s]["calls"] == 0]
            if missing:
                raise SystemExit(f"traced run never entered {missing}: a span reads zero because it was missed")
            result["trace"] = {
                "spans": rows,
                "rng_streams": tracer.rng_streams if tracer else workload.rng_streams,
                "import_s": [IMPORT_S] if tracer else workload.import_s,
            }
            with open(f"{work}/spans.json", "w") as fh:
                json.dump(span_lists, fh)
        run_problems = workload.finish()
        if run_problems:
            failed = len(walls)
        result.update(walls=walls, refs=refs, nominal_s=workload.nominal_s, failed=failed, problems=problems + run_problems,
                      peak_rss_mb=peak_rss_mb(workload.in_children), details=workload.details())
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
