"""Spans around the xbarlstm functions of each layer, kept in memory.

Each function is wrapped where its caller looks it up: ``cli`` imports
``train``, ``program_crossbar`` and the file I/O functions by name, so those
are wrapped on ``xbarlstm.cli``; ``training`` and ``crossbar`` call the
kernels through the ``kernels`` module, so those are wrapped there.
``numpy.random.default_rng`` is wrapped too, to count the random streams
the crossbar layer builds.

Run as a script, it traces one CLI command in a fresh process and writes
its spans and its import time to a JSON file when the command ends:

    python3 perfbench/tracing.py SPANS_JSON COMMAND [ARGS...]
"""

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name, index of the argument naming the file whose
# size is recorded as the span's bytes)
TARGETS = (
    ("xbarlstm.cli", "cmd_train", "cli.cmd_train", None),
    ("xbarlstm.cli", "cmd_quantize", "cli.cmd_quantize", None),
    ("xbarlstm.cli", "cmd_evaluate", "cli.cmd_evaluate", None),
    ("xbarlstm.cli", "cmd_plotdata", "cli.cmd_plotdata", None),
    ("xbarlstm.cli", "_load_pipeline", "data.prep", None),
    ("xbarlstm.cli", "train", "training.train", None),
    ("xbarlstm.kernels", "batch_loss_and_grads", "kernels.batch_loss_and_grads", None),
    ("xbarlstm.cli", "batch_predictions", "training.batch_predictions", None),
    ("xbarlstm.cli", "program_crossbar", "crossbar.program_crossbar", None),
    ("xbarlstm.cli", "crossbar_window_predictions", "crossbar.crossbar_window_predictions", None),
    ("xbarlstm.kernels", "crossbar_unroll", "kernels.crossbar_unroll", None),
    ("xbarlstm.cli", "write_weights", "weights_io.write_weights", 2),
    ("xbarlstm.cli", "read_weights", "weights_io.read_weights", 0),
    ("xbarlstm.cli", "write_program", "crossbar.write_program", 1),
    ("xbarlstm.cli", "read_program", "crossbar.read_program", 0),
)
SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS)
BYTE_SPANS = tuple(name for _, _, name, path_arg in TARGETS if path_arg is not None)


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent, request, bytes].

    ``parent`` is the index of the enclosing span or -1; ``request`` is the
    timed iteration the span belongs to, set by the caller.
    """

    def __init__(self):
        self.spans = []
        self.rng_streams = 0
        self.request = 0
        self._open = []

    def install(self):
        for module, attr, name, path_arg in TARGETS:
            owner = importlib.import_module(module)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, path_arg))
        import numpy.random

        numpy.random.default_rng = self._count_rng(numpy.random.default_rng)

    def reset(self):
        self.spans = []
        self.rng_streams = 0

    def _wrap(self, fn, name, path_arg):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.request, 0]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
                if path_arg is not None and os.path.exists(args[path_arg]):
                    span[5] = os.path.getsize(args[path_arg])

        return traced

    def _count_rng(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if any(self.spans[i][0].startswith("crossbar.") for i in self._open):
                self.rng_streams += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "rng_streams": self.rng_streams, **extra}, fh)


def summarize(span_lists):
    """Per span name: calls, total seconds, self seconds (total minus the
    direct children's totals) and bytes. Each list holds one process's spans."""
    rows = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0} for name in SPAN_NAMES}
    for spans in span_lists:
        for name, start, end, parent, _request, nbytes in spans:
            row = rows[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start
            row["bytes"] += nbytes
            if parent >= 0:
                rows[spans[parent][0]]["self_s"] -= end - start
    return rows


def _trace_command(spans_path, argv):
    t0 = time.perf_counter()
    from xbarlstm import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(_trace_command(sys.argv[1], sys.argv[2:]))
