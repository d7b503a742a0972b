"""The functions the benchmark wraps still exist under the names it uses,
so a rename fails here and not only in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def bench_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(owner, attr) for owner, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("owner, attr", bench_targets())
def test_every_traced_name_is_callable(owner, attr):
    assert callable(getattr(importlib.import_module(owner), attr, None)), f"{owner}.{attr}"
