"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert len(namespace["preds"]) == 1 and namespace["preds"] != namespace["other"]
    assert namespace["n_clamped"] == 0  # training keeps every weight in [-1, 1]
