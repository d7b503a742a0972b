"""The README's library example runs against the current API, and its CLI
section and every command's --help cover every config key."""

import dataclasses
import re
from pathlib import Path

import pytest

from xbarlstm.cli import RunConfig, main

README = Path(__file__).resolve().parents[1] / "README.md"
KEYS = [f.name for f in dataclasses.fields(RunConfig)]


def test_library_use_example_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert namespace["preds"].shape == (len(namespace["test_part"]),)
    assert (namespace["preds"] != namespace["other"]).all()
    assert (namespace["preds"] == namespace["rows"][0]).all()  # device seed 0 is monte_carlo's row 0
    assert (namespace["other"] == namespace["rows"][1]).all()
    assert namespace["n_clamped"] == 0  # training keeps every weight in [-1, 1]
    assert namespace["noisy"].shape == (200,) and len(set(namespace["noisy"].tolist())) == 200


@pytest.mark.parametrize("command", ["train", "quantize", "evaluate", "plot-data"])
def test_help_lists_a_flag_for_every_key(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert [key for key in KEYS if "--" + key.replace("_", "-") not in flags] == []


def test_readme_names_every_key():
    paragraph = README.read_text().split("Config keys and defaults:", 1)[1].split("\n\n", 1)[0]
    assert [key for key in KEYS if not re.search(rf"\b{key}\b", paragraph)] == []


def test_layout_lists_every_module():
    """The "Repository layout" block names exactly the package's modules,
    so a fold or a rename cannot leave it stale."""
    block = README.read_text().split("## Repository layout", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^  (\w+\.py) ", block.split("src/xbarlstm/\n", 1)[1], re.M)
    package = README.parent / "src" / "xbarlstm"
    assert sorted(listed) == sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")
