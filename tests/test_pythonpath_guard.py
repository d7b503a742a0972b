"""conftest.py's guard: a session whose PYTHONPATH names another tree's
package stops before any test runs, with one line naming both packages."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_pytest(*pythonpath):
    """pytest on one small test of this tree, from its root, with the given PYTHONPATH entries."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(entry) for entry in pythonpath)}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "tests/test_cell.py::TestActivations::test_sigmoid_at_zero"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def other_tree(tmp_path):
    (tmp_path / "src" / "xbarlstm").mkdir(parents=True)
    (tmp_path / "src" / "xbarlstm" / "__init__.py").write_text("")
    return tmp_path


def test_pythonpath_naming_another_tree_stops_the_session(tmp_path, other_tree):
    result = run_pytest(tmp_path / "nothing", other_tree / "src", ROOT / "src")
    assert result.returncode == pytest.ExitCode.USAGE_ERROR
    assert result.stdout == ""
    named, imported = other_tree.resolve() / "src" / "xbarlstm", ROOT / "src" / "xbarlstm"
    assert result.stderr.strip() == f"ERROR: PYTHONPATH names the package {named}, but the tests would import {imported}"


def test_pythonpath_naming_this_tree_first_runs_the_tests(tmp_path, other_tree):
    result = run_pytest(tmp_path / "nothing", ROOT / "src", other_tree / "src")
    assert result.returncode == pytest.ExitCode.OK, result.stdout + result.stderr
