"""Stop a session that would test another tree than PYTHONPATH names.

pyproject.toml's ``pythonpath = ["src"]`` goes ahead of PYTHONPATH, so
``PYTHONPATH=<other tree>/src python -m pytest`` run from this checkout
would import and test this checkout's package, not the other tree's. The
session stops with one line naming both instead. A PYTHONPATH that holds no
xbarlstm package, or whose first one is the package imported, passes.
"""

import os
from pathlib import Path

import pytest

import xbarlstm


def pythonpath_package(pythonpath: str):
    """The xbarlstm package directory of the first PYTHONPATH entry holding one, or None."""
    for entry in filter(None, pythonpath.split(os.pathsep)):
        package = Path(entry, "xbarlstm")
        if (package / "__init__.py").is_file():
            return package.resolve()
    return None


def pytest_configure(config):
    named = pythonpath_package(os.environ.get("PYTHONPATH", ""))
    imported = Path(xbarlstm.__file__).resolve().parent
    if named is not None and named != imported:
        raise pytest.UsageError(f"PYTHONPATH names the package {named}, but the tests would import {imported}")
