"""The mutation probe's flips and allowlist, without running any mutant."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutation_probe", ROOT / "tools" / "mutation_probe.py")
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)


def mutants(source: str):
    raw = source.encode()
    return [(line, (raw[:start] + new.encode() + raw[stop:]).decode())
            for line, start, stop, _, new in probe.mutation_sites(raw)]


def test_each_flip_changes_one_operator_and_nothing_else():
    source = "y = (a + b) * c  # a - b\nz -= a / (b - 1)\nok = a < b <= c and d > e >= f\nw = a ** 2 // b\n"
    assert mutants(source) == [
        (1, source.replace("a + b", "a - b", 1)),
        (1, source.replace(") * c", ") / c")),
        (2, source.replace("z -=", "z +=")),
        (2, source.replace("a / (b", "a * (b")),
        (2, source.replace("b - 1", "b + 1")),
        (3, source.replace("a < b", "a <= b")),
        (3, source.replace("b <= c", "b < c")),
        (3, source.replace("d > e", "d >= e")),
        (3, source.replace("e >= f", "e > f")),
    ]


def test_operator_is_found_past_parentheses_and_comments_between_operands():
    source = "x = (a  # a + comment\n     + b)\n"
    assert mutants(source) == [(2, source.replace("     + b", "     - b"))]


@pytest.mark.parametrize("entry", probe.ALLOWLIST, ids=lambda entry: f"{entry[0]}:{entry[1]}:{entry[2]}")
def test_every_allowlisted_mutant_exists_in_the_source(entry):
    """An allowlist entry names a flip the probe makes, so a rewritten line
    cannot leave a stale excuse behind."""
    name, fragment, op, _ = entry
    path = ROOT / "src" / "xbarlstm" / name
    raw = path.read_bytes()
    lines = raw.decode().splitlines()
    assert any(old == op and fragment in lines[line - 1] for line, _, _, old, _ in probe.mutation_sites(raw))
