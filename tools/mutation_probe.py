#!/usr/bin/env python3
"""How hard a module is to break: one operator flip at a time, against the tests.

    python3 tools/mutation_probe.py MODULE [MODULE ...] [--tests PATH ...]

Run it from the repository root. For every binary operator, augmented
assignment and comparison in each MODULE it makes one mutant: + and - swap,
* and /, < and <=, > and >=, one occurrence at a time, with the rest of the
file left byte for byte. Each mutant runs ``pytest -x`` (on the whole suite,
or on the --tests paths) in a copy of the repository in a temporary
directory; the working tree is never written. A mutant the tests fail on,
or that runs past TIMEOUT_S, is killed; one they pass on survived.

Survivors print as ``file:line`` with the flip. Those on ALLOWLIST, mutants
known to compute the same numbers, print apart with the reason. The exit
status is 1 when a survivor is not on the allowlist, else 0. Standard
library only; pytest runs in child processes.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300  # a mutant that makes a loop run on is killed, not waited for

# operator node type -> (its source text, the text of the operator it becomes)
FLIPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
}

# (file name, text on the mutated line, operator flipped, why the mutant computes the same numbers)
ALLOWLIST = (
    ("crossbar.py", "positive = w >= 0", ">=",
     "quantize_levels: a zero weight sits at level 0 on both sides either way"),
    ("training.py", "q * np.sign(np.diag(r))", "*",
     "init: the sign is +1 or -1, so q * s and q / s agree"),
    ("kernels.py", "if t > 0:", ">",
     "BPTT: the dH and carried dC it would also compute at t = 0 are never read"),
    ("kernels.py", "if T > 1:", ">",
     "unroll: at look-back 1 the drive's h columns are already zero, so zeroing them again changes nothing"),
)


def mutation_sites(source: bytes):
    """(line, byte start, byte end, old text, new text) of every flip in
    source, in source order. The operator is found in the bytes between its
    two operands, outside any comment there."""
    tree = ast.parse(source)
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            pairs = [(node.op, node.left, node.right, "")]
        elif isinstance(node, ast.AugAssign):
            pairs = [(node.op, node.target, node.value, "=")]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(op, operands[k], operands[k + 1], "") for k, op in enumerate(node.ops)]
        else:
            continue
        for op, before, after, suffix in pairs:
            if type(op) not in FLIPS:
                continue
            old, new = (text + suffix for text in FLIPS[type(op)])
            start = line_starts[before.end_lineno - 1] + before.end_col_offset
            stop = line_starts[after.lineno - 1] + after.col_offset
            gap = source[start:stop]
            position, found = 0, -1
            for piece in gap.splitlines(keepends=True):
                code = piece.split(b"#", 1)[0]
                found = code.find(old.encode())
                if found >= 0:
                    found += position
                    break
                position += len(piece)
            if found < 0:
                raise ValueError(f"line {before.end_lineno}: no {old!r} between the operands")
            line = source[: start + found].count(b"\n") + 1
            sites.append((line, start + found, start + found + len(old), old, new))
    return sorted(sites, key=lambda site: site[1])


def allowed(path: Path, line_text: str, old: str):
    """The allowlist's reason for a surviving flip of old on this line, or None."""
    for name, fragment, op, reason in ALLOWLIST:
        if path.name == name and fragment in line_text and op == old:
            return reason
    return None


def run_tests(workdir: Path, tests) -> bool:
    """True when pytest -x passes in workdir. The probe's own tests are left
    out: they read the allowlisted lines' text, which a mutant changes."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    own = f"--ignore={workdir / 'tests' / 'test_mutation_probe.py'}"
    try:
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", own, *tests],
                                cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path)
    parser.add_argument("--tests", nargs="*", default=[], help="test paths for pytest (default: the whole suite)")
    args = parser.parse_args(argv)
    unexplained = 0
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        workdir = Path(tmp) / "repo"
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(
            ".git", ".bench_build", "__pycache__", ".pytest_cache", "runs", "trace-cover"))
        if not run_tests(workdir, args.tests):
            print("the tests fail without any mutant; nothing to probe", file=sys.stderr)
            return 2
        for module in args.modules:
            relative = module.resolve().relative_to(ROOT)
            target = workdir / relative
            source = target.read_bytes()
            lines = source.decode().splitlines()
            survivors, equivalent, t0 = [], [], time.perf_counter()
            sites = mutation_sites(source)
            try:
                for line, start, stop, old, new in sites:
                    target.write_bytes(source[:start] + new.encode() + source[stop:])
                    if run_tests(workdir, args.tests):
                        reason = allowed(relative, lines[line - 1], old)
                        (survivors if reason is None else equivalent).append((line, old, new, reason))
            finally:
                target.write_bytes(source)
            seconds = time.perf_counter() - t0
            killed = len(sites) - len(survivors) - len(equivalent)
            print(f"{relative}: {len(sites)} mutants, {killed} killed, {len(equivalent)} equivalent"
                  f" (allowlisted), {len(survivors)} survived, {seconds:.0f} s")
            for line, old, new, _ in survivors:
                print(f"  {relative}:{line}: {old} -> {new} survived: {lines[line - 1].strip()}")
            for line, old, new, reason in equivalent:
                print(f"  {relative}:{line}: {old} -> {new} equivalent: {reason}")
            unexplained += len(survivors)
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
