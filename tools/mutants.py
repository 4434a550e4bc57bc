"""Mutation sweep: which one-token changes to a module its tests miss.

    python3 tools/mutants.py src/zeenoise/oracles.py tests/test_oracles.py

Copies `src/`, `tests/` and `pyproject.toml` into a temporary directory and
never writes the worktree. Each mutant changes one site of the module:

- an arithmetic operator swapped (+ -, * /, // /, ** *), augmented
  assignments (`g -= t`) included;
- a comparison swapped (< <=, > >=, == !=, is / is not, in / not in);
- a boolean operator swapped (and or);
- a numeric constant bumped (an int by 1, any other number doubled, a
  zero set to one);
- a unary minus dropped.

The mutated module is written back with `ast.unparse`, so comments and
layout do not survive; the unmutated module goes through the same round
trip first, and its tests must pass. Each mutant then runs pytest on the
given test files, stopping at the first failure. A mutant survives when
they all pass; one that fails, errors or outlasts ten times the unmutated
run is killed. Prints one line per mutant, `module:line:col: description`,
and the counts; exits 1 if the unmutated run fails.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And,
}


def _bumped(value):
    if isinstance(value, int):
        return value + 1
    return value * 2 if value else 1.0


def _is_number(node):
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float, complex))
        and not isinstance(node.value, bool)
    )


def _set(field, value):
    return lambda node: setattr(node, field, value)


def mutations(node):
    """(anchor, description, apply) of each mutation of `node`. `anchor` is
    the operand right of a swapped operator (an augmented assignment's
    value), else `node` itself, so that two operators of one nested
    expression sit at different columns; `apply` edits the node at the
    same place in a fresh parse of the module."""
    binary = (ast.BinOp, ast.BoolOp, ast.AugAssign)
    if isinstance(node, binary) and type(node.op) in SWAPS:
        new = SWAPS[type(node.op)]
        if isinstance(node, ast.BoolOp):
            anchor = node.values[1]
        else:
            anchor = node.right if isinstance(node, ast.BinOp) else node.value
        description = f"{type(node.op).__name__} -> {new.__name__}"
        yield anchor, description, _set("op", new())
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                new = SWAPS[type(op)]
                ops = node.ops[:i] + [new()] + node.ops[i + 1:]
                description = f"{type(op).__name__} -> {new.__name__}"
                yield node.comparators[i], description, _set("ops", ops)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield node, "drop unary minus", _set("op", ast.UAdd())
    if _is_number(node):
        yield node, f"{node.value!r} -> {_bumped(node.value)!r}", _set(
            "value", _bumped(node.value)
        )


def sites(source):
    """(walk index, label, apply) of every mutation site; the label
    `line:col: description` names one site (col counts from 0)."""
    found = []
    for index, node in enumerate(ast.walk(ast.parse(source))):
        for anchor, description, apply in mutations(node):
            label = f"{anchor.lineno}:{anchor.col_offset}: {description}"
            found.append((index, label, apply))
    return found


def mutant(source, index, apply):
    tree = ast.parse(source)
    for i, node in enumerate(ast.walk(tree)):
        if i == index:
            apply(node)
            break
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(copy, tests, timeout):
    """(killed, seconds) of one pytest run in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests],
            cwd=copy, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return True, time.monotonic() - start
    return done.returncode != 0, time.monotonic() - start


def sweep(module, tests):
    """Print each mutant's fate and the counts; returns the exit status."""
    source = (ROOT / module).read_text()
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / module
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        killed, seconds = run_tests(copy, tests, None)
        if killed:
            print(f"the unmutated {module} fails {' '.join(tests)}")
            return 1
        survivors = 0
        found = sites(source)
        for index, label, apply in found:
            target.write_text(mutant(source, index, apply))
            killed, _ = run_tests(copy, tests, 10 * seconds + 10)
            fate = "killed  " if killed else "SURVIVED"
            print(f"{fate} {module}:{label}", flush=True)
            survivors += not killed
        print(f"{module}: {len(found)} mutants, {survivors} survivors")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(sweep(sys.argv[1], sys.argv[2:]))
