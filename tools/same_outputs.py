"""Same outputs: this checkout writes every figure table as REV does, byte for byte.

    python3 tools/same_outputs.py REV

Unpacks REV with `git archive` into a temporary directory. On that tree and
on this checkout it runs `zeenoise run --preset figN` for fig2 to fig5, and
each of perfbench's two large_f scenario files at its default seed 1502
(written once by perfbench's `large_f_scenarios`), every run in a fresh
process. Then it
compares every CSV and JSON file of the two trees byte for byte. For each
file that differs it prints the name and, for a table, the largest change of
a column relative to that column's largest magnitude at REV. Exits 0 only
when every run succeeds and both trees write the same files with the same
bytes.
"""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("fig2", "fig3", "fig4", "fig5")
CLI_MAIN = "import sys; from zeenoise.cli import main; sys.exit(main())"


def _table(path):
    """(header, rows of floats with NaN for an empty field) of a CSV table."""
    header, *lines = path.read_text().splitlines()
    rows = [[float(f) if f else math.nan for f in line.split(",")] for line in lines]
    return header, rows


def _largest_move(old, new):
    """Description of the largest |new - old| of a column over its max |old|."""
    (header, rows_a), (header_b, rows_b) = _table(old), _table(new)
    if header != header_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "the table's header or shape changed"
    worst, where = 0.0, None
    for j, name in enumerate(header.split(", ")):
        column = [(row_a[j], row_b[j]) for row_a, row_b in zip(rows_a, rows_b)]
        if any(math.isnan(a) != math.isnan(b) for a, b in column):
            return f"column {name} changed which fields are empty"
        pairs = [(a, b) for a, b in column if not math.isnan(a)]
        scale = max((abs(a) for a, _ in pairs), default=0.0)
        move = max((abs(b - a) for a, b in pairs), default=0.0)
        relative = move / scale if scale else (math.inf if move else 0.0)
        if where is None or relative > worst:
            worst, where = relative, name
    return f"largest move {worst:.3g} of the column maximum, in {where}"


def compare(old_dir, new_dir):
    """Report lines for every file that differs between two output
    directories; an empty list when both hold the same files, byte for byte."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    old = {p.name for p in old_dir.iterdir()}
    new = {p.name for p in new_dir.iterdir()}
    lines = [f"{name}: only at REV" for name in sorted(old - new)]
    lines += [f"{name}: only in this checkout" for name in sorted(new - old)]
    for name in sorted(old & new):
        a, b = old_dir / name, new_dir / name
        if a.read_bytes() == b.read_bytes():
            continue
        detail = _largest_move(a, b) if name.endswith(".csv") else "bytes differ"
        lines.append(f"{name}: {detail}")
    return lines


def _run(tree, sources, out):
    """Run the CLI of `tree` on each source in a fresh process; returns the
    report lines of the runs that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    failed = []
    for source in sources:
        done = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, "run", *source, "--out", str(out)],
            cwd=out.parent, env=env, capture_output=True, text=True,
        )
        if done.returncode:
            failed.append(f"{tree}: run {' '.join(source)} exited "
                          f"{done.returncode}: {done.stderr.strip()}")
    return failed


def main(args):
    if len(args) != 1:
        return __doc__
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import DEFAULT_SEED, large_f_scenarios

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as scratch:
        scratch = Path(scratch)
        rev_tree = scratch / "rev"
        rev_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args[0]],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive, check=True)
        sources = [["--preset", preset] for preset in PRESETS] + [
            [str(path)] for path in large_f_scenarios(DEFAULT_SEED, scratch)
        ]
        failed, outs = [], {}
        for label, tree in (("rev", rev_tree), ("checkout", ROOT)):
            work = scratch / f"{label}-run"
            work.mkdir()
            outs[label] = work / "out"
            failed += _run(tree, sources, outs[label])
        lines = failed or compare(outs["rev"], outs["checkout"])
        count = 0 if failed else len(list(outs["checkout"].iterdir()))
    for line in lines:
        print(line)
    print(f"same_outputs: {count} files, "
          + (f"{len(lines)} problem(s)" if lines else "all byte-identical"))
    return 1 if lines or not count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
