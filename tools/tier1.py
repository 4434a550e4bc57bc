"""Tier-1 verdict: the suite fails exactly its two documented known-reds.

    python3 tools/tier1.py [extra pytest arguments]

Runs the Tier-1 command of ROADMAP.md,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

from the repository root, with `--junitxml` into a temporary file, and
reads the set of tests that failed or errored from it. Exits 0 only when
that set is exactly KNOWN_RED; otherwise prints each new failure and each
known-red that now passes, and exits 1. The verdict line also gives the
suite's wall time as pytest measured it (the report's testsuite `time`).
Needs only the standard library besides the suite's own dependencies.
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Test id (as in the JUnit report) -> why it is red; see README, Tests.
KNOWN_RED = {
    "tests.test_acceptance::test_optical_spectrum_is_even_in_frequency":
        "pinned draw: the steady state's slow-pumping round-off (ROADMAP item 3)",
    "tests.test_acceptance::test_strong_linear_drive_multiplet_counts":
        "the two sideband families blend at rabi = 5 gamma (ROADMAP aim 3)",
}


def outcomes(report):
    """(passed count, set of failed-or-errored ids, suite seconds) of a
    JUnit XML file."""
    root = ET.parse(report).getroot()
    seconds = sum(float(suite.get("time")) for suite in root.iter("testsuite"))
    passed, red = 0, set()
    for case in root.iter("testcase"):
        test_id = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            red.add(test_id)
        elif case.find("skipped") is None:
            passed += 1
    return passed, red, seconds


def verdict(passed, red, seconds):
    """(exit status, report lines) for the outcomes of one run."""
    new = sorted(red - KNOWN_RED.keys())
    fixed = sorted(KNOWN_RED.keys() - red)
    lines = [f"new failure: {test_id}" for test_id in new]
    lines += [f"known-red now passes: {test_id}" for test_id in fixed]
    status = 1 if new or fixed else 0
    lines.append(
        f"tier-1: {passed} passed, {len(red)} failed or errored in {seconds:.1f} s, "
        + ("not the known-reds" if status else "exactly the known-reds")
    )
    return status, lines


def main(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory(prefix="tier1-") as scratch:
        report = Path(scratch) / "junit.xml"
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", f"--junitxml={report}", *args],
            cwd=ROOT, env=env,
        )
        if not report.exists():
            print("tier-1: pytest wrote no JUnit report")
            return 1
        status, lines = verdict(*outcomes(report))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
