"""The Tier-1 verdict script reads a JUnit report as documented."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "tier1.py"
spec = importlib.util.spec_from_file_location("tier1", TOOL)
tier1 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tier1)

EVEN, MULTIPLET = sorted(tier1.KNOWN_RED)


def report(tmp_path, cases):
    """A JUnit file with one testcase per (id, outcome child or None)."""
    body = ""
    for test_id, child in cases:
        classname, name = test_id.split("::")
        inner = f"<{child}/>" if child else ""
        body += f'<testcase classname="{classname}" name="{name}">{inner}</testcase>'
    path = tmp_path / "junit.xml"
    path.write_text(f"<testsuites><testsuite>{body}</testsuite></testsuites>")
    return path


def test_exactly_the_known_reds_pass_the_verdict(tmp_path):
    path = report(tmp_path, [
        ("tests.test_a::test_ok", None),
        ("tests.test_a.TestX::test_ok", None),
        ("tests.test_a::test_skip", "skipped"),
        (EVEN, "failure"),
        (MULTIPLET, "error"),
    ])
    passed, red = tier1.outcomes(path)
    assert (passed, red) == (2, {EVEN, MULTIPLET})
    status, lines = tier1.verdict(passed, red)
    assert status == 0
    assert lines == ["tier-1: 2 passed, 2 failed or errored, exactly the known-reds"]


def test_new_failure_and_fixed_known_red_are_named(tmp_path):
    path = report(tmp_path, [
        ("tests.test_a::test_new", "error"),
        (EVEN, None),
        (MULTIPLET, "failure"),
    ])
    status, lines = tier1.verdict(*tier1.outcomes(path))
    assert status == 1
    assert lines == [
        "new failure: tests.test_a::test_new",
        f"known-red now passes: {EVEN}",
        "tier-1: 1 passed, 2 failed or errored, not the known-reds",
    ]
