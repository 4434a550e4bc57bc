"""The tools: the Tier-1 verdict reads a JUnit report as documented, the
mutation sweep names each site apart, and the output comparison names each
file that differs."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tier1, mutants, same_outputs = _load("tier1"), _load("mutants"), _load("same_outputs")

EVEN, MULTIPLET = sorted(tier1.KNOWN_RED)


def report(tmp_path, cases, seconds="2.5"):
    """A JUnit file with one testcase per (id, outcome child or None), in
    one testsuite that took `seconds`."""
    body = ""
    for test_id, child in cases:
        classname, name = test_id.split("::")
        inner = f"<{child}/>" if child else ""
        body += f'<testcase classname="{classname}" name="{name}">{inner}</testcase>'
    path = tmp_path / "junit.xml"
    path.write_text(
        f'<testsuites><testsuite time="{seconds}">{body}</testsuite></testsuites>'
    )
    return path


def test_exactly_the_known_reds_pass_the_verdict(tmp_path):
    path = report(tmp_path, [
        ("tests.test_a::test_ok", None),
        ("tests.test_a.TestX::test_ok", None),
        ("tests.test_a::test_skip", "skipped"),
        (EVEN, "failure"),
        (MULTIPLET, "error"),
    ])
    passed, red, seconds = tier1.outcomes(path)
    assert (passed, red, seconds) == (2, {EVEN, MULTIPLET}, 2.5)
    status, lines = tier1.verdict(passed, red, seconds)
    assert status == 0
    assert lines == [
        "tier-1: 2 passed, 2 failed or errored in 2.5 s, exactly the known-reds"
    ]


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
        "tier-1: 1 passed, 2 failed or errored in 2.5 s, not the known-reds",
    ]


def test_verdict_line_gives_the_suite_time_pytest_measured(tmp_path):
    """The wall time is the report's own testsuite `time`, rounded to 0.1 s."""
    path = report(tmp_path, [(EVEN, "failure"), (MULTIPLET, "failure")], "30.05873")
    assert tier1.outcomes(path)[2] == 30.05873
    assert tier1.verdict(*tier1.outcomes(path))[1] == [
        "tier-1: 0 passed, 2 failed or errored in 30.1 s, exactly the known-reds"
    ]


def test_mutation_sites_on_one_line_get_distinct_labels():
    """Both `+` of `1.0 + s + 0j` start at one column as ast nodes; each
    site's label still names it apart, so a survivor can be re-run alone."""
    labels = [label for _, label, _ in mutants.sites("x = 1.0 + s + 0j\n")]
    assert [label for label in labels if label.endswith("Add -> Sub")] == [
        "1:14: Add -> Sub",
        "1:10: Add -> Sub",
    ]
    assert len(set(labels)) == len(labels) == 4


def test_augmented_assignments_are_mutation_sites():
    """An in-place sum such as `g -= 0.5 * k` is swapped like its binary
    form, anchored at its value, apart from the operator inside it."""
    labels = [label for _, label, _ in mutants.sites("g -= 0.5 * k\ng *= 1j\n")]
    assert sorted(labels) == [
        "1:11: Mult -> Div", "1:5: 0.5 -> 1.0", "1:5: Sub -> Add",
        "2:5: 1j -> 2j", "2:5: Mult -> Div",
    ]
    index, _, apply = mutants.sites("g -= t\n")[0]
    assert mutants.mutant("g -= t\n", index, apply) == "g += t\n"


def _outputs(root, tables, sidecar="{}"):
    """An output directory with one CSV per (label, text) and its sidecar."""
    root.mkdir()
    for label, text in tables.items():
        (root / f"{label}.csv").write_text(text)
        (root / f"{label}.json").write_text(sidecar)
    return root


def test_same_outputs_reports_nothing_for_identical_directories(tmp_path):
    tables = {"a": "omega, s\n1,2\n3,\n", "b": "omega, s\n1,-4\n"}
    old = _outputs(tmp_path / "old", tables)
    assert same_outputs.compare(old, _outputs(tmp_path / "new", tables)) == []


def test_same_outputs_names_each_changed_file_and_its_largest_move(tmp_path):
    """The move is relative to the column's largest magnitude at REV: 0.5
    out of 4 in column s, which outweighs 1e-3 out of 3 in omega."""
    old = _outputs(tmp_path / "old", {
        "a": "omega, s\n1,2\n3,-4\n", "b": "omega, s\n1,\n", "c": "omega\n1\n",
    })
    new = _outputs(tmp_path / "new", {
        "a": "omega, s\n1,2\n3.001,-3.5\n", "b": "omega, s\n1,0\n", "d": "omega\n1\n",
    }, sidecar="{ }")
    assert same_outputs.compare(old, new) == [
        "c.csv: only at REV",
        "c.json: only at REV",
        "d.csv: only in this checkout",
        "d.json: only in this checkout",
        "a.csv: largest move 0.125 of the column maximum, in s",
        "a.json: bytes differ",
        "b.csv: column s changed which fields are empty",
        "b.json: bytes differ",
    ]


def test_same_outputs_reports_a_reshaped_table(tmp_path):
    old = _outputs(tmp_path / "old", {"a": "omega, s\n1,2\n"})
    for text in ("omega, t\n1,2\n", "omega, s\n1,2\n3,4\n"):
        new = _outputs(tmp_path / f"new{len(text)}", {"a": text})
        assert same_outputs.compare(old, new) == [
            "a.csv: the table's header or shape changed"
        ]
