"""Self-tests of the benchmark: its checks fail when they should.

    python3 -m pytest perfbench/tests -q

Each test runs the real CLI on small inputs (a few seconds in all).
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import run  # noqa: E402
import trace_cli  # noqa: E402

DEGENERATE_SCENARIO = """\
[transition]
fg = 1
fe = 0
[drive]
polarization = linear
rabi = 1.0
detuning = 0.0
[medium]
b0 = 0.1
[grid]
omega_min = 0.1
omega_max = 1
count = 2
"""


def large_f_jobs(tmp_path):
    return run.workload_jobs("large_f", run.DEFAULT_SEED, tmp_path)


def test_value_moved_by_1e9_relative_fails_the_check(tmp_path):
    job = large_f_jobs(tmp_path)[0]
    first = run.run_iteration([job], tmp_path / "out")
    assert first.ok and first.failed == 0 and first.attempted == 1

    csv_path = tmp_path / "out" / job.name / f"{job.name}.csv"
    lines = csv_path.read_text().splitlines()
    column = lines[0].split(", ").index("s_opt_e1")
    values = [abs(float(line.split(",")[column])) for line in lines[1:]]
    row = 1 + int(np.argmax(values))
    fields = lines[row].split(",")
    fields[column] = f"{float(fields[column]) * (1 + 1e-9):.17g}"
    lines[row] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")

    result = check.check_outputs(tmp_path / "out" / job.name, job.reference)
    assert result.attempted == 1 and result.failed == 1
    assert "s_opt_e1" in result.problems[0]


def test_exit_code_3_fails_points_and_adds_no_wall_sample(tmp_path):
    ini = tmp_path / "degenerate.ini"
    ini.write_text(DEGENERATE_SCENARIO)
    good_job = large_f_jobs(tmp_path)[0]
    bad_job = run.Job("degenerate", [str(ini)], good_job.reference, True)

    bad = run.run_iteration([bad_job], tmp_path / "out")
    log = (tmp_path / "out" / "degenerate.stderr").read_text()
    assert "physics failure" in log
    assert not bad.ok and bad.failed == bad.attempted == 1

    good = run.Iteration(5.0, 100.0, 1, 0, True)
    metrics, details, attempted, failed = run.summarize([good, bad], rows=32)
    assert metrics["wall_s"] == 5.0 and details["wall_s_samples"] == [5.0]
    assert (attempted, failed) == (2, 1)
    assert metrics["ok_fraction"] == 0.5
    with pytest.raises(run.BenchmarkError):
        run.summarize([bad], rows=32)


def test_kernel_cache_hit_ratio_is_half_on_large_f_at_one_thread(tmp_path):
    jobs = large_f_jobs(tmp_path)
    spans = tmp_path / "spans"
    spans.mkdir()
    it = run.run_iteration(jobs, tmp_path / "out", threads=1, spans_dir=spans)
    assert it.ok and it.failed == 0
    metrics, details = run.layer_metrics(it.spans)
    assert details["kernel_cache_base"] == 2 * 2 * 32
    assert metrics["propagation.kernel_cache_hit_ratio"] == 0.5
    assert metrics["propagation.kernel_evals"] == 64


def _wrapped_attributes():
    return {
        (module, name): getattr(importlib.import_module(module), name)
        for module, names in trace_cli.WRAPPED.items()
        for name in names
    }


def test_wrappers_leave_module_attributes_identical(tmp_path):
    before = _wrapped_attributes()
    ini = run.large_f_scenarios(run.DEFAULT_SEED, tmp_path)[0]
    spans_path = tmp_path / "spans.json"
    args = ["run", str(ini), "--out", str(tmp_path / "out"), "--threads", "2"]
    assert trace_cli.traced_main(args, spans_path) == 0
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)

    record = json.loads(spans_path.read_text())
    assert record["restored"]
    seen = {span[0] for span in record["spans"]}
    assert seen == {name for _, name in before} - {"mollow_spectrum"}

    with pytest.raises(SystemExit):  # argparse rejects the command
        trace_cli.traced_main(["no-such-command"], tmp_path / "x.json")
    after_error = _wrapped_attributes()
    assert all(after_error[key] is before[key] for key in before)


def test_self_time_merges_overlapping_children_from_pool_threads():
    spans = [
        ["compute_point", 0.0, 10.0, 1, None, 100, {}],
        ["propagate", 1.0, 6.0, 2, 1, 200, {"grid_points": 4}],
        ["propagate", 2.0, 7.0, 3, 1, 300, {"grid_points": 4}],
    ]
    record = {"spans": spans, "import_s": 1.0, "restored": True, "run_id": "x"}
    metrics, _ = run.layer_metrics([record])
    assert metrics["runner.compute_point_self_ms"] == pytest.approx(4000.0)
    assert metrics["propagation.propagate_ms"] == pytest.approx(6000.0)
