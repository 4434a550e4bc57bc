"""Regenerate the reference tables the output check compares against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload once through the CLI (large_f at the default seed) and
stores every table and sidecar in reference/<workload>.npz. Only run this
at a commit whose outputs are known good: the references define correct.
"""

import shutil
import sys

import check
import run


def make(workload):
    work_dir = run.WORK_ROOT / f"reference-{workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    out_dir = work_dir / "out"
    out_dir.mkdir(parents=True)
    try:
        sources = run.workload_sources(workload, run.DEFAULT_SEED, work_dir)
        for name, args in sources:
            cli_args = ["run", *args, "--out", str(out_dir)]
            argv = [sys.executable, "-c", run.CLI_MAIN, *cli_args]
            _, _, code = run.run_process(argv, work_dir / f"{name}.stderr")
            if code != 0:
                raise SystemExit(f"{workload}: {name} exited with {code}")
        run.REFERENCE_DIR.mkdir(exist_ok=True)
        check.save_reference(run.REFERENCE_DIR / f"{workload}.npz", out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        make(name)
        print(f"wrote reference/{name}.npz")
