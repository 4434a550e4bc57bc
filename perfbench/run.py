"""zeenoise benchmark: the real `zeenoise run` CLI, in fresh processes.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 35 --trace 0

Workloads (each runs the CLI at its default --threads, one sequential
load-generating process, closed loop):

  fig2     `run --preset fig2`: kernel-bound paper figure (F=1->2, 2400 rows)
  fig5     `run --preset fig5`: 84 points x 2 grid points, fixed per-point cost
  large_f  two scenario files drawn from --seed (F=2->3 linear, F=4->5
           circular, symmetrized 32-point grid), each in its own process

With --trace 0 the workload is repeated for --seconds and the end-to-end
metrics are reported: wall_s, rows_per_s, setup_s, peak_rss_mb and
ok_fraction. With --trace 1 each round runs the workload untraced, traced
(trace_cli.py) and at --threads 1, and the per-layer metrics come from the
traced run's spans. Every output table is checked (check.py). The last
stdout line is the result object; the line before it holds the full report
with machine provenance.
"""

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_ROOT = ROOT / ".perfbench-work"

DEFAULT_SEED = 1502
MIN_PASSES = 3  # end-to-end medians rest on at least three samples
MIN_TRACED_ROUNDS = 2
PROCESS_TIMEOUT_S = 150.0
CLI_MAIN = "import sys; from zeenoise.cli import main; sys.exit(main())"
BLAS_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "GOTO_NUM_THREADS",
)

# F=2->3 (n^2 = 144) and F=4->5 (n^2 = 400, the Cs D2 cycling transition).
LARGE_F = (("2to3", 2, 3, "linear"), ("4to5", 4, 5, "circular"))
LARGE_F_SCENARIO = """\
[scenario]
name = large_f_{tag}

[transition]
fg = {fg}
fe = {fe}
gamma = 1.0

[drive]
polarization = {pol}
rabi = {rabi!r}
detuning = {detuning!r}

[medium]
b0 = 0.1

[grid]
omega_min = 0.05
omega_max = 5
count = 16
spacing = linear
symmetrize = true

[output]
oracles = qrt
"""

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_NAMES = (
    "import.zeenoise_s",
    "scenario.load_ms",
    "scenario.validate_ms",
    "dynamics.build_generator_ms",
    "dynamics.build_generator_calls",
    "dynamics.steady_state_ms",
    "langevin.diffusion_matrix_ms",
    "propagation.propagate_ms",
    "propagation.kernel_evals",
    "propagation.kernel_ms_per_eval",
    "propagation.kernel_cache_hit_ratio",
    "propagation.kernel_gflop_computed",
    "propagation.kernel_gflop_per_s",
    "observables.optical_spectrum_ms",
    "observables.quadrature_noise_ms",
    "runner.compute_point_self_ms",
    "runner.write_point_ms",
    "runner.bytes_written",
    "runner.threads1_wall_s",
    "runner.partition_speedup",
    "trace.overhead_s",
)
# Zero on workloads without oracles, so reported only in the full report.
REPORT_ONLY_LAYER_NAMES = ("oracles.qrt_ms", "oracles.mollow_ms")
UNITS = {
    "wall_s": "s",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_fraction": "ratio",
    "import.zeenoise_s": "s",
    "dynamics.build_generator_calls": "count",
    "propagation.kernel_evals": "count",
    "propagation.kernel_cache_hit_ratio": "ratio",
    "propagation.kernel_gflop_computed": "GFLOP",
    "propagation.kernel_gflop_per_s": "GFLOP/s",
    "runner.bytes_written": "bytes",
    "runner.threads1_wall_s": "s",
    "runner.partition_speedup": "ratio",
    "trace.overhead_s": "s",
}
END_TO_END_NAMES = ("wall_s", "rows_per_s", "setup_s", "peak_rss_mb", "ok_fraction")


def unit(name):
    return UNITS.get(name, "ms")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Job:
    """One CLI process of a workload and the points it must write."""

    name: str
    sources: list       # CLI source arguments: ["--preset", "fig2"] or [ini]
    reference: dict     # label -> (Table, sidecar)
    full_check: bool

    @property
    def rows(self):
        return sum(t.values.shape[0] for t, _ in self.reference.values())


@dataclass
class Iteration:
    wall_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    ok: bool
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)


# ---------------------------------------------------------------- workloads


def large_f_scenarios(seed, directory):
    """Write the two large-F scenario files drawn from `seed`."""
    rng = random.Random(seed)
    paths = []
    for tag, fg, fe, pol in LARGE_F:
        rabi = rng.uniform(0.5, 2.0)
        detuning = rng.uniform(-1.0, 1.0)
        path = Path(directory) / f"large_f_{tag}.ini"
        path.write_text(
            LARGE_F_SCENARIO.format(
                tag=tag, fg=fg, fe=fe, pol=pol, rabi=rabi, detuning=detuning
            )
        )
        paths.append(path)
    return paths


def workload_sources(workload, seed, work_dir):
    """[(process name, CLI source arguments)] for one workload."""
    if workload in ("fig2", "fig5"):
        return [(workload, ["--preset", workload])]
    return [(p.stem, [str(p)]) for p in large_f_scenarios(seed, work_dir)]


def workload_jobs(workload, seed, work_dir):
    reference = check.load_reference(REFERENCE_DIR / f"{workload}.npz")
    full = workload != "large_f" or seed == DEFAULT_SEED
    jobs = []
    for name, sources in workload_sources(workload, seed, work_dir):
        labels = [l for l in reference if workload != "large_f" or l == name]
        jobs.append(Job(name, sources, {l: reference[l] for l in labels}, full))
    return jobs


WORKLOADS = ("fig2", "fig5", "large_f")


# ---------------------------------------------------------------- processes


def _env():
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_process(argv, log_path, timeout=PROCESS_TIMEOUT_S):
    """Run argv to completion; returns (wall_s, max_rss_mb, exit_code).

    A process still running after `timeout` is killed and reported with
    exit code None.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            env=_env(),
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code < 0:
        code = None
    return wall, usage.ru_maxrss / 1024.0, code


def run_iteration(jobs, out_root, threads=None, spans_dir=None):
    """Run each job's CLI process once and check what it wrote."""
    wall = 0.0
    rss = 0.0
    attempted = failed = 0
    problems = []
    spans = []
    ok = True
    Path(out_root).mkdir(parents=True, exist_ok=True)
    for job in jobs:
        out_dir = Path(out_root) / job.name
        shutil.rmtree(out_dir, ignore_errors=True)
        cli_args = ["run", *job.sources, "--out", str(out_dir)]
        if threads is not None:
            cli_args += ["--threads", str(threads)]
        if spans_dir is None:
            argv = [sys.executable, "-c", CLI_MAIN, *cli_args]
        else:
            spans_path = Path(spans_dir) / f"{job.name}.json"
            spans_path.unlink(missing_ok=True)
            argv = [
                sys.executable,
                str(BENCH_DIR / "trace_cli.py"),
                "--spans",
                str(spans_path),
                "--",
                *cli_args,
            ]
        log_path = Path(out_root) / f"{job.name}.stderr"
        seconds, peak, code = run_process(argv, log_path)
        wall += seconds
        rss = max(rss, peak)
        if code != 0:
            ok = False
            result = check.fail_all(
                job.reference, f"{job.name}: exit code {code}"
            )
        else:
            result = check.check_outputs(out_dir, job.reference, job.full_check)
            if spans_dir is not None:
                spans.append(json.loads(spans_path.read_text()))
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
    return Iteration(wall, rss, attempted, failed, ok, problems, spans)


def setup_probe(jobs, log_path):
    """Wall of one fresh process doing import + load + validate."""
    sources = [s for job in jobs for s in job.sources]
    if sources[:1] == ["--preset"]:
        sources = sources[:2]
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *sources]
    seconds, _, code = run_process(argv, log_path)
    if code != 0:
        raise BenchmarkError(
            f"setup probe exited with {code}: {log_path.read_text()[-500:]}"
        )
    return seconds


def repeat_for(seconds, step, min_calls):
    """Call step() until the next call would overrun `seconds`.

    Always makes at least `min_calls` calls.
    """
    results = []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (
            len(results) >= min_calls
            and elapsed + statistics.median(durations) > seconds
        ):
            return results


# ---------------------------------------------------------------- statistics


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_metrics(records):
    """Per-layer numbers from the span records of one traced iteration.

    Times are wall-clock time covered by a layer's spans (parallel spans
    are not double counted), summed over the workload's processes.
    """

    def by_name(name):
        return [(rec, s) for rec in records for s in rec["spans"] if s[0] == name]

    def covered_ms(name):
        return 1e3 * sum(
            _union_length([(s[1], s[2]) for s in rec["spans"] if s[0] == name])
            for rec in records
        )

    kernel = by_name("atomic_response")
    evals = len(kernel)
    kernel_s = sum(s[2] - s[1] for _, s in kernel)
    grid_points = sum(s[6]["grid_points"] for _, s in by_name("propagate"))
    flops = sum(32.0 * s[6]["n2"] ** 3 for _, s in kernel)
    per_n2 = {}
    for _, s in kernel:
        per_n2.setdefault(s[6]["n2"], []).append(s[2] - s[1])

    self_ms = 0.0
    for rec in records:
        children = {}
        for s in rec["spans"]:
            children.setdefault(s[4], []).append(s)
        for s in rec["spans"]:
            if s[0] != "compute_point":
                continue
            inside = [
                (max(c[1], s[1]), min(c[2], s[2])) for c in children.get(s[3], [])
            ]
            self_ms += 1e3 * ((s[2] - s[1]) - _union_length(inside))

    metrics = {
        "import.zeenoise_s": sum(rec["import_s"] for rec in records),
        "scenario.load_ms": covered_ms("load_scenario"),
        "scenario.validate_ms": covered_ms("validate_scenario"),
        "dynamics.build_generator_ms": covered_ms("build_generator"),
        "dynamics.build_generator_calls": len(by_name("build_generator")),
        "dynamics.steady_state_ms": covered_ms("steady_state"),
        "langevin.diffusion_matrix_ms": covered_ms("diffusion_matrix"),
        "propagation.propagate_ms": covered_ms("propagate"),
        "propagation.kernel_evals": evals,
        "propagation.kernel_ms_per_eval": 1e3 * kernel_s / evals if evals else 0.0,
        "propagation.kernel_cache_hit_ratio": (
            1.0 - evals / (2 * grid_points) if grid_points else 0.0
        ),
        "propagation.kernel_gflop_computed": flops / 1e9,
        "propagation.kernel_gflop_per_s": flops / 1e9 / kernel_s if kernel_s else 0.0,
        "oracles.qrt_ms": covered_ms("qrt_spectrum"),
        "oracles.mollow_ms": covered_ms("mollow_spectrum"),
        "observables.optical_spectrum_ms": covered_ms("optical_spectrum"),
        "observables.quadrature_noise_ms": covered_ms("quadrature_noise"),
        "runner.compute_point_self_ms": self_ms,
        "runner.write_point_ms": covered_ms("write_point"),
        "runner.bytes_written": sum(s[6]["bytes"] for _, s in by_name("write_point")),
    }
    details = {
        "kernel_cache_base": 2 * grid_points,
        "kernel_ms_per_eval_by_n2": {
            str(n2): 1e3 * sum(d) / len(d) for n2, d in sorted(per_n2.items())
        },
        "kernel_gflop_note": "computed: 32 (n^2)^3 flop per eval "
        "(2 complex inversions + 2 complex products of n^2 x n^2)",
        "wrappers_restored": all(rec["restored"] for rec in records),
        "run_ids": [rec["run_id"] for rec in records],
    }
    return metrics, details


def outputs_identical(dir_a, dir_b):
    def files(root):
        return sorted(p.relative_to(root) for p in Path(root).rglob("*") if p.is_file())

    names = files(dir_a)
    if not names or names != files(dir_b):
        return False
    return all(
        (Path(dir_a) / f).read_bytes() == (Path(dir_b) / f).read_bytes()
        for f in names
    )


# ---------------------------------------------------------------- provenance


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _filesystem(path):
    path = str(Path(path).resolve())
    best = ("", "unknown")
    try:
        for line in Path("/proc/self/mountinfo").read_text().splitlines():
            left, _, right = line.partition(" - ")
            mount = left.split()[4]
            fstype = right.split()[0]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best[0]):
                best = (mount, fstype)
    except (OSError, IndexError):
        pass
    return {"mount": best[0], "type": best[1]}


def _blas():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(seed, out_dir):
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_ENV},
        "git_commit": _git_commit(),
        "seed": seed,
        "output_filesystem": _filesystem(out_dir),
        "note": "CPU timings only; disk behaviour is not measured",
    }


# ---------------------------------------------------------------- modes


def summarize(runs, rows):
    """End-to-end numbers of repeated iterations.

    A failed iteration counts all its points as failed and adds no wall
    sample, so a process that dies early never reads as a fast run.
    """
    good = [r for r in runs if r.ok]
    if not good:
        raise BenchmarkError(
            "every iteration failed: " + "; ".join(runs[-1].problems[:3])
        )
    walls = [r.wall_s for r in good]
    wall = statistics.median(walls)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        "ok_fraction": (attempted - failed) / attempted,
    }
    details = {
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "rows_per_iteration": rows,
        "iterations": len(runs),
        "failed_iterations": len(runs) - len(good),
    }
    return metrics, details, attempted, failed


def end_to_end(jobs, seconds, work_dir):
    log = work_dir / "setup.stderr"
    setup_probe(jobs, log)  # fills the bytecode cache; not a sample
    setup_walls = []

    def step():
        # Probes alternate with passes so both sample the same minutes of a
        # machine whose speed drifts.
        setup_walls.append(setup_probe(jobs, log))
        return run_iteration(jobs, work_dir / "out")

    runs = repeat_for(seconds, step, MIN_PASSES)
    rows = sum(job.rows for job in jobs)
    metrics, details, attempted, failed = summarize(runs, rows)
    metrics["setup_s"] = statistics.median(setup_walls)
    details["setup_s_samples"] = setup_walls
    return metrics, details, attempted, failed, runs, True


def traced(jobs, seconds, work_dir):
    rounds = []

    def one_round():
        plain = run_iteration(jobs, work_dir / "plain")
        spans_dir = work_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
        with_trace = run_iteration(jobs, work_dir / "traced", spans_dir=spans_dir)
        single = run_iteration(jobs, work_dir / "threads1", threads=1)
        same = all(
            outputs_identical(work_dir / "plain" / j.name, work_dir / "traced" / j.name)
            for j in jobs
        )
        rounds.append((plain, with_trace, single, same))
        return rounds[-1]

    repeat_for(seconds, one_round, MIN_TRACED_ROUNDS)
    runs = [r for rnd in rounds for r in rnd[:3]]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    traced_runs = [rnd[1] for rnd in rounds if rnd[1].ok]
    per_round = [layer_metrics(r.spans) for r in traced_runs]
    if not per_round:
        raise BenchmarkError("no traced run completed")
    metrics = {
        name: statistics.median(m[name] for m, _ in per_round)
        for name in per_round[0][0]
    }
    plain_wall = statistics.median(rnd[0].wall_s for rnd in rounds)
    threads1 = statistics.median(rnd[2].wall_s for rnd in rounds)
    metrics["runner.threads1_wall_s"] = threads1
    metrics["runner.partition_speedup"] = threads1 / plain_wall
    metrics["trace.overhead_s"] = statistics.median(
        rnd[1].wall_s - rnd[0].wall_s for rnd in rounds
    )
    identical = all(rnd[3] for rnd in rounds)
    restored = all(d["wrappers_restored"] for _, d in per_round)
    details = dict(per_round[-1][1])
    details.update(
        {
            "rounds": len(rounds),
            "untraced_wall_s": plain_wall,
            "traced_wall_s": statistics.median(rnd[1].wall_s for rnd in rounds),
            "traced_outputs_byte_identical": identical,
            "wrappers_restored": restored,
        }
    )
    return metrics, details, attempted, failed, runs, identical and restored


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zeenoise" / "cli.py").is_file():
        print(f"benchmark: no zeenoise sources under {SRC}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        jobs = workload_jobs(args.workload, args.seed, work_dir)
        mode = traced if args.trace else end_to_end
        metrics, details, attempted, failed, runs, extra_ok = mode(
            jobs, args.seconds, work_dir
        )
        problems = sorted({p for r in runs for p in r.problems})
        report = {
            "workload": args.workload,
            "trace": args.trace,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
            "details": details,
            "problems": problems[:20],
            "machine": provenance(args.seed, work_dir),
        }
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    names = LAYER_NAMES if args.trace else END_TO_END_NAMES
    for name in names + (REPORT_ONLY_LAYER_NAMES if args.trace else ()):
        print(f"{args.workload:8s} {name:36s} {metrics[name]:14.6g} {unit(name)}")
    if not args.trace:
        t = details["wall_s_tail"]
        print(
            f"{args.workload:8s} wall_s samples n={len(details['wall_s_samples'])}; "
            + (
                f"p{t['percentile']:.0f} = {t['value']:.4f} s"
                if t
                else "no percentile above the median has 10 samples beyond it"
            )
        )
    for problem in problems[:20]:
        print(f"{args.workload:8s} FAILED {problem}")
    print(json.dumps(report))
    result = {
        "correct": failed == 0 and extra_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
