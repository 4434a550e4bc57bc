"""Command-line front end.

    zeenoise run <scenario.ini> [--out DIR]
    zeenoise run --preset fig2 [--out DIR]
    zeenoise validate <scenario.ini>

`run` also accepts `--threads N` so that older scripts keep working; it
has no effect.

Exit codes: 0 success; 2 configuration problem (parse error or failed
validation, with file/section/key context); 3 physics failure (any of
errors.PHYSICS_ERRORS, naming the scenario point); 4 I/O failure.
The default output directory is $ZEENOISE_OUT, falling back to
./zeenoise-out.
"""

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import PHYSICS_ERRORS, ScenarioError
from .runner import DEFAULT_OUTPUT_DIR, OUTPUT_DIR_ENV, run_scenario
from .scenario import load_scenario, validate_scenario

PRESET_GROUPS = {
    "fig2": ("fig2_tls", "fig2_mls"),
    "fig3": ("fig3_tls", "fig3_mls"),
    "fig4": ("fig4_tls", "fig4_mls"),
    "fig5": (
        "fig5_tls_ep0",
        "fig5_tls_ep10",
        "fig5_tls_ep100",
        "fig5_mls_ep0",
        "fig5_mls_ep10",
        "fig5_mls_ep100",
    ),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_IO = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zeenoise",
        description=(
            "Quantum noise and optical spectra of laser light transmitted "
            "through a dilute cloud of multilevel atoms"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario (or a figure preset)")
    run.add_argument("scenario", nargs="?", help="scenario INI file")
    run.add_argument(
        "--preset",
        choices=sorted(PRESET_GROUPS),
        help="run a shipped figure-reproduction preset group",
    )
    run.add_argument(
        "--out",
        default=None,
        help=f"output directory (default ${OUTPUT_DIR_ENV} or ./{DEFAULT_OUTPUT_DIR})",
    )
    run.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility; has no effect",
    )

    val = sub.add_parser("validate", help="static checks on a scenario file")
    val.add_argument("scenario", help="scenario INI file")
    return parser


def _preset_scenarios(group):
    base = resources.files("zeenoise").joinpath("presets")
    return [base.joinpath(f"{name}.ini") for name in PRESET_GROUPS[group]]


def _load(source):
    """Load a scenario from a path or an importlib Traversable."""
    with resources.as_file(source) as path:
        return load_scenario(path)


def _cmd_run(args):
    sources = []
    if args.scenario:
        sources.append(Path(args.scenario))
    if args.preset:
        sources.extend(_preset_scenarios(args.preset))
    if not sources:
        print("run: provide a scenario file and/or --preset", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(
        args.out
        or os.environ.get(OUTPUT_DIR_ENV)
        or DEFAULT_OUTPUT_DIR
    )

    scenarios = []
    for source in sources:
        try:
            scenario = _load(source)
        except ScenarioError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        warnings, errors = validate_scenario(scenario)
        for w in warnings:
            print(f"warning: {scenario.name}: {w}", file=sys.stderr)
        if errors:
            for e in errors:
                print(f"error: {scenario.name}: {e}", file=sys.stderr)
            return EXIT_CONFIG
        scenarios.append(scenario)

    owners = {}  # table label -> scenario; all checked before any compute
    for scenario in scenarios:
        for label, _, _ in scenario.points():
            owner = owners.setdefault(label, scenario)
            if owner is not scenario:
                print(
                    f"error: table label {label!r} belongs to scenarios "
                    f"{owner.name!r} and {scenario.name!r}",
                    file=sys.stderr,
                )
                return EXIT_CONFIG

    written = []
    for scenario in scenarios:
        try:
            written.extend(run_scenario(scenario, out_dir))
        except PHYSICS_ERRORS as exc:
            print(f"physics failure: {exc}", file=sys.stderr)
            return EXIT_PHYSICS
        except OSError as exc:
            print(f"i/o failure: {exc}", file=sys.stderr)
            return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_validate(args):
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    warnings, errors = validate_scenario(scenario)
    for w in warnings:
        print(f"warning: {w}")
    for e in errors:
        print(f"error: {e}")
    if errors:
        return EXIT_CONFIG
    print(f"{scenario.name}: ok ({len(warnings)} warning(s))")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
