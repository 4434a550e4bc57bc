"""Command-line front end.

    zeenoise run <scenario.ini> [--out DIR]
    zeenoise run --preset fig2 [--out DIR]
    zeenoise validate <scenario.ini>

`run` also accepts `--threads N` so that older scripts keep working; it
has no effect.

`validate` makes the checks `run` makes before computing, with the same
stderr messages, then prints `<name>: ok (<k> warning(s))` on stdout.

Exit codes: 0 success; 2 configuration problem (parse error or failed
validation, with file/section/key context); 3 physics failure (any of
errors.PHYSICS_ERRORS) or a MemoryError, naming the scenario point; 4 I/O
failure.
The default output directory is $ZEENOISE_OUT, falling back to
./zeenoise-out.
"""

import argparse
import os
import sys
from importlib import resources
from itertools import groupby
from pathlib import Path

from .errors import PHYSICS_ERRORS, ScenarioError
from .runner import DEFAULT_OUTPUT_DIR, OUTPUT_DIR_ENV, run_scenario
from .scenario import load_scenario, validate_scenario

_PRESETS = resources.files("zeenoise").joinpath("presets")

# Every presets/*.ini stem, grouped by the prefix before its first "_".
PRESET_GROUPS = {
    group: tuple(names)
    for group, names in groupby(
        sorted(p.name[:-4] for p in _PRESETS.iterdir() if p.name.endswith(".ini")),
        key=lambda name: name.split("_")[0],
    )
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


def _checked(sources):
    """Load and validate every source, reporting on stderr.

    Returns [(scenario, warnings)], or None once a source fails to load or
    validate, or a table label belongs to two scenarios. Nothing has been
    computed or written by then.
    """
    checked, owners = [], {}  # owners: table label -> scenario
    for source in sources:
        try:
            with resources.as_file(source) as path:
                scenario = load_scenario(path)
        except ScenarioError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return None
        warnings, errors = validate_scenario(scenario)
        for kind, messages in (("warning", warnings), ("error", errors)):
            for message in messages:
                print(f"{kind}: {scenario.name}: {message}", file=sys.stderr)
        if errors:
            return None
        for label, _, _ in scenario.points():
            owner = owners.setdefault(label, scenario)
            if owner is not scenario:
                print(
                    f"error: table label {label!r} belongs to scenarios "
                    f"{owner.name!r} and {scenario.name!r}",
                    file=sys.stderr,
                )
                return None
        checked.append((scenario, warnings))
    return checked


def _cmd_run(args):
    sources = [Path(args.scenario)] if args.scenario else []
    if args.preset:
        sources += [_PRESETS.joinpath(f"{n}.ini") for n in PRESET_GROUPS[args.preset]]
    if not sources:
        print("run: provide a scenario file and/or --preset", file=sys.stderr)
        return EXIT_CONFIG
    checked = _checked(sources)
    if checked is None:
        return EXIT_CONFIG

    out_dir = Path(
        args.out
        or os.environ.get(OUTPUT_DIR_ENV)
        or DEFAULT_OUTPUT_DIR
    )
    written = []
    for scenario, _ in checked:
        try:
            written.extend(run_scenario(scenario, out_dir))
        except PHYSICS_ERRORS as exc:
            print(f"physics failure: {exc}", file=sys.stderr)
            return EXIT_PHYSICS
        except MemoryError as exc:
            print(f"out of memory: {exc}", file=sys.stderr)
            return EXIT_PHYSICS
        except OSError as exc:
            print(f"i/o failure: {exc}", file=sys.stderr)
            return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_validate(args):
    checked = _checked([Path(args.scenario)])
    if checked is None:
        return EXIT_CONFIG
    [(scenario, warnings)] = checked
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
