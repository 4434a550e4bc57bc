"""Everything a `zeenoise run` does before its first compute, in one process.

    python3 setup_probe.py --preset fig2
    python3 setup_probe.py a.ini b.ini

Imports the CLI, then loads and validates each scenario; exits 1 if any
scenario has a validation error. The caller times the whole process,
interpreter start included.
"""

import sys
from importlib import resources
from pathlib import Path


def main(argv):
    from zeenoise.cli import PRESET_GROUPS
    from zeenoise.scenario import load_scenario, validate_scenario

    if argv[:1] == ["--preset"]:
        base = resources.files("zeenoise").joinpath("presets")
        sources = [base.joinpath(f"{n}.ini") for n in PRESET_GROUPS[argv[1]]]
    else:
        sources = [Path(a) for a in argv]
    for source in sources:
        with resources.as_file(source) as path:
            _, errors = validate_scenario(load_scenario(path))
        if errors:
            print(f"{source}: {errors}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
