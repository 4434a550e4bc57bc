"""Scenario files: INI-format run configurations.

A scenario collects everything one simulation run needs:

    [scenario]   name = fig2_mls            ; optional, defaults to file stem
    [transition] fg = 1  fe = 2  gamma = 1.0
    [drive]      polarization = linear  rabi = 1.0  detuning = 0.0
    [medium]     b0 = 0.1
    [input]      eps_a = 0  eps_p = 0       ; optional, vacuum-limited laser
    [grid]       omega_min = 1e-4  omega_max = 1e2  count = 400  spacing = log
                 symmetrize = false          ; true mirrors to negative Omega
    [sweep]      parameter = rabi  values = 0.1 1 5   ; optional
    [output]     oracles = qrt mollow        ; optional extra columns
                 quadrature = amplitude      ; or an angle in [-pi, pi]

Rates and frequencies are in units of gamma, which must be 1. `load_scenario`
only parses: it raises ScenarioError, naming file, section and key, on an
unreadable file, bad syntax, a key missing or not listed above, or text that
is not a number, integer or boolean. `validate_scenario` alone judges values,
for any Scenario however built, and returns every problem as (warnings, errors).
"""

import configparser
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .angular import LevelScheme
from .dynamics import DriveConfig
from .errors import ArgumentError, ScenarioError
from .field import PolarizationMode, excess_noise_input
from .propagation import MediumParams

_POLARIZATIONS = tuple(mode.value for mode in PolarizationMode)
_ORACLES = ("qrt", "mollow")
_SWEEPABLE = ("rabi", "detuning", "b0", "eps_p")
_SPACINGS = ("log", "linear")
MAX_GRID_COUNT = 10**6  # points per side, so a valid grid is cheap to build


@dataclass(frozen=True)
class GridSpec:
    omega_min: float
    omega_max: float
    count: int
    spacing: str = "log"
    symmetrize: bool = False  # mirror to negative frequencies

    def build(self):
        # Near the float limit an intermediate may overflow;
        # validate_scenario rejects a grid that is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.spacing == "log":
                grid = np.logspace(
                    np.log10(self.omega_min), np.log10(self.omega_max), self.count
                )
            else:
                grid = np.linspace(self.omega_min, self.omega_max, self.count)
        if self.symmetrize:
            grid = np.concatenate((-grid[::-1], grid))
        return grid


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: Tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    """A full run configuration, loaded from an INI file or built in code."""

    name: str
    fg: float
    fe: float
    polarization: str
    rabi: float
    detuning: float
    b0: float
    grid: GridSpec
    eps_a: float = 0.0
    eps_p: float = 0.0
    sweep: Optional[SweepSpec] = None
    oracles: Tuple[str, ...] = field(default_factory=tuple)
    quadrature_theta: Optional[float] = None  # None = amplitude quadrature
    gamma = 1.0  # the rate unit the sidecar records; not a field

    def points(self):
        """[(label, sweep value, effective scenario)], one per output table."""
        if self.sweep is None:
            return [(self.name, None, self)]
        key = self.sweep.parameter
        return [
            (f"{self.name}_{key}_{value:g}", value, replace(self, **{key: value}))
            for value in dict.fromkeys(self.sweep.values)
        ]


# Value parsers: each turns the raw INI string into a value of its field's
# type, or raises ValueError with the message the ScenarioError will carry.
# Which values are allowed is for validate_scenario alone to judge.
def _parser(convert, expected):
    def parse(raw):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {raw!r}") from None

    return parse


def _word(raw):
    return raw.strip().lower()


def _listed(parse):
    """A parser of a comma- or space-separated list of `parse` values."""
    return lambda raw: tuple(map(parse, raw.replace(",", " ").split()))


_number = _parser(float, "a number")
_integer = _parser(int, "an integer")
_boolean = _parser(
    lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean"
)


def _quadrature(raw):
    return None if _word(raw) == "amplitude" else _number(raw)


_REQUIRED = object()
_OPTIONAL_SECTIONS = ("sweep",)  # absent = no sweep
_PARAMETER_SECTIONS = ("transition", "drive", "medium", "input")

# Every scenario key: (section, key, parser, default). A _REQUIRED key must
# be present, and so must its section unless that section is optional.
# Keys are read in this order, so it is also the order errors are raised in.
KEYS = (
    ("transition", "fg", _number, _REQUIRED),
    ("transition", "fe", _number, _REQUIRED),
    ("transition", "gamma", _number, 1.0),  # must be 1: Scenario.gamma
    ("drive", "polarization", _word, _REQUIRED),
    ("drive", "rabi", _number, _REQUIRED),
    ("drive", "detuning", _number, 0.0),
    ("medium", "b0", _number, _REQUIRED),
    ("input", "eps_a", _number, 0.0),
    ("input", "eps_p", _number, 0.0),
    ("grid", "symmetrize", _boolean, False),
    ("grid", "omega_min", _number, _REQUIRED),
    ("grid", "omega_max", _number, _REQUIRED),
    ("grid", "count", _integer, _REQUIRED),
    ("grid", "spacing", _word, "log"),
    ("sweep", "parameter", _word, _REQUIRED),
    ("sweep", "values", _listed(_number), _REQUIRED),
    ("output", "quadrature", _quadrature, None),
    ("output", "oracles", _listed(_word), ()),
    ("scenario", "name", str.strip, None),  # None = the file stem
)

# Each section's keys; any other section, [DEFAULT] included, takes none.
_SECTION_KEYS = {s: [k for t, k, _, _ in KEYS if t == s] for s, _, _, _ in KEYS}

# The physical parameters: Scenario fields, and the sidecar's "parameters".
PARAMETERS = tuple(
    key for section, key, _, _ in KEYS if section in _PARAMETER_SECTIONS
)


def _read(parser, path, section, key, parse, default):
    """One parsed scenario value, or `default` when the key is absent."""
    if not parser.has_option(section, key):
        if default is not _REQUIRED:
            return default
        missing = "key" if parser.has_section(section) else "section"
        raise ScenarioError(f"missing required {missing}", path, section, key)
    try:
        return parse(parser.get(section, key))
    except (configparser.Error, ValueError) as exc:
        raise ScenarioError(str(exc), path, section, key) from None


def load_scenario(path):
    """Parse an INI scenario file into a Scenario."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = path.read_text()
    except (OSError, UnicodeError) as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}", path=path) from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(str(exc), path=path) from exc
    for section, keys in parser.items():  # [DEFAULT] first, so named there
        for key in keys:
            if key not in _SECTION_KEYS.get(section, ()):
                unknown = "key" if section in _SECTION_KEYS else "section"
                raise ScenarioError(f"unknown {unknown}", path, section, key)

    read = {}
    for section, key, parse, default in KEYS:
        if section in _OPTIONAL_SECTIONS and not parser.has_section(section):
            continue
        read.setdefault(section, {})[key] = _read(
            parser, path, section, key, parse, default
        )

    if (gamma := read["transition"].pop("gamma")) != 1:  # see Scenario.gamma
        raise ScenarioError(f"gamma is the rate unit and must be 1, got {gamma!r}",
                            path=path, section="transition", key="gamma")
    name = read["scenario"]["name"]
    return Scenario(
        name=path.stem if name is None else name,
        **{key: value for s in _PARAMETER_SECTIONS for key, value in read[s].items()},
        grid=GridSpec(**read["grid"]),
        sweep=SweepSpec(**read["sweep"]) if "sweep" in read else None,
        oracles=read["output"]["oracles"],
        quadrature_theta=read["output"]["quadrature"],
    )


def _finite(value):  # a Python int can be finite beyond the float range
    return isinstance(value, numbers.Real) and abs(value) < np.inf and (
        not isinstance(value, int) or abs(value) <= float(np.finfo(float).max))


def _choice(key, value, words):
    """The rule that `value` is one of the strings `words`."""
    return key, value, isinstance(value, str) and value in words, f"one of {words}"


def _value_errors(scenario):
    """An error naming section.key for each value outside its rule: the
    rules that no pipeline constructor applies, for any Scenario. A rule
    reads a value only once that value's own type or finiteness holds, and
    the grid is built only once every other rule holds."""
    grid, sweep, theta = scenario.grid, scenario.sweep, scenario.quadrature_theta
    if not isinstance(grid, GridSpec):  # every later rule reads inside these
        return [f"grid must be a GridSpec, got {grid!r}"]
    if not (sweep is None or isinstance(sweep, SweepSpec)):
        return [f"sweep must be None or a SweepSpec, got {sweep!r}"]
    name, oracles, count = scenario.name, scenario.oracles, grid.count
    low, high = grid.omega_min, grid.omega_max
    counted = isinstance(count, numbers.Integral)
    rules = [  # a key read as a number holds a finite one
        (f"{section}.{key}", value, _finite(value), "a finite number")
        for section, key, parse, _ in KEYS if parse is _number
        for value in [getattr(grid if section == "grid" else scenario, key)]
    ] + [
        ("scenario.name", name, isinstance(name, str) and name not in ("", ".", "..")
         and not set(name) & set("/\\\0"), "a plain file name"),
        _choice("drive.polarization", scenario.polarization, _POLARIZATIONS),
        ("grid.count", count, counted, "an integer"),
        _choice("grid.spacing", grid.spacing, _SPACINGS),
        ("grid.symmetrize", grid.symmetrize, isinstance(grid.symmetrize, bool),
         "a boolean"),
        ("output.quadrature", theta, theta is None  # theta counts mod pi
         or _finite(theta) and abs(theta) <= np.pi, "an angle in [-pi, pi] radians"),
        ("output.oracles", oracles, isinstance(oracles, (list, tuple))
         and all(isinstance(oracle, str) and oracle in _ORACLES for oracle in oracles)
         and len(set(oracles)) == len(oracles), f"distinct names from {_ORACLES}"),
        ("grid.count", count, not counted or count >= 2, ">= 2"),
        ("grid.count", count, not counted or count <= MAX_GRID_COUNT,
         f"<= {MAX_GRID_COUNT}"),
        ("grid.omega_min", low, not _finite(low) or grid.spacing != "log"
         or low > 0, "> 0 for log spacing"),
    ]
    if sweep is not None:
        rules += [
            _choice("sweep.parameter", sweep.parameter, _SWEEPABLE),
            ("sweep.values", sweep.values, isinstance(sweep.values, (list, tuple))
             and len(sweep.values) > 0 and all(map(_finite, sweep.values)),
             "one or more finite numbers"),
        ]
    errors = [f"{key} must be {rule}, got {value!r}"
              for key, value, holds, rule in rules if not holds]
    if _finite(low) and _finite(high) and low >= high:
        errors.append(f"grid bounds are inverted: omega_min = {low} >= "
                      f"omega_max = {high}")
    if errors:
        return errors
    built = grid.build()
    if not np.all(np.isfinite(built)):
        return [f"grid bounds omega_min = {low}, omega_max = {high} overflow "
                f"the {grid.spacing} grid"]
    if np.any(built == 0):
        return ["grid contains Omega = 0 (zero-frequency fluctuation response "
                "is singular on the steady-state manifold); shift the bounds "
                "or use an even count"]
    return []


def validate_scenario(scenario):
    """(warnings, errors) of a Scenario however built, as string lists; it
    raises nothing. Only once every value rule holds are `scenario.points()`
    built and held to the pipeline constructors' own range rules, so a bad
    sweep value is caught before any compute.
    """
    errors = _value_errors(scenario)
    if errors:
        return [], errors
    warnings, labelled = [], {}
    for label, value, point in scenario.points():
        if label in labelled:
            errors.append(
                f"sweep.values {labelled[label]!r} and {value!r} share the "
                f"table label {label!r}"
            )
        labelled[label] = value
        (scheme, *_), point_errors = point_inputs(point)
        errors.extend(point_errors)
        _check_ranges(point, scheme, warnings, errors)

    if "mollow" in scenario.oracles and not mollow_applies(scenario):
        warnings.append(
            "mollow oracle applies to circular drive on fe = fg + 1 (an "
            "effective two-level atom); its column will be left empty for "
            "this scenario"
        )

    return list(dict.fromkeys(warnings)), list(dict.fromkeys(errors))


def mollow_applies(point):
    """Whether the two-level Mollow column is computed for a point: circular
    drive on Fe = Fg + 1, which pumps the atoms into the stretched pair."""
    return point.polarization == "circular" and point.fe == point.fg + 1


def point_inputs(point):
    """The pipeline inputs of one effective scenario point, and their errors.

    Returns ((LevelScheme, DriveConfig, MediumParams, input matrix), errors).
    A constructor that raises ArgumentError leaves None in its place and
    adds its message, prefixed with where the values come from, to errors.
    """
    mode = PolarizationMode(point.polarization)
    inputs, errors = [], []
    for prefix, construct, args in (
        ("transition: ", LevelScheme, (point.fg, point.fe)),
        ("drive.", DriveConfig, (mode, point.rabi, point.detuning)),
        ("medium.", MediumParams, (point.b0,)),
        ("input.", excess_noise_input, (point.eps_a, point.eps_p)),
    ):
        try:
            inputs.append(construct(*args))
        except ArgumentError as exc:
            inputs.append(None)
            errors.append(f"{prefix}{exc}")
    return tuple(inputs), errors


def _check_ranges(point, scheme, warnings, errors):
    """Append the range warnings and errors of one effective scenario point."""
    if point.rabi == 0:
        warnings.append("drive.rabi is 0: the field is undriven vacuum")
        if point.b0 > 0:
            errors.append(
                "drive.rabi must be > 0 when medium.b0 > 0: the carrier "
                "update is undefined at zero Rabi frequency"
            )
        elif "mollow" in point.oracles and mollow_applies(point):
            errors.append("drive.rabi must be > 0 for the mollow oracle")
    if point.b0 > 0.5:
        warnings.append(
            f"medium.b0 = {point.b0} exceeds the dilute/thin-sample "
            "domain (b0 <= 0.5); results are extrapolations"
        )
    if scheme is None:
        return
    # Ground sublevels the drive leaves uncoupled (dark to it).
    rows = PolarizationMode(point.polarization).operator(scheme, 1)[: scheme.n_ground]
    dark = int(np.sum(~rows.any(axis=1)))
    if dark:
        (warnings if dark == 1 else errors).append(
            f"transition: {dark} ground sublevel(s) dark to the "
            f"{point.polarization} drive: " + (
                "the atoms are pumped into it and the spectra are round-off"
                if dark == 1 else "the steady state is not unique"
            )
        )
