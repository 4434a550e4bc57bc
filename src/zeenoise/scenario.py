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

Rates and frequencies are in units of gamma, which must be 1. On anything
unparseable or not listed above `load_scenario` raises ScenarioError with
file/section/key context; `validate_scenario` returns physical range
problems as (warnings, errors), so `validate` can show them all at once.
"""

import configparser
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
        # Near the float limit an intermediate may overflow; problems()
        # rejects a grid that is not finite.
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

    def problems(self):
        """Range errors of this grid; it is built only once the rest pass."""
        errors = []
        if self.count < 2:
            errors.append(f"grid.count must be >= 2, got {self.count}")
        if self.count > MAX_GRID_COUNT:
            errors.append(
                f"grid.count must be <= {MAX_GRID_COUNT}, got {self.count}"
            )
        if self.spacing == "log" and self.omega_min <= 0:
            errors.append(
                f"grid.omega_min must be > 0 for log spacing, got {self.omega_min}"
            )
        if self.omega_min >= self.omega_max:
            errors.append(
                f"grid bounds are inverted: omega_min = {self.omega_min} >= "
                f"omega_max = {self.omega_max}"
            )
        if errors:
            return errors
        grid = self.build()
        if not np.all(np.isfinite(grid)):
            errors.append(
                f"grid bounds omega_min = {self.omega_min}, omega_max = "
                f"{self.omega_max} overflow the {self.spacing} grid"
            )
        elif np.any(grid == 0):
            errors.append(
                "grid contains Omega = 0 (zero-frequency fluctuation "
                "response is singular on the steady-state manifold); "
                "shift the bounds or use an even count"
            )
        return errors


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: Tuple[float, ...]


@dataclass(frozen=True)
class Scenario:
    """A full run configuration, as loaded from an INI scenario file."""

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


# Value parsers: each turns the raw INI string into a value, or raises
# ValueError with the message the ScenarioError will carry.
def _finite(raw):
    try:
        value = float(raw)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _integer(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _boolean(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("expected a boolean") from None


def _word(raw):
    return raw.strip().lower()


def _one_of(key, choices):
    def parse(raw):
        value = _word(raw)
        if value not in choices:
            raise ValueError(f"{key} must be one of {choices}, got {value!r}")
        return value

    return parse


def _numbers(raw):
    values = tuple(_finite(piece) for piece in raw.replace(",", " ").split())
    if not values:
        raise ValueError("expected at least one number")
    return values


def _name(raw):
    name = raw.strip()
    if name in ("", ".", "..") or set(name) & set("/\\\0"):
        raise ValueError(f"expected a plain file name, got {name!r}")
    return name


def _oracles(raw):
    names = tuple(token.lower() for token in raw.replace(",", " ").split())
    for name in names:
        if name not in _ORACLES:
            raise ValueError(f"unknown oracle {name!r}; known: {_ORACLES}")
    if len(set(names)) < len(names):
        raise ValueError(f"an oracle is named twice in {names}")
    return names


def _quadrature(raw):
    word = _word(raw)
    theta = None if word == "amplitude" else _finite(word)
    if theta is not None and abs(theta) > np.pi:  # theta counts mod pi
        raise ValueError(f"expected an angle in [-pi, pi] radians, got {word!r}")
    return theta


_REQUIRED = object()
_OPTIONAL_SECTIONS = ("sweep",)  # absent = no sweep
_PARAMETER_SECTIONS = ("transition", "drive", "medium", "input")

# Every scenario key: (section, key, parser, default). A _REQUIRED key must
# be present, and so must its section unless that section is optional.
# Keys are read in this order, so it is also the order errors are raised in.
KEYS = (
    ("transition", "fg", _finite, _REQUIRED),
    ("transition", "fe", _finite, _REQUIRED),
    ("transition", "gamma", _finite, 1.0),  # must be 1: Scenario.gamma
    ("drive", "polarization", _one_of("polarization", _POLARIZATIONS), _REQUIRED),
    ("drive", "rabi", _finite, _REQUIRED),
    ("drive", "detuning", _finite, 0.0),
    ("medium", "b0", _finite, _REQUIRED),
    ("input", "eps_a", _finite, 0.0),
    ("input", "eps_p", _finite, 0.0),
    ("grid", "symmetrize", _boolean, False),
    ("grid", "omega_min", _finite, _REQUIRED),
    ("grid", "omega_max", _finite, _REQUIRED),
    ("grid", "count", _integer, _REQUIRED),
    ("grid", "spacing", _one_of("spacing", _SPACINGS), "log"),
    ("sweep", "parameter", _one_of("parameter", _SWEEPABLE), _REQUIRED),
    ("sweep", "values", _numbers, _REQUIRED),
    ("output", "quadrature", _quadrature, None),
    ("output", "oracles", _oracles, ()),
    ("scenario", "name", _name, None),  # None = the file stem
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
        raise ScenarioError(
            f"missing required {missing}", path=path, section=section, key=key
        )
    try:
        return parse(parser.get(section, key))
    except (configparser.Error, ValueError) as exc:
        raise ScenarioError(
            str(exc), path=path, section=section, key=key
        ) from None


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


def validate_scenario(scenario):
    """Check physical ranges. Returns (warnings, errors) as string lists.

    The range rules are the pipeline constructors' own, run on every one of
    `scenario.points()`, so a bad sweep value is caught before any compute.
    """
    warnings, errors, labelled = [], [], {}
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

    errors.extend(scenario.grid.problems())

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
