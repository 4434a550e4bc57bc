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
                 quadrature = amplitude      ; or an angle in radians

Frequencies are in units of gamma. `load_scenario` raises ScenarioError
(with file/section/key context) on anything unparseable; physical range
problems are reported by `validate_scenario` as (warnings, errors) so a
`validate` run can show them all at once.
"""

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .angular import LevelScheme
from .dynamics import DriveConfig
from .errors import ArgumentError, ScenarioError
from .field import PolarizationBasis, PolarizationMode, excess_noise_input
from .propagation import MediumParams

_POLARIZATIONS = tuple(mode.value for mode in PolarizationMode)
_ORACLES = ("qrt", "mollow")
_SWEEPABLE = ("rabi", "detuning", "b0", "eps_p")
_SPACINGS = ("log", "linear")


@dataclass(frozen=True)
class GridSpec:
    omega_min: float
    omega_max: float
    count: int
    spacing: str = "log"
    symmetrize: bool = False  # mirror to negative frequencies

    def build(self):
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
        """Range errors of this grid, found without building it."""
        errors = []
        if self.count < 2:
            errors.append(f"grid.count must be >= 2, got {self.count}")
        if self.spacing == "log" and self.omega_min <= 0:
            errors.append(
                f"grid.omega_min must be > 0 for log spacing, got {self.omega_min}"
            )
        if self.omega_min >= self.omega_max:
            errors.append(
                f"grid bounds are inverted: omega_min = {self.omega_min} >= "
                f"omega_max = {self.omega_max}"
            )
        if not errors and self.spacing == "linear" and self._linear_has_zero():
            errors.append(
                "grid contains Omega = 0 (zero-frequency fluctuation "
                "response is singular on the steady-state manifold); "
                "shift the bounds or use an even count"
            )
        return errors

    def _linear_has_zero(self):
        # np.linspace sets point i < count - 1 to i*step + start (to
        # (i/div)*delta + start when step underflows) and the last point to
        # stop. Point i is 0 only if i*step rounds to -start exactly, which
        # leaves the two i next to -start/step. Mirroring adds no zero, and
        # a log grid with omega_min > 0 has none.
        start, stop = np.float64(self.omega_min), np.float64(self.omega_max)
        div = self.count - 1
        delta = stop - start
        step = delta / div
        if not np.isfinite(step):
            return stop == 0
        x = -start / delta * div if step == 0 else -start / step
        i = np.array([np.floor(x), np.ceil(x)])
        i = i[(i >= 0) & (i < div)]
        points = i / div * delta + start if step == 0 else i * step + start
        return stop == 0 or bool(np.any(points == 0))


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
    gamma: float
    polarization: str
    rabi: float
    detuning: float
    b0: float
    eps_a: float = 0.0
    eps_p: float = 0.0
    grid: Optional[GridSpec] = None
    sweep: Optional[SweepSpec] = None
    oracles: Tuple[str, ...] = field(default_factory=tuple)
    quadrature_theta: Optional[float] = None  # None = amplitude quadrature

    def sweep_values(self):
        """Sweep values, or the single base value of the swept parameter."""
        if self.sweep is None:
            return (None,)
        return self.sweep.values

    def with_sweep_value(self, value):
        """A copy with the swept parameter replaced by `value`."""
        if value is None or self.sweep is None:
            return self
        return replace(self, **{self.sweep.parameter: float(value)})


def _require(parser, section, key, path):
    if not parser.has_section(section):
        raise ScenarioError(
            f"missing required section [{section}]", path=path, section=section
        )
    if not parser.has_option(section, key):
        raise ScenarioError(
            "missing required key", path=path, section=section, key=key
        )
    return parser.get(section, key)


def _as_float(raw, path, section, key):
    try:
        value = float(raw)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ScenarioError(
            f"expected a finite number, got {raw!r}",
            path=path, section=section, key=key,
        )
    return value


def _as_int(raw, path, section, key):
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(
            f"expected an integer, got {raw!r}", path=path, section=section, key=key
        ) from None


def _optional_float(parser, section, key, default, path):
    if parser.has_section(section) and parser.has_option(section, key):
        return _as_float(parser.get(section, key), path, section, key)
    return default


def load_scenario(path):
    """Parse an INI scenario file into a Scenario."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}", path=path) from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(str(exc), path=path) from exc

    fg = _as_float(_require(parser, "transition", "fg", path), path, "transition", "fg")
    fe = _as_float(_require(parser, "transition", "fe", path), path, "transition", "fe")
    gamma = _optional_float(parser, "transition", "gamma", 1.0, path)

    polarization = _require(parser, "drive", "polarization", path).strip().lower()
    if polarization not in _POLARIZATIONS:
        raise ScenarioError(
            f"polarization must be one of {_POLARIZATIONS}, got {polarization!r}",
            path=path,
            section="drive",
            key="polarization",
        )
    rabi = _as_float(_require(parser, "drive", "rabi", path), path, "drive", "rabi")
    detuning = _optional_float(parser, "drive", "detuning", 0.0, path)

    b0 = _as_float(_require(parser, "medium", "b0", path), path, "medium", "b0")

    eps_a = _optional_float(parser, "input", "eps_a", 0.0, path)
    eps_p = _optional_float(parser, "input", "eps_p", 0.0, path)

    grid = None
    if parser.has_section("grid"):
        try:
            symmetrize = parser.getboolean("grid", "symmetrize", fallback=False)
        except ValueError:
            raise ScenarioError(
                "expected a boolean",
                path=path,
                section="grid",
                key="symmetrize",
            ) from None
        grid = GridSpec(
            omega_min=_as_float(
                _require(parser, "grid", "omega_min", path), path, "grid", "omega_min"
            ),
            omega_max=_as_float(
                _require(parser, "grid", "omega_max", path), path, "grid", "omega_max"
            ),
            count=_as_int(
                _require(parser, "grid", "count", path), path, "grid", "count"
            ),
            spacing=parser.get("grid", "spacing", fallback="log").strip().lower(),
            symmetrize=symmetrize,
        )
        if grid.spacing not in _SPACINGS:
            raise ScenarioError(
                f"spacing must be one of {_SPACINGS}, got {grid.spacing!r}",
                path=path,
                section="grid",
                key="spacing",
            )

    sweep = None
    if parser.has_section("sweep"):
        parameter = (
            _require(parser, "sweep", "parameter", path).strip().lower()
        )
        raw_values = _require(parser, "sweep", "values", path)
        pieces = raw_values.replace(",", " ").split()
        values = tuple(
            _as_float(piece, path, "sweep", "values") for piece in pieces
        )
        sweep = SweepSpec(parameter=parameter, values=values)

    quadrature_theta = None
    if parser.has_section("output") and parser.has_option("output", "quadrature"):
        raw = parser.get("output", "quadrature").strip().lower()
        if raw != "amplitude":
            quadrature_theta = _as_float(raw, path, "output", "quadrature")

    oracles = ()
    if parser.has_section("output") and parser.has_option("output", "oracles"):
        raw = parser.get("output", "oracles").replace(",", " ").split()
        oracles = tuple(token.lower() for token in raw)
        for token in oracles:
            if token not in _ORACLES:
                raise ScenarioError(
                    f"unknown oracle {token!r}; known: {_ORACLES}",
                    path=path,
                    section="output",
                    key="oracles",
                )

    name = path.stem
    if parser.has_section("scenario") and parser.has_option("scenario", "name"):
        name = parser.get("scenario", "name").strip()

    return Scenario(
        name=name,
        fg=fg,
        fe=fe,
        gamma=gamma,
        polarization=polarization,
        rabi=rabi,
        detuning=detuning,
        b0=b0,
        eps_a=eps_a,
        eps_p=eps_p,
        grid=grid,
        sweep=sweep,
        oracles=oracles,
        quadrature_theta=quadrature_theta,
    )


def validate_scenario(scenario):
    """Check physical ranges. Returns (warnings, errors) as string lists.

    The range rules are those of the pipeline's own constructors, run on
    every effective point, that is on each sweep value substituted into the
    scenario, so a bad sweep value is caught before anything is computed.
    """
    warnings = []
    errors = []

    points = [scenario]
    sweep = scenario.sweep
    if sweep is not None and sweep.parameter in _SWEEPABLE and sweep.values:
        points = [scenario.with_sweep_value(v) for v in sweep.values]
    for point in points:
        errors.extend(_point_errors(point))
        _check_ranges(point, warnings)

    if scenario.grid is None:
        errors.append("missing [grid] section: omega_min/omega_max/count")
    else:
        errors.extend(scenario.grid.problems())

    if scenario.sweep is not None:
        if scenario.sweep.parameter not in _SWEEPABLE:
            errors.append(
                f"sweep.parameter must be one of {_SWEEPABLE}, "
                f"got {scenario.sweep.parameter!r}"
            )
        if len(scenario.sweep.values) == 0:
            errors.append("sweep.values is empty")

    if "mollow" in scenario.oracles and scenario.polarization != "circular":
        warnings.append(
            "mollow oracle applies to the circular (effective two-level) "
            "drive; its column will be left empty for this scenario"
        )

    return list(dict.fromkeys(warnings)), list(dict.fromkeys(errors))


def _point_errors(point):
    """The constructors' ArgumentErrors for one effective scenario point."""
    basis = PolarizationBasis(PolarizationMode(point.polarization))
    errors = []
    for prefix, construct, args in (
        ("transition: ", LevelScheme, (point.fg, point.fe, point.gamma)),
        ("drive.", DriveConfig, (basis, point.rabi, point.detuning)),
        ("medium.", MediumParams, (point.b0,)),
        ("input.", excess_noise_input, (point.eps_a, point.eps_p)),
    ):
        try:
            construct(*args)
        except ArgumentError as exc:
            errors.append(f"{prefix}{exc}")
    return errors


def _check_ranges(point, warnings):
    """Append the range warnings of one effective scenario point."""
    if point.rabi == 0:
        warnings.append("drive.rabi is 0: the field is undriven vacuum")
    if point.b0 > 0.5:
        warnings.append(
            f"medium.b0 = {point.b0} exceeds the dilute/thin-sample "
            "domain (b0 <= 0.5); results are extrapolations"
        )
