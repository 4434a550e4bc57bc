"""Run orchestration: compute spectra for a scenario and write tables.

One CSV table is written per sweep value, with the fixed column layout

    omega_over_gamma, s_opt_e1, s_opt_e2, s_x_e1, s_x_e2 [, oracle columns]

(e1 = driven, e2 = orthogonal polarization; s_opt = optical spectrum;
s_x = quadrature noise at the amplitude-quadrature angle unless the scenario
requests an explicit angle). Observables that do not apply are left as
empty fields, never written as zeros. Each CSV gets a JSON sidecar holding
every input parameter, the convention tags, and the carrier/dephasing
values, so any number in the table can be recomputed from the sidecar
alone.

Only the transition and the drive fix the atomic part of a point: the
generator, the steady state, the diffusion matrix, the resolvent
correlations and the QRT spectra on the scenario's grid. `run_scenario`
solves that part once, as an `Atoms`, for each run of consecutive points
with equal [transition] and [drive] values, so a b0 or eps_p sweep solves
the atoms once. Each point then scales the shared correlations by its own
k2 = b0*gamma/4 and adds its own input matrix and carrier. The pipeline is
deterministic, with no randomness anywhere, so reruns are bit-identical.
"""

from dataclasses import asdict
from functools import cached_property
from pathlib import Path

import json

import numpy as np

from .conventions import CONVENTIONS_VERSION, QUADRATURE_CONVENTIONS
from .dynamics import build_generator, steady_state
from .errors import PHYSICS_ERRORS, ArgumentError, NumericalError
from .langevin import diffusion_matrix
from .observables import (
    amplitude_quadrature_angle,
    optical_spectrum,
    quadrature_noise,
)
from .oracles import mollow_spectrum, qrt_spectrum
from .propagation import atomic_correlations, propagate
from .scenario import KEYS, PARAMETERS, point_inputs

OUTPUT_DIR_ENV = "ZEENOISE_OUT"
DEFAULT_OUTPUT_DIR = "zeenoise-out"

# The Scenario fields an Atoms depends on; every point of a scenario shares
# its grid.
ATOMIC_KEYS = tuple(
    key for section, key, _, _ in KEYS if section in ("transition", "drive")
)


def _inputs(point):
    """point_inputs(point), raising ArgumentError on any of its errors."""
    inputs, errors = point_inputs(point)
    if errors:
        raise ArgumentError("; ".join(errors))
    return inputs


def _require_finite(kind, values):
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise NumericalError(f"{kind} {name!r} holds a non-finite value")


class Atoms:
    """The part of a scenario point that b0 and the input noise leave alone.

    Built from one point, it holds for every point with the same
    ATOMIC_KEYS values. The resolvent correlations and the QRT spectra are
    solved on first use, so points at b0 = 0 invert no resolvent.
    """

    def __init__(self, point):
        scheme, drive, _, _ = _inputs(point)
        self.liouvillian = build_generator(scheme, drive)
        self.rho = steady_state(self.liouvillian)
        self.two_d = diffusion_matrix(self.liouvillian, self.rho)
        self.grid = point.grid.build()

    @cached_property
    def correlations(self):
        return atomic_correlations(self.liouvillian, self.two_d, self.grid)

    @cached_property
    def qrt(self):
        """Component -> one-sided regression spectrum over |grid|."""
        liou = self.liouvillian
        wabs = np.abs(self.grid)
        spectra = {}
        for comp in (1, 2):
            op = liou.drive.basis.operator(liou.scheme, comp)
            spectra[comp] = qrt_spectrum(liou, self.rho, op.conj().T, op, wabs)
        return spectra


def compute_point(scenario, atoms):
    """(columns, metadata) of one effective scenario; a None column is empty.

    `atoms` is the Atoms of a point with the same ATOMIC_KEYS values.
    """
    scheme, _, medium, input_matrix = _inputs(scenario)
    grid = atoms.grid
    correlations = atoms.correlations if medium.b0 > 0 else None
    out = propagate(
        input_matrix, medium, atoms.liouvillian, atoms.rho, grid, correlations
    )
    sidecar = {
        "carrier_e1": [out.carrier[1].real, out.carrier[1].imag],
        "carrier_e2": [out.carrier[2].real, out.carrier[2].imag],
        "phi_e1": out.phi[1],
        "phi_e2": out.phi[2],
    }
    _require_finite("sidecar value", sidecar)

    if scenario.quadrature_theta is not None:
        theta = float(scenario.quadrature_theta)
        theta_source = "explicit"
    else:
        theta = amplitude_quadrature_angle(out.carrier[1])
        theta_source = "amplitude"

    columns = {
        "omega_over_gamma": grid,
        "s_opt_e1": optical_spectrum(out.spectra[1]).values,
        "s_opt_e2": optical_spectrum(out.spectra[2]).values,
        "s_x_e1": quadrature_noise(out.spectra[1], theta).values,
        "s_x_e2": quadrature_noise(out.spectra[2], theta).values,
    }

    kappa2 = 0.25 * scenario.b0 * scheme.gamma
    wabs = np.abs(grid)
    for oracle in scenario.oracles:
        if oracle == "qrt":
            for comp, name in ((1, "qrt_opt_e1"), (2, "qrt_opt_e2")):
                columns[name] = kappa2 * 2.0 * atoms.qrt[comp].real
        elif oracle == "mollow":
            if scenario.polarization == "circular":
                columns["mollow_opt_e1"] = kappa2 * mollow_spectrum(
                    wabs, scenario.rabi, scenario.detuning, scenario.gamma
                )
            else:
                columns["mollow_opt_e1"] = None
    _require_finite("column", columns)

    metadata = {
        "conventions_version": CONVENTIONS_VERSION,
        "quadrature_conventions": dict(QUADRATURE_CONVENTIONS),
        "parameters": {key: getattr(scenario, key) for key in PARAMETERS},
        "grid": asdict(scenario.grid),
        "oracles": list(scenario.oracles),
        "quadrature_theta": theta,
        "quadrature_theta_source": theta_source,
        **sidecar,
        "columns": list(columns),
    }
    return columns, metadata


def _format(value):
    return f"{value:.17g}"


def write_point(columns, metadata, out_dir, label):
    """Write `<label>.csv` and `<label>.json`; returns the two paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{label}.csv"
    json_path = out_dir / f"{label}.json"

    lines = [", ".join(columns)]
    for i in range(len(columns["omega_over_gamma"])):
        lines.append(",".join(
            "" if col is None else _format(col[i]) for col in columns.values()
        ))
    csv_path.write_text("\n".join(lines) + "\n")

    json_path.write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n"
    )
    return [csv_path, json_path]


def run_scenario(scenario, out_dir):
    """Compute and write one table per scenario point; returns written paths.

    A run of consecutive points with equal ATOMIC_KEYS values shares one
    Atoms, dropped before the next run's is built.
    """
    written = []
    key = atoms = None
    for label, value, point in scenario.points():
        try:
            point_key = tuple(getattr(point, k) for k in ATOMIC_KEYS)
            if point_key != key:
                atoms = None  # free the previous run's arrays first
                atoms, key = Atoms(point), point_key
            columns, metadata = compute_point(point, atoms)
        except (*PHYSICS_ERRORS, MemoryError) as exc:
            exc.args = (f"scenario point '{label}': {exc}",)
            raise
        metadata["label"] = label
        metadata["sweep_parameter"] = getattr(scenario.sweep, "parameter", None)
        metadata["sweep_value"] = value
        written.extend(write_point(columns, metadata, out_dir, label))
    return written
