"""Run orchestration: compute spectra for a scenario and write tables.

One CSV table is written per sweep value, with the fixed column layout

    omega_over_gamma, s_opt_e1, s_opt_e2, s_x_e1, s_x_e2 [, oracle columns]

(e1 = driven, e2 = orthogonal polarization; s_opt = optical spectrum;
s_x = quadrature noise at the amplitude-quadrature angle unless the scenario
requests an explicit angle; gamma = 1, so omega_over_gamma is Omega).
Observables that do not apply are left as empty fields, never written as
zeros. Each CSV gets a JSON sidecar holding every input parameter, gamma
included, the convention tags and the carrier/dephasing values, so any
number in the table can be recomputed from the sidecar alone.

`run_scenario` builds each point's pipeline inputs (`point_inputs`) once.
Only the LevelScheme and the DriveConfig fix the atomic part of a point:
the generator, the steady state and the diffusion matrix, which make one
`propagation.Atoms` on the scenario's grid, and the oracle columns.
Consecutive points whose LevelScheme and DriveConfig are equal share that
part, so a b0 or eps_p sweep solves it once. Each point then hands the
shared Atoms to `propagate` with its own MediumParams and input matrix,
and scales the oracle columns by b0 / 4.
The pipeline is deterministic, with no randomness anywhere, so reruns are
bit-identical.
"""

from dataclasses import asdict
from pathlib import Path

import json

import numpy as np

from .conventions import CONVENTIONS_VERSION, QUADRATURE_CONVENTIONS
from .dynamics import build_generator, steady_state
from .errors import ArgumentError, NumericalError
from .langevin import diffusion_matrix
from .observables import (
    amplitude_quadrature_angle,
    optical_spectrum,
    quadrature_noise,
)
from .oracles import mollow_spectrum, qrt_spectrum
from .propagation import Atoms, propagate
from .scenario import PARAMETERS, mollow_applies, point_inputs

OUTPUT_DIR_ENV = "ZEENOISE_OUT"
DEFAULT_OUTPUT_DIR = "zeenoise-out"


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


def solve_atoms(point, scheme, drive):
    """(Atoms, oracle columns) of a point's `scheme` and `drive`; points
    share them when their LevelScheme and DriveConfig are equal.

    The oracle columns map each column name, in [output] oracles order, to
    its values on |grid| per unit of b0 / 4: `qrt_opt_eC` is 2 Re of
    component C's regression spectrum, and `mollow_opt_e1` the two-level
    Mollow spectrum, or None (an empty column) unless `mollow_applies`.
    """
    liou = build_generator(scheme, drive)
    rho = steady_state(liou)
    atoms = Atoms(liou, rho, diffusion_matrix(liou, rho), point.grid.build())
    wabs = np.abs(atoms.grid)
    oracles = {}
    for oracle in point.oracles:
        if oracle == "qrt":
            for c, op in atoms.operators.items():
                spectrum = qrt_spectrum(liou, rho, op.conj().T, op, wabs)
                oracles[f"qrt_opt_e{c}"] = 2.0 * spectrum.real
        else:
            oracles["mollow_opt_e1"] = (
                mollow_spectrum(wabs, point.rabi, point.detuning)
                if mollow_applies(point) else None
            )
    return atoms, oracles


def compute_point(scenario, medium, input_matrix, atoms, oracles):
    """(columns, metadata) of one effective scenario; a None column is empty.

    `medium` and `input_matrix` are the point's own inputs, and `atoms` and
    `oracles` the `solve_atoms` of its LevelScheme and DriveConfig; the
    oracle columns are scaled by b0 / 4 here.
    """
    out = propagate(input_matrix, medium, atoms)
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
        "omega_over_gamma": atoms.grid,
        "s_opt_e1": optical_spectrum(out.spectra[1]),
        "s_opt_e2": optical_spectrum(out.spectra[2]),
        "s_x_e1": quadrature_noise(out.spectra[1], theta),
        "s_x_e2": quadrature_noise(out.spectra[2], theta),
    }
    k2 = medium.atomic_scale()
    for name, col in oracles.items():
        columns[name] = None if col is None else k2 * col
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

    A run of consecutive points with equal LevelScheme and DriveConfig
    shares one `solve_atoms`, dropped before the next run's is solved.
    """
    written = []
    atoms = oracles = None
    for label, value, point in scenario.points():
        scheme, drive, medium, input_matrix = _inputs(point)
        try:
            if atoms is None or (atoms.scheme, atoms.drive) != (scheme, drive):
                atoms = oracles = None  # free the previous run's arrays first
                atoms, oracles = solve_atoms(point, scheme, drive)
            columns, metadata = compute_point(point, medium, input_matrix,
                                              atoms, oracles)
        except (NumericalError, MemoryError) as exc:
            exc.args = (f"scenario point '{label}': {exc}",)
            raise
        metadata["label"] = label
        metadata["sweep_parameter"] = getattr(scenario.sweep, "parameter", None)
        metadata["sweep_value"] = value
        written.extend(write_point(columns, metadata, out_dir, label))
    return written
