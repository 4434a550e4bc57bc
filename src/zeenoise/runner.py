"""Run orchestration: compute spectra for a scenario and write tables.

One CSV table is written per sweep value, with the fixed column layout

    omega_over_gamma, s_opt_e1, s_opt_e2, s_x_e1, s_x_e2 [, oracle columns]

(e1 = driven, e2 = orthogonal polarization; s_opt = optical spectrum;
s_x = quadrature noise at the amplitude-quadrature angle unless the scenario
requests an explicit angle). Observables that do not apply are left as
empty fields, never written as zeros. Each CSV gets a JSON sidecar holding
every input parameter, the convention tags, and the carrier/dephasing
values, so any number in the table can be recomputed from the sidecar
alone. The pipeline is deterministic: no randomness anywhere, and one loop
over the grid computes every frequency point, so reruns are bit-identical.
"""

from dataclasses import asdict
from pathlib import Path

import json

import numpy as np

from .conventions import CONVENTIONS_VERSION, QUADRATURE_CONVENTIONS
from .dynamics import build_generator, steady_state
from .errors import PHYSICS_ERRORS, ArgumentError
from .langevin import diffusion_matrix
from .observables import (
    amplitude_quadrature_angle,
    optical_spectrum,
    quadrature_noise,
)
from .oracles import mollow_spectrum, qrt_spectrum
from .propagation import propagate
from .scenario import PARAMETERS, point_inputs

OUTPUT_DIR_ENV = "ZEENOISE_OUT"
DEFAULT_OUTPUT_DIR = "zeenoise-out"


def compute_point(scenario):
    """(columns, metadata) of one effective scenario; a None column is empty."""
    (scheme, drive, medium, input_matrix), errors = point_inputs(scenario)
    if errors:
        raise ArgumentError("; ".join(errors))
    liou = build_generator(scheme, drive)
    rho = steady_state(liou)
    two_d = diffusion_matrix(liou, rho)
    grid = scenario.grid.build()

    out = propagate(input_matrix, medium, liou, two_d, rho, grid)

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
                op = drive.basis.operator(scheme, comp)
                one_sided = qrt_spectrum(liou, rho, op.conj().T, op, wabs)
                columns[name] = kappa2 * 2.0 * one_sided.real
        elif oracle == "mollow":
            if scenario.polarization == "circular":
                columns["mollow_opt_e1"] = kappa2 * mollow_spectrum(
                    wabs, scenario.rabi, scenario.detuning, scenario.gamma
                )
            else:
                columns["mollow_opt_e1"] = None

    metadata = {
        "conventions_version": CONVENTIONS_VERSION,
        "quadrature_conventions": dict(QUADRATURE_CONVENTIONS),
        "parameters": {key: getattr(scenario, key) for key in PARAMETERS},
        "grid": asdict(scenario.grid),
        "oracles": list(scenario.oracles),
        "quadrature_theta": theta,
        "quadrature_theta_source": theta_source,
        "carrier_e1": [out.carrier[1].real, out.carrier[1].imag],
        "carrier_e2": [out.carrier[2].real, out.carrier[2].imag],
        "phi_e1": out.phi[1],
        "phi_e2": out.phi[2],
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
    """Compute and write one table per scenario point; returns written paths."""
    written = []
    for label, value, point in scenario.points():
        try:
            columns, metadata = compute_point(point)
        except PHYSICS_ERRORS as exc:
            exc.args = (f"scenario point '{label}': {exc}",)
            raise
        metadata["label"] = label
        metadata["sweep_parameter"] = getattr(scenario.sweep, "parameter", None)
        metadata["sweep_value"] = value
        written.extend(write_point(columns, metadata, out_dir, label))
    return written
