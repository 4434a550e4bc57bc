"""Test-side references: peak analysis of computed spectra, the
closed-form two-level steady state, weak-drive optical pumping, and
sublevel indices.

`peak_census` and `zero_peak_half_width` read figures off computed spectra
(multiplet counts, Raman peak widths) with `scipy.signal`,
`two_level_reference` is the closed form that the dynamics, oracle and
propagation tests compare against, `pumped_populations` the weak-drive
ground state that the acceptance tests hold the steady state to, and
`sublevel` finds a basis state by its M. The run pipeline calls none of
them, so they live here and scipy stays out of the package's dependencies.
"""

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import signal

from zeenoise.angular import dipole_component
from zeenoise.errors import ArgumentError


@dataclass
class PeakInfo:
    position: float
    height: float
    prominence: float
    half_width: Optional[float]  # None when the half-height span is clipped


def peak_census(grid, values, prominence=0.02):
    """Locate interior local maxima of a spectrum sampled on `grid`.

    `prominence` is relative to the full value range of `values`. Half
    widths (HWHM, from the half-prominence span) are reported in grid units
    and are None where the span runs off the sampled window.
    """
    if values.size < 3:
        return []
    vrange = float(values.max() - values.min())
    if vrange == 0:
        return []
    idx, props = signal.find_peaks(values, prominence=prominence * vrange)
    if idx.size == 0:
        return []
    widths, _, left_ips, right_ips = signal.peak_widths(
        values, idx, rel_height=0.5
    )
    samples = np.arange(values.size, dtype=float)
    peaks = []
    for k, i in enumerate(idx):
        clipped = left_ips[k] <= 0.0 or right_ips[k] >= values.size - 1.0
        if clipped:
            hw = None
        else:
            w_left = float(np.interp(left_ips[k], samples, grid))
            w_right = float(np.interp(right_ips[k], samples, grid))
            hw = 0.5 * (w_right - w_left)
        peaks.append(
            PeakInfo(
                position=float(grid[i]),
                height=float(values[i]),
                prominence=float(props["prominences"][k]),
                half_width=hw,
            )
        )
    peaks.sort(key=lambda p: p.position)
    return peaks


def zero_peak_half_width(grid, values, baseline=0.0):
    """Half width of a peak sitting at the low-frequency end of the grid.

    Treats the first sample as the peak height and returns the frequency at
    which the values first fall to the midpoint between peak and `baseline`,
    interpolated linearly in log-frequency. Returns None without a crossing.
    Intended for narrow Raman-type features centered at Omega = 0 sampled on
    a logarithmic grid that cannot contain the maximum itself.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.size < 2 or np.any(grid <= 0):
        raise ArgumentError("requires a strictly positive frequency grid")
    target = 0.5 * (values[0] + baseline)
    below = np.nonzero(values <= target)[0]
    if below.size == 0 or below[0] == 0:
        return None
    k = int(below[0])
    x0, x1 = np.log(grid[k - 1]), np.log(grid[k])
    y0, y1 = values[k - 1], values[k]
    frac = (y0 - target) / (y0 - y1)
    return float(np.exp(x0 + frac * (x1 - x0)))


TwoLevelReference = namedtuple(
    "TwoLevelReference", ["excited_population", "coherence", "susceptibility"]
)


def two_level_reference(rabi, detuning=0.0, gamma=1.0):
    """Closed-form steady state of a driven two-level atom.

    excited_population: saturation formula (1/3 at rabi = gamma on
    resonance); coherence: steady <s->; susceptibility: the weak-drive
    normalized linear response i(gamma/2)/(gamma/2 - i detuning), whose real
    and imaginary parts are in ratio -2 detuning / gamma.
    """
    if gamma <= 0:
        raise ArgumentError("gamma must be positive")
    half = gamma / 2
    denom = detuning**2 + half**2 + rabi**2 / 2
    p = (rabi**2 / 4) / denom
    lorentz = detuning**2 + half**2
    coherence = -1j * (rabi / 2) * (2 * p - 1) * (half + 1j * detuning) / lorentz
    susceptibility = 1j * half / (half - 1j * detuning)
    return TwoLevelReference(
        excited_population=float(p),
        coherence=complex(coherence),
        susceptibility=complex(susceptibility),
    )


def pumped_populations(scheme, q):
    """Ground populations p and squared couplings c^2 of a weak drive on the
    spherical component q, from the optical-pumping rate equations (W. Happer,
    Rev. Mod. Phys. 44, 169 (1972)); both are arrays over the ground M.

    Far below saturation g_m is excited at a rate proportional to
    c_m^2 = |<Fg m; 1 q | Fe m+q>|^2, the same Lorentzian factor for every m,
    and e_(m+q) then decays to g_m' with branching ratio sum_q' |d_q'|^2.
    p is the trace-1 null vector of that rate matrix. It shares nothing with
    the generator, the drift or the diffusion matrix.
    """
    ng = scheme.n_ground
    # [g', e]: e decays to g' with these ratios
    branching = sum(dipole_component(scheme, k)[:ng, ng:] ** 2 for k in (-1, 0, 1))
    drive = dipole_component(scheme, q)[:ng, ng:] ** 2  # [g, e]
    c2 = drive.sum(axis=1)
    rates = branching @ drive.T - np.diag(c2)  # [g', g]
    stacked = np.vstack([rates, np.ones(ng)])
    p = np.linalg.lstsq(stacked, np.r_[np.zeros(ng), 1.0], rcond=None)[0]
    return p, c2


def sublevel(scheme, m, excited=False):
    """Basis index of the ground (or excited) sublevel M; M is not checked."""
    return scheme.n_ground + int(m + scheme.fe) if excited else int(m + scheme.fg)
