"""Optical spectrum, quadrature extraction, and peak finding."""

import numpy as np
import pytest

from zeenoise import (
    ArgumentError,
    NumericalError,
    amplitude_quadrature_angle,
    excess_noise_input,
    optical_spectrum,
    quadrature_noise,
)
from zeenoise.field import SpectralMatrix

from helpers import peak_census, zero_peak_half_width


def lorentzian(x, center, hwhm, height):
    return height / (1.0 + ((x - center) / hwhm) ** 2)


class TestOpticalSpectrum:
    def test_takes_real_part_of_s22(self):
        sm = SpectralMatrix(
            np.ones(2), np.zeros(2), np.zeros(2),
            np.array([0.25 + 1e-14j, 0.5 - 1e-14j]),
        )
        values = optical_spectrum(sm)
        assert isinstance(values, np.ndarray) and values.dtype == float
        assert values == pytest.approx([0.25, 0.5])

    def test_unmatched_negative_frequency_kept(self):
        s22 = np.array([4.0, 5.0])
        sm = SpectralMatrix(np.ones(2), np.zeros(2), np.zeros(2), s22)
        assert optical_spectrum(sm) == pytest.approx([4.0, 5.0])

    def test_values_are_a_writable_copy(self):
        s22 = np.array([1.0 + 1e-14j, 2.0])
        sm = SpectralMatrix(0.0, 0.0, 0.0, s22)
        values = optical_spectrum(sm)
        values[0] = 9.0
        assert s22[0] == 1.0 + 1e-14j

    def test_gridless_matrix_gives_0d_arrays(self):
        sm = excess_noise_input(1.0, 2.0)
        values = optical_spectrum(sm)
        assert values.shape == quadrature_noise(sm, 0.3).shape == ()
        assert values.dtype == float and values == 0.75


class TestQuadratureNoise:
    def grid_matrix(self):
        grid = np.linspace(0.1, 2.0, 5)
        s12 = 0.1 * np.exp(1j * grid)  # arbitrary complex off-diagonal
        return SpectralMatrix(np.ones(5), s12, np.conj(s12), 0.3 * np.ones(5))

    def test_angle_average_recovers_diagonal(self):
        """Mean over 8 evenly spaced angles cancels the off-diagonals."""
        sm = self.grid_matrix()
        thetas = np.arange(8) * np.pi / 8
        mean = np.mean(
            [quadrature_noise(sm, t) for t in thetas], axis=0
        )
        assert np.allclose(mean, 1.0 + 0.3, atol=1e-12)

    def test_pi_periodic(self):
        sm = self.grid_matrix()
        a = quadrature_noise(sm, 0.4)
        b = quadrature_noise(sm, 0.4 + np.pi)
        assert np.allclose(a, b, atol=1e-12)

    def test_rejects_inconsistent_matrix(self):
        sm = SpectralMatrix(
            np.ones(1), np.array([0.2 + 0.1j]), np.array([0.3 - 0.2j]),
            np.zeros(1),
        )
        with pytest.raises(NumericalError):
            quadrature_noise(sm, 0.0)

    @pytest.mark.parametrize("s11, accepted", [
        (1.0 + 1e-8j, True),      # |Im| at the bound, 1e-8 of max(1, max |Re|)
        (0.5 + 1.5e-8j, False),   # past it: the scale never drops below 1
        (100.0 + 9e-7j, True),    # the bound grows with max |Re|
        (100.0 + 1.1e-6j, False),
    ])
    def test_imaginary_part_bound(self, s11, accepted):
        sm = excess_noise_input(0.0, 0.0) + SpectralMatrix(s11 - 1.0, 0j, 0j, 0j)
        if accepted:
            assert quadrature_noise(sm, 0.0) == s11.real
        else:
            with pytest.raises(NumericalError, match="non-negligible imaginary"):
                quadrature_noise(sm, 0.0)

    def test_coherent_is_shot_noise_at_every_angle(self):
        sm = excess_noise_input(0.0, 0.0)
        for theta in (0.0, 0.7, np.pi / 2):
            assert quadrature_noise(sm, theta) == pytest.approx(1.0)


def test_amplitude_angle_of_zero_carrier():
    with pytest.raises(NumericalError):
        amplitude_quadrature_angle(0.0)
    assert amplitude_quadrature_angle(np.exp(0.3j)) == pytest.approx(0.3)


class TestPeakCensus:
    def test_single_lorentzian(self):
        grid = np.linspace(-10, 10, 4001)
        vals = lorentzian(grid, 2.0, 0.5, 3.0)
        peaks = peak_census(grid, vals)
        assert len(peaks) == 1
        assert peaks[0].position == pytest.approx(2.0, abs=0.01)
        assert peaks[0].height == pytest.approx(3.0, rel=1e-3)
        assert peaks[0].half_width == pytest.approx(0.5, rel=0.05)

    def test_triplet(self):
        grid = np.linspace(-12, 12, 6001)
        vals = (
            lorentzian(grid, 0.0, 0.5, 1.0)
            + lorentzian(grid, -5.0, 0.75, 0.4)
            + lorentzian(grid, +5.0, 0.75, 0.4)
        )
        peaks = peak_census(grid, vals)
        assert len(peaks) == 3
        assert [round(p.position) for p in peaks] == [-5, 0, 5]

    def test_prominence_filters_ripple(self):
        grid = np.linspace(0, 10, 2001)
        vals = lorentzian(grid, 5.0, 1.0, 1.0) + 1e-4 * np.sin(40 * grid)
        peaks = peak_census(grid, vals, prominence=0.02)
        assert len(peaks) == 1

    def test_widths_on_logarithmic_grid(self):
        """Half widths are interpolated in grid units, not sample counts."""
        grid = np.logspace(-2, 1, 2000)
        vals = lorentzian(grid, 1.0, 0.2, 1.0)
        peaks = peak_census(grid, vals)
        assert len(peaks) == 1
        assert peaks[0].half_width == pytest.approx(0.2, rel=0.05)

    def test_flat_trace(self):
        grid = np.linspace(0, 1, 50)
        assert peak_census(grid, np.ones(50)) == []


class TestZeroPeakHalfWidth:
    def test_recovers_lorentzian_width(self):
        grid = np.logspace(-4, 1, 400)
        vals = lorentzian(grid, 0.0, 3e-3, 2.0)
        w = zero_peak_half_width(grid, vals)
        assert w == pytest.approx(3e-3, rel=0.02)

    def test_baseline_offset(self):
        grid = np.logspace(-4, 1, 400)
        vals = 1.0 + lorentzian(grid, 0.0, 1e-2, 0.5)
        w = zero_peak_half_width(grid, vals, baseline=1.0)
        assert w == pytest.approx(1e-2, rel=0.02)

    def test_no_crossing_returns_none(self):
        grid = np.logspace(-2, 1, 50)
        vals = np.ones(50)
        assert zero_peak_half_width(grid, vals) is None

    def test_requires_positive_grid(self):
        with pytest.raises(ArgumentError):
            zero_peak_half_width(
                np.array([-1.0, 1.0]), np.array([1.0, 0.0])
            )
