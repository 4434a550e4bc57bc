"""Polarization modes, input spectral matrices, quadrature combinations."""

import numpy as np
import pytest

from zeenoise import (
    ArgumentError,
    LevelScheme,
    PolarizationMode,
    excess_noise_input,
    quadrature_noise,
)
from zeenoise.angular import dipole_component
from zeenoise.field import SpectralMatrix

SCHEME = LevelScheme(fg=1, fe=2)


def test_coherent_input_is_shot_noise_only():
    m = excess_noise_input(0.0, 0.0)
    assert m.s11 == 1.0
    assert m.s12 == m.s21 == m.s22 == 0.0


def test_coherent_quadratures_are_flat():
    m = excess_noise_input(0.0, 0.0)
    for theta in np.linspace(0, np.pi, 7):
        assert quadrature_noise(m, theta) == pytest.approx(1.0)


def test_excess_noise_quadratures():
    """eps_a feeds theta=0, eps_p feeds theta=pi/2, white in frequency."""
    m = excess_noise_input(2.0, 10.0)
    assert quadrature_noise(m, 0.0) == pytest.approx(3.0)  # 1 + eps_a
    assert quadrature_noise(m, np.pi / 2) == pytest.approx(11.0)
    # intermediate angle interpolates through cos^2/sin^2 weights
    th = 0.3
    expected = 1 + 2.0 * np.cos(th) ** 2 + 10.0 * np.sin(th) ** 2
    assert quadrature_noise(m, th) == pytest.approx(expected)


def test_excess_noise_never_below_shot_noise():
    m = excess_noise_input(0.7, 0.0)
    for theta in np.linspace(0, 2 * np.pi, 41):
        assert quadrature_noise(m, theta) >= 1.0 - 1e-12


def test_excess_noise_is_linear_in_fractions():
    a = excess_noise_input(1.0, 0.0)
    b = excess_noise_input(0.0, 3.0)
    c = excess_noise_input(2.0, 3.0)
    # the vacuum part must not double when adding excesses
    assert c.s11 == pytest.approx(a.s11 + (a.s11 - 1.0) + b.s11 - 1.0)
    assert c.s12 == pytest.approx(2 * a.s12 + b.s12)


def test_negative_fractions_rejected():
    with pytest.raises(ArgumentError):
        excess_noise_input(-0.1, 0.0)


def test_overflowing_excess_rejected():
    """eps_a + eps_p past the float range would make S11 = inf."""
    with pytest.raises(ArgumentError, match=r"^eps_a \+ eps_p must be finite"):
        excess_noise_input(1e308, 1e308)
    assert excess_noise_input(1e308, 0.0).s11 == 1.0 + 2.5e307


def test_input_noise_matrix_roundtrip():
    m = excess_noise_input(0.5, 2.0)
    assert m.s22 == pytest.approx((0.5 + 2.0) / 4)
    assert m.s12 == pytest.approx((0.5 - 2.0) / 4)


def test_spectral_matrix_addition_broadcasts_over_grid():
    ones = np.ones(3)
    arrays = SpectralMatrix(ones, 0.2j * ones, -0.3 * ones, 0.5 * ones)
    total = excess_noise_input(2.0, 6.0) + arrays  # s = 2, d = -1
    assert np.array_equal(total.s11, 4.0 * ones)
    assert np.array_equal(total.s12, (-1.0 + 0.2j) * ones)
    assert np.array_equal(total.s21, -1.3 * ones)
    assert np.array_equal(total.s22, 2.5 * ones)


class TestPolarizationGeometry:
    def test_circular_components(self):
        mode = PolarizationMode.CIRCULAR
        assert np.array_equal(mode.operator(SCHEME, 1), dipole_component(SCHEME, +1))
        assert np.array_equal(mode.operator(SCHEME, 2), dipole_component(SCHEME, -1))

    def test_linear_components(self):
        mode = PolarizationMode.LINEAR
        assert np.array_equal(mode.operator(SCHEME, 1), dipole_component(SCHEME, 0))
        expected = (
            1j
            / np.sqrt(2)
            * (dipole_component(SCHEME, -1) - dipole_component(SCHEME, +1))
        )
        assert np.allclose(mode.operator(SCHEME, 2), expected)

    def test_component_dispatch(self):
        for mode in PolarizationMode:
            for component in (0, 3):
                with pytest.raises(ArgumentError):
                    mode.operator(SCHEME, component)

    def test_orthogonal_mode_normalization(self):
        """Both mode operators carry the same total coupling weight."""
        for mode in PolarizationMode:
            d2 = mode.operator(SCHEME, 2)
            w = np.trace(d2.conj().T @ d2).real
            d2c = dipole_component(SCHEME, -1)
            assert w == pytest.approx(np.trace(d2c.T @ d2c), rel=1e-12)
