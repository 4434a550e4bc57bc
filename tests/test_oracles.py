"""Reference-result modules: Mollow spectrum, regression spectrum, closed forms."""

import numpy as np
import pytest

from zeenoise import (
    ArgumentError,
    DriveConfig,
    LevelScheme,
    PolarizationMode,
    build_generator,
    steady_state,
)
from zeenoise.conventions import unvec, vec
from zeenoise.oracles import mollow_spectrum, qrt_spectrum, two_level_reference

SCHEME = LevelScheme(fg=1, fe=2, gamma=1.0)
CIRC = PolarizationMode.CIRCULAR


class TestMollowSpectrum:
    def test_strong_drive_triplet_ratio(self):
        """Central peak to sideband height ratio approaches 3:1."""
        rabi = 20.0
        center = mollow_spectrum(np.array([1e-6]), rabi)[0]
        side = mollow_spectrum(np.array([rabi]), rabi)[0]
        assert center / side == pytest.approx(3.0, rel=0.02)

    def test_even_in_frequency(self):
        w = np.array([0.3, 1.7, 4.2])
        for det in (0.0, 1.0, -2.0):
            assert np.allclose(
                mollow_spectrum(w, 1.0, det),
                mollow_spectrum(-w, 1.0, det),
                atol=1e-14,
            )

    def test_vanishes_far_from_resonance(self):
        tail = mollow_spectrum(np.array([1e4]), 1.0)[0]
        assert abs(tail) < 1e-6

    def test_integral_equals_incoherent_population(self):
        """(1/2pi) integral S dOmega = p - |<s->|^2 (total inelastic power)."""
        rabi, det, gamma = 1.5, 0.4, 1.0
        w = np.linspace(-60, 60, 12001)
        s = mollow_spectrum(w, rabi, det, gamma)
        integral = np.trapezoid(s, w) / (2 * np.pi)
        ref = two_level_reference(rabi, det, gamma)
        expected = ref.excited_population - abs(ref.coherence) ** 2
        assert integral == pytest.approx(expected, rel=1e-3)

    def test_positive(self):
        w = np.linspace(-30, 30, 301)
        assert mollow_spectrum(w, 5.0, 1.0).min() > -1e-12

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ArgumentError):
            mollow_spectrum(np.array([1.0]), 0.0)
        with pytest.raises(ArgumentError):
            mollow_spectrum(np.array([1.0]), 1.0, gamma=-1.0)


class TestQrtSpectrum:
    def setup_method(self):
        self.liou = build_generator(
            SCHEME, DriveConfig(basis=CIRC, rabi=1.2, detuning=0.3)
        )
        self.steady = steady_state(self.liou)

    def test_identity_operator_gives_zero(self):
        eye = np.eye(8, dtype=complex)
        out = qrt_spectrum(
            self.liou, self.steady, eye, eye, np.array([0.5, 2.0])
        )
        assert np.abs(out).max() < 1e-12

    def test_hermitian_pair_is_nonnegative_spectrum(self):
        op = CIRC.operator(SCHEME, 1)
        w = np.linspace(-8, 8, 32)  # even count keeps Omega = 0 off the grid
        two_sided = 2 * qrt_spectrum(
            self.liou, self.steady, op.conj().T, op, w
        ).real
        assert two_sided.min() > -1e-12

    def test_zero_frequency_is_rejected(self):
        from zeenoise import NumericalError

        op = CIRC.operator(SCHEME, 1)
        with pytest.raises(NumericalError):
            qrt_spectrum(
                self.liou, self.steady, op.conj().T, op, np.array([0.0])
            )

    def test_matches_mollow_oracle_on_stretched_pair(self):
        """Two independent routes to the same physics: the 64-dimensional
        regression solve against the hand-written 3-variable Bloch result."""
        for rabi, det in [(0.7, 0.0), (2.0, 0.0), (1.0, 1.0)]:
            liou = build_generator(
                SCHEME, DriveConfig(basis=CIRC, rabi=rabi, detuning=det)
            )
            steady = steady_state(liou)
            op = CIRC.operator(SCHEME, 1)
            w = np.array([0.1, 0.9, 2.3, 5.0])
            ours = 2 * qrt_spectrum(liou, steady, op.conj().T, op, w).real
            ref = mollow_spectrum(w, rabi, det)
            assert np.allclose(ours, ref, rtol=1e-9, atol=1e-13)

    def test_each_distinct_frequency_is_solved_once(self, monkeypatch):
        """A grid with repeated, mixed-sign entries, taken as |Omega| the way
        the runner passes it: one solve per distinct value, and every entry
        bitwise equal to a per-entry solve loop."""
        op = CIRC.operator(SCHEME, 1)
        rho = self.steady
        wabs = np.abs([2.0, -0.5, 1e-3, 0.5, 2.0, -2.0])
        seed = vec(op @ rho - np.trace(op @ rho) * rho)
        eye = np.eye(64)
        expected = [
            np.trace(op.conj().T @ unvec(
                np.linalg.solve(-1j * w * eye - self.liou.generator, seed)
            ))
            for w in wabs
        ]
        solved = []
        solve = np.linalg.solve

        def counting(a, b):
            solved.append(a)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        out = qrt_spectrum(self.liou, rho, op.conj().T, op, wabs)
        assert len(solved) == len(np.unique(wabs)) == 3
        assert np.array_equal(out, expected)

    def test_decays_at_large_frequency(self):
        op = CIRC.operator(SCHEME, 1)
        far = qrt_spectrum(
            self.liou, self.steady, op.conj().T, op, np.array([1e5])
        )
        assert abs(far[0]) < 1e-4


class TestTwoLevelReference:
    def test_saturation_curve(self):
        assert two_level_reference(1.0).excited_population == pytest.approx(
            1.0 / 3.0
        )
        assert two_level_reference(1e-4).excited_population == pytest.approx(
            (1e-4) ** 2 / 4 / 0.25, rel=1e-6
        )
        assert two_level_reference(1e4).excited_population == pytest.approx(
            0.5, abs=1e-6
        )

    def test_coherence_vanishes_at_strong_drive(self):
        weak = abs(two_level_reference(0.01).coherence)
        strong = abs(two_level_reference(100.0).coherence)
        assert strong < weak

    def test_susceptibility_on_resonance_is_imaginary(self):
        chi = two_level_reference(0.1, 0.0).susceptibility
        assert chi.real == pytest.approx(0.0, abs=1e-15)
        assert chi.imag == pytest.approx(1.0)

    def test_susceptibility_ratio_at_detuning(self):
        # Re/Im = -2 detuning / gamma
        for det in (0.5, 1.0, -2.0):
            chi = two_level_reference(0.1, det).susceptibility
            assert chi.real / chi.imag == pytest.approx(-2 * det, rel=1e-12)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ArgumentError):
            two_level_reference(1.0, gamma=0.0)
