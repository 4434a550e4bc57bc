"""Reference-result modules: Mollow spectrum, regression spectrum, closed forms."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeenoise import oracles

from zeenoise import (
    ArgumentError,
    DriveConfig,
    LevelScheme,
    PolarizationMode,
    build_generator,
    steady_state,
)
from zeenoise.conventions import unvec, vec
from zeenoise.dynamics import coherence_blocks
from zeenoise.oracles import (
    _bloch_matrix,
    mollow_spectrum,
    qrt_spectrum,
)

from helpers import two_level_reference

SCHEME = LevelScheme(fg=1, fe=2)
CIRC = PolarizationMode.CIRCULAR
BLOCK_PAIRS = [(0.5, 1.5), (1, 1), (1, 2), (2, 1), (1.5, 1.5), (2, 3), (4, 5)]


def mollow_per_entry(omega, rabi, detuning=0.0):
    """mollow_spectrum as one pair of 3x3 solves per frequency."""
    a = _bloch_matrix(rabi, detuning)
    b = np.array([1j * rabi / 2, -1j * rabi / 2, 0.0], dtype=complex)
    s_minus, s_plus, p = np.linalg.solve(a, -b)
    g0 = np.array(
        [-s_minus**2, p - s_plus * s_minus, -p * s_minus], dtype=complex
    )
    h0 = np.array(
        [p - s_plus * s_minus, -s_plus**2, -s_plus * p], dtype=complex
    )
    eye = np.eye(3)
    out = np.empty(omega.shape, dtype=float)
    for i, w in enumerate(omega):
        forward = np.linalg.solve(-1j * w * eye - a, g0)[1]
        backward = np.linalg.solve(1j * w * eye - a, h0)[0]
        out[i] = (forward + backward).real
    return out


class TestMollowSpectrum:
    def test_stacked_solve_equals_per_entry_solves(self):
        """Bit for bit, on grids with negative, repeated and single Omega."""
        rng = np.random.default_rng(15)
        grids = [np.array([0.7]), np.array([-2.5]), np.array([1.0, 1.0, -1.0])]
        for _ in range(40):
            w = rng.normal(scale=10.0, size=rng.integers(1, 60))
            grids.append(np.concatenate((w, w[: rng.integers(0, len(w) + 1)])))
        for w in grids:
            rabi = rng.uniform(0.05, 20.0)
            for det in (rng.uniform(0.1, 5.0), 0.0, -rng.uniform(0.1, 5.0)):
                got = mollow_spectrum(w, rabi, det)
                assert np.array_equal(got, mollow_per_entry(w, rabi, det))

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
        rabi, det = 1.5, 0.4
        w = np.linspace(-60, 60, 12001)
        s = mollow_spectrum(w, rabi, det)
        integral = np.trapezoid(s, w) / (2 * np.pi)
        ref = two_level_reference(rabi, det)
        expected = ref.excited_population - abs(ref.coherence) ** 2
        assert integral == pytest.approx(expected, rel=1e-3)

    def test_positive(self):
        w = np.linspace(-30, 30, 301)
        assert mollow_spectrum(w, 5.0, 1.0).min() > -1e-12

    def test_rejects_nonpositive_rates(self):
        for rabi in (0.0, -1.0):
            with pytest.raises(ArgumentError, match="rabi must be positive"):
                mollow_spectrum(np.array([1.0]), rabi)

    def test_defaults_are_resonant_drive_and_unit_decay(self):
        w = np.array([-2.0, 0.4, 3.0])
        default = mollow_spectrum(w, 1.3)
        assert np.array_equal(default, mollow_spectrum(w, 1.3, 0.0))


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

    def test_singular_stack_names_its_frequency_range(self, monkeypatch):
        from zeenoise import NumericalError

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        op = CIRC.operator(SCHEME, 1)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match=r"at an Omega in \[0.5, 2.0\]"):
            qrt_spectrum(
                self.liou, self.steady, op.conj().T, op, np.array([2.0, 0.5, 1.0])
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
        the runner passes it: the driven seed touches the Delta = 0 block
        only, which is solved in one stack holding one row per distinct
        value, and every entry agrees with the dense per-entry solve."""
        op = CIRC.operator(SCHEME, 1)
        rho = self.steady
        wabs = np.abs([2.0, -0.5, 1e-3, 0.5, 2.0, -2.0])
        seed = vec(op @ rho - np.trace(op @ rho) * rho)
        eye = np.eye(64)
        expected = np.array([
            np.trace(op.conj().T @ unvec(
                np.linalg.solve(-1j * w * eye - self.liou.generator, seed)
            ))
            for w in wabs
        ])
        solved = []
        solve = np.linalg.solve

        def counting(a, b):
            solved.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        out = qrt_spectrum(self.liou, rho, op.conj().T, op, wabs)
        size = int(np.sum(coherence_blocks(SCHEME, CIRC) == 0))
        assert solved == [(len(np.unique(wabs)), size, size)] == [(3, 14, 14)]
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_decays_at_large_frequency(self):
        op = CIRC.operator(SCHEME, 1)
        far = qrt_spectrum(
            self.liou, self.steady, op.conj().T, op, np.array([1e5])
        )
        assert abs(far[0]) < 1e-4


def _numpy1_solve(a, b):
    """np.linalg.solve as numpy 1.x dispatches it: b is a stack of vectors
    whenever it has one axis fewer than a (numpy 2 reads only a 1-D b so)."""
    from numpy.linalg import _umath_linalg

    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    gufunc = _umath_linalg.solve1 if b.ndim == a.ndim - 1 else _umath_linalg.solve
    return gufunc(a, b, signature="DD->D")


def test_stacked_solves_read_alike_under_numpy_1_dispatch(monkeypatch):
    """pyproject admits numpy >= 1.24, whose solve reads a right-hand side
    by its number of axes: both oracles' stacked solves must give the same
    values under that rule as under the installed numpy."""
    liou = build_generator(SCHEME, DriveConfig(basis=CIRC, rabi=1.2))
    rho = steady_state(liou)
    op = CIRC.operator(SCHEME, 1)
    grid = np.array([0.5, 1.0, 2.0])
    expected = (
        qrt_spectrum(liou, rho, op.conj().T, op, grid),
        mollow_spectrum(grid, 1.2),
        mollow_spectrum(np.array([[0.5, 1.0], [2.0, 3.0]]), 1.2),
    )
    monkeypatch.setattr(np.linalg, "solve", _numpy1_solve)
    got = (
        qrt_spectrum(liou, rho, op.conj().T, op, grid),
        mollow_spectrum(grid, 1.2),
        mollow_spectrum(np.array([[0.5, 1.0], [2.0, 3.0]]), 1.2),
    )
    for x, y in zip(got, expected):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("mode", list(PolarizationMode), ids=lambda m: m.value)
@pytest.mark.parametrize("fg, fe", BLOCK_PAIRS, ids=str)
@settings(max_examples=3, deadline=None)
@given(
    rabi=st.floats(0.05, 5.0),
    detuning=st.floats(-3.0, 3.0),
    magnitudes=st.lists(st.floats(0.05, 20.0), min_size=6, max_size=8, unique=True),
    chunk=st.integers(1, 5),
    order_zero_rho=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_solve_matches_dense_regression_formula(
    fg, fe, mode, rabi, detuning, magnitudes, chunk, order_zero_rho, seed
):
    """Both components of the block oracle agree with the dense formula
    Tr(A unvec(solve(-i w I - G, seed))) within 1e-12 of the column maximum,
    on a grid with repeated and mixed-sign entries. rho is a random density
    matrix, kept whole (the seed touches every coherence order) or cut to
    the Delta = 0 block as a steady state is (linear e2's seed then spans
    Delta = +-1 only). _CHUNK is patched below the number of distinct
    frequencies, so the stacks cross chunk boundaries on a grid short
    enough for the dense reference at F = 4->5."""
    scheme = LevelScheme(fg=fg, fe=fe)
    liou = build_generator(
        scheme, DriveConfig(basis=mode, rabi=rabi, detuning=detuning)
    )
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(scheme.n,) * 2) + 1j * rng.normal(size=(scheme.n,) * 2)
    rho = x @ x.conj().T
    if order_zero_rho:
        rho = unvec(vec(rho) * (coherence_blocks(scheme, mode) == 0))
    rho /= np.trace(rho)
    w = np.array(magnitudes) * rng.choice([-1.0, 1.0], size=len(magnitudes))
    omega = np.concatenate((w, -w[:2], w[:2]))
    assert len(np.unique(omega)) > chunk

    ops = [mode.operator(scheme, c) for c in (1, 2)]
    seeds = np.stack([vec(b @ rho - np.trace(b @ rho) * rho) for b in ops], 1)
    eye = np.eye(scheme.n**2)
    dense = []
    for v in omega:
        sols = np.linalg.solve(-1j * v * eye - liou.generator, seeds)
        dense.append([np.trace(b.conj().T @ unvec(s)) for b, s in zip(ops, sols.T)])
    dense = np.array(dense)
    with mock.patch.object(oracles, "_CHUNK", chunk):
        for b, expected in zip(ops, dense.T):
            got = qrt_spectrum(liou, rho, b.conj().T, b, omega)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


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
