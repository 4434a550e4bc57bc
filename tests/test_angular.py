"""Angular-momentum layer: coupling coefficients and the level scheme."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zeenoise import ArgumentError, LevelScheme
from zeenoise.angular import MAX_F, _racah, dipole_component

from helpers import sublevel

sympy = pytest.importorskip("sympy")
from sympy.physics.quantum.cg import CG as SympyCG  # noqa: E402

# _racah takes every angular momentum and projection doubled: 2j, 2m.


def test_known_value_1_0_1_0_2_0():
    # <1 0; 1 0 | 2 0> = sqrt(2/3)
    assert _racah(2, 0, 2, 0, 4, 0) == pytest.approx(0.816496580927726, abs=1e-15)


def test_stretched_state_is_unity():
    assert _racah(2, 2, 2, 2, 4, 4) == 1.0
    assert _racah(4, 4, 2, 2, 6, 6) == 1.0


def test_m_mismatch_gives_zero():
    assert _racah(2, 0, 2, 2, 4, 0) == 0.0


def test_triangle_violation_gives_zero():
    assert _racah(2, 0, 2, 0, 10, 0) == 0.0  # J = 5 > j1 + j2


def test_half_integer_arguments():
    # <1/2 1/2; 1/2 -1/2 | 0 0> = 1/sqrt(2); the 1 0 projection = +1/sqrt(2)
    assert _racah(1, 1, 1, -1, 2, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert _racah(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_against_sympy_many_cases():
    """Cross-check every allowed coefficient in a few (2j1, 2j2) families."""
    half = sympy.Rational(1, 2)
    for two_j1, two_j2 in [(2, 2), (2, 4), (1, 1), (3, 2), (4, 2)]:
        for two_J in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2):
            for two_m1 in range(-two_j1, two_j1 + 1, 2):
                for two_m2 in range(-two_j2, two_j2 + 1, 2):
                    if abs(two_m1 + two_m2) > two_J:
                        continue
                    args = (two_j1, two_m1, two_j2, two_m2, two_J, two_m1 + two_m2)
                    ref = float(SympyCG(*(half * a for a in args)).doit().evalf(20))
                    assert _racah(*args) == pytest.approx(ref, abs=5e-15), args


def test_orthonormality_in_J():
    # sum_J <j1 m1; j2 m2|J M><j1 m1'; j2 m2'|J M> = delta_{m1 m1'}, j1 = 1, j2 = 2
    for two_m1, two_m2 in [(0, 2), (2, -2), (-2, 0)]:
        two_M = two_m1 + two_m2
        for two_m1p in (-2, 0, 2):
            two_m2p = two_M - two_m1p
            if abs(two_m2p) > 4:
                continue
            total = sum(
                _racah(2, two_m1, 4, two_m2, two_J, two_M)
                * _racah(2, two_m1p, 4, two_m2p, two_J, two_M)
                for two_J in (2, 4, 6)
            )
            expected = 1.0 if two_m1p == two_m1 else 0.0
            assert total == pytest.approx(expected, abs=1e-14)


class TestLevelScheme:
    def test_dimensions_and_indexing(self):
        scheme = LevelScheme(fg=1, fe=2)
        assert scheme.n_ground == 3
        assert scheme.n_excited == 5
        assert scheme.n == 8

    def test_rejects_forbidden_transitions(self):
        with pytest.raises(ArgumentError):
            LevelScheme(fg=1, fe=3)  # |Fe-Fg| > 1
        with pytest.raises(ArgumentError):
            LevelScheme(fg=0, fe=0)  # 0 -> 0 is dipole-forbidden
        assert LevelScheme(fg=9, fe=10).n == 40  # F <= 10, as documented
        for fg, fe in ((10, 11), (10.5, 9.5)):
            with pytest.raises(ArgumentError, match="must be <= 10,"):
                LevelScheme(fg=fg, fe=fe)
        with pytest.raises(ArgumentError):
            LevelScheme(fg=0.7, fe=1.7)  # not (half-)integer
        with pytest.raises(ArgumentError):
            LevelScheme(fg=1, fe=1.5)  # integer to half-integer
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ArgumentError):
                LevelScheme(fg=bad, fe=1)
            with pytest.raises(ArgumentError):
                LevelScheme(fg=1, fe=bad)

    def test_half_integer_scheme(self):
        scheme = LevelScheme(fg=0.5, fe=1.5)
        assert scheme.n == 6


def test_dipole_lowering_block_structure():
    """Nonzero entries only connect ground rows to excited columns."""
    scheme = LevelScheme(fg=1, fe=2)
    for q in (-1, 0, 1):
        d = dipole_component(scheme, q)
        assert d.shape == (8, 8)
        assert np.all(d[:, : scheme.n_ground] == 0)
        assert np.all(d[scheme.n_ground :, :] == 0)
        # selection rule Mg = Me - q within the block
        for g in range(scheme.n_ground):
            for k in range(scheme.n_excited):
                mg, me = g - scheme.fg, k - scheme.fe
                if mg != me - q and d[g, scheme.n_ground + k] != 0:
                    raise AssertionError((q, mg, me))


def _rank1_coupling(two_fg, two_fe, q, two_me):
    """<Fg Me-q; 1 q | Fe Me> from the closed-form rank-1 table (Edmonds,
    Table 2, Condon-Shortley phases), as sign * sqrt(float(exact square)).

    a = 2Fg, b = 2Me, p = 2(Fg + Me), m = 2(Fg - Me); integers only.
    """
    a, b = two_fg, two_me
    p, m = a + b, a - b
    sign, num, den = {
        (2, 1): (1, p * (p + 2), 4 * (a + 1) * (a + 2)),
        (2, 0): (1, (m + 2) * (p + 2), 2 * (a + 1) * (a + 2)),
        (2, -1): (1, m * (m + 2), 4 * (a + 1) * (a + 2)),
        (0, 1): (-1, p * (m + 2), 2 * a * (a + 2)),
        (0, 0): (1 if b >= 0 else -1, b * b, a * (a + 2)),
        (0, -1): (1, m * (p + 2), 2 * a * (a + 2)),
        (-2, 1): (1, m * (m + 2), 4 * a * (a + 1)),
        (-2, 0): (-1, m * p, 2 * a * (a + 1)),
        (-2, -1): (1, p * (p + 2), 4 * a * (a + 1)),
    }[two_fe - two_fg, q]
    return sign * math.sqrt(float(Fraction(num, den)))


def test_dipole_tables_equal_the_closed_form_rank1_table_bitwise():
    """Every dipole-allowed Fg -> Fe up to MAX_F, every q: each entry of d_q
    equals the closed-form coefficient to the last bit. This reaches F > 2,
    where the sympy cross-check stops, by a route independent of the Racah
    sum."""
    for two_fg in range(2 * MAX_F + 1):
        for two_fe in (two_fg - 2, two_fg, two_fg + 2):
            if not 0 <= two_fe <= 2 * MAX_F or two_fg == two_fe == 0:
                continue
            scheme = LevelScheme(Fraction(two_fg, 2), Fraction(two_fe, 2))
            for q in (-1, 0, 1):
                expected = np.zeros((scheme.n, scheme.n))
                for g in range(scheme.n_ground):
                    two_me = 2 * g - two_fg + 2 * q
                    if abs(two_me) <= two_fe:
                        e = scheme.n_ground + (two_me + two_fe) // 2
                        expected[g, e] = _rank1_coupling(two_fg, two_fe, q, two_me)
                d = dipole_component(scheme, q)
                assert np.array_equal(d, expected), (two_fg, two_fe, q)


def test_dipole_entries_are_cg_values():
    scheme = LevelScheme(fg=1, fe=2)
    d0 = dipole_component(scheme, 0)
    g, e = sublevel(scheme, 0), sublevel(scheme, 0, excited=True)
    assert d0[g, e] == pytest.approx(_racah(2, 0, 2, 0, 4, 0), abs=1e-15)


def test_branching_closure():
    """sum_q d_q^T d_q equals the excited projector exactly."""
    for fg, fe in [(1, 2), (1, 1), (2, 2), (0.5, 1.5), (2, 1), (4, 5)]:
        scheme = LevelScheme(fg=fg, fe=fe)
        total = sum(
            dipole_component(scheme, q).T @ dipole_component(scheme, q)
            for q in (-1, 0, 1)
        )
        assert np.allclose(total, scheme.excited_projector(), atol=1e-14)


def test_dipole_invalid_component():
    scheme = LevelScheme(fg=1, fe=2)
    for q in (-1, 0, 1):
        dipole_component(scheme, q)  # memoized tables skip no check
    for bad in (2, -2, 0.5, None):
        with pytest.raises(ArgumentError):
            dipole_component(scheme, bad)


def test_dipole_component_returns_a_fresh_copy():
    """The memoized table never leaks: mutating one result changes no other."""
    scheme = LevelScheme(fg=1, fe=2)
    a = dipole_component(scheme, 1)
    b = dipole_component(scheme, 1)
    assert np.array_equal(a, b)
    assert not np.shares_memory(a, b)
    reference = b.copy()
    a[:] = 7.0
    assert np.array_equal(dipole_component(scheme, 1), reference)
