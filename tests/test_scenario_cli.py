"""Scenario files, validation diagnostics, CLI behavior, output format."""

import contextlib
import io
import json
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeenoise import (
    ArgumentError,
    DriveConfig,
    LevelScheme,
    MediumParams,
    PolarizationMode,
    ScenarioError,
    amplitude_quadrature_angle,
    build_generator,
    diffusion_matrix,
    excess_noise_input,
    load_scenario,
    optical_spectrum,
    propagate,
    quadrature_noise,
    steady_state,
    validate_scenario,
)
from zeenoise import runner
from zeenoise.cli import PRESET_GROUPS, main
from zeenoise.propagation import Atoms
from zeenoise.scenario import GridSpec, Scenario, SweepSpec, point_inputs

GOOD = """
[scenario]
name = demo

[transition]
fg = 1
fe = 2
gamma = 1.0

[drive]
polarization = linear
rabi = 0.5
detuning = 0.25

[medium]
b0 = 0.2

[input]
eps_a = 0.0
eps_p = 3.0

[grid]
omega_min = 1e-3
omega_max = 5.0
count = 7
spacing = log

[sweep]
parameter = rabi
values = 0.5, 1.0

[output]
oracles = qrt
quadrature = amplitude
"""


def write(tmp_path, text, name="scn.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoading:
    def test_full_roundtrip(self, tmp_path):
        s = load_scenario(write(tmp_path, GOOD))
        assert s.name == "demo"
        assert (s.fg, s.fe, s.gamma) == (1.0, 2.0, 1.0)
        assert s.polarization == "linear"
        assert s.rabi == 0.5
        assert s.detuning == 0.25
        assert s.b0 == 0.2
        assert s.eps_p == 3.0
        assert s.grid.count == 7
        assert s.grid.spacing == "log"
        assert s.sweep.parameter == "rabi"
        assert s.sweep.values == (0.5, 1.0)
        assert s.oracles == ("qrt",)
        assert s.quadrature_theta is None

    def test_name_defaults_to_file_stem(self, tmp_path):
        text = GOOD.replace("[scenario]\nname = demo\n", "")
        s = load_scenario(write(tmp_path, text, name="myrun.ini"))
        assert s.name == "myrun"

    def test_defaults(self, tmp_path):
        text = """
[transition]
fg = 1
fe = 2
[drive]
polarization = circular
rabi = 1.0
[medium]
b0 = 0.1
[grid]
omega_min = 0.1
omega_max = 1.0
count = 3
"""
        s = load_scenario(write(tmp_path, text))
        assert s.gamma == 1.0
        assert s.detuning == 0.0
        assert s.eps_a == 0.0 and s.eps_p == 0.0
        assert s.sweep is None
        assert s.oracles == ()
        # a Scenario built in code defaults as a file without those keys
        assert s == Scenario(
            name=s.name, fg=1.0, fe=2.0, polarization="circular", rabi=1.0,
            detuning=0.0, b0=0.1, grid=GridSpec(0.1, 1.0, 3),
        )

    def test_bad_number_names_section_and_key(self, tmp_path):
        text = GOOD.replace("rabi = 0.5", "rabi = fast")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write(tmp_path, text))
        assert "[drive]" in str(err.value)
        assert "rabi" in str(err.value)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_number_names_section_and_key(self, tmp_path, raw):
        """The loader reads any float; validation names the key it rejects."""
        text = GOOD.replace("b0 = 0.2", f"b0 = {raw}")
        s = load_scenario(write(tmp_path, text))
        assert validate_scenario(s) == (
            [], [f"medium.b0 must be a finite number, got {float(raw)!r}"]
        )

    def test_missing_section(self, tmp_path):
        text = GOOD.replace("[medium]\nb0 = 0.2\n", "")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write(tmp_path, text))
        assert "medium" in str(err.value)

    def test_bad_polarization(self, tmp_path):
        text = GOOD.replace("polarization = linear", "polarization = radial")
        s = load_scenario(write(tmp_path, text))
        assert validate_scenario(s)[1] == [
            "drive.polarization must be one of ('circular', 'linear'), got 'radial'"
        ]

    def test_unknown_oracle(self, tmp_path):
        text = GOOD.replace("oracles = qrt", "oracles = tarot")
        s = load_scenario(write(tmp_path, text))
        assert validate_scenario(s)[1] == [
            "output.oracles must be distinct names from ('qrt', 'mollow'), "
            "got ('tarot',)"
        ]

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.ini")

    def test_undecodable_file_is_scenario_error(self, tmp_path):
        path = tmp_path / "scn.ini"
        path.write_bytes(GOOD.encode().replace(b"b0 = 0.2", b"b0 = 0.2\xff"))
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario(path)

    @pytest.mark.parametrize("old, new, where", [
        ("b0 = 0.2", "b0 = 10%", "[medium] b0: "),
        ("name = demo", "name = 50%", "[scenario] name: "),
        ("rabi = 0.5", "rabi = %(missing)s", "[drive] rabi: "),
    ])
    def test_interpolation_error_names_section_and_key(
        self, tmp_path, old, new, where
    ):
        with pytest.raises(ScenarioError) as err:
            load_scenario(write(tmp_path, GOOD.replace(old, new)))
        assert str(err.value).startswith(f"{tmp_path / 'scn.ini'}: {where}")

    def test_quadrature_angle(self, tmp_path):
        text = GOOD.replace("quadrature = amplitude", "quadrature = 1.5708")
        s = load_scenario(write(tmp_path, text))
        assert s.quadrature_theta == pytest.approx(1.5708)
        for end in (np.pi, -np.pi):  # the range is closed, as np.angle's is
            text = GOOD.replace("quadrature = amplitude", f"quadrature = {end!r}")
            s = load_scenario(write(tmp_path, text))
            assert s.quadrature_theta == end
            assert validate_scenario(s) == ([], [])

    @pytest.mark.parametrize("raw, expected", [
        ("true", True), ("yes", True), ("off", False),
    ])
    def test_symmetrize_reads_a_boolean(self, tmp_path, raw, expected):
        text = GOOD.replace("spacing = log", f"spacing = log\nsymmetrize = {raw}")
        assert load_scenario(write(tmp_path, text)).grid.symmetrize is expected


class TestGridSpec:
    def test_log_build(self):
        g = GridSpec(1e-2, 1e2, 5, "log").build()
        assert g[0] == pytest.approx(1e-2)
        assert g[-1] == pytest.approx(1e2)
        assert np.allclose(np.diff(np.log10(g)), 1.0)

    def test_linear_build(self):
        g = GridSpec(0.0, 1.0, 5, "linear").build()
        assert np.allclose(g, [0, 0.25, 0.5, 0.75, 1.0])

    def test_symmetrize(self):
        g = GridSpec(0.1, 10.0, 4, "log", symmetrize=True).build()
        assert g.size == 8
        assert np.allclose(g, -g[::-1])


class TestValidation:
    def base(self, tmp_path, **replacements):
        text = GOOD
        for old, new in replacements.items():
            assert old in text
            text = text.replace(old, new)
        return load_scenario(write(tmp_path, text))

    def test_good_scenario_is_clean(self, tmp_path):
        warnings, errors = validate_scenario(self.base(tmp_path))
        assert errors == []
        assert warnings == []

    def test_high_density_warns(self, tmp_path):
        s = self.base(tmp_path, **{"b0 = 0.2": "b0 = 5"})
        warnings, errors = validate_scenario(s)
        assert errors == []
        assert any("b0" in w for w in warnings)

    def test_negative_excess_noise_is_error(self, tmp_path):
        s = self.base(tmp_path, **{"eps_p = 3.0": "eps_p = -1"})
        warnings, errors = validate_scenario(s)
        assert any("eps_p" in e for e in errors)

    def test_missing_grid_is_error(self, tmp_path):
        text = GOOD
        start = text.index("[grid]")
        end = text.index("[sweep]")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write(tmp_path, text[:start] + text[end:]))
        assert "[grid] omega_min: missing required section" in str(err.value)

    def test_tiny_grid_is_error(self, tmp_path):
        s = self.base(tmp_path, **{"count = 7": "count = 1"})
        _, errors = validate_scenario(s)
        assert any("count" in e for e in errors)

    def test_log_grid_must_be_positive(self, tmp_path):
        s = self.base(tmp_path, **{"omega_min = 1e-3": "omega_min = 0"})
        _, errors = validate_scenario(s)
        assert errors

    def test_zero_frequency_on_linear_grid_is_error(self, tmp_path):
        s = self.base(
            tmp_path,
            **{
                "omega_min = 1e-3": "omega_min = -1.0",
                "omega_max = 5.0": "omega_max = 1.0",
                "spacing = log": "spacing = linear",
                "count = 7": "count = 5",
            },
        )
        _, errors = validate_scenario(s)
        assert any("Omega = 0" in e for e in errors)

    def test_zero_rabi_warns(self, tmp_path):
        text = GOOD.replace("rabi = 0.5", "rabi = 0")
        start = text.index("[sweep]")
        end = text.index("[output]")
        s = load_scenario(write(tmp_path, text[:start] + text[end:]))
        warnings, _ = validate_scenario(s)
        assert any("rabi" in w for w in warnings)

    def test_unknown_sweep_parameter(self, tmp_path):
        s = self.base(tmp_path, **{"parameter = rabi": "parameter = phase"})
        assert validate_scenario(s)[1] == [
            "sweep.parameter must be one of ('rabi', 'detuning', 'b0', 'eps_p'), "
            "got 'phase'"
        ]

    def test_inverted_grid_bounds_is_error(self, tmp_path):
        s = self.base(tmp_path, **{"omega_min = 1e-3": "omega_min = 5.0"})
        _, errors = validate_scenario(s)
        assert any("grid bounds are inverted" in e for e in errors)

    def test_negative_sweep_value_is_error(self, tmp_path):
        s = self.base(tmp_path, **{"values = 0.5, 1.0": "values = 1 -0.5"})
        _, errors = validate_scenario(s)
        assert errors == ["drive.rabi must be >= 0, got -0.5"]

    def test_sweep_value_messages_reported_once(self, tmp_path):
        s = self.base(
            tmp_path,
            **{
                "parameter = rabi": "parameter = b0",
                "values = 0.5, 1.0": "values = -1 -1 0.1",
            },
        )
        _, errors = validate_scenario(s)
        assert errors == ["medium.b0 must be >= 0, got -1.0"]

    def test_colliding_labels_is_error(self, tmp_path):
        s = self.base(
            tmp_path,
            **{
                "parameter = rabi": "parameter = b0",
                "values = 0.5, 1.0": "values = 0.1 0.1000001",
            },
        )
        _, errors = validate_scenario(s)
        assert errors == [
            "sweep.values 0.1 and 0.1000001 share the table label 'demo_b0_0.1'"
        ]

    def test_points_label_each_distinct_sweep_value(self, tmp_path):
        s = self.base(tmp_path, **{"values = 0.5, 1.0": "values = 0.5 1 0.5"})
        assert [(label, value, p.rabi) for label, value, p in s.points()] == [
            ("demo_rabi_0.5", 0.5, 0.5), ("demo_rabi_1", 1.0, 1.0)
        ]
        assert validate_scenario(s) == ([], [])
        text = GOOD[: GOOD.index("[sweep]")] + GOOD[GOOD.index("[output]"):]
        unswept = load_scenario(write(tmp_path, text))
        assert unswept.points() == [("demo", None, unswept)]

    # k = ground rows of the driven dipole component that are all zero.
    @pytest.mark.parametrize("fg, fe, polarization, dark, exit_code", [
        (1, 2, "linear", 0, 0),
        (1, 2, "circular", 0, 0),
        (1.5, 1.5, "linear", 0, 0),
        (1, 1, "linear", 1, 0),
        (2, 2, "circular", 1, 0),
        (1.5, 1.5, "circular", 1, 0),
        (1, 0, "linear", 2, 2),
        (2, 1, "circular", 2, 2),
        (1.5, 0.5, "linear", 2, 2),
    ])
    def test_dark_ground_sublevels_warn(
        self, tmp_path, monkeypatch, fg, fe, polarization, dark, exit_code
    ):
        """One dark sublevel is a warning; two leave no unique steady state,
        so they are an error and nothing is built."""
        text = NOSWEEP.replace("fg = 1\nfe = 2", f"fg = {fg}\nfe = {fe}").replace(
            "polarization = circular", f"polarization = {polarization}"
        ).replace("oracles = qrt mollow", "oracles = qrt")
        scn = write(tmp_path, text)
        warnings, errors = validate_scenario(load_scenario(scn))
        prefix = f"transition: {dark} ground sublevel(s) dark to the {polarization}"
        if dark == 0:
            assert (warnings, errors) == ([], [])
        elif dark == 1:
            [warning] = warnings
            assert errors == []
            assert warning.startswith(prefix) and "round-off" in warning
        else:
            [error] = errors
            assert warnings == []
            assert error.startswith(prefix) and "not unique" in error

            def no_build(*args):
                raise AssertionError("build_generator was called")

            monkeypatch.setattr(runner, "build_generator", no_build)
        out = tmp_path / "out"
        assert main(["validate", str(scn)]) == exit_code
        assert main(["run", str(scn), "--out", str(out)]) == exit_code
        assert out.exists() == (exit_code == 0)

    def test_range_errors_are_the_constructors_own(self, tmp_path):
        s = self.base(
            tmp_path,
            **{
                "values = 0.5, 1.0": "values = -0.5",
                "b0 = 0.2": "b0 = -0.1",
                "eps_p = 3.0": "eps_p = -2.0",
            },
        )
        _, errors = validate_scenario(s)
        assert errors == [
            "drive.rabi must be >= 0, got -0.5",
            "medium.b0 must be >= 0, got -0.1",
            "input.eps_p must be >= 0, got -2.0",
        ]
        basis = PolarizationMode.LINEAR
        with pytest.raises(ArgumentError, match=r"^rabi must be >= 0, got -0\.5$"):
            DriveConfig(basis, -0.5)
        with pytest.raises(ArgumentError, match=r"^b0 must be >= 0, got -0\.1$"):
            MediumParams(-0.1)
        with pytest.raises(ArgumentError, match=r"^eps_p must be >= 0, got -2\.0$"):
            excess_noise_input(0.0, -2.0)

    def test_huge_grid_validates_without_building(self, tmp_path, monkeypatch):
        def no_build(self):
            raise AssertionError("validate_scenario built the grid")

        monkeypatch.setattr(GridSpec, "build", no_build)
        text = GOOD.replace("spacing = log", "spacing = linear").replace(
            "count = 7", "count = 100000000000"
        )
        scn = write(tmp_path, text)
        _, errors = validate_scenario(load_scenario(scn))
        assert errors == ["grid.count must be <= 1000000, got 100000000000"]
        out = tmp_path / "results"
        assert main(["validate", str(scn)]) == 2
        assert main(["run", str(scn), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, changes, old, new", [
        ("drive.polarization", {"polarization": "radial"},
         "polarization = linear", "polarization = radial"),
        ("sweep.parameter", {"sweep": SweepSpec("phase", (1.0,))},
         "parameter = rabi", "parameter = phase"),
        ("grid.count", {"grid": GridSpec(1e-3, 5.0, 2.5)}, "count = 7", "count = 2.5"),
        ("grid.spacing", {"grid": GridSpec(1e-3, 5.0, 7, "cubic")},
         "spacing = log", "spacing = cubic"),
        ("output.oracles", {"oracles": ("foo",)}, "oracles = qrt", "oracles = foo"),
        ("sweep.parameter", {"sweep": SweepSpec("fg", (1.0,))},
         "parameter = rabi", "parameter = fg"),
        ("drive.rabi", {"rabi": float("nan")}, "rabi = 0.5", "rabi = nan"),
        ("output.quadrature", {"quadrature_theta": 1e308},
         "quadrature = amplitude", "quadrature = 1e308"),
        ("scenario.name", {"name": "../escape"}, "name = demo", "name = ../escape"),
        ("output.oracles", {"oracles": ("qrt", "qrt")},
         "oracles = qrt", "oracles = qrt qrt"),
        ("sweep.values", {"sweep": SweepSpec("rabi", ())},
         "values = 0.5, 1.0", "values ="),
        ("sweep.values", {"sweep": SweepSpec("rabi", (0.5, float("inf")))},
         "values = 0.5, 1.0", "values = 0.5 inf"),
    ], ids=[
        "polarization", "sweep_parameter", "fractional_count", "spacing",
        "unknown_oracle", "sweep_over_fg", "rabi_nan", "quadrature_1e308",
        "escaping_name", "duplicate_oracle", "empty_values", "infinite_value",
    ])
    def test_value_rules_hold_for_a_scenario_built_in_code(
        self, tmp_path, capsys, monkeypatch, key, changes, old, new
    ):
        """validate_scenario owns every value rule: a Scenario made with
        dataclasses.replace gets one error naming section.key, and nothing
        raises; the same value in a file makes `validate` and `run` exit 2
        and write nothing."""
        _, errors = validate_scenario(replace(self.base(tmp_path), **changes))
        assert [error.split(" must be ")[0] for error in errors] == [key]

        def no_build(*args):
            raise AssertionError("build_generator was called")

        monkeypatch.setattr(runner, "build_generator", no_build)
        scn = write(tmp_path, GOOD.replace(old, new))  # over the base file
        err = assert_rejected(scn, tmp_path / "nest" / "out", capsys)
        section, name = key.split(".")
        assert f": {key} must be " in err or f"[{section}] {name}: " in err
        assert [p.name for p in tmp_path.rglob("*")] == [scn.name]


_BOUND = st.one_of(
    st.integers(-400, 400).map(lambda k: k / 8),  # bounds that often hit 0
    st.floats(allow_nan=False, allow_infinity=False),  # up to +-1.8e308
)


@settings(max_examples=500, deadline=None)
@given(
    lo=_BOUND,
    hi=_BOUND,
    count=st.integers(0, 200),
    spacing=st.sampled_from(["linear", "log"]),
    symmetrize=st.booleans(),
)
@example(lo=-1e308, hi=1e308, count=4, spacing="linear", symmetrize=False)
@example(lo=1.0, hi=1.7976931348623157e308, count=4, spacing="log", symmetrize=False)
@example(lo=0.125, hi=1.7976931348623157e308, count=7, spacing="linear", symmetrize=False)
def test_accepted_grid_builds_finite_nonzero_points(
    lo, hi, count, spacing, symmetrize
):
    lo, hi = min(lo, hi), max(lo, hi)
    grid = GridSpec(lo, hi, count, spacing=spacing, symmetrize=symmetrize)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        if grid.problems():
            return
        built = grid.build()
    assert built.size == (2 if symmetrize else 1) * count
    assert np.all(np.isfinite(built))
    assert np.all(built != 0)


# Every key a scenario file may hold, by section.
_KNOWN_KEYS = {
    "scenario": ("name",),
    "transition": ("fg", "fe", "gamma"),
    "drive": ("polarization", "rabi", "detuning"),
    "medium": ("b0",),
    "input": ("eps_a", "eps_p"),
    "grid": ("omega_min", "omega_max", "count", "spacing", "symmetrize"),
    "sweep": ("parameter", "values"),
    "output": ("oracles", "quadrature"),
}
_VALUE = st.one_of(
    st.sampled_from([
        "", "%", "10%", "100%%", "%(fg)s", "%(nowhere)s", "1", "2", "-1", "0",
        "0.5", "1e5", "nan", "inf", "1e400", "linear", "circular", "log",
        "true", "no", "qrt", "mollow tarot", "amplitude", "rabi", "0.1, 1",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=12),
)
_SECTIONS = st.fixed_dictionaries({}, optional={
    section: st.dictionaries(st.sampled_from(keys), _VALUE)
    for section, keys in _KNOWN_KEYS.items()
})


@settings(max_examples=300, deadline=None)
@given(sections=_SECTIONS)
def test_any_known_key_text_loads_or_raises_scenario_error(tmp_path_factory, sections):
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()
    )
    path = tmp_path_factory.mktemp("fuzz") / "scn.ini"
    path.write_text(text, encoding="utf-8")
    try:
        scenario = load_scenario(path)
    except ScenarioError:
        return
    warnings, errors = validate_scenario(scenario)
    assert all(isinstance(m, str) for m in warnings + errors)


_NAME = st.one_of(
    st.sampled_from(["demo", "../escaped", "/abs/evil", "a\\b", ".", "..", "..."]),
    st.text(max_size=8),
)
_SWEPT = st.one_of(
    st.sampled_from([0.1, 0.1000001, 1e-7, 1.0000001e-7, 0.0, -0.0, 2.5]),
    st.floats(-10, 10),
)


@settings(max_examples=200, deadline=None)
@given(
    name=_NAME,
    parameter=st.sampled_from(["rabi", "detuning", "b0", "eps_p", "phase", ""]),
    values=st.lists(_SWEPT.map(repr), max_size=5),
)
def test_valid_scenario_points_have_distinct_labels_inside_out(
    tmp_path_factory, name, parameter, values
):
    text = (
        GOOD.replace("name = demo", f"name = {name}")
        .replace("parameter = rabi", f"parameter = {parameter}")
        .replace("values = 0.5, 1.0", f"values = {' '.join(values)}")
    )
    path = tmp_path_factory.mktemp("points") / "scn.ini"
    path.write_text(text, encoding="utf-8")
    try:
        scenario = load_scenario(path)
    except ScenarioError:
        return
    if validate_scenario(scenario)[1]:
        return
    labels = [label for label, _, _ in scenario.points()]
    assert len(set(labels)) == len(labels)
    out = path.parent / "out"
    assert all((out / f"{label}.csv").parent == out for label in labels)


# Whole scenario files for main(): a dipole-allowed pair with F <= 3, 2-5
# grid points, values from 0 and 5e-324 up to 1.7e308 (with both signs
# where a sign is meaningful), optional sweeps, every oracle, and in about
# one file in four a malformed value.
_HALVES = [k / 2 for k in range(7)]
_MAGNITUDE = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.1, 1.0, 1.7e308]),
    st.floats(1e-3, 1e3),  # where most valid points compute
    st.floats(5e-324, 1.7e308),
)
_SIGNED = st.tuples(_MAGNITUDE, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])
_MALFORMED = st.sampled_from(["", "one", "1e999", "nan", "-inf", "1,,2", "0x1p3", "5%"])


@st.composite
def _scenario_files(draw):
    """The text of one scenario file."""
    fg, fe = draw(st.sampled_from(
        [(g, e) for g in _HALVES for e in _HALVES if abs(g - e) in (0, 1) and e]
    ))
    spacing = draw(st.sampled_from(["log", "linear"]))
    low, high = sorted((draw(_MAGNITUDE), draw(_MAGNITUDE)))
    if spacing == "linear" and draw(st.booleans()):
        low = -low
    sections = {
        "transition": {"fg": fg, "fe": fe},
        "drive": {
            "polarization": draw(st.sampled_from(["linear", "circular"])),
            "rabi": draw(_MAGNITUDE),
        },
        "medium": {"b0": draw(_MAGNITUDE)},
        "input": {},
        "grid": {
            "omega_min": low,
            "omega_max": high,
            "count": draw(st.integers(2, 5)),
            "spacing": spacing,
            "symmetrize": draw(st.booleans()),
        },
        "output": {
            "oracles": " ".join(draw(st.lists(
                st.sampled_from(["qrt", "mollow"]), unique=True
            ))),
            "quadrature": draw(st.one_of(st.just("amplitude"), _SIGNED)),
        },
    }
    for section, key, values in (
        ("drive", "detuning", _SIGNED),
        ("input", "eps_a", _MAGNITUDE),
        ("input", "eps_p", _MAGNITUDE),
    ):
        if draw(st.booleans()):
            sections[section][key] = draw(values)
    if draw(st.booleans()):
        parameter = draw(st.sampled_from(["rabi", "detuning", "b0", "eps_p"]))
        values = _SIGNED if parameter == "detuning" else _MAGNITUDE
        sections["sweep"] = {
            "parameter": parameter,
            "values": " ".join(map(str, draw(st.lists(values, min_size=1, max_size=3)))),
        }
    if draw(st.integers(0, 3)) == 0:
        section = draw(st.sampled_from(sorted(sections)))
        keys = [k for k in sections[section] if k not in ("polarization", "spacing")]
        if keys:
            sections[section][draw(st.sampled_from(keys))] = draw(_MALFORMED)
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for section, keys in sections.items()
    )


def _not_finite(constant):
    raise ValueError(f"sidecar holds {constant}")


@settings(max_examples=100, deadline=None)
@given(text=_scenario_files())
@example(text=GOOD)  # exit 0 with two tables
@example(text=GOOD.replace("detuning = 0.25", "detuning = 1e170"))  # exit 3
def test_any_scenario_file_ends_in_a_documented_exit(tmp_path_factory, text):
    """main() ends every drawn scenario file with exit 0, 2, 3 or 4, never a
    traceback: exit 2 writes nothing, exit 0 writes one finite table and one
    sidecar that parses per scenario point, and exit 3 names its point."""
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.ini"
    path.write_text(text)
    out = path.parent / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = main(["run", str(path), "--out", str(out)])
    err = stderr.getvalue()
    assert rc in (0, 2, 3, 4), err
    if rc == 2:
        assert not out.exists(), err
        return
    labels = [label for label, _, _ in load_scenario(path).points()]
    if rc == 3:
        assert any(f"scenario point '{label}': " in err for label in labels), err
    if rc == 0:
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{label}.{ext}" for label in labels for ext in ("csv", "json")
        )
        for label in labels:
            header, *rows = (out / f"{label}.csv").read_text().splitlines()
            fields = [f for row in rows for f in row.split(",") if f]
            assert rows and all(np.isfinite(float(f)) for f in fields), label
            sidecar = json.loads(
                (out / f"{label}.json").read_text(), parse_constant=_not_finite
            )
            assert sidecar["columns"] == header.split(", ")

NOSWEEP = """
[transition]
fg = 1
fe = 2

[drive]
polarization = circular
rabi = 1.0

[medium]
b0 = 0.1

[grid]
omega_min = 0.1
omega_max = 2.0
count = 5

[output]
oracles = qrt mollow
"""


ZERO_RABI = (
    "fg = 1\nfe = 2\n\n[drive]\npolarization = circular\nrabi = 1.0\n\n"
    "[medium]\nb0 = 0.1"
)
ZERO_RABI_TLS = ZERO_RABI.replace("fg = 1\nfe = 2", "fg = 0\nfe = 1").replace(
    "rabi = 1.0", "rabi = 0"
)


def assert_rejected(scn, out, capsys):
    """`validate` and `run` both exit 2 with one stderr and write nothing;
    returns that stderr."""
    assert main(["validate", str(scn)]) == 2
    validated = capsys.readouterr()
    assert main(["run", str(scn), "--out", str(out)]) == 2
    ran = capsys.readouterr()
    assert validated.out == ran.out == ""
    assert validated.err == ran.err
    assert not out.exists()
    return ran.err


class TestCli:
    def test_run_writes_tables(self, tmp_path, capsys):
        scn = write(tmp_path, NOSWEEP, name="tls.ini")
        out = tmp_path / "results"
        rc = main(["run", str(scn), "--out", str(out), "--threads", "1"])
        assert rc == 0
        csv = out / "tls.csv"
        sidecar = out / "tls.json"
        assert csv.exists() and sidecar.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == (
            "omega_over_gamma, s_opt_e1, s_opt_e2, s_x_e1, s_x_e2, "
            "qrt_opt_e1, qrt_opt_e2, mollow_opt_e1"
        )
        assert len(lines) == 6  # header + 5 grid points
        meta = json.loads(sidecar.read_text())
        assert meta["conventions_version"]
        assert meta["parameters"]["rabi"] == 1.0
        assert "orthogonal_mode_phase" in meta["quadrature_conventions"]

    def test_sweep_writes_one_table_per_value(self, tmp_path):
        scn = write(tmp_path, GOOD, name="demo.ini")
        out = tmp_path / "results"
        rc = main(["run", str(scn), "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["demo_rabi_0.5.csv", "demo_rabi_1.csv"]

    def test_empty_fields_for_inapplicable_oracle(self, tmp_path, capsys):
        """Linear drive, and circular drive on Fe != Fg + 1, which has no
        stretched two-level pair, leave the mollow column empty."""
        for old, new in (
            ("polarization = circular", "polarization = linear"),
            ("fe = 2", "fe = 1"),
        ):
            scn = write(tmp_path, NOSWEEP.replace(old, new), name="mls.ini")
            assert main(["validate", str(scn)]) == 0
            assert "mollow oracle applies to circular drive on fe = fg + 1" in (
                capsys.readouterr().err
            )
            out = tmp_path / new.replace(" ", "")
            rc = main(["run", str(scn), "--out", str(out)])
            assert rc == 0
            rows = (out / "mls.csv").read_text().splitlines()[1:]
            for row in rows:
                assert row.endswith(",")  # mollow column present but empty
                assert "nan" not in row
            # and the empty field is not a zero
            assert all(r.rsplit(",", 1)[1] == "" for r in rows)

    def test_determinism_across_thread_counts(self, tmp_path):
        scn = write(tmp_path, NOSWEEP, name="t.ini")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["run", str(scn), "--out", str(a), "--threads", "1"]) == 0
        assert main(["run", str(scn), "--out", str(b), "--threads", "3"]) == 0
        assert (a / "t.csv").read_bytes() == (b / "t.csv").read_bytes()

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        scn = write(tmp_path, NOSWEEP, name="envrun.ini")
        target = tmp_path / "from-env"
        monkeypatch.setenv("ZEENOISE_OUT", str(target))
        assert main(["run", str(scn)]) == 0
        assert (target / "envrun.csv").exists()

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, "[drive]\nrabi = fast\n", name="bad.ini")
        err = assert_rejected(bad, tmp_path / "results", capsys)
        assert "configuration error" in err

    def test_validation_error_exits_2(self, tmp_path, capsys):
        text = NOSWEEP.replace("b0 = 0.1", "b0 = -1")
        scn = write(tmp_path, text, name="neg.ini")
        assert "b0" in assert_rejected(scn, tmp_path / "results", capsys)

    def test_degenerate_point_exits_3_and_names_point(self, tmp_path, capsys):
        text = NOSWEEP.replace("rabi = 1.0", "rabi = 0").replace(
            "b0 = 0.1", "b0 = 0"
        ).replace("oracles = qrt mollow", "oracles = qrt")
        scn = write(tmp_path, text, name="undriven.ini")
        rc = main(["run", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "undriven" in err

    @pytest.mark.parametrize("polarization", ["circular", "linear"])
    @pytest.mark.parametrize("detuning", ["1000", "1e170"])
    def test_far_detuned_point_exits_3_and_names_the_cutoff(
        self, tmp_path, capsys, polarization, detuning
    ):
        """Far off resonance the optical-pumping rates fall below the
        relative singular-value cutoff, so the null space looks degenerate
        although the drive is on; the message says so."""
        text = NOSWEEP.replace(
            "rabi = 1.0", f"rabi = 1.0\ndetuning = {detuning}"
        ).replace("circular", polarization).replace("qrt mollow", "qrt")
        scn = write(tmp_path, text, name="far.ini")
        assert main(["validate", str(scn)]) == 0
        capsys.readouterr()
        assert main(["run", str(scn), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "scenario point 'far'" in err
        assert "relative singular-value cutoff 1e-09" in err
        assert "optical pumping below the cutoff" in err

    def test_vanishing_carrier_exits_3_and_names_point(self, tmp_path, capsys):
        text = NOSWEEP.replace("rabi = 1.0", "rabi = 0.1").replace(
            "b0 = 0.1", "b0 = 1e5"
        )
        scn = write(tmp_path, text, name="opaque.ini")
        out = tmp_path / "o"
        assert main(["run", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "physics failure: scenario point 'opaque'" in err
        assert "vanishing carrier" in err
        assert not out.exists()

    @pytest.mark.parametrize("case, message", [
        ("singular_resolvent",
         "fluctuation resolvent is singular at Omega = 1e-14 "),
        ("non_stationary_state", "state is not stationary: |G rho| = "),
    ], ids=["singular_resolvent", "non_stationary_state"])
    def test_numerical_failure_exits_3_and_names_point(
        self, tmp_path, capsys, monkeypatch, case, message
    ):
        """The resolvent's conditioning screen and diffusion_matrix's
        stationarity check each end the run with exit 3 and write nothing."""
        text = NOSWEEP
        if case == "singular_resolvent":
            text = text.replace(
                "omega_min = 0.1\nomega_max = 2.0\ncount = 5",
                "omega_min = 1e-14\nomega_max = 1e-13\ncount = 2",
            )
        else:
            solved = runner.steady_state
            monkeypatch.setattr(
                runner, "steady_state",
                lambda liou: solved(liou) + 1e-6 * np.eye(liou.n),
            )
        scn = write(tmp_path, text, name="failing.ini")
        out = tmp_path / "results"
        assert main(["validate", str(scn)]) == 0
        capsys.readouterr()
        assert main(["run", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"physics failure: scenario point 'failing': {message}" in err
        assert not out.exists()

    def test_interpolation_error_exits_2_without_output(self, tmp_path, capsys):
        text = NOSWEEP.replace("b0 = 0.1", "b0 = 10%")
        scn = write(tmp_path, text, name="pct.ini")
        assert "[medium] b0: " in assert_rejected(scn, tmp_path / "results", capsys)

    def test_io_failure_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        scn = write(tmp_path, NOSWEEP, name="io.ini")
        rc = main(["run", str(scn), "--out", str(blocker / "sub")])
        assert rc == 4

    def test_validate_ok_exits_0(self, tmp_path, capsys):
        scn = write(tmp_path, NOSWEEP, name="v.ini")
        assert main(["validate", str(scn)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_and_run_report_the_same_warnings(self, tmp_path, capsys):
        scn = write(tmp_path, NOSWEEP.replace("b0 = 0.1", "b0 = 0.7"), name="thick.ini")
        assert main(["validate", str(scn)]) == 0
        validated = capsys.readouterr()
        assert validated.out == "thick: ok (1 warning(s))\n"
        assert validated.err.startswith("warning: thick: medium.b0 = 0.7 exceeds")
        assert main(["run", str(scn), "--out", str(tmp_path / "results")]) == 0
        assert capsys.readouterr().err == validated.err

    def test_explicit_quadrature_angle(self, tmp_path):
        scn = write(tmp_path, NOSWEEP + "quadrature = 0.3\n", name="angle.ini")
        out = tmp_path / "results"
        assert main(["run", str(scn), "--out", str(out)]) == 0
        meta = json.loads((out / "angle.json").read_text())
        assert meta["quadrature_theta"] == 0.3
        assert meta["quadrature_theta_source"] == "explicit"
        lines = (out / "angle.csv").read_text().splitlines()
        header = lines[0].split(", ")
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])

        scenario = load_scenario(scn)
        (scheme, drive, medium, input_matrix), _ = point_inputs(scenario)
        liou = build_generator(scheme, drive)
        rho = steady_state(liou)
        grid = scenario.grid.build()
        atoms = Atoms(liou, rho, diffusion_matrix(liou, rho), grid)
        field = propagate(input_matrix, medium, atoms)
        for comp in (1, 2):
            expected = quadrature_noise(field.spectra[comp], 0.3)
            assert np.array_equal(table[:, header.index(f"s_x_e{comp}")], expected)

    def test_non_finite_table_exits_3_and_names_point(
        self, tmp_path, capsys, monkeypatch
    ):
        original = runner.quadrature_noise

        def blown(*args):
            return np.full_like(original(*args), np.nan)

        monkeypatch.setattr(runner, "quadrature_noise", blown)
        scn = write(tmp_path, NOSWEEP, name="huge.ini")
        out = tmp_path / "results"
        assert main(["validate", str(scn)]) == 0
        capsys.readouterr()
        assert main(["run", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "physics failure: scenario point 'huge': column 's_x_e1' holds a "
            "non-finite value" in err
        )
        assert not out.exists()

    def test_memory_error_exits_3_and_names_point(
        self, tmp_path, capsys, monkeypatch
    ):
        def exhausted(scheme, drive):
            raise MemoryError("cannot allocate the generator")

        monkeypatch.setattr(runner, "build_generator", exhausted)
        scn = write(tmp_path, NOSWEEP, name="big.ini")
        out = tmp_path / "results"
        assert main(["run", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "out of memory: scenario point 'big': cannot allocate the generator"
            in err
        )
        assert not out.exists()

    def test_lapack_failure_in_steady_state_exits_3_and_names_point(
        self, tmp_path, capsys, monkeypatch
    ):
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", unconverged)
        scn = write(tmp_path, NOSWEEP, name="lapack.ini")
        out = tmp_path / "results"
        assert main(["run", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "physics failure: scenario point 'lapack': steady-state solve "
            "failed: SVD did not converge" in err
        )
        assert not out.exists()

    def test_lapack_failure_in_mollow_oracle_exits_3_and_names_point(
        self, tmp_path, capsys, monkeypatch
    ):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        text = NOSWEEP.replace("oracles = qrt mollow", "oracles = mollow")
        scn = write(tmp_path, text, name="mollow.ini")
        out = tmp_path / "results"
        assert main(["run", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "physics failure: scenario point 'mollow': Mollow spectrum solve "
            "failed: Singular matrix" in err
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_non_finite_sidecar_value_exits_3_and_names_it(
        self, tmp_path, capsys, monkeypatch
    ):
        original = runner.propagate

        def dephased(*args):
            out = original(*args)
            out.carrier[1] = complex("nan")
            return out

        monkeypatch.setattr(runner, "propagate", dephased)
        scn = write(tmp_path, NOSWEEP, name="dephased.ini")
        out = tmp_path / "results"
        assert main(["run", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert (
            "physics failure: scenario point 'dephased': sidecar value "
            "'carrier_e1' holds a non-finite value" in err
        )
        assert not out.exists()

    def test_negative_sweep_value_exits_2_without_output(self, tmp_path, capsys):
        text = GOOD.replace("values = 0.5, 1.0", "values = 1 -0.5")
        scn = write(tmp_path, text, name="negsweep.ini")
        assert_rejected(scn, tmp_path / "results", capsys)

    @pytest.mark.parametrize("text, message", [
        (NOSWEEP.replace("b0 = 0.1", "b0 = nan"), "medium.b0 must be a finite number"),
        (NOSWEEP.replace("b0 = 0.1", "b0 = inf"), "medium.b0 must be a finite number"),
        (NOSWEEP.replace("rabi = 1.0", "rabi = nan"),
         "drive.rabi must be a finite number"),
        (GOOD.replace("values = 0.5, 1.0", "values = 0.5 nan"),
         "sweep.values must be one or more finite numbers, got (0.5, nan)"),
    ], ids=["b0_nan", "b0_inf", "rabi_nan", "sweep_nan"])
    def test_non_finite_value_exits_2_without_output(
        self, tmp_path, capsys, text, message
    ):
        scn = write(tmp_path, text, name="nonfinite.ini")
        assert message in assert_rejected(scn, tmp_path / "results", capsys)

    def test_validate_broken_exits_2(self, tmp_path, capsys):
        text = NOSWEEP.replace("b0 = 0.1", "b0 = -2")
        scn = write(tmp_path, text, name="v2.ini")
        assert "error: v2: " in assert_rejected(scn, tmp_path / "results", capsys)

    @pytest.mark.parametrize("fe, rc", [("fe = 2", 2), ("fe = 1", 0)])
    def test_zero_rabi_rejects_mollow_only_where_it_is_computed(
        self, tmp_path, capsys, fe, rc
    ):
        text = NOSWEEP.replace("rabi = 1.0", "rabi = 0").replace(
            "b0 = 0.1", "b0 = 0"
        ).replace("fe = 2", fe)
        assert main(["validate", str(write(tmp_path, text))]) == rc
        err = capsys.readouterr().err
        assert ("drive.rabi must be > 0 for the mollow oracle" in err) == (rc == 2)

    def test_run_without_scenario_or_preset_exits_2(self, capsys):
        assert main(["run"]) == 2

    @pytest.mark.parametrize("old, new, message", [
        ("oracles = qrt mollow", "oracles = qrt mollow qrt",
         "output.oracles must be distinct names from ('qrt', 'mollow'), "
         "got ('qrt', 'mollow', 'qrt')"),
        (
            "omega_min = 0.1\nomega_max = 2.0",
            "omega_min = -1e308\nomega_max = 1e308\nspacing = linear",
            "omega_min = -1e+308, omega_max = 1e+308 overflow the linear grid",
        ),
        ("fg = 1\nfe = 2", "fg = 40\nfe = 41", "transition: fg must be <= 10, got 40"),
        ("fg = 1\nfe = 2", "fg = 1\nfe = 1.5",
         "transition: Fg=1.0, Fe=1.5 is not a dipole-allowed pair"),
        ("count = 5", "count = 5\nsymmetrize = maybe",
         "[grid] symmetrize: expected a boolean"),
        (ZERO_RABI, ZERO_RABI_TLS, "drive.rabi must be > 0 when medium.b0 > 0"),
        (ZERO_RABI, ZERO_RABI_TLS.replace("circular", "linear"),
         "drive.rabi must be > 0 when medium.b0 > 0"),
        (ZERO_RABI, ZERO_RABI_TLS.replace("b0 = 0.1", "b0 = 0"),
         "drive.rabi must be > 0 for the mollow oracle"),
        ("fg = 1\nfe = 2", "fg = 1\nfe = 2\ngamma = 0",
         "rejected.ini: [transition] gamma: gamma is the rate unit and must be 1"),
        ("fg = 1\nfe = 2", "fg = 1\nfe = 2\ngamma = 2",
         "rejected.ini: [transition] gamma: gamma is the rate unit and must be 1"),
        ("rabi = 1.0", "rabi = 1.0\ndetunning = 1",
         "rejected.ini: [drive] detunning: unknown key"),
        ("count = 5", "count = 5\n\n[grdi]\ncount = 5",
         "rejected.ini: [grdi] count: unknown section"),
        ("[transition]", "[DEFAULT]\ndetuning = 1\n\n[transition]",
         "rejected.ini: [DEFAULT] detuning: unknown section"),
        ("b0 = 0.1", "b0 = 0.1\n\n[input]\neps_a = 1e308\neps_p = 1e308",
         "input.eps_a + eps_p must be finite, got 1e+308 + 1e+308"),
        ("fg = 1\nfe = 2", "fg = -1\nfe = 0", "transition: fg must be >= 0, got -1.0"),
        ("count = 5", "count = 4.5",
         "rejected.ini: [grid] count: expected an integer, got '4.5'"),
        ("oracles = qrt mollow", "quadrature = 1e308",
         "error: rejected: output.quadrature must be an angle in [-pi, pi] "
         "radians, got 1e+308"),
    ], ids=[
        "duplicate_oracle", "grid_span_overflow", "f_above_cap", "mixed_f_parity",
        "symmetrize_maybe",
        "zero_rabi_circular", "zero_rabi_linear", "zero_rabi_mollow", "zero_gamma",
        "gamma_2", "unknown_key", "unknown_section", "default_key",
        "excess_noise_overflow", "negative_fg", "fractional_count",
        "quadrature_1e308",
    ])
    def test_rejected_input_exits_2_without_output(
        self, tmp_path, capsys, monkeypatch, old, new, message
    ):
        def no_build(*args):
            raise AssertionError("build_generator was called")

        monkeypatch.setattr(runner, "build_generator", no_build)
        assert old in NOSWEEP
        scn = write(tmp_path, NOSWEEP.replace(old, new), name="rejected.ini")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert message in assert_rejected(scn, tmp_path / "results", capsys)

    @pytest.mark.parametrize("old, new, message", [
        ("[grid]\nomega_min = 1e-3\nomega_max = 5.0\ncount = 7\nspacing = log\n", "",
         "[grid] omega_min: missing required section"),
        ("parameter = rabi", "parameter = phase",
         "sweep.parameter must be one of ('rabi', 'detuning', 'b0', 'eps_p')"),
        ("values = 0.5, 1.0", "values =",
         "sweep.values must be one or more finite numbers, got ()"),
        ("name = demo", "name = ../escaped",
         "scenario.name must be a plain file name, got '../escaped'"),
        ("name = demo", "name = {tmp}/abs/evil", "scenario.name must be a plain"),
        ("name = demo", "name = a\\b", "scenario.name must be a plain"),
        ("name = demo", "name = ..", "scenario.name must be a plain"),
        ("name = demo", "name =", "scenario.name must be a plain"),
        ("name = demo", "name = a\0b", "scenario.name must be a plain"),
        (
            "parameter = rabi\nvalues = 0.5, 1.0",
            "parameter = b0\nvalues = 0.1 0.1000001",
            "share the table label 'demo_b0_0.1'",
        ),
    ], ids=[
        "missing_grid", "unknown_sweep_parameter", "empty_values", "dotdot_name",
        "absolute_name", "backslash_name", "parent_name", "empty_name", "nul_name",
        "colliding_labels",
    ])
    def test_rejected_sweep_scenario_exits_2_without_output(
        self, tmp_path, capsys, monkeypatch, old, new, message
    ):
        def no_build(*args):
            raise AssertionError("build_generator was called")

        monkeypatch.setattr(runner, "build_generator", no_build)
        assert old in GOOD
        scn = write(tmp_path, GOOD.replace(old, new.format(tmp=tmp_path)))
        assert message in assert_rejected(scn, tmp_path / "nest" / "out", capsys)
        assert [p.name for p in tmp_path.rglob("*")] == [scn.name]

    @pytest.mark.parametrize("name, values, owners", [
        ("fig3_tls", "values = 0.1", "'fig3_tls' and 'fig3_tls'"),
        ("fig3_tls_rabi_0.1", None, "'fig3_tls_rabi_0.1' and 'fig3_tls'"),
    ], ids=["same_name", "unswept_name"])
    def test_label_shared_across_scenarios_exits_2_without_output(
        self, tmp_path, capsys, monkeypatch, name, values, owners
    ):
        """A scenario file and a preset of one run may not write one table."""
        def no_build(*args):
            raise AssertionError("build_generator was called")

        monkeypatch.setattr(runner, "build_generator", no_build)
        text = GOOD.replace("name = demo", f"name = {name}")
        if values is None:
            text = text.split("[sweep]")[0]
        else:
            text = text.replace("values = 0.5, 1.0", values)
        scn = write(tmp_path, text, name="c.ini")
        out = tmp_path / "oc"
        assert main(["run", str(scn), "--preset", "fig3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"table label 'fig3_tls_rabi_0.1' belongs to scenarios {owners}" in err
        assert not out.exists()


def swept(parameter, values):
    """GOOD with its rabi sweep replaced by `parameter` over `values`."""
    return GOOD.replace(
        "parameter = rabi\nvalues = 0.5, 1.0",
        f"parameter = {parameter}\nvalues = {' '.join(map(str, values))}",
    )


@pytest.mark.parametrize("parameter, values, builds", [
    ("b0", [round(0.035 * k, 3) for k in range(14)], 1),
    ("eps_p", [0, 10, 100], 1),
    ("rabi", [0.5, 1, 2], 3),
])
def test_sweep_builds_one_generator_per_transition_and_drive(
    tmp_path, monkeypatch, parameter, values, builds
):
    """One generator, and one dipole operator and one QRT solve per
    component, for each group of points with equal [transition] and [drive]
    values."""
    calls = {"build_generator": [], "qrt_spectrum": [], "operator": []}
    for owner, name in (
        (runner, "build_generator"), (runner, "qrt_spectrum"),
        (PolarizationMode, "operator"),
    ):
        def counting(*args, _original=getattr(owner, name), _record=calls[name]):
            _record.append(args)
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
    text = swept(parameter, values)
    assert "oracles = qrt\n" in text
    scenario = load_scenario(write(tmp_path, text))
    assert len(runner.run_scenario(scenario, tmp_path / "out")) == 2 * len(values)
    assert len(calls["build_generator"]) == builds
    assert len(calls["qrt_spectrum"]) == 2 * builds
    # the Hamiltonian's driven operator, then each component's for the Atoms
    assert len(calls["operator"]) == 3 * builds


@pytest.mark.parametrize("parameter, values, solves", [
    ("b0", [0, 0.1, 0.3], 1),
    ("eps_p", [0, 10, 100], 1),
    ("rabi", [0.5, 1, 2], 3),
    ("detuning", [-1, 0, 0.25], 3),
])
def test_points_share_atoms_exactly_when_scheme_and_drive_are_equal(
    tmp_path, monkeypatch, parameter, values, solves
):
    """run_scenario solves the atoms once per run of points with equal
    LevelScheme and DriveConfig, each time for that run's own pair: a b0 or
    eps_p sweep solves once, a rabi or detuning sweep once per value."""
    solved = []

    def counting(scheme, drive, _original=runner.build_generator):
        solved.append((scheme, drive))
        return _original(scheme, drive)

    monkeypatch.setattr(runner, "build_generator", counting)
    scenario = load_scenario(write(tmp_path, swept(parameter, values)))
    assert len(runner.run_scenario(scenario, tmp_path / "out")) == 2 * len(values)
    pairs = [point_inputs(point)[0][:2] for _, _, point in scenario.points()]
    assert solved == list(dict.fromkeys(pairs))
    assert len(solved) == solves


def test_run_scenario_raises_every_input_error_of_an_unvalidated_point(tmp_path):
    """Skipping validation, run_scenario raises one ArgumentError holding
    the message of every pipeline input that fails, and writes nothing."""
    scenario = Scenario(
        name="unchecked", fg=-1, fe=2, polarization="linear", rabi=-1.0,
        detuning=0.0, b0=-0.5, grid=GridSpec(0.1, 2.0, 3), eps_p=-2.0,
    )
    out = tmp_path / "out"
    with pytest.raises(ArgumentError) as raised:
        runner.run_scenario(scenario, out)
    assert str(raised.value) == (
        "transition: fg must be >= 0, got -1; "
        "drive.rabi must be >= 0, got -1.0; "
        "medium.b0 must be >= 0, got -0.5; "
        "input.eps_p must be >= 0, got -2.0"
    )
    assert not out.exists()


def test_b0_sweep_writes_the_tables_of_one_scenario_per_value(
    tmp_path, monkeypatch
):
    """Sharing the atoms and the oracles across a b0 sweep moves no byte of
    any table, and solves the Mollow spectrum once."""
    values = (0, 0.05, 0.3)
    text = swept("b0", values).replace(
        "polarization = linear", "polarization = circular"
    ).replace("oracles = qrt", "oracles = qrt mollow")
    calls = []

    def counting(*args, _original=runner.mollow_spectrum):
        calls.append(args)
        return _original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(runner, "mollow_spectrum", counting)
        runner.run_scenario(load_scenario(write(tmp_path, text)), tmp_path / "swept")
    assert len(calls) == 1
    sweep_section = f"[sweep]\nparameter = b0\nvalues = {' '.join(map(str, values))}\n"
    assert sweep_section in text
    for value in values:
        label = f"demo_b0_{value:g}"
        single = text.replace(sweep_section, "").replace(
            "name = demo", f"name = {label}"
        ).replace("b0 = 0.2", f"b0 = {value}")
        scenario = load_scenario(write(tmp_path, single, name=f"{label}.ini"))
        runner.run_scenario(scenario, tmp_path / "single")
        a, b = tmp_path / "swept", tmp_path / "single"
        csv = f"{label}.csv"
        assert (a / csv).read_bytes() == (b / csv).read_bytes()
        meta = [json.loads((d / f"{label}.json").read_text()) for d in (a, b)]
        assert meta[0].pop("sweep_parameter") == "b0"
        assert meta[0].pop("sweep_value") == value
        assert meta[1].pop("sweep_parameter") is meta[1].pop("sweep_value") is None
        assert meta[0] == meta[1]


def read_table(path):
    """Column name -> values of a written CSV table; NaN marks an empty field."""
    header, *rows = path.read_text().splitlines()
    fields = [[float(f) if f else np.nan for f in row.split(",")] for row in rows]
    return dict(zip(header.split(", "), np.array(fields).T))


READ_BACK = NOSWEEP.replace("rabi = 1.0", "rabi = 1.2\ndetuning = 0.4").replace(
    "b0 = 0.1", "b0 = 0.2"
)


@pytest.mark.parametrize("polarization", ["linear", "circular"])
def test_written_tables_match_the_pipeline_and_the_oracle_gates(
    tmp_path, polarization
):
    """What `zeenoise run` writes, read back: every column and sidecar value
    of each component equals what `propagate`, `optical_spectrum` and
    `quadrature_noise` give for that same component, and the oracle columns
    pass the reference gates of the output check: |s_opt_eK - qrt_opt_eK| <=
    1e-8 max|qrt_opt|, and a relative L2 mismatch of s_opt_e1 below 1e-6
    against the Mollow column after a least-squares scale."""
    text = READ_BACK.replace("polarization = circular", f"polarization = {polarization}")
    assert main(["run", str(write(tmp_path, text, name="rb.ini")), "--out",
                 str(tmp_path)]) == 0
    table = read_table(tmp_path / "rb.csv")
    meta = json.loads((tmp_path / "rb.json").read_text())
    assert list(table) == meta["columns"] == [
        "omega_over_gamma", "s_opt_e1", "s_opt_e2", "s_x_e1", "s_x_e2",
        "qrt_opt_e1", "qrt_opt_e2", "mollow_opt_e1",
    ]

    grid = table["omega_over_gamma"]
    scheme = LevelScheme(fg=1, fe=2)
    liou = build_generator(
        scheme, DriveConfig(PolarizationMode(polarization), 1.2, 0.4)
    )
    rho = steady_state(liou)
    atoms = Atoms(liou, rho, diffusion_matrix(liou, rho), grid)
    out = propagate(excess_noise_input(0.0, 0.0), MediumParams(0.2), atoms)
    theta = amplitude_quadrature_angle(out.carrier[1])
    assert meta["quadrature_theta"] == pytest.approx(theta, rel=1e-12)
    for c in (1, 2):
        carrier = complex(*meta[f"carrier_e{c}"])
        assert carrier == pytest.approx(out.carrier[c], rel=1e-12, abs=1e-15)
        assert meta[f"phi_e{c}"] == pytest.approx(out.phi[c], rel=1e-12, abs=1e-15)
        for name, values in (
            (f"s_opt_e{c}", optical_spectrum(out.spectra[c])),
            (f"s_x_e{c}", quadrature_noise(out.spectra[c], theta)),
        ):
            scale = np.abs(values).max()
            assert np.abs(table[name] - values).max() <= 1e-12 * scale, name
    assert meta["phi_e1"] != 0.0  # detuned, so a phi_e1 of 0 is wrong

    qrt = [table[f"qrt_opt_e{c}"] for c in (1, 2)]
    scale = max(np.abs(q).max() for q in qrt)
    for c in (1, 2):
        assert np.abs(table[f"s_opt_e{c}"] - qrt[c - 1]).max() <= 1e-8 * scale
    model, trace = table["mollow_opt_e1"], table["s_opt_e1"]
    if polarization == "linear":
        assert np.isnan(model).all()  # the empty column of an inapplicable oracle
    else:
        fit = np.dot(trace, model) / np.dot(model, model)
        assert np.linalg.norm(trace - fit * model) < 1e-6 * np.linalg.norm(trace)


def test_undriven_transparent_point_writes_the_input_field(tmp_path):
    """b0 = 0 and rabi = 0 on F = 0 -> 1, the one transition whose undriven
    steady state is unique: `zeenoise run` writes the coherent input
    unchanged, while `propagate` on the same atoms at b0 > 0 refuses the
    carrier update."""
    text = NOSWEEP.replace("fg = 1\nfe = 2", "fg = 0\nfe = 1").replace(
        "rabi = 1.0", "rabi = 0"
    ).replace("b0 = 0.1", "b0 = 0").replace("oracles = qrt mollow", "oracles = qrt")
    assert main(["run", str(write(tmp_path, text, name="dark.ini")), "--out",
                 str(tmp_path)]) == 0
    table = read_table(tmp_path / "dark.csv")
    meta = json.loads((tmp_path / "dark.json").read_text())
    for c in (1, 2):
        assert (table[f"s_opt_e{c}"] == 0).all() and (table[f"s_x_e{c}"] == 1).all()
        assert (table[f"qrt_opt_e{c}"] == 0).all()
        assert meta[f"phi_e{c}"] == 0.0
    assert meta["carrier_e1"] == [1.0, 0.0] and meta["carrier_e2"] == [0.0, 0.0]

    scheme = LevelScheme(fg=0, fe=1)
    liou = build_generator(scheme, DriveConfig(PolarizationMode.CIRCULAR, 0.0))
    rho = steady_state(liou)
    atoms = Atoms(liou, rho, diffusion_matrix(liou, rho), table["omega_over_gamma"])
    with pytest.raises(ArgumentError, match="zero Rabi frequency"):
        propagate(excess_noise_input(0.0, 0.0), MediumParams(0.1), atoms)


class TestPresets:
    def test_groups_are_the_preset_files_by_prefix(self):
        assert PRESET_GROUPS == {
            "fig2": ("fig2_mls", "fig2_tls"),
            "fig3": ("fig3_mls", "fig3_tls"),
            "fig4": ("fig4_mls", "fig4_tls"),
            "fig5": (
                "fig5_mls_ep0", "fig5_mls_ep10", "fig5_mls_ep100",
                "fig5_tls_ep0", "fig5_tls_ep10", "fig5_tls_ep100",
            ),
        }

    def test_all_presets_load_and_validate(self):
        base = resources.files("zeenoise").joinpath("presets")
        for group, names in PRESET_GROUPS.items():
            for name in names:
                with resources.as_file(base.joinpath(f"{name}.ini")) as p:
                    s = load_scenario(p)
                warnings, errors = validate_scenario(s)
                assert errors == [], (name, errors)
                assert s.name == name

    def test_fig2_parameters(self):
        base = resources.files("zeenoise").joinpath("presets")
        with resources.as_file(base.joinpath("fig2_tls.ini")) as p:
            s = load_scenario(p)
        assert s.polarization == "circular"
        assert s.detuning == 0.0
        assert s.b0 == 0.1
        assert s.sweep.values == (0.1, 1.0, 5.0)
        assert s.grid.omega_min == pytest.approx(1e-4)
        assert s.grid.omega_max == pytest.approx(1e2)

    def test_fig2_tls_fills_the_mollow_column(self):
        base = resources.files("zeenoise").joinpath("presets")
        with resources.as_file(base.joinpath("fig2_tls.ini")) as p:
            s = load_scenario(p)
        for _, _, point in s.points():
            short = replace(point, grid=replace(point.grid, count=4))
            scheme, drive, _, _ = point_inputs(short)[0]
            column = runner.solve_atoms(short, scheme, drive)[1]["mollow_opt_e1"]
            assert column is not None and np.all(column > 0)

    def test_fig5_parameters(self):
        base = resources.files("zeenoise").joinpath("presets")
        with resources.as_file(base.joinpath("fig5_mls_ep100.ini")) as p:
            s = load_scenario(p)
        assert s.polarization == "linear"
        assert s.detuning == 1.0
        assert s.rabi == 0.2
        assert s.eps_p == 100.0
        assert s.sweep.parameter == "b0"
        assert s.sweep.values[0] == pytest.approx(1e-3)
        assert s.sweep.values[-1] == pytest.approx(0.5)
