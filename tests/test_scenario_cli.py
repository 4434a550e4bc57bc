"""Scenario files, validation diagnostics, CLI behavior, output format."""

import json
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeenoise import (
    ArgumentError,
    DriveConfig,
    MediumParams,
    PolarizationMode,
    ScenarioError,
    build_generator,
    diffusion_matrix,
    excess_noise_input,
    load_scenario,
    propagate,
    quadrature_noise,
    steady_state,
    validate_scenario,
)
import zeenoise.propagation
from zeenoise import runner
from zeenoise.cli import PRESET_GROUPS, main
from zeenoise.propagation import atomic_correlations
from zeenoise.scenario import GridSpec, point_inputs

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

    def test_bad_number_names_section_and_key(self, tmp_path):
        text = GOOD.replace("rabi = 0.5", "rabi = fast")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write(tmp_path, text))
        assert "[drive]" in str(err.value)
        assert "rabi" in str(err.value)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_number_names_section_and_key(self, tmp_path, raw):
        text = GOOD.replace("b0 = 0.2", f"b0 = {raw}")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write(tmp_path, text))
        assert str(err.value).startswith(str(tmp_path / "scn.ini"))
        assert "[medium] b0: expected a finite number" in str(err.value)

    def test_missing_section(self, tmp_path):
        text = GOOD.replace("[medium]\nb0 = 0.2\n", "")
        with pytest.raises(ScenarioError) as err:
            load_scenario(write(tmp_path, text))
        assert "medium" in str(err.value)

    def test_bad_polarization(self, tmp_path):
        text = GOOD.replace("polarization = linear", "polarization = radial")
        with pytest.raises(ScenarioError):
            load_scenario(write(tmp_path, text))

    def test_unknown_oracle(self, tmp_path):
        text = GOOD.replace("oracles = qrt", "oracles = tarot")
        with pytest.raises(ScenarioError):
            load_scenario(write(tmp_path, text))

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
        with pytest.raises(ScenarioError) as err:
            self.base(tmp_path, **{"parameter = rabi": "parameter = phase"})
        assert "[sweep] parameter: parameter must be one of" in str(err.value)

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
        (1, 0, "linear", 2, 3),
        (2, 1, "circular", 2, 3),
        (1.5, 0.5, "linear", 2, 3),
    ])
    def test_dark_ground_sublevels_warn(
        self, tmp_path, fg, fe, polarization, dark, exit_code
    ):
        text = NOSWEEP.replace("fg = 1\nfe = 2", f"fg = {fg}\nfe = {fe}").replace(
            "polarization = circular", f"polarization = {polarization}"
        ).replace("oracles = qrt mollow", "oracles = qrt")
        scn = write(tmp_path, text)
        warnings, errors = validate_scenario(load_scenario(scn))
        assert errors == []
        if dark == 0:
            assert warnings == []
        else:
            [warning] = warnings
            assert warning.startswith(
                f"transition: {dark} ground sublevel(s) dark to the {polarization}"
            )
            assert ("round-off" if dark == 1 else "exits 3") in warning
        assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == exit_code

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

    def test_empty_fields_for_inapplicable_oracle(self, tmp_path):
        text = NOSWEEP.replace("polarization = circular", "polarization = linear")
        scn = write(tmp_path, text, name="mls.ini")
        out = tmp_path / "results"
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
        text = NOSWEEP.replace("rabi = 1.0", "rabi = 0")
        scn = write(tmp_path, text, name="undriven.ini")
        rc = main(["run", str(scn), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "undriven" in err

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
        field = propagate(
            input_matrix, medium, liou, rho, grid,
            atomic_correlations(liou, diffusion_matrix(liou, rho), grid),
        )
        for comp in (1, 2):
            expected = quadrature_noise(field.spectra[comp], 0.3).values
            assert np.array_equal(table[:, header.index(f"s_x_e{comp}")], expected)

    @pytest.mark.parametrize("old, new, message", [
        ("oracles = qrt mollow", "quadrature = 1e308",
         "quadrature spectrum has a non-negligible imaginary part (max |Im| = nan)"),
        ("oracles = qrt mollow", "[input]\neps_a = 1e308\neps_p = 1e308",
         "column 's_opt_e1' holds a non-finite value"),
    ], ids=["quadrature_1e308", "eps_1e308"])
    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_non_finite_table_exits_3_and_names_point(
        self, tmp_path, capsys, old, new, message
    ):
        text = NOSWEEP.replace("polarization = circular", "polarization = linear")
        scn = write(tmp_path, text.replace(old, new), name="huge.ini")
        out = tmp_path / "results"
        assert main(["validate", str(scn)]) == 0
        capsys.readouterr()
        assert main(["run", str(scn), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"physics failure: scenario point 'huge': {message}" in err
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

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_non_finite_sidecar_value_exits_3_and_names_it(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            zeenoise.propagation, "_carrier_susceptibility",
            lambda *args: complex("nan"),
        )
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

    @pytest.mark.parametrize("text", [
        NOSWEEP.replace("b0 = 0.1", "b0 = nan"),
        NOSWEEP.replace("b0 = 0.1", "b0 = inf"),
        NOSWEEP.replace("rabi = 1.0", "rabi = nan"),
        GOOD.replace("values = 0.5, 1.0", "values = 0.5 nan"),
    ], ids=["b0_nan", "b0_inf", "rabi_nan", "sweep_nan"])
    def test_non_finite_value_exits_2_without_output(self, tmp_path, capsys, text):
        scn = write(tmp_path, text, name="nonfinite.ini")
        assert "expected a finite number" in assert_rejected(
            scn, tmp_path / "results", capsys
        )

    def test_validate_broken_exits_2(self, tmp_path, capsys):
        text = NOSWEEP.replace("b0 = 0.1", "b0 = -2")
        scn = write(tmp_path, text, name="v2.ini")
        assert "error: v2: " in assert_rejected(scn, tmp_path / "results", capsys)

    def test_run_without_scenario_or_preset_exits_2(self, capsys):
        assert main(["run"]) == 2

    @pytest.mark.parametrize("old, new, message", [
        ("oracles = qrt mollow", "oracles = qrt mollow qrt", "[output] oracles: "),
        (
            "omega_min = 0.1\nomega_max = 2.0",
            "omega_min = -1e308\nomega_max = 1e308\nspacing = linear",
            "omega_min = -1e+308, omega_max = 1e+308 overflow the linear grid",
        ),
        ("fg = 1\nfe = 2", "fg = 40\nfe = 41", "transition: fg must be <= 10, got 40"),
        ("count = 5", "count = 5\nsymmetrize = maybe",
         "[grid] symmetrize: expected a boolean"),
    ], ids=[
        "duplicate_oracle", "grid_span_overflow", "f_above_cap", "symmetrize_maybe",
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
         "[sweep] parameter: parameter must be one of"),
        ("values = 0.5, 1.0", "values =", "[sweep] values: expected at least one"),
        ("name = demo", "name = ../escaped", "[scenario] name: expected a plain"),
        ("name = demo", "name = {tmp}/abs/evil", "[scenario] name: expected a plain"),
        ("name = demo", "name = a\\b", "[scenario] name: expected a plain"),
        ("name = demo", "name = ..", "[scenario] name: expected a plain"),
        ("name = demo", "name =", "[scenario] name: expected a plain"),
        ("name = demo", "name = a\0b", "[scenario] name: expected a plain"),
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
    built = []
    original = runner.build_generator

    def counting(scheme, drive):
        built.append(drive)
        return original(scheme, drive)

    monkeypatch.setattr(runner, "build_generator", counting)
    scenario = load_scenario(write(tmp_path, swept(parameter, values)))
    assert len(runner.run_scenario(scenario, tmp_path / "out")) == 2 * len(values)
    assert len(built) == builds


def test_b0_sweep_writes_the_tables_of_one_scenario_per_value(tmp_path):
    """Sharing the atoms across a b0 sweep moves no byte of any table."""
    values = (0, 0.05, 0.3)
    text = swept("b0", values).replace(
        "polarization = linear", "polarization = circular"
    ).replace("oracles = qrt", "oracles = qrt mollow")
    runner.run_scenario(load_scenario(write(tmp_path, text)), tmp_path / "swept")
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
