"""The package surface: what `import zeenoise` exports and what it loads."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import zeenoise
from zeenoise import errors, oracles

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _library_use_imports():
    """Names imported from `zeenoise` in the README "Library use" block."""
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    return {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "zeenoise"
        for alias in node.names
    }


def test_public_names_are_the_documented_ones():
    error_classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ZeenoiseError)
    }
    documented = _library_use_imports() | error_classes | {"CONVENTIONS_VERSION"}
    assert sorted(zeenoise.__all__) == sorted(documented)
    assert len(zeenoise.__all__) == 20
    for name in zeenoise.__all__:
        assert hasattr(zeenoise, name)


def _python(code):
    """Run `code` in a fresh interpreter that imports this zeenoise."""
    src = str(Path(zeenoise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys, zeenoise.cli; "
        "sys.exit(sorted(m for m in sys.modules if m == 'scipy' "
        "or m.startswith('scipy.')) or 0)"
    )
    done = _python(code)
    assert done.returncode == 0, done.stderr


def _dependency_name(requirement):
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower()


def test_runtime_needs_numpy_and_the_standard_library_only():
    """Every import in src/zeenoise is relative, zeenoise, numpy or the
    standard library, and numpy is the package's one dependency."""
    allowed = {"zeenoise", "numpy"} | set(sys.stdlib_module_names)
    outside = []
    for path in sorted(Path(zeenoise.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in allowed
            ]
    assert outside == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [_dependency_name(d) for d in project["dependencies"]] == ["numpy"]
    test_extra = project["optional-dependencies"]["test"]
    assert "scipy" in [_dependency_name(d) for d in test_extra]


def test_oracles_stay_off_the_kernel_route():
    """The regression oracle reads G and its seed only, never the kernel's M
    or 2D: oracles.py imports neither propagation nor langevin, and reads no
    `drift` attribute."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    modules = {part for name in imported for part in name.split(".")}
    assert not modules & {"propagation", "langevin"}
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "drift"
        or isinstance(node, ast.Constant) and node.value == "drift"
    ]


def _traced_names():
    """The bench tracer's WRAPPED table: module name -> wrapped names."""
    tree = ast.parse((ROOT / "perfbench" / "trace_cli.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]
    )


def test_traced_names_resolve_to_callables():
    """Every (module, name) the bench tracer wraps exists and is callable."""
    wrapped = _traced_names()
    assert wrapped
    for module_name, names in wrapped.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


POINT = """
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
count = 3

[output]
oracles = qrt mollow
"""


def test_traced_runner_and_cli_names_are_called(tmp_path, monkeypatch):
    """`zeenoise run` on one point calls every runner and cli name the bench
    tracer wraps, so no per-layer metric silently reads zero."""
    from zeenoise.cli import main

    calls = {}
    for module_name in ("zeenoise.runner", "zeenoise.cli"):
        module = importlib.import_module(module_name)
        for name in _traced_names()[module_name]:
            key = f"{module_name}.{name}"
            calls[key] = 0

            def counting(*args, _original=getattr(module, name), _key=key, **kw):
                calls[_key] += 1
                return _original(*args, **kw)

            monkeypatch.setattr(module, name, counting)
    scn = tmp_path / "point.ini"
    scn.write_text(POINT)
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 13
    assert [key for key, count in calls.items() if count == 0] == []


SWEEP = POINT.replace("count = 3", "count = 3\nsymmetrize = true") + """
[sweep]
parameter = b0
values = 0.05, 0.1
"""


def test_run_leaves_masked_arrays_and_scipy_unloaded(tmp_path):
    """A whole `zeenoise run` (sweep, symmetrized grid, both oracles) loads
    neither numpy.ma nor scipy. On numpy 2.4,
    `np.unique` without a return_* option and `np.intersect1d` import
    numpy.ma (+1.7 MB peak RSS)."""
    scn = tmp_path / "sweep.ini"
    scn.write_text(SWEEP)
    code = (
        "import sys; from zeenoise.cli import main; "
        f"rc = main(['run', {str(scn)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "sys.exit(rc or sorted(m for m in sys.modules if m.split('.')[0] == "
        "'scipy' or m == 'numpy.ma') or 0)"
    )
    done = _python(code)
    assert done.returncode == 0, done.stderr
    assert len(list((tmp_path / "out").glob("*.csv"))) == 2


def _src_defs():
    """(file name, co_qualname) of every def in src/zeenoise/*.py."""
    found = set()

    def visit(node, prefix, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.", name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", name)
            else:
                visit(child, prefix, name)

    for path in Path(zeenoise.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), "", path.name)
    return found


# Defined in src/ but reached by no `run` or `validate`: perfbench's tracer
# wraps it, so it goes once the bench stops tracing it (ROADMAP item 16).
UNREACHED_BY_THE_CLI = {("propagation.py", "atomic_response")}

LINEAR_SWEEP = """
[scenario]
name = reach_linear

[transition]
fg = 1
fe = 2

[drive]
polarization = linear
rabi = 1.0
detuning = 0.5

[medium]
b0 = 0.1

[input]
eps_a = 1.0
eps_p = 10.0

[grid]
omega_min = 0.1
omega_max = 2.0
count = 3
spacing = linear
symmetrize = true

[sweep]
parameter = b0
values = 0.05, 0.1

[output]
oracles = qrt
quadrature = 0.3
"""


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
def test_every_src_function_runs_under_the_cli(tmp_path):
    """Each def in src/zeenoise runs in `validate` (a broken and a good file)
    or `run` (a linear sweep and a circular point), so src/ ships no code
    that only the tests call."""
    files = {
        "broken.ini": "[transition\nfg = 1\n",
        "point.ini": POINT,
        "linear.ini": LINEAR_SWEEP,
        "circular.ini": POINT + "quadrature = amplitude\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = str(tmp_path / "out")
    calls = [
        ["validate", str(tmp_path / "broken.ini")],
        ["validate", str(tmp_path / "point.ini")],
        ["run", str(tmp_path / "linear.ini"), "--out", out],
        ["run", str(tmp_path / "circular.ini"), "--out", out],
    ]
    code = (
        "import json, sys\n"
        "seen = set()\n"
        "def note(frame, event, arg):\n"
        "    if event == 'call':\n"
        "        seen.add((frame.f_code.co_filename, frame.f_code.co_qualname))\n"
        "sys.setprofile(note)\n"
        "from zeenoise.cli import main\n"
        f"codes = [main(args) for args in {calls!r}]\n"
        "sys.setprofile(None)\n"
        "print(json.dumps([codes, sorted(seen)]))\n"
    )
    done = _python(code)
    assert done.returncode == 0, done.stderr
    codes, seen = json.loads(done.stdout.splitlines()[-1])
    assert codes == [2, 0, 0, 0]
    package = Path(zeenoise.__file__).resolve().parent
    ran = {
        (Path(file).name, qualname)
        for file, qualname in seen
        if Path(file).resolve().parent == package
    }
    assert sorted(_src_defs() - ran) == sorted(UNREACHED_BY_THE_CLI)
