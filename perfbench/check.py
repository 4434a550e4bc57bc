"""Output check: written tables against stored reference tables.

Each scenario point writes `<label>.csv` and `<label>.json`. A point passes
when all of these hold:

- both files exist, the CSV header equals the reference header, and the
  JSON sidecar parses and lists the same columns;
- the table has the reference's shape and the same empty fields, and every
  other field is a finite number;
- with a full reference: every value is within 1e-10 of the column's
  largest reference magnitude (the kernel gate). A column whose largest
  magnitude is below 1e-6 of the largest column of the same quantity in
  the table holds only round-off, so that larger scale is used for it.
  Numbers in the reference sidecar match to 1e-10 relative; keys the
  reference sidecar does not have are ignored;
- always: |s_opt_eK - qrt_opt_eK| <= 1e-8 x max|qrt_opt| where QRT columns
  exist (the QRT gate), and a non-empty `mollow_opt_e1` matches `s_opt_e1`
  to a relative L2 mismatch below 1e-6 after a least-squares scale (the
  acceptance test's Mollow check).

Files that belong to no expected point each count as one more failed point.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KERNEL_GATE = 1e-10
QRT_GATE = 1e-8
MOLLOW_GATE = 1e-6
ROUNDOFF_SHARE = 1e-6
SIDECAR_GATE = 1e-10

# Columns holding the same physical quantity share one scale.
QUANTITY = {
    "omega_over_gamma": "omega",
    "s_opt_e1": "optical",
    "s_opt_e2": "optical",
    "qrt_opt_e1": "optical",
    "qrt_opt_e2": "optical",
    "mollow_opt_e1": "optical",
    "s_x_e1": "quadrature",
    "s_x_e2": "quadrature",
}


@dataclass
class Table:
    header: str
    values: np.ndarray  # rows x columns, NaN where the field is empty
    empty: np.ndarray   # True where the field is empty

    @property
    def columns(self):
        return self.header.split(", ")

    def column(self, name):
        return self.values[:, self.columns.index(name)]


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def parse_csv(text):
    """Parse a zeenoise CSV table; raises ValueError on malformed text."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty table")
    header = lines[0]
    width = len(header.split(", "))
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        raise ValueError("ragged table")
    empty = np.array([[f == "" for f in row] for row in rows], dtype=bool)
    values = np.array(
        [[float(f) if f else math.nan for f in row] for row in rows],
        dtype=float,
    ).reshape(len(rows), width)
    return Table(header=header, values=values, empty=empty.reshape(len(rows), width))


def load_reference(path):
    """{label: (Table, sidecar dict)} from a reference .npz file."""
    out = {}
    with np.load(path, allow_pickle=False) as data:
        labels = sorted(k[len("csv/"):] for k in data.files if k.startswith("csv/"))
        for label in labels:
            values = data[f"csv/{label}"]
            table = Table(
                header=str(data[f"header/{label}"]),
                values=values,
                empty=np.isnan(values),
            )
            out[label] = (table, json.loads(str(data[f"json/{label}"])))
    return out


def save_reference(path, out_dir):
    """Store every table and sidecar in `out_dir` as a reference .npz."""
    arrays = {}
    for csv_path in sorted(Path(out_dir).glob("*.csv")):
        label = csv_path.stem
        table = parse_csv(csv_path.read_text())
        arrays[f"csv/{label}"] = table.values
        arrays[f"header/{label}"] = np.array(table.header)
        arrays[f"json/{label}"] = np.array(
            csv_path.with_suffix(".json").read_text()
        )
    np.savez_compressed(path, **arrays)


def _column_scales(table):
    columns = table.columns
    own = {}
    for i, name in enumerate(columns):
        col = table.values[:, i]
        own[name] = float(np.max(np.abs(col))) if not np.isnan(col).all() else 0.0
    family = {}
    for name, scale in own.items():
        q = QUANTITY.get(name, name)
        family[q] = max(family.get(q, 0.0), scale)
    scales = {}
    for name, scale in own.items():
        fam = family[QUANTITY.get(name, name)]
        scales[name] = scale if scale >= ROUNDOFF_SHARE * fam else fam
    return scales


def _compare_values(table, ref):
    scales = _column_scales(ref)
    for i, name in enumerate(ref.columns):
        if ref.empty[:, i].all():
            continue
        diff = float(np.max(np.abs(table.values[:, i] - ref.values[:, i])))
        if diff > KERNEL_GATE * scales[name]:
            return (
                f"column {name} moved by {diff:.3e} "
                f"(gate {KERNEL_GATE:g} x {scales[name]:.3e})"
            )
    return None


def _numbers_match(got, want):
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return False
        return all(k in got and _numbers_match(got[k], v) for k, v in want.items())
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_numbers_match(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= SIDECAR_GATE * max(abs(got), abs(want))
    return got == want


def _oracle_gates(table):
    columns = table.columns
    if "qrt_opt_e1" in columns:
        qrt = {k: table.column(f"qrt_opt_e{k}") for k in (1, 2)}
        scale = max(float(np.max(np.abs(q))) for q in qrt.values())
        for k in (1, 2):
            diff = float(np.max(np.abs(table.column(f"s_opt_e{k}") - qrt[k])))
            if diff > QRT_GATE * scale:
                return f"s_opt_e{k} differs from qrt_opt_e{k} by {diff:.3e}"
    if "mollow_opt_e1" in columns:
        model = table.column("mollow_opt_e1")
        if not np.isnan(model).all():
            trace = table.column("s_opt_e1")
            fit = float(np.dot(trace, model) / np.dot(model, model))
            rel = float(
                np.linalg.norm(trace - fit * model) / np.linalg.norm(trace)
            )
            if not rel < MOLLOW_GATE:
                return f"s_opt_e1 misses the Mollow lineshape by {rel:.3e}"
    return None


def check_point(out_dir, label, ref_table, ref_sidecar, full):
    """Return None if the point passes, else a one-line reason."""
    csv_path = Path(out_dir) / f"{label}.csv"
    json_path = csv_path.with_suffix(".json")
    if not csv_path.is_file() or not json_path.is_file():
        return "missing output file"
    try:
        table = parse_csv(csv_path.read_text())
        sidecar = json.loads(json_path.read_text())
    except (ValueError, OSError) as exc:
        return f"unreadable output: {exc}"
    if table.header != ref_table.header:
        return f"header changed: {table.header!r}"
    if not isinstance(sidecar, dict) or sidecar.get("columns") != table.columns:
        return "sidecar column list does not match the header"
    if table.values.shape != ref_table.values.shape:
        return f"shape {table.values.shape} != {ref_table.values.shape}"
    if not np.array_equal(table.empty, ref_table.empty):
        return "empty fields changed"
    if not np.isfinite(table.values[~table.empty]).all():
        return "non-finite value"
    if full:
        problem = _compare_values(table, ref_table)
        if problem:
            return problem
        if not _numbers_match(sidecar, ref_sidecar):
            return "sidecar values moved"
    return _oracle_gates(table)


def check_outputs(out_dir, reference, full=True):
    """Check every reference point in `out_dir`; extra files fail too."""
    result = CheckResult()
    for label, (ref_table, ref_sidecar) in reference.items():
        result.attempted += 1
        problem = check_point(out_dir, label, ref_table, ref_sidecar, full)
        if problem:
            result.failed += 1
            result.problems.append(f"{label}: {problem}")
    expected = set(reference)
    present = Path(out_dir).iterdir() if Path(out_dir).is_dir() else ()
    extra = sorted(
        {p.stem for p in present if p.suffix in (".csv", ".json")} - expected
    )
    for label in extra:
        result.attempted += 1
        result.failed += 1
        result.problems.append(f"{label}: unexpected output")
    return result


def fail_all(reference, reason):
    """Every point of a process counts as failed (non-zero exit, timeout)."""
    return CheckResult(
        attempted=len(reference),
        failed=len(reference),
        problems=[reason],
    )
