"""Writers: diagnostics CSV, legacy ASCII VTK rectilinear snapshots,
documented staggered-field CSV dumps, and verification reports.

Staggered CSV layout (one row per degree of freedom):
``field,id,x,y,z,value`` with ``field`` one of ``rho``, ``p``, ``u0``,
``u1`` (and ``u2`` in 3d); ids are the lexicographic entity ids.  VTK files
carry cell data only, with the face velocities interpolated to cell centers
for visualization.
"""

import csv
from dataclasses import asdict, fields as dc_fields

import numpy as np

from .fields import reconstruct_face_to_cell
from .verification import DiagnosticsRecord

__all__ = [
    "diagnostics_header",
    "record_to_row",
    "DiagnosticsCsvWriter",
    "write_vtk_rectilinear",
    "write_staggered_csv",
    "write_report_csv",
    "report_summary",
]


def diagnostics_header():
    return [f.name for f in dc_fields(DiagnosticsRecord)]


def record_to_row(record: DiagnosticsRecord):
    row = asdict(record)
    row["violations"] = ";".join(record.violations)
    return row


class DiagnosticsCsvWriter:
    """Streaming CSV sink for per-step diagnostics records."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", newline="")
        self._writer = csv.DictWriter(self._fh, fieldnames=diagnostics_header())
        self._writer.writeheader()

    def __call__(self, record: DiagnosticsRecord):
        self._writer.writerow(record_to_row(record))
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _cell_velocity(state):
    mesh = state.rho.mesh
    comps = []
    for i in range(mesh.dim):
        comps.append(reconstruct_face_to_cell(mesh, state.u.components[i], i)
                     .values)
    while len(comps) < 3:
        comps.append(np.zeros(mesh.n_cells))
    return comps


CHUNK_ROWS = 1024     # rows per %-format in _write_rows


def _write_rows(fh, row, *columns):
    """Write ``row``, %-formatted once per entry of the equal-length
    ``columns``.

    One format over Python scalars (``tolist``) per chunk of rows gives the
    same bytes as formatting each value on its own, several times faster
    than a loop over numpy scalars; the chunks bound the scalars alive at
    once."""
    cols = [np.asarray(c).ravel() for c in columns]
    for start in range(0, cols[0].size, CHUNK_ROWS):
        part = [c[start:start + CHUNK_ROWS].tolist() for c in cols]
        flat = [None] * (len(part) * len(part[0]))
        for k, col in enumerate(part):
            flat[k::len(part)] = col
        fh.write(row * len(part[0]) % tuple(flat))


def write_vtk_rectilinear(state, path, title="macflow snapshot"):
    """Legacy ASCII VTK rectilinear grid with cell-centered density,
    pressure and interpolated velocity."""
    mesh = state.rho.mesh
    axes = [mesh.breaks[a] for a in range(mesh.dim)]
    while len(axes) < 3:
        axes.append(np.array([0.0]))
    dims = [a.size for a in axes]
    velocity = [_vtk_order(mesh, c) for c in _cell_velocity(state)]
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 2.0\n")
        fh.write(f"{title} t={state.t:.12g}\n")
        fh.write("ASCII\nDATASET RECTILINEAR_GRID\n")
        fh.write(f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}\n")
        for name, arr in zip(("X", "Y", "Z"), axes):
            fh.write(f"{name}_COORDINATES {arr.size} double\n")
            _write_block(fh, arr, per_line=arr.size)
        fh.write(f"CELL_DATA {mesh.n_cells}\n")
        for name, values in (("density", state.rho.values),
                             ("pressure", state.p.values)):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            _write_block(fh, _vtk_order(mesh, values))
        fh.write("VECTORS velocity double\n")
        _write_rows(fh, "%.12g %.12g %.12g\n", *velocity)


def _vtk_order(mesh, values):
    # VTK expects x fastest; our lexicographic ids have the last axis fastest
    return np.asarray(values).reshape(mesh.cells_shape).transpose().ravel()


def _write_block(fh, values, per_line=6):
    """``per_line`` values to a line, the last line holding the rest."""
    vals = np.asarray(values).ravel()
    full = vals.size - vals.size % per_line
    if full:
        _write_rows(fh, " ".join(["%.12g"] * per_line) + "\n",
                    *vals[:full].reshape(-1, per_line).T)
    if full < vals.size:
        _write_rows(fh, " ".join(["%.12g"] * (vals.size - full)) + "\n",
                    *vals[full:, None])


def write_staggered_csv(state, path):
    """Raw staggered values: one row per entity with its id and coordinates;
    the rows are those of the ``csv`` module's default dialect."""
    mesh = state.rho.mesh
    centers = mesh.cell_centers()
    blocks = [("rho", centers, state.rho.values),
              ("p", centers, state.p.values)]
    blocks += [(f"u{i}", mesh.face_centers(i), state.u.components[i])
               for i in range(mesh.dim)]
    with open(path, "w", newline="") as fh:
        fh.write("field,id,x,y,z,value\r\n")
        for name, coords, values in blocks:
            values = np.asarray(values).ravel()
            xyz = [coords[:, a] if a < mesh.dim else np.zeros(values.size)
                   for a in range(3)]
            _write_rows(fh, name + ",%d,%.17g,%.17g,%.17g,%.17g\r\n",
                        np.arange(values.size), *xyz, values)


def write_report_csv(report: dict, path):
    """Serialize a verification report as check,value rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "value"])
        for key, value in report.items():
            writer.writerow([key, f"{value:.17g}"])


def report_summary(title, report, thresholds):
    """Human-readable pass/fail summary; thresholds maps check name to the
    maximum admissible value."""
    lines = [title]
    ok = True
    for key, value in report.items():
        if key in thresholds:
            passed = value <= thresholds[key]
            ok &= passed
            status = "pass" if passed else "FAIL"
            lines.append(f"  {status}  {key}: {value:.3e} (allowed {thresholds[key]:.3e})")
        else:
            lines.append(f"  info  {key}: {value:.3e}")
    lines.append(f"=> {'all checks passed' if ok else 'CHECKS FAILED'}")
    return "\n".join(lines), ok
