"""CSV and report emission: fixed schemas, 17 significant digits, atomic writes."""

from __future__ import annotations

import csv
import os
import tempfile

import numpy as np

from .modes import POLARIZATIONS, ModeAmplitudes, lambda_row
from .units import UnitSystem, NATURAL

MODES_COLUMNS = ("kx", "ky", "kz", "lambda", "re", "im")
FIELDS_COLUMNS = ("x", "y", "z",
                  "re_Ax", "im_Ax", "re_Ay", "im_Ay", "re_Az", "im_Az",
                  "re_Ex", "im_Ex", "re_Ey", "im_Ey", "re_Ez", "im_Ez",
                  "re_Bx", "im_Bx", "re_By", "im_By", "re_Bz", "im_Bz",
                  "re_phi", "im_phi")
CURRENT_COLUMNS = ("t", "x", "y", "z", "rho", "jx", "jy", "jz",
                   "sx", "sy", "sz", "residual")
LIFECYCLE_COLUMNS = ("t", "norm", "residual_max", "peak_z")
REPORT_COLUMNS = ("check", "measured", "tolerance", "order", "passed")


def fmt(x) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".photonlab-", suffix=".tmp")
    try:
        # mkstemp's 0600 would survive the rename; give open()'s 0666 & ~umask
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_rows(path: str, header, rows):
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def write_modes_csv(path: str, m: ModeAmplitudes):
    """Serialize amplitudes: one row per grid point per non-silent polarization.

    Amplitudes are always written in the internal natural normalization.
    """
    from .modes import kvectors
    kv = kvectors(m.grid)
    labels = {1: "+1", -1: "-1", "par": "par"}
    rows = []
    for pol in POLARIZATIONS:
        amps = m.amps[lambda_row(pol)]
        if not np.any(amps):
            continue
        for i in range(kv.shape[0]):
            rows.append((fmt(kv[i, 0]), fmt(kv[i, 1]), fmt(kv[i, 2]),
                         labels[pol], fmt(amps[i].real), fmt(amps[i].imag)))
    _write_rows(path, MODES_COLUMNS, rows)


def read_modes_csv(path: str, grid, speed: float = 1.0) -> ModeAmplitudes:
    """Read modes.csv rows back onto a known grid (rows must sit on lattice points)."""
    from .modes import _lattice_index
    table = {"+1": 1, "-1": -1, "par": "par"}
    amps = np.zeros((3, grid.n_points), dtype=np.complex128)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != MODES_COLUMNS:
            raise ValueError(f"unexpected modes.csv header: {header}")
        for row in reader:
            k = (float(row[0]), float(row[1]), float(row[2]))
            pol = table[row[3]]
            idx = _lattice_index(grid, k)
            amps[lambda_row(pol), idx] = complex(float(row[4]), float(row[5]))
    return ModeAmplitudes(grid=grid, amps=amps, speed=speed)


def write_fields_csv(path: str, snap, units: UnitSystem = NATURAL):
    grid = snap.grid
    pts = _positions(grid)
    ka, ke = units.a_field, units.e_field
    a = (ka * snap.a_plus).reshape(-1, 3)
    e = (ke * snap.e_plus).reshape(-1, 3)
    b = (ka * snap.b_plus).reshape(-1, 3)
    phi = (ke * snap.phi_plus).reshape(-1)
    rows = []
    for i in range(pts.shape[0]):
        row = [fmt(pts[i, 0]), fmt(pts[i, 1]), fmt(pts[i, 2])]
        for vec in (a, e, b):
            for comp in range(3):
                row.append(fmt(vec[i, comp].real))
                row.append(fmt(vec[i, comp].imag))
        row.append(fmt(phi[i].real))
        row.append(fmt(phi[i].imag))
        rows.append(row)
    _write_rows(path, FIELDS_COLUMNS, rows)


def write_current_csv(path: str, blocks, units: UnitSystem = NATURAL):
    """blocks: iterable of (time, CurrentField, residual array or None)."""
    rows = []
    for time, cf, residual in blocks:
        pts = _positions(cf.grid)
        t = fmt(units.time_out * time)
        rho = cf.rho.reshape(-1)
        j = (units.current * cf.j).reshape(-1, 3)
        s = None if cf.s_hel is None else (units.helicity * cf.s_hel).reshape(-1, 3)
        r = None if residual is None else \
            (units.residual * np.asarray(residual)).reshape(-1)
        for i in range(pts.shape[0]):
            srow = ("0", "0", "0") if s is None else tuple(fmt(s[i, c]) for c in range(3))
            res = "0" if r is None else fmt(r[i])
            rows.append((t, fmt(pts[i, 0]), fmt(pts[i, 1]), fmt(pts[i, 2]),
                         fmt(rho[i]), fmt(j[i, 0]), fmt(j[i, 1]), fmt(j[i, 2]),
                         *srow, res))
    _write_rows(path, CURRENT_COLUMNS, rows)


def write_lifecycle_csv(path: str, report, units: UnitSystem = NATURAL):
    rows = []
    for i in range(report.times.size):
        rows.append((fmt(units.time_out * report.times[i]),
                     fmt(report.norm[i]),
                     fmt(units.residual * report.residual_max[i]),
                     fmt(report.peak_z[i])))
    _write_rows(path, LIFECYCLE_COLUMNS, rows)


def _positions(grid) -> np.ndarray:
    """Sample coordinates as (n_points, 3), zeros on unused axes."""
    pts = np.zeros((grid.n_points, 3))
    ax = grid.axis_positions()
    if grid.dimension == 1:
        pts[:, 2] = ax
    else:
        n = grid.n_per_axis
        xs, ys, zs = np.meshgrid(ax, ax, ax, indexing="ij")
        pts[:, 0] = xs.ravel()
        pts[:, 1] = ys.ravel()
        pts[:, 2] = zs.ravel()
    return pts


def report_text(title: str, header_lines, checks, info_lines) -> str:
    """Human-readable report body; deterministic for fixed inputs."""
    out = [title, ""]
    out.append("# configuration")
    out.extend(header_lines)
    out.append("")
    out.append("# checks")
    name_w = max((len(c.name) for c in checks), default=5)
    for c in checks:
        order = "-" if c.order is None else fmt(c.order)
        bound = ">=" if c.sense == "ge" else "<="
        out.append(f"{c.name:<{name_w}}  measured {fmt(c.measured):>24}  "
                   f"{bound} tolerance {fmt(c.tolerance):>24}  "
                   f"order {order:>8}  {'pass' if c.passed else 'FAIL'}")
    if info_lines:
        out.append("")
        out.append("# info")
        out.extend(info_lines)
    n_pass = sum(1 for c in checks if c.passed)
    out.append("")
    out.append(f"result: {'PASS' if n_pass == len(checks) else 'FAIL'} "
               f"({n_pass}/{len(checks)} checks)")
    out.append("")
    return "\n".join(out)


def write_report_files(outdir: str, title: str, header_lines, checks, info_lines):
    """Emit report.txt and report.csv; returns the two paths."""
    txt_path = os.path.join(outdir, "report.txt")
    csv_path = os.path.join(outdir, "report.csv")
    atomic_write_text(txt_path, report_text(title, header_lines, checks, info_lines))
    rows = []
    for c in checks:
        rows.append((c.name, fmt(c.measured), fmt(c.tolerance),
                     "" if c.order is None else fmt(c.order),
                     "true" if c.passed else "false"))
    _write_rows(csv_path, REPORT_COLUMNS, rows)
    return txt_path, csv_path
