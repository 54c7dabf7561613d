"""CSV and report emission: fixed schemas, 17 significant digits, atomic writes."""

from __future__ import annotations

import csv
import itertools
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

_BLOCK_ROWS = 1 << 14  # rows per '%' call; bounds the strings held at once


def fmt(x) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the same directory, then rename into place."""
    atomic_write_chunks(path, (text,))


def atomic_write_chunks(path: str, chunks):
    """Write an iterable of strings, in order, through the same temp file and rename.

    If the iterable raises, path is left as it was and the temp file is removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".photonlab-", suffix=".tmp")
    try:
        # mkstemp's 0600 would survive the rename; give open()'s 0666 & ~umask
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path: str, columns, lines):
    """Header row, then the lines as they are produced, through one atomic write."""
    atomic_write_chunks(path, itertools.chain((",".join(columns) + "\n",), lines))


def _lines(prefixes, values):
    """Yield lines prefixes[i] + values[i] as CSV, one '%' per block of _BLOCK_ROWS rows.

    '%.17g' % x is fmt(x) byte for byte, nan, inf, -0 and subnormals included.
    """
    values = np.asarray(values, dtype=np.float64)
    n, ncol = values.shape
    row = "%s" + ",".join(["%.17g"] * ncol) + "\n"
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        cells = np.empty((hi - lo, ncol + 1), dtype=object)
        cells[:, 0] = prefixes[lo:hi]
        cells[:, 1:] = values[lo:hi]
        yield (row * (hi - lo)) % tuple(cells.ravel().tolist())


def _point_prefixes(grid, axis_values) -> np.ndarray:
    """"x,y,z," per grid point in C order, each axis value formatted once; 1D gives "0,0,z,"."""
    axes = [axis_values(a) if grid.dimension == 3 or a == 2 else (0.0,) for a in range(3)]
    x, y, z = (np.array([fmt(v) + "," for v in ax], dtype=object) for ax in axes)
    return (x[:, None, None] + y[None, :, None] + z[None, None, :]).ravel()


def write_modes_csv(path: str, m: ModeAmplitudes):
    """Serialize amplitudes: one row per grid point per non-silent polarization.

    Amplitudes are always written in the internal natural normalization.
    """
    labels = {1: "+1", -1: "-1", "par": "par"}
    kpoints = _point_prefixes(m.grid, m.grid.axis_values)

    def lines():
        for pol in POLARIZATIONS:
            amps = m.amps[lambda_row(pol)]
            if np.any(amps):
                yield from _lines(kpoints + (labels[pol] + ","),
                                  amps.reshape(-1, 1).view(np.float64))
    _write_table(path, MODES_COLUMNS, lines())


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
    n = grid.n_points
    ka, ke = units.a_field, units.e_field
    # complex columns viewed as float64 pairs give the re_*, im_* order; the
    # row-major target makes that view valid whatever the snapshot layout
    cols = np.empty((n, 10), dtype=np.complex128)
    np.concatenate([(ka * snap.a_plus).reshape(n, 3), (ke * snap.e_plus).reshape(n, 3),
                    (ka * snap.b_plus).reshape(n, 3), (ke * snap.phi_plus).reshape(n, 1)],
                   axis=1, out=cols)
    cols = cols.view(np.float64)
    points = _point_prefixes(grid, lambda a: grid.axis_positions())
    _write_table(path, FIELDS_COLUMNS, _lines(points, cols))


def write_current_csv(path: str, blocks, units: UnitSystem = NATURAL):
    """blocks: iterable of (time, CurrentField, residual array or None).

    Each block is formatted and written before the next is read; absent
    helicity or residual columns are written as 0.
    """
    def lines():
        for time, cf, residual in blocks:
            grid = cf.grid
            cols = np.zeros((grid.n_points, 8))
            cols[:, 0] = cf.rho.reshape(-1)
            cols[:, 1:4] = (units.current * cf.j).reshape(-1, 3)
            if cf.s_hel is not None:
                cols[:, 4:7] = (units.helicity * cf.s_hel).reshape(-1, 3)
            if residual is not None:
                cols[:, 7] = (units.residual * np.asarray(residual)).reshape(-1)
            points = _point_prefixes(grid, lambda a: grid.axis_positions())
            yield from _lines(fmt(units.time_out * time) + "," + points, cols)
    _write_table(path, CURRENT_COLUMNS, lines())


def write_lifecycle_csv(path: str, report, units: UnitSystem = NATURAL):
    cols = np.stack([units.time_out * report.times, report.norm,
                     units.residual * report.residual_max, report.peak_z], axis=1)
    _write_table(path, LIFECYCLE_COLUMNS, _lines(np.full(len(cols), "", dtype=object), cols))


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
    # check names are fixed identifiers, so no field needs CSV quoting
    _write_table(csv_path, REPORT_COLUMNS, (
        f"{c.name},{fmt(c.measured)},{fmt(c.tolerance)},"
        f"{'' if c.order is None else fmt(c.order)},{'true' if c.passed else 'false'}\n"
        for c in checks))
    return txt_path, csv_path
