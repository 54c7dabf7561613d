"""CSV and report emission: fixed schemas, 17 significant digits, atomic writes."""

from __future__ import annotations

import functools
import itertools
import math
import os
import tempfile
import types

import numpy as np

from .modes import POL_LABELS, POLARIZATIONS, ModeAmplitudes, lambda_row
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

_BLOCK_CELLS = 2048 * 8  # values per formatted block; bounds the buffers held at once


def fmt(x) -> str:
    return format(float(x), ".17g")


def atomic_write_chunks(path: str, chunks):
    """Write an iterable of bytes, in order, via a temp file in the same directory,
    then rename it into place.

    If the iterable raises, path is left as it was and the temp file is removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".photonlab-", suffix=".tmp")
    try:
        # mkstemp's 0600 would survive the rename; give open()'s 0666 & ~umask
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)  # drops each chunk before it fetches the next
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path: str, columns, lines):
    """Header row, then the lines as they are produced, through one atomic write."""
    atomic_write_chunks(path, itertools.chain(((",".join(columns) + "\n").encode(),), lines))


def _word(b: bytes) -> int:
    return int.from_bytes(b.ljust(8, b"\0"), "little")


@functools.cache
def _tables():
    """Read-only lookup tables of _format_cells, built on first use."""
    tens = [1]
    for _ in range(340):
        tens.append(tens[-1] * 10)
    # 10**q = (c + d) 2**s with c in [2**127, 2**128) and 0 <= d < 1, for
    # q = 16 - E over the decimal exponents E of doubles; c as 32-bit limbs
    limbs, shifts = [], []
    for q in range(-292, 341):
        if q >= 0:
            s = tens[q].bit_length() - 128
            c = tens[q] >> s if s > 0 else tens[q] << -s
        else:
            s = -127 - tens[-q].bit_length()
            c = (1 << -s) // tens[-q]
        limbs.append([c >> 32 * i & 0xFFFFFFFF for i in range(4)])
        shifts.append(75 + s)
    # least[E + 324]: the least double >= 10**E
    least = []
    for e in range(-324, 309):
        f = tens[e] / 1 if e >= 0 else 1 / tens[-e]  # int / int rounds correctly
        n, d = f.as_integer_ratio()
        if (n < d * tens[e]) if e >= 0 else (n * tens[-e] < d):
            f = math.nextafter(f, math.inf)
        least.append(f)
    least.append(math.inf)
    # per %g exponent X in [-324, 308]: the "0.000" after the sign slot, the
    # exponent field, the digit the point follows (17: none) and the digits
    # kept whatever their trailing zeros
    pre, expo, point, kept = [], [], [], []
    for x in range(-324, 309):
        fixed = -4 <= x < 17
        pre.append(_word(b"\0" + (b"0." + b"0" * (-x - 1) if x < 0 else b"")) if fixed else 0)
        expo.append(0 if fixed else _word(b"\0\0" + b"e%+03d" % x))
        point.append(x if 0 <= x < 17 else 17 if fixed else 0)
        kept.append(x + 1 if 0 <= x < 17 else 0)
    # masks[:, 18 p + n] over the 18 output bytes of n digits with a point
    # after digit p: the digits left of it, those shifted right of it, the point
    p, n, j = np.ogrid[:18, :18, :24]
    dot = p < n - 1
    masks = np.stack([np.where(dot, j <= p, j < n), dot & (j >= p + 2) & (j <= n),
                      dot & (j == p + 1)], axis=2).astype(np.uint8)
    masks[..., :2, :] *= 0xFF
    masks[..., 2, :] *= ord(".")
    masks = masks.view(np.uint64).reshape(18 * 18, 9).T.copy()
    g = np.arange(10000, dtype=np.uint64)
    ascii4 = sum((g // 10 ** (3 - i) % 10 + ord("0")) << 8 * i for i in range(4))
    ascii4 |= sum((g % 10 ** i == 0).astype(np.uint64) for i in range(1, 5)) << 56
    u64 = functools.partial(np.array, dtype=np.uint64)
    tabs = {"limbs": u64(limbs).T.copy(), "shifts": np.array(shifts), "least": np.array(least),
            "pre": u64(pre), "expo": u64(expo), "point": u64(point), "kept": u64(kept),
            "masks": masks, "ascii4": ascii4}
    for t in tabs.values():
        t.flags.writeable = False
    return types.MappingProxyType(tabs)


def _scale(a, t):
    """E and m 2**e 10**(16-E) for each double a = m 2**e > 0, with 10**E <= a < 10**(E+1).

    The product is returned as its integer part and its top 64 fraction bits.
    m is multiplied exactly by 10**(16-E) truncated to 128 bits, so the true
    value exceeds the returned one by less than 2**-70.
    """
    mant, exp = np.frexp(a)
    m = (mant * 2.0 ** 53).astype(np.uint64)
    e10 = (exp.astype(np.int64) - 1) * 78913 >> 18  # floor((exp - 1) log10 2), |exp| < 1080
    e10 += a >= t["least"].take(e10 + 325)
    qi = 308 - e10
    c0, c1, c2, c3 = t["limbs"].take(qi, axis=1)
    # shifted so that the binary point falls at bit 128 of m c; 32-bit limbs
    m <<= (t["shifts"].take(qi) + exp).astype(np.uint64)
    lo, hi = m & 0xFFFFFFFF, m >> 32
    p0, p1, p2, p3 = lo * c0, lo * c1, lo * c2, lo * c3
    s = (p0 >> 32) + (p1 & 0xFFFFFFFF) + hi * c0
    s = (s >> 32) + (p1 >> 32) + (p2 & 0xFFFFFFFF) + hi * c1
    frac = s & 0xFFFFFFFF
    s = (s >> 32) + (p2 >> 32) + (p3 & 0xFFFFFFFF) + hi * c2
    frac |= s << 32
    return e10, (s >> 32) + (p3 >> 32) + hi * c3, frac


def _digits(whole, t):
    """The 17 ASCII digits of whole in [10**16, 10**17) as three little-endian words, and
    how many digits are left once trailing zeros are dropped."""
    lead = whole // 10 ** 16
    whole = whole - lead * 10 ** 16
    h = whole // 10 ** 8
    whole -= h * 10 ** 8
    g0 = h // 10 ** 4
    g2 = whole // 10 ** 4
    # four digits each, in the low 32 bits; their trailing zeros in the top byte
    d0, d1, d2, d3 = (t["ascii4"].take(g) for g in (g0, h - g0 * 10 ** 4, g2,
                                                     whole - g2 * 10 ** 4))
    z0, z1, z2, z3 = d0 >> 56, d1 >> 56, d2 >> 56, d3 >> 56
    count = 17 - (z3 + (z3 == 4) * (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0)))
    return (lead + ord("0") | d0 << 8 | d1 << 40, d1 >> 24 & 0xFF | d2 << 8 | d3 << 40,
            d3 >> 24 & 0xFF), count


def _format_cells(x, out):
    """Write '%.17g' % v of each float64 v in x, NUL-padded, into the four words out[..., :4].

    Exact fixed-precision conversion (U. Adams, Proc. ACM Program. Lang. 3
    (OOPSLA) 169, 2019): with 10**E <= |v| < 10**(E+1) the 17 digits are
    |v| 10**(16-E) rounded half-even, certified by _scale's error bound: a
    value whose 64 fraction bits lie within 2**8 of one half, and nan and
    inf, are written by '%.17g' itself. Word 0 holds the sign and the "0.000"
    of fixed values below 1, words 1-3 the digits with their point, then the
    exponent; the cell's last byte stays NUL. Returns the mask of the values
    written by '%.17g'.
    """
    t = _tables()
    a = np.abs(x)
    zero = a == 0
    fast = a < math.inf
    e10, whole, frac = _scale(np.where(fast & ~zero, a, 1.0), t)
    del a
    fast &= frac - (2 ** 63 - 255) > 510
    whole += frac >> 63
    del frac
    carry = whole == 10 ** 17
    e10 += carry
    (s0, s1, s2), count = _digits(np.where(carry, 10 ** 16, whole), t)
    del whole, carry
    s0 -= zero  # 1.0 stood in for 0
    xi = e10 + 324
    keep = np.maximum(count, t["kept"].take(xi))
    mask = t["masks"].take(t["point"].take(xi) * 18 + keep, axis=1)
    out[..., 0] = t["pre"].take(xi) | (x.view(np.uint64) >> 63) * ord("-")
    out[..., 1] = s0 & mask[0] | s0 << 8 & mask[3] | mask[6]
    out[..., 2] = s1 & mask[1] | (s1 << 8 | s0 >> 56) & mask[4] | mask[7]
    out[..., 3] = s2 & mask[2] | (s2 << 8 | s1 >> 56) & mask[5] | mask[8] | t["expo"].take(xi)
    for i in zip(*np.nonzero(~fast)):
        out[i] = np.frombuffer((b"%.17g" % float(x[i])).ljust(32, b"\0"), np.uint64)
    return ~fast


def _lines(prefixes, values):
    """Yield CSV bytes, _BLOCK_CELLS values a block: row i is the prefixes' row i, then values[i].

    The fewest blocks of at most _BLOCK_CELLS values share the rows evenly,
    so their row counts differ by one at most and no block is a straggler.
    prefixes: NUL-padded (n, w) or (1, w) uint8 cells, joined left to right.
    Each block is one uint64 buffer of prefix words and four-word value
    cells (_format_cells) with the separator in each cell's last byte; the
    NULs are dropped in one pass.
    """
    values = np.asarray(values, dtype=np.float64)
    n, ncol = values.shape
    edges = np.cumsum([0] + [p.shape[1] for p in prefixes])
    width = -(-int(edges[-1]) // 8)
    sep = np.full(ncol, ord(","), dtype=np.uint64) << 56
    sep[-1] = ord("\n") << 56
    count = -(-n // max(1, _BLOCK_CELLS // ncol))
    for b in range(count):
        lo, hi = b * n // count, (b + 1) * n // count
        buf = np.zeros((hi - lo, width + 4 * ncol), dtype=np.uint64)
        text = buf.view(np.uint8)
        for p, left, right in zip(prefixes, edges, edges[1:]):
            text[:, left:right] = p if p.shape[0] == 1 else p[lo:hi]
        cells = buf[:, width:].reshape(hi - lo, ncol, 4)
        _format_cells(values[lo:hi], cells)
        cells[..., 3] |= sep
        text = text.ravel()
        yield text[text != 0].tobytes()


def _strings(texts) -> np.ndarray:
    """(n, w) uint8 of the texts' ASCII bytes, NUL-padded to the longest."""
    cells = np.array([s.encode() for s in texts], dtype=bytes)
    return cells.view(np.uint8).reshape(cells.size, -1)


def _point_prefixes(grid, axis_values) -> np.ndarray:
    """"x,y,z," per grid point in C order as NUL-padded bytes; 1D gives "0,0,z,"."""
    axes = [axis_values(a) if grid.dimension == 3 or a == 2 else (0.0,) for a in range(3)]
    x, y, z = (_strings([fmt(v) + "," for v in ax]) for ax in axes)
    out = np.empty((x.shape[0], y.shape[0], z.shape[0], x.shape[1] + y.shape[1] + z.shape[1]),
                   dtype=np.uint8)
    out[..., :x.shape[1]] = x[:, None, None, :]
    out[..., x.shape[1]:-z.shape[1]] = y[None, :, None, :]
    out[..., -z.shape[1]:] = z[None, None, :, :]
    return out.reshape(-1, out.shape[-1])


def _slab_prefixes(grid, p0: int, n_planes: int) -> np.ndarray:
    """_point_prefixes of the array-axis-0 planes p0 .. p0 + n_planes - 1 of a sample box."""
    x = grid.axis_positions()
    sliced = 0 if grid.dimension == 3 else 2  # the axis along array axis 0
    return _point_prefixes(grid, lambda a: x[p0:p0 + n_planes] if a == sliced else x)


def write_modes_csv(path: str, m: ModeAmplitudes):
    """Serialize amplitudes: one row per grid point per non-silent polarization.

    Amplitudes are always written in the internal natural normalization.
    """
    kpoints = _point_prefixes(m.grid, m.grid.axis_values)

    def lines():
        for pol in POLARIZATIONS:
            amps = m.amps[lambda_row(pol)]
            if np.any(amps):
                yield from _lines((kpoints, _strings([POL_LABELS[pol] + ","])),
                                  amps.reshape(-1, 1).view(np.float64))
    _write_table(path, MODES_COLUMNS, lines())


def write_fields_csv(path: str, slabs, units: UnitSystem = NATURAL):
    """slabs: iterable of (first x-plane, FieldSnapshot), covering the box in order.

    Each snapshot holds the consecutive x-planes (array axis 0) of its grid
    from its first plane on; a whole box is one slab at plane 0. Each slab is
    formatted and written before the next is read, a block of whole planes
    of about _BLOCK_CELLS values at a time.
    """
    ka, ke = units.a_field, units.e_field

    def lines():
        for p0, s in slabs:
            scaled = ((ka, s.a_plus), (ke, s.e_plus), (ka, s.b_plus), (ke, s.phi_plus[..., None]))
            step = max(1, _BLOCK_CELLS // (20 * s.phi_plus[0].size))  # 20 values a point
            for lo in range(0, len(s.phi_plus), step):
                # complex columns viewed as float64 pairs give the re_*, im_* order;
                # the row-major target makes that view valid whatever the layout
                cols = np.empty(s.phi_plus[lo:lo + step].shape + (10,), dtype=np.complex128)
                for (k, field), c in zip(scaled, (0, 3, 6, 9)):
                    np.multiply(k, field[lo:lo + step], out=cols[..., c:c + field.shape[-1]])
                yield from _lines((_slab_prefixes(s.grid, p0 + lo, len(cols)),),
                                  cols.reshape(-1, 10).view(np.float64))
            del s, scaled, field, cols  # freed before the next slab is summed
    _write_table(path, FIELDS_COLUMNS, lines())


def write_current_csv(path: str, blocks, units: UnitSystem = NATURAL):
    """blocks: iterable of (first x-plane, CurrentField, |continuity residual|).

    Each current holds the consecutive x-planes (array axis 0) of its grid
    from its first plane on, at its own time, and its residual array the
    same points; the blocks of one time cover the box in order, and a whole
    box is one block at plane 0. Each block is formatted and written before
    the next is read; an absent helicity column is written as 0.
    """
    def lines():
        for p0, cf, residual in blocks:
            cols = np.zeros((cf.rho.size, 8))
            cols[:, 0] = cf.rho.reshape(-1)
            cols[:, 1:4] = (units.current * cf.j).reshape(-1, 3)
            if cf.s_hel is not None:
                cols[:, 4:7] = (units.helicity * cf.s_hel).reshape(-1, 3)
            cols[:, 7] = (units.residual * residual).reshape(-1)
            points = _slab_prefixes(cf.grid, p0, len(cf.rho))
            yield from _lines((_strings([fmt(units.time_out * cf.time) + ","]), points), cols)
            del cf, residual, cols, points  # freed before the next block is read
    _write_table(path, CURRENT_COLUMNS, lines())


def write_lifecycle_csv(path: str, report, units: UnitSystem = NATURAL):
    cols = np.stack([units.time_out * report.times, report.norm,
                     units.residual * report.residual_max, report.peak_z], axis=1)
    _write_table(path, LIFECYCLE_COLUMNS, _lines((), cols))


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


def write_report_files(outdir: str, text: str, checks):
    """Emit report.txt (the text of report_text) and report.csv; returns the two paths."""
    txt_path = os.path.join(outdir, "report.txt")
    csv_path = os.path.join(outdir, "report.csv")
    atomic_write_chunks(txt_path, (text.encode("utf-8"),))
    # check names are fixed identifiers, so no field needs CSV quoting
    _write_table(csv_path, REPORT_COLUMNS, (
        f"{c.name},{fmt(c.measured)},{fmt(c.tolerance)},"
        f"{'' if c.order is None else fmt(c.order)},{'true' if c.passed else 'false'}\n".encode()
        for c in checks))
    return txt_path, csv_path
