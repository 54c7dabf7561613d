import csv
import io
import os
import tracemalloc
import weakref
from dataclasses import replace
from decimal import Decimal
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photonlab import csvio, fields
from photonlab.csvio import (CURRENT_COLUMNS, FIELDS_COLUMNS, LIFECYCLE_COLUMNS, MODES_COLUMNS,
                             atomic_write_chunks, fmt, write_current_csv, write_fields_csv,
                             write_lifecycle_csv, write_modes_csv)
from photonlab.current import CurrentField, photon_current
from photonlab.fields import FieldSnapshot, SpatialGrid, dual_grid, slabs, synthesize
from photonlab.medium import MediumSpec, SourceEvent, lifecycle_1d
from photonlab.modes import (KGrid, ModeAmplitudes, POLARIZATIONS, gaussian_packet, kvectors,
                             lambda_row)
from photonlab.units import unit_system


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


def test_seventeen_digits_round_trip_float64():
    rng = np.random.default_rng(5)
    vals = np.concatenate([
        rng.normal(scale=10.0 ** rng.integers(-20, 20), size=200),
        [0.0, 1.0, -1.0, np.pi, 2.0 ** -1074, 1.7976931348623157e308],
    ])
    for v in vals:
        assert float(fmt(v)) == v


def test_modes_round_trip_exact(tmp_path):
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=3, center=(0.25, 0.25, 1.25))
    rng = np.random.default_rng(9)
    amps = rng.normal(size=(3, grid.n_points)) + 1j * rng.normal(size=(3, grid.n_points))
    m = ModeAmplitudes(grid, amps.astype(np.complex128))
    path = str(tmp_path / "modes.csv")
    write_modes_csv(path, m)
    header, rows = read_table(path)
    assert header == MODES_COLUMNS
    assert len(rows) == 3 * grid.n_points
    # rows run over the grid points once per polarization, in row order
    k = np.array([[float(v) for v in row[:3]] for row in rows])
    assert np.array_equal(k, np.tile(kvectors(grid), (3, 1)))
    assert [row[3] for row in rows[::grid.n_points]] == ["+1", "-1", "par"]
    back = np.array([complex(float(row[4]), float(row[5])) for row in rows])
    assert np.array_equal(back.reshape(3, grid.n_points), m.amps)


def test_modes_silent_polarizations_omitted(tmp_path):
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    path = str(tmp_path / "modes.csv")
    write_modes_csv(path, m)
    header, rows = read_table(path)
    assert len(rows) == grid.n_points
    assert {row[3] for row in rows} == {"+1"}
    k = np.array([[float(v) for v in row[:3]] for row in rows])
    assert np.array_equal(k, kvectors(grid))
    back = np.array([complex(float(row[4]), float(row[5])) for row in rows])
    assert np.array_equal(back, m.amps[lambda_row(1)])
    assert not np.any(m.amps[[lambda_row(-1), lambda_row("par")]])


def field_snapshot(dimension=1, n_x=8):
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=dimension,
                 center=(0.0, 0.0, 2.0) if dimension == 1 else (0.25, 0.25, 1.25))
    k0 = (0.0, 0.0, 2.0) if dimension == 1 else (0.25, 0.25, 1.25)
    m = gaussian_packet(grid, k0, 0.4, 1)
    return synthesize(m, dual_grid(grid, n_x), 0.3)


def test_fields_csv_schema_and_values(tmp_path):
    snap = field_snapshot()
    path = str(tmp_path / "fields.csv")
    write_fields_csv(path, [(0, snap)])
    header, rows = read_table(path)
    assert header == FIELDS_COLUMNS
    assert len(header) == 23
    assert len(rows) == snap.grid.n_points
    # spot check one entry against the snapshot arrays
    i = 5
    assert float(rows[i][0]) == 0.0
    assert float(rows[i][2]) == snap.grid.axis_positions()[i]
    assert float(rows[i][3]) == snap.a_plus[i, 0].real
    assert float(rows[i][12]) == snap.e_plus[i, 1].imag
    assert float(rows[i][21]) == snap.phi_plus[i].real


def test_fields_csv_3d_layout_matches_positions(tmp_path):
    snap = field_snapshot(dimension=3, n_x=4)
    path = str(tmp_path / "fields.csv")
    write_fields_csv(path, [(0, snap)])
    header, rows = read_table(path)
    assert len(rows) == 64
    ax = snap.grid.axis_positions()
    # x varies slowest, z fastest (C order)
    assert [float(r[0]) for r in rows[:4]] == [ax[0]] * 4
    assert [float(r[2]) for r in rows[:4]] == list(ax)
    flat = snap.e_plus.reshape(-1, 3)
    i = 37
    assert float(rows[i][11]) == flat[i, 1].real


def test_current_csv_zero_fills_optional_columns(tmp_path):
    # a snapshot that mixes polarizations carries no helicity density
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    m = ModeAmplitudes(grid, np.ones((3, grid.n_points), dtype=np.complex128))
    cf = photon_current(synthesize(m, dual_grid(grid, 8), 0.3))
    assert cf.s_hel is None
    path = str(tmp_path / "current.csv")
    write_current_csv(path, [(0, cf, np.zeros(cf.rho.shape))])
    header, rows = read_table(path)
    assert header == CURRENT_COLUMNS
    assert all(row[8:12] == ["0", "0", "0", "0"] for row in rows)
    assert float(rows[3][4]) == cf.rho[3]


def test_current_csv_helicity_and_residual_columns(tmp_path):
    snap = field_snapshot()
    cf = photon_current(snap)
    res = np.arange(float(snap.grid.n_points))
    path = str(tmp_path / "current.csv")
    write_current_csv(path, [(0, replace(cf, time=0.0), res), (0, replace(cf, time=0.5), res)])
    header, rows = read_table(path)
    assert len(rows) == 2 * snap.grid.n_points
    n = snap.grid.n_points
    assert float(rows[0][0]) == 0.0 and float(rows[n][0]) == 0.5
    assert float(rows[7][10]) == cf.s_hel[7, 2]
    assert float(rows[7][11]) == 7.0


def test_lifecycle_csv_schema(tmp_path):
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    grid = SpatialGrid(n_per_axis=256, spacing=30.0 / 256, dimension=1, origin=-5.0)
    times = np.linspace(0.0, 4.0, 41)
    emit = SourceEvent(kind="emitter", center=0.0, width=0.5, time=0.0, duration=0.4)
    rep = lifecycle_1d(emit, None, med, grid, times)
    path = str(tmp_path / "lifecycle.csv")
    write_lifecycle_csv(path, rep)
    header, rows = read_table(path)
    assert header == LIFECYCLE_COLUMNS
    assert len(rows) == times.size
    assert float(rows[-1][1]) == rep.norm[-1]
    assert float(rows[10][3]) == rep.peak_z[10]


def test_atomic_write_replaces_and_leaves_no_droppings(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_chunks(path, [b"first\n"])
    atomic_write_chunks(path, [b"second\n"])
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_mode_follows_umask(tmp_path):
    # the temp file starts 0600; the renamed product must get 0666 & ~umask
    previous = os.umask(0o022)
    try:
        path = str(tmp_path / "out.txt")
        atomic_write_chunks(path, [b"x\n"])
        assert os.stat(path).st_mode & 0o777 == 0o644
        os.umask(0o027)
        atomic_write_chunks(path, [b"y\n"])
        assert os.stat(path).st_mode & 0o777 == 0o640
    finally:
        os.umask(previous)


def test_each_chunk_is_released_before_the_next_is_produced(tmp_path):
    # the writer holds no chunk it wrote while the stream produces the next
    refs = []

    def chunk(i):
        c = np.full(1 << 16, ord("a") + i, dtype=np.uint8)
        refs.append(weakref.ref(c))
        return c

    def chunks():
        for i in range(3):
            assert [r() for r in refs] == [None] * i, i
            yield chunk(i)

    path = str(tmp_path / "out.txt")
    csvio.atomic_write_chunks(path, chunks())
    with open(path, "rb") as fh:
        assert fh.read() == b"".join(bytes([ord("a") + i]) * (1 << 16) for i in range(3))


def test_writes_are_deterministic(tmp_path):
    snap = field_snapshot()
    cf = photon_current(snap)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    res = np.zeros(cf.rho.shape)
    write_current_csv(p1, [(0, cf, res)])
    write_current_csv(p2, [(0, cf, res)])
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_si_output_factors(tmp_path):
    si = unit_system("si")
    snap = field_snapshot()
    cf = photon_current(snap)
    path = str(tmp_path / "current.csv")
    write_current_csv(path, [(0, replace(cf, time=1.0), np.zeros(cf.rho.shape))], units=si)
    _, rows = read_table(path)
    c_light = 299792458.0
    assert float(rows[0][0]) == 1.0 / c_light
    assert float(rows[4][7]) == c_light * cf.j[4, 2]
    # helicity per photon carries hbar; density itself is unscaled
    assert float(rows[4][10]) / float(rows[4][4]) == pytest.approx(
        1.054571817e-34 * cf.s_hel[4, 2] / cf.rho[4], rel=1e-15)
    fpath = str(tmp_path / "fields.csv")
    write_fields_csv(fpath, [(0, snap)], units=si)
    _, frows = read_table(fpath)
    scale = (1.054571817e-34 / 8.8541878128e-12) ** 0.5
    assert float(frows[2][9]) == pytest.approx(scale * snap.e_plus[2, 1].real, rel=1e-15)
    assert float(frows[2][3]) == pytest.approx(scale / c_light * snap.a_plus[2, 0].real,
                                               rel=1e-15)


def test_failing_block_stream_leaves_existing_file(tmp_path):
    snap = field_snapshot()
    cf = photon_current(snap)
    path = str(tmp_path / "current.csv")
    atomic_write_chunks(path, [b"previous\n"])

    def blocks():
        yield (0, cf, np.zeros(cf.rho.shape))
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        write_current_csv(path, blocks())
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "previous\n"
    assert os.listdir(tmp_path) == ["current.csv"]


# Oracle: the per-value writers (one format() per value, one csv.writer row
# per line) that the block writers replaced. The block writers must match
# them byte for byte.

def oracle_table(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def oracle_positions(grid):
    pts = np.zeros((grid.n_points, 3))
    ax = grid.axis_positions()
    if grid.dimension == 1:
        pts[:, 2] = ax
    else:
        xs, ys, zs = np.meshgrid(ax, ax, ax, indexing="ij")
        pts[:, 0], pts[:, 1], pts[:, 2] = xs.ravel(), ys.ravel(), zs.ravel()
    return pts


def oracle_modes(m):
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
    return oracle_table(MODES_COLUMNS, rows)


def oracle_fields(snap, units):
    pts = oracle_positions(snap.grid)
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
    return oracle_table(FIELDS_COLUMNS, rows)


def oracle_current(blocks, units):
    rows = []
    for _, cf, residual in blocks:
        pts = oracle_positions(cf.grid)
        t = fmt(units.time_out * cf.time)
        rho = cf.rho.reshape(-1)
        j = (units.current * cf.j).reshape(-1, 3)
        s = None if cf.s_hel is None else (units.helicity * cf.s_hel).reshape(-1, 3)
        r = (units.residual * residual).reshape(-1)
        for i in range(pts.shape[0]):
            srow = ("0", "0", "0") if s is None else tuple(fmt(s[i, c]) for c in range(3))
            rows.append((t, fmt(pts[i, 0]), fmt(pts[i, 1]), fmt(pts[i, 2]),
                         fmt(rho[i]), fmt(j[i, 0]), fmt(j[i, 1]), fmt(j[i, 2]),
                         *srow, fmt(r[i])))
    return oracle_table(CURRENT_COLUMNS, rows)


def oracle_lifecycle(report, units):
    rows = []
    for i in range(report.times.size):
        rows.append((fmt(units.time_out * report.times[i]),
                     fmt(report.norm[i]),
                     fmt(units.residual * report.residual_max[i]),
                     fmt(report.peak_z[i])))
    return oracle_table(LIFECYCLE_COLUMNS, rows)


FINITE_SPECIALS = (0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e-5, 1e16,
                   1.7976931348623157e308, 0.1, -1.0)
SPECIALS = FINITE_SPECIALS + (np.nan, -np.nan, np.inf, -np.inf)


def draw_values(rng, shape, finite=False):
    """Mantissas scaled by 1e-300..1e300, with about a quarter special values."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)
    specials = np.array(FINITE_SPECIALS if finite else SPECIALS)
    hit = rng.random(shape) < 0.25
    values[hit] = specials[rng.integers(0, specials.size, size=int(hit.sum()))]
    return values


@st.composite
def writer_cases(draw):
    dim = draw(st.sampled_from((1, 3)))
    n = draw(st.integers(2, 17 if dim == 1 else 5))
    grid = SpatialGrid(n_per_axis=n, spacing=draw(st.floats(1e-3, 10.0)), dimension=dim,
                       origin=draw(st.floats(-50.0, 50.0)))
    k0 = [draw(st.floats(-3.0, 3.0)) if dim == 3 else 0.0 for _ in range(2)]
    k0.append(draw(st.floats(0.5, 4.0)))
    n_k = draw(st.integers(1, 9 if dim == 1 else 4))
    try:
        kgrid = KGrid(n_per_axis=n_k, spacing=draw(st.floats(0.01, 1.0)), dimension=dim,
                      center=tuple(k0))
    except ValueError:
        assume(False)  # the lattice hit k = 0
    live = draw(st.sets(st.sampled_from(range(3)), min_size=1, max_size=3))
    units = unit_system(draw(st.sampled_from(("natural", "si"))))
    n_blocks = draw(st.integers(1, 3))
    with_hel = [draw(st.booleans()) for _ in range(n_blocks)]
    block_cells = draw(st.integers(1, 320))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return block_cells, (grid, kgrid, sorted(live), units, with_hel, rng)


@settings(max_examples=150, deadline=None)
@given(writer_cases())
def test_block_writers_match_per_value_oracle(tmp_path_factory, case):
    block_cells, args = case
    # small blocks (1-40 rows of current.csv, 1-16 of fields.csv) put block
    # boundaries inside and between time blocks; scaling inf and huge values
    # overflows or makes nan on both sides alike
    with mock.patch.object(csvio, "_BLOCK_CELLS", block_cells), \
            np.errstate(over="ignore", invalid="ignore"):
        check_writers_against_oracle(tmp_path_factory.mktemp("csv"), *args)


def check_writers_against_oracle(tmp, grid, kgrid, live, units, with_hel, rng):
    shape = grid.field_shape()

    def cvalues(shape):
        return draw_values(rng, shape) + 1j * draw_values(rng, shape)

    def written(write, *args):
        path = str(tmp / "out.csv")
        write(path, *args)
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")

    amps = np.zeros((3, kgrid.n_points), dtype=np.complex128)
    for row in live:
        amps[row] = (draw_values(rng, kgrid.n_points, finite=True)
                     + 1j * draw_values(rng, kgrid.n_points, finite=True))
    assume(np.any(amps))
    m = ModeAmplitudes(kgrid, amps)
    assert written(write_modes_csv, m) == oracle_modes(m)

    # component-major sums of A, E, B and the longitudinal group (phi first)
    rows = {g: cvalues((width,) + shape) for g, width in (("a", 3), ("e", 3), ("b", 3),
                                                          ("par", 7))}
    snap = FieldSnapshot(grid=grid, time=0.0, rows=rows, speed=1.0, bloch=None,
                         lambdas_present=frozenset())
    assert written(write_fields_csv, [(0, snap)], units) == oracle_fields(snap, units)

    blocks = []
    for hel in with_hel:
        cf = CurrentField(grid=grid, time=float(draw_values(rng, 1)[0]),
                          rho=draw_values(rng, shape), j=draw_values(rng, shape + (3,)),
                          s_hel=draw_values(rng, shape + (3,)) if hel else None)
        blocks.append((0, cf, draw_values(rng, shape)))
    assert written(write_current_csv, blocks, units) == oracle_current(blocks, units)

    steps = int(rng.integers(1, 40))
    report = SimpleNamespace(**{name: draw_values(rng, steps) for name in
                                ("times", "norm", "residual_max", "peak_z")})
    assert written(write_lifecycle_csv, report, units) == oracle_lifecycle(report, units)


# The '%.17g' kernel: its bytes must be '%.17g' % v for every double, and the
# values it cannot certify must take the per-value fallback.

def kernel_bytes(values):
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros(values.shape + (4,), dtype=np.uint64)
    fallback = csvio._format_cells(values, out)
    cells = [bytes(c).replace(b"\0", b"") for c in out.view(np.uint8).reshape(-1, 32)]
    return cells, fallback


def assert_kernel_is_percent_g(values):
    cells, fallback = kernel_bytes(values)
    for v, cell in zip(np.asarray(values, dtype=np.float64).tolist(), cells):
        assert cell == b"%.17g" % v, (v, cell)
    return fallback


def double_bits(sign, exponent, mantissa):
    return sign << 63 | exponent << 52 | mantissa


# raw patterns, plus patterns assembled from fields so that every exponent,
# zero and all-ones included, is drawn often: subnormals, +-0, +-inf, nan payloads
bit_patterns = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.builds(double_bits, st.integers(0, 1), st.integers(0, 2047),
              st.integers(0, 2 ** 52 - 1)),
    st.builds(double_bits, st.integers(0, 1), st.sampled_from((0, 1, 2046, 2047)),
              st.sampled_from((0, 1, 2 ** 51, 2 ** 52 - 1))))


@settings(max_examples=300, deadline=None)
@given(st.lists(bit_patterns, min_size=1, max_size=64))
def test_kernel_matches_percent_g_on_raw_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    fallback = assert_kernel_is_percent_g(values)
    assert np.all(fallback[~np.isfinite(values)])


def test_kernel_edge_values():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    edges = np.array([1e16, 1e17, 1e22, 1e23, 9.999999999999999e16, 5e-324,
                      np.finfo(np.float64).max, 1e-4, 1e-5, 0.0, -0.0])
    with np.errstate(over="ignore"):  # the largest double steps to inf
        values = np.concatenate([edges, np.nextafter(edges, np.inf),
                                 np.nextafter(edges, -np.inf), powers,
                                 np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_kernel_is_percent_g(np.concatenate([values, -values]))


def test_exact_ties_take_the_fallback():
    # k + f / 2**m with k of 18 - m digits: 18 significant digits, the last an
    # exact 5, so the 17-digit rounding is a tie that only the fallback decides
    rng = np.random.default_rng(11)
    ties = []
    for m in (2, 3, 4, 5):
        k = rng.integers(10 ** (17 - m), min(10 ** (18 - m), 2 ** (53 - m)), size=50)
        odd = 2 * rng.integers(0, 2 ** (m - 1), size=50) + 1
        ties.append((k * 2 ** m + odd) / 2.0 ** m)
    ties = np.concatenate(ties)
    digits = [Decimal(v).as_tuple().digits for v in ties.tolist()]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    fallback = assert_kernel_is_percent_g(np.concatenate([ties, -ties]))
    assert np.all(fallback)
    # their neighbours are no ties and take the vectorised path
    near = np.concatenate([np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    assert not np.any(assert_kernel_is_percent_g(near))


def test_fields_table_memory_stays_within_a_few_blocks(tmp_path):
    # a 32^3 fields.csv: 32768 rows of 20 values, about 15 MB of text
    grid = SpatialGrid(n_per_axis=32, spacing=0.3, dimension=3, origin=-4.8)
    rng = np.random.default_rng(3)
    shape = (grid.n_points, 20)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, shape)
    points = csvio._point_prefixes(grid, lambda a: grid.axis_positions())
    path = str(tmp_path / "fields.csv")
    tracemalloc.start()
    try:
        csvio._write_table(path, FIELDS_COLUMNS, csvio._lines((points,), values))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 14e6
    assert peak <= 12e6, peak


def test_blocks_are_sized_by_values_not_rows(tmp_path):
    # a 20-column fields.csv row holds 2.5 times the values of an 8-column
    # current.csv row, so blocks of equal rows would hold 2.5 times the
    # buffers; with blocks of _BLOCK_CELLS values the wide table peaks no
    # higher. 4096 rows are more than one block of either table, and the
    # fewest blocks share them evenly: fields.csv's are 6 of 682-683 rows,
    # not 5 of 819 and a straggler of 1.
    grid = SpatialGrid(n_per_axis=16, spacing=0.3, dimension=3, origin=-2.4)
    rng = np.random.default_rng(5)
    points = csvio._point_prefixes(grid, lambda a: grid.axis_positions())
    tables = (("fields.csv", FIELDS_COLUMNS, (points,), 20),
              ("current.csv", CURRENT_COLUMNS, (csvio._strings(["0.25,"]), points), 8))
    csvio._tables()  # built once per process, outside the trace
    peaks = {}
    for name, columns, prefixes, ncol in tables:
        shape = (grid.n_points, ncol)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, shape)
        tracemalloc.start()
        try:
            csvio._write_table(str(tmp_path / name), columns, csvio._lines(prefixes, values))
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = [block.count(b"\n") for block in csvio._lines(prefixes, values)]
        assert sum(rows) == grid.n_points and max(rows) * ncol <= csvio._BLOCK_CELLS
        assert len(rows) == -(-grid.n_points // (csvio._BLOCK_CELLS // ncol))
        assert max(rows) - min(rows) <= 1, rows
    assert peaks["fields.csv"] <= peaks["current.csv"], peaks


def test_fields_csv_holds_a_block_of_planes_not_the_slab(tmp_path):
    # a slab of 20 planes of an n_x = 64 packet box, 4096 points each, whose
    # (points, 10) complex columns alone are 13.1 MB. Scaled and formatted a
    # block of whole planes at a time, the writer holds about what _lines'
    # kernel holds for one block.
    k0 = (0.0, 0.0, 4.0)
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=3, center=k0)
    sg = dual_grid(grid, 64)
    p0, snap = 0, synthesize(gaussian_packet(grid, k0, 0.4, 1), sg, 0.0, planes=np.arange(20))
    assert snap.phi_plus.shape == (20, 64, 64)
    path = str(tmp_path / "fields.csv")
    csvio._tables()  # built once per process, outside the trace
    tracemalloc.start()
    try:
        write_fields_csv(path, [(p0, snap)], unit_system("si"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 35e6
    assert peak <= 12e6, peak


def test_fields_csv_frees_each_slab_before_the_next_arrives(tmp_path):
    # the centre pass of an n_x = 64 packet box comes in the slabs of its
    # plan, each a 16-component snapshot of its planes (4 planes: 4.2 MB). As
    # a slab is handed over, the writer holds nothing of the one before; 1 MB
    # covers the last CSV block written and small objects.
    k0 = (0.0, 0.0, 4.0)
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=3, center=k0)
    sg = dual_grid(grid, 64)
    plan = fields.slab_plan(sg)
    slab_bytes = fields._NCOMP * max(len(planes) for _, planes in plan) * 64 * 64 * \
        np.dtype(np.complex128).itemsize
    held = []  # traced bytes as each slab is handed to the writer

    def handed(centre):
        for p0, snap in centre:
            held.append(tracemalloc.get_traced_memory()[0])
            yield p0, snap

    csvio._tables()  # built once per process, outside the trace
    tracemalloc.start()
    try:
        write_fields_csv(str(tmp_path / "fields.csv"),
                         handed(slabs(gaussian_packet(grid, k0, 0.4, 1), sg, 0.0)))
    finally:
        tracemalloc.stop()
    assert len(held) == len(plan)
    assert max(held) <= slab_bytes + (1 << 20), [h / slab_bytes for h in held]
