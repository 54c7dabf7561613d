import csv
import os

import numpy as np
import pytest

from photonlab import (
    KGrid,
    ModeAmplitudes,
    dual_grid,
    gaussian_packet,
    photon_current,
    synthesize,
    unit_system,
)
from photonlab.csvio import (
    CURRENT_COLUMNS,
    FIELDS_COLUMNS,
    LIFECYCLE_COLUMNS,
    MODES_COLUMNS,
    atomic_write_text,
    fmt,
    read_modes_csv,
    write_current_csv,
    write_fields_csv,
    write_lifecycle_csv,
    write_modes_csv,
)
from photonlab.medium import MediumSpec, SourceEvent, lifecycle_1d
from photonlab.fields import SpatialGrid


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
    back = read_modes_csv(path, grid)
    assert np.array_equal(back.amps, m.amps)
    header, rows = read_table(path)
    assert header == MODES_COLUMNS
    assert len(rows) == 3 * grid.n_points


def test_modes_silent_polarizations_omitted(tmp_path):
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    path = str(tmp_path / "modes.csv")
    write_modes_csv(path, m)
    header, rows = read_table(path)
    assert len(rows) == grid.n_points
    assert {row[3] for row in rows} == {"+1"}
    back = read_modes_csv(path, grid)
    assert np.array_equal(back.amps, m.amps)


def test_read_modes_rejects_wrong_header(tmp_path):
    path = str(tmp_path / "modes.csv")
    atomic_write_text(path, "a,b,c\n1,2,3\n")
    grid = KGrid(n_per_axis=2, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="header"):
        read_modes_csv(path, grid)


def field_snapshot(dimension=1, n_x=8):
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=dimension,
                 center=(0.0, 0.0, 2.0) if dimension == 1 else (0.25, 0.25, 1.25))
    k0 = (0.0, 0.0, 2.0) if dimension == 1 else (0.25, 0.25, 1.25)
    m = gaussian_packet(grid, k0, 0.4, 1)
    return synthesize(m, dual_grid(grid, n_x), 0.3)


def test_fields_csv_schema_and_values(tmp_path):
    snap = field_snapshot()
    path = str(tmp_path / "fields.csv")
    write_fields_csv(path, snap)
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
    write_fields_csv(path, snap)
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
    snap = field_snapshot()
    cf = photon_current(snap)
    assert cf.s_hel is None
    path = str(tmp_path / "current.csv")
    write_current_csv(path, [(snap.time, cf, None)])
    header, rows = read_table(path)
    assert header == CURRENT_COLUMNS
    assert all(row[8:12] == ["0", "0", "0", "0"] for row in rows)
    assert float(rows[3][4]) == cf.rho[3]


def test_current_csv_with_helicity_and_residual(tmp_path):
    snap = field_snapshot()
    cf = photon_current(snap, with_helicity=True)
    res = np.arange(float(snap.grid.n_points))
    path = str(tmp_path / "current.csv")
    write_current_csv(path, [(0.0, cf, res), (0.5, cf, res)])
    header, rows = read_table(path)
    assert len(rows) == 2 * snap.grid.n_points
    n = snap.grid.n_points
    assert float(rows[0][0]) == 0.0 and float(rows[n][0]) == 0.5
    assert float(rows[7][10]) == cf.s_hel[7, 2]
    assert float(rows[7][11]) == 7.0


def test_lifecycle_csv_schema(tmp_path):
    med = MediumSpec(epsilon=2.0, mu=1.0)
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
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_mode_follows_umask(tmp_path):
    # the temp file starts 0600; the renamed product must get 0666 & ~umask
    previous = os.umask(0o022)
    try:
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "x\n")
        assert os.stat(path).st_mode & 0o777 == 0o644
        os.umask(0o027)
        atomic_write_text(path, "y\n")
        assert os.stat(path).st_mode & 0o777 == 0o640
    finally:
        os.umask(previous)


def test_writes_are_deterministic(tmp_path):
    snap = field_snapshot()
    cf = photon_current(snap, with_helicity=True)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_current_csv(p1, [(snap.time, cf, None)])
    write_current_csv(p2, [(snap.time, cf, None)])
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_si_output_factors(tmp_path):
    si = unit_system("si")
    snap = field_snapshot()
    cf = photon_current(snap, with_helicity=True)
    path = str(tmp_path / "current.csv")
    write_current_csv(path, [(1.0, cf, None)], units=si)
    _, rows = read_table(path)
    c_light = 299792458.0
    assert float(rows[0][0]) == 1.0 / c_light
    assert float(rows[4][7]) == c_light * cf.j[4, 2]
    # helicity per photon carries hbar; density itself is unscaled
    assert float(rows[4][10]) / float(rows[4][4]) == pytest.approx(
        1.054571817e-34 * cf.s_hel[4, 2] / cf.rho[4], rel=1e-15)
    fpath = str(tmp_path / "fields.csv")
    write_fields_csv(fpath, snap, units=si)
    _, frows = read_table(fpath)
    scale = (1.054571817e-34 / 8.8541878128e-12) ** 0.5
    assert float(frows[2][9]) == pytest.approx(scale * snap.e_plus[2, 1].real, rel=1e-15)
    assert float(frows[2][3]) == pytest.approx(scale / c_light * snap.a_plus[2, 0].real,
                                               rel=1e-15)
