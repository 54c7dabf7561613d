import csv
import dataclasses
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonlab import fields, scenarios, verify
from photonlab.config import default_verify_config, parse_config
from photonlab.csvio import write_current_csv, write_fields_csv, write_modes_csv
from photonlab.current import photon_current, position_norm
from photonlab.fields import dual_grid, slab_plan, synthesize
from photonlab.medium import VACUUM, current_in_medium
from photonlab.modes import norm
from photonlab.scenarios import run_scenario
from photonlab.verify import field_scan, norm_check, packet_state, run_verify

from helpers import slab_widths, three_current_residual


def run(tmp_path, kind, body="", extra=""):
    text = f"[{kind}]\noutput = {tmp_path}\n{body}\n{extra}"
    return run_scenario(parse_config(text))


def inline_lanes():
    """Fail the fork, so the child lanes run in process, where tracemalloc and mocks
    see them."""
    return mock.patch.object(os, "fork", mock.Mock(side_effect=OSError("no fork here")))


def check_map(outcome):
    return {c.name: c for c in outcome.checks}


def info_value(outcome, prefix):
    line = next(s for s in outcome.info if s.startswith(prefix))
    return float(line.split("=")[-1])


def test_run_scenario_rejects_verify_configs():
    with pytest.raises(ValueError, match="run_verify"):
        run_scenario(default_verify_config())


def test_packet3d_products_and_norm(tmp_path):
    out = run(tmp_path, "packet3d", "n_k = 8\nn_x = 16\nt_stop = 2\n")
    assert out.all_passed
    assert check_map(out)["norm_unity"].measured <= 1e-6
    # run_scenario writes the CSVs; the CLI writes the report from the outcome
    assert sorted(os.listdir(tmp_path)) == ["current.csv", "fields.csv", "modes.csv"]


def test_helicity_scenario_transverse(tmp_path):
    out = run(tmp_path, "helicity", "n_k = 8\nn_x = 64\nt_stop = 1\nlambda = -1\n")
    assert out.all_passed
    assert check_map(out)["helicity_pointwise"].measured <= 1e-10


def test_helicity_scenario_longitudinal(tmp_path):
    out = run(tmp_path, "helicity", "n_k = 8\nn_x = 64\nt_stop = 1\nlambda = par\n")
    assert out.all_passed
    assert check_map(out)["helicity_longitudinal"].measured <= 1e-12


def test_gauge_scenario(tmp_path):
    out = run(tmp_path, "gauge", "n_x = 16\ngauge_strength = 0.7\n")
    assert out.all_passed
    checks = check_map(out)
    assert set(checks) == {"gauge_field", "gauge_norm", "gauge_transverse_amps"}
    assert checks["gauge_transverse_amps"].measured == 0.0


def test_boost_scenario(tmp_path):
    # the default grid spans the beta = 0.3 image; faster boosts need a wider
    # destination than the runner's source-grid deposit
    out = run(tmp_path, "boost", "")
    assert out.all_passed
    checks = check_map(out)
    assert checks["boost_norm"].measured <= 2e-2
    assert checks["boost_monotone"].measured <= 1.0
    assert os.path.exists(os.path.join(tmp_path, "modes.csv"))


def test_medium_scenario(tmp_path):
    out = run(tmp_path, "medium1d", "n_k = 8\nn_x = 64\nt_stop = 1\nepsilon_rel = 2\n")
    assert out.all_passed
    assert set(check_map(out)) == {"medium_pointwise", "medium_norm",
                                   "medium_current", "vacuum_reduction"}
    assert abs(info_value(out, "medium speed v") - 2.0 ** -0.5) <= 1e-15
    assert not any("worst point" in line for line in out.info)


def worst_checkpoint(currents, deviation):
    """Expected (t, flat index) of the largest |deviation(cf)| over the checkpoints."""
    maxima = {t: np.abs(deviation(cf)).reshape(cf.rho.size, -1).max(axis=1)
              for t, cf in currents.items()}
    t = max(maxima, key=lambda t: maxima[t].max())
    return t, int(np.argmax(maxima[t])), maxima[t].max()


def test_medium_scenario_names_the_worst_point_when_it_fails(tmp_path, monkeypatch):
    made = {}

    def skewed(snap, med):
        cf = current_in_medium(snap, med)
        if med == VACUUM:  # vacuum_reduction's reference current, not a scanned one
            return cf
        made[snap.time] = dataclasses.replace(cf, j=1.01 * cf.j)
        return made[snap.time]

    monkeypatch.setattr(verify, "current_in_medium", skewed)
    out = run(tmp_path, "medium1d", "n_k = 8\nn_x = 64\nt_stop = 1\nepsilon_rel = 2\n")
    checks = check_map(out)
    assert not checks["medium_current"].passed
    assert checks["medium_pointwise"].passed and checks["medium_norm"].passed

    v, e_k = info_value(out, "medium speed v"), np.array([0.0, 0.0, 1.0])
    t, i, dev = worst_checkpoint({t: made[t] for t in (0.0, 0.5, 1.0)},
                                 lambda cf: cf.j - v * cf.rho[:, None] * e_k)
    assert checks["medium_current"].measured == dev
    located = [line for line in out.info if "worst point" in line]
    assert len(located) == 1
    assert located[0].startswith(f"medium_current worst point at t = {t:g}: index {i} at (")


def test_helicity_scenario_names_the_worst_point_when_it_fails(tmp_path, monkeypatch):
    made = {}

    def tilted(snap, med):
        cf = current_in_medium(snap, med)
        made[snap.time] = dataclasses.replace(cf, s_hel=1.01 * cf.s_hel)
        return made[snap.time]

    monkeypatch.setattr(verify, "current_in_medium", tilted)
    out = run(tmp_path, "helicity", "n_k = 8\nn_x = 64\nt_stop = 1\nlambda = -1\n")
    check = check_map(out)["helicity_pointwise"]
    assert not check.passed

    e_k = np.array([0.0, 0.0, 1.0])
    t, i, dev = worst_checkpoint({t: made[t] for t in (0.0, 0.5, 1.0)},
                                 lambda cf: cf.s_hel + cf.rho[:, None] * e_k)
    assert check.measured == dev
    expected = f"helicity_pointwise worst point at t = {t:g}: index {i} at ("
    assert out.info[-1].startswith(expected)


@pytest.fixture(scope="module")
def verify_checks():
    return {c.name: c for c in run_verify(default_verify_config()).checks}


@pytest.mark.parametrize("kind, body", [
    ("gauge", "t_stop = 0.7\ngauge_strength = 0.7\n"),
    ("boost", ""),
    ("fock", ""),
])
def test_run_at_verify_sizes_matches_verify(tmp_path, verify_checks, kind, body):
    # verify's study packets are these scenarios' defaults; one law, two sizes
    out = run(tmp_path, kind, body)
    assert list(out.checks) == [verify_checks[c.name] for c in out.checks]


def test_lifecycle_scenario_matched_detection(tmp_path):
    out = run(tmp_path, "lifecycle1d", "n_z = 1024\nt_steps = 200\n")
    assert out.all_passed
    assert set(check_map(out)) == {"lifecycle_norm_transit", "peak_speed_cells",
                                   "lifecycle_final_norm", "causality"}
    assert abs(info_value(out, "final norm")) <= 1e-6
    path = os.path.join(tmp_path, "lifecycle.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == ("t", "norm", "residual_max", "peak_z")
    assert len(rows) == 202


def test_lifecycle_scenario_without_detector(tmp_path):
    out = run(tmp_path, "lifecycle1d", "n_z = 1024\nt_steps = 200\n",
              "[detector]\nenabled = false\n")
    assert out.all_passed
    assert abs(info_value(out, "final norm") - 1.0) <= 1e-6


def test_lifecycle_scenario_flags_acausal_detector(tmp_path):
    out = run(tmp_path, "lifecycle1d", "n_z = 1024\nt_steps = 200\n",
              "[detector]\ntime = 2.0\n")
    assert out.all_passed
    assert any("acausal detection" in line for line in out.info)
    # the early detector absorbs nothing, so the photon survives and the
    # transit runs to the last checkpoint
    assert abs(info_value(out, "final norm") - 1.0) <= 1e-6
    assert {"lifecycle_norm_transit", "peak_speed_cells"} <= set(check_map(out))
    assert not any("transit window empty" in line for line in out.info)


def test_fock_scenario_outputs(tmp_path):
    out = run(tmp_path, "fock", "n_states = 8\n")
    assert out.all_passed
    checks = check_map(out)
    assert checks["fock_number_exact"].measured == 0.0
    assert os.listdir(tmp_path) == []
    assert "fock" in out.timings


def test_si_units_round_trip_time_column(tmp_path):
    run(tmp_path, "packet3d", "n_k = 8\nn_x = 16\nt_stop = 2\nunits = si\n")
    with open(os.path.join(tmp_path, "current.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    times = sorted({float(r[0]) for r in rows[1:]})
    assert times == [0.0, 1.0, 2.0]


# Oracle: the whole-box packet scan that the slab scan replaced. It holds three
# 16-component snapshots per time and the currents of every time, and writes
# fields.csv from the last centre snapshot. The streamed run must match it
# byte for byte.
def whole_box_field_scan(m, grid, times):
    dt = grid.spacing / 2.0
    for t in times:
        snaps = [synthesize(m, grid, t + k * dt) for k in (-1, 0, 1)]
        cfs = [photon_current(s) for s in snaps]
        yield snaps[1], cfs, three_current_residual(*cfs)


def whole_box_packet3d(cfg, us):
    m = packet_state(cfg.packet)
    sg = dual_grid(m.grid, cfg.packet.n_x)
    times = us.time_in * cfg.times.checkpoints()
    blocks = []
    for centre, cfs, res in whole_box_field_scan(m, sg, times):
        blocks.append((0, cfs[1], np.abs(res)))
    target = norm(m, polarizations=(1, -1))
    checks, norm_info = norm_check([position_norm(cf.rho, sg) for _, cf, _ in blocks], times,
                                   target, cfg.tolerances)
    write_modes_csv(os.path.join(cfg.output, "modes.csv"), m)
    write_current_csv(os.path.join(cfg.output, "current.csv"), blocks, us)
    write_fields_csv(os.path.join(cfg.output, "fields.csv"), [(0, centre)], us)
    return checks, [f"transverse mode norm = {target:.17g}"] + norm_info


def outputs(outdir, outcome):
    """The CSVs, and the checks and info the report is written from."""
    files = {name: (outdir / name).read_bytes()
             for name in ("modes.csv", "current.csv", "fields.csv")}
    return {**files, "checks": outcome.checks, "info": outcome.info}


@st.composite
def packet_configs(draw):
    # n_x = 18 and 19 leave 2 and 3 planes over a multiple of 4, in a last
    # slab as the box does; at 9, 17 and 33 the one plane over joins the last slab
    n_x = draw(st.sampled_from(list(range(8, 33, 4)) + [9, 17, 33, 18, 19]))
    k0 = [round(draw(st.floats(-0.5, 0.5)), 4) for _ in range(2)] + \
        [round(draw(st.floats(3.0, 5.0)), 4)]
    return n_x, (f"[packet3d]\nn_k = {draw(st.integers(3, 6))}\nn_x = {n_x}\n"
                 f"k0 = ({k0[0]!r}, {k0[1]!r}, {k0[2]!r})\n"
                 f"lambda = {draw(st.sampled_from(('+1', '-1', 'par')))}\n"
                 f"t_steps = {draw(st.integers(1, 3))}\n"
                 f"units = {draw(st.sampled_from(('natural', 'si')))}\n")


@settings(max_examples=6, deadline=None)
@given(packet_configs())
@example((33, "[packet3d]\nn_k = 4\nn_x = 33\nk0 = (0.1, -0.2, 3.5)\nlambda = +1\n"
              "t_steps = 1\nunits = natural\n"))
@example((19, "[packet3d]\nn_k = 5\nn_x = 19\nk0 = (-0.3, 0.4, 4.2)\nlambda = -1\n"
              "t_steps = 2\nunits = si\n"))
def test_slab_streamed_packet_run_matches_whole_box(tmp_path_factory, case):
    n_x, text = case
    outdir = tmp_path_factory.mktemp("packet")
    cfg = parse_config(text + f"output = {outdir}\n")
    with mock.patch.dict(scenarios._RUNNERS, packet3d=whole_box_packet3d):
        expected = outputs(outdir, run_scenario(cfg))
    for width in slab_widths(n_x):
        with mock.patch.object(fields, "_SLAB_POINTS", width * n_x * n_x):
            assert fields._slab_width(n_x) == width
            got = outputs(outdir, run_scenario(cfg))
        assert [f for f in expected if got[f] != expected[f]] == [], (width, text)


@pytest.mark.parametrize("eps, mu", [(1.0, 1.0), (2.25, 1.5)])
def test_density_only_neighbours_give_the_full_residual(eps, mu):
    # at t -+ dt the scan builds rho alone; the residual must keep the bits of
    # the full current_in_medium path (photon_current's at eps = mu = 1)
    cfg = parse_config(f"[medium1d]\nn_k = 8\nn_x = 64\nepsilon_rel = {eps}\nmu_rel = {mu}\n")
    med = cfg.medium
    m = packet_state(cfg.packet, speed=med.v)
    sg = dual_grid(m.grid, 64)
    dt = sg.spacing / 2.0
    times = (0.0, 0.7, 1.3)
    neighbours = []  # the densities the scan builds at t - dt and t + dt, in order
    density = verify.number_density

    def recorded(snap, eps=1.0):
        neighbours.append(density(snap, eps))
        return neighbours[-1]

    with mock.patch.object(verify, "number_density", recorded):
        scanned = list(field_scan(m, sg, times, med))
    assert [(cf.time, p0) for p0, cf, _ in scanned] == [(t, 0) for t in times]
    for i, (_, cf, res) in enumerate(scanned):
        t = cf.time
        full = [current_in_medium(synthesize(m, sg, t + k * dt), med) for k in (-1, 0, 1)]
        assert res.tobytes() == np.abs(three_current_residual(*full)).tobytes()
        got = [neighbours[2 * i], cf.rho, neighbours[2 * i + 1]]
        assert [rho.tobytes() for rho in got] == [f.rho.tobytes() for f in full]


def test_packet_run_memory_is_set_by_the_slab_not_the_box(tmp_path):
    # at n_x = 64 one 16-component complex snapshot of the whole box is 67 MB,
    # and a whole-box scan holds three with their currents; streamed, the run
    # holds a few slabs of the plan (4 planes, 16384 points) with their
    # currents and CSV rows, and the whole density of a time for its norm
    n_x = 64
    cfg = parse_config(f"[packet3d]\noutput = {tmp_path}\nn_k = 4\nn_x = {n_x}\nt_steps = 1\n")
    plan = slab_plan(dual_grid(packet_state(cfg.packet).grid, n_x))
    slab_value = max(len(planes) for _, planes in plan) * n_x * n_x * \
        np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        with inline_lanes():
            out = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.all_passed
    assert peak <= 40 * slab_value + 8 * n_x ** 3, peak / slab_value


def test_packet_run_off_the_4_plane_grid_is_set_by_the_slab_not_the_box(tmp_path):
    # n_x = 66 leaves 2 planes over a multiple of 4, where the haloed plan
    # summed the scan's box whole (104 MB traced); the plan's slabs are 4
    # planes and a last one of 2, as at n_x = 64 (11.6 MB traced)
    n_x = 66
    cfg = parse_config(f"[packet3d]\noutput = {tmp_path}\nn_k = 8\nn_x = {n_x}\nt_steps = 1\n")
    plan = slab_plan(dual_grid(packet_state(cfg.packet).grid, n_x))
    slab_value = max(len(planes) for _, planes in plan) * n_x * n_x * \
        np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        with inline_lanes():
            out = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.all_passed
    assert peak <= 40 * slab_value + 8 * n_x ** 3, peak / slab_value


def test_packet_scan_holds_one_slab_at_a_time(tmp_path):
    # each time sums the current on the last 4 planes first (J on plane
    # n_x - 1), then walks the slabs in plane order, and every record is
    # yielded as its planes are done. So as the scan starts a slab, the planes
    # before it leave only their densities, which the box norm sums at once;
    # their snapshots, currents and CSV columns are freed. 1 MB covers the
    # x-neighbour planes carried between slabs, the last CSV block written
    # (_BLOCK_CELLS values) and small objects.
    n_x = 64
    cfg = parse_config(f"[packet3d]\noutput = {tmp_path}\nn_k = 4\nn_x = {n_x}\nt_steps = 1\n")
    plan = slab_plan(dual_grid(packet_state(cfg.packet).grid, n_x))
    plane_rho_bytes = n_x * n_x * np.dtype(np.float64).itemsize
    calls = []  # (first plane, traced bytes) as each snapshot is summed
    synth = verify.synthesize

    def traced(m, grid, t, omega_scale=1.0, groups=tuple(fields.GROUPS), planes=None,
               coeffs=None):
        calls.append((int(planes[0]), tracemalloc.get_traced_memory()[0]))
        return synth(m, grid, t, omega_scale, groups, planes, coeffs)

    tracemalloc.start()
    try:
        with mock.patch.object(verify, "synthesize", traced), inline_lanes():
            out = run_scenario(cfg)
    finally:
        tracemalloc.stop()
    assert out.all_passed
    # per time: the current on the last slab (4 planes), then each slab's
    # densities at t -+ dt and its current
    walk = [plan[-1][0]] + [p0 for p0, _ in plan for _ in range(3)]
    assert [p0 for p0, _ in calls] == walk * 2
    for visit in (calls[:len(walk)], calls[len(walk):]):
        for i, (p0, traced_bytes) in enumerate(visit[:1] + visit[1::3]):
            grown = traced_bytes - calls[0][1]
            assert grown <= (p0 if i else 0) * plane_rho_bytes + (1 << 20), (p0, grown)
