import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonlab import medium
from photonlab.config import TOLERANCE_DEFAULTS
from photonlab.current import number_density, photon_current, position_norm
from photonlab.fields import SpatialGrid, dual_grid, synthesize
from photonlab.medium import (LifecycleReport, MediumSpec, SourceEvent, TRUNC_SIGMAS, VACUUM,
                              _advected_pulse, _erf, _source_profile, _source_rate, arrival_time,
                              current_in_medium, lifecycle_1d, trunc_gauss, validate_events)
from photonlab.modes import KGrid, gaussian_packet
from photonlab.verify import lifecycle_checks


def line_grid(n=1024, z_min=-5.0, z_max=25.0):
    return SpatialGrid(n_per_axis=n, spacing=(z_max - z_min) / n,
                       dimension=1, origin=z_min)


def packet_in_medium(med, n_x=1024):
    g = KGrid(n_per_axis=16, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(g, (0.0, 0.0, 2.0), 0.5, 1, speed=med.v)
    return synthesize(m, dual_grid(g, n_x), 0.8)


def test_medium_speed():
    assert MediumSpec().v == 1.0
    assert abs(MediumSpec(epsilon_rel=2.0).v - 1.0 / math.sqrt(2.0)) <= 1e-15
    rng = np.random.default_rng(11)
    for _ in range(50):
        med = MediumSpec(epsilon_rel=1.0 + rng.uniform(0.0, 9.0),
                         mu_rel=1.0 + rng.uniform(0.0, 9.0))
        assert med.v <= 1.0


def test_medium_validation():
    with pytest.raises(ValueError, match="epsilon must be >= 1"):
        MediumSpec(epsilon_rel=0.5)
    with pytest.raises(ValueError, match="mu must be positive"):
        MediumSpec(mu_rel=0.0)


def test_vacuum_medium_reproduces_free_space():
    snap = packet_in_medium(VACUUM, n_x=256)
    cf_med = current_in_medium(snap, VACUUM)
    cf_free = photon_current(snap)
    assert np.array_equal(cf_med.rho, cf_free.rho)
    assert np.array_equal(cf_med.j, cf_free.j)


def test_dressed_density_scales_with_epsilon():
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    snap = packet_in_medium(med)
    cfm = current_in_medium(snap, med)
    rho_free = number_density(snap)
    scale = np.abs(rho_free).max()
    assert np.abs(cfm.rho - 2.0 * rho_free).max() <= 1e-12 * scale


def test_dressed_current_moves_at_medium_speed():
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    snap = packet_in_medium(med)
    cfm = current_in_medium(snap, med)
    expected = med.v * cfm.rho[:, None] * np.array([0.0, 0.0, 1.0])
    assert np.abs(cfm.j - expected).max() <= 1e-8


def test_density_rescale_restores_unit_norm():
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    snap = packet_in_medium(med)
    cfm = current_in_medium(snap, med)
    assert np.array_equal(cfm.rho / VACUUM.epsilon_rel, cfm.rho)
    assert abs(position_norm(cfm.rho / med.epsilon_rel, snap.grid) - 1.0) <= 1e-6
    # without the rescale the dressed norm is epsilon, not one
    assert abs(position_norm(cfm.rho, snap.grid) - med.epsilon_rel) <= 2e-6


def test_current_in_medium_rejects_speed_mismatch():
    snap = packet_in_medium(VACUUM, n_x=256)
    with pytest.raises(ValueError, match="speed"):
        current_in_medium(snap, MediumSpec(epsilon_rel=2.0))


def test_source_event_validation():
    with pytest.raises(ValueError, match="kind"):
        SourceEvent(kind="resistor", center=0.0, width=0.1, time=0.0, duration=0.1)
    with pytest.raises(ValueError, match="width"):
        SourceEvent(kind="emitter", center=0.0, width=0.0, time=0.0, duration=0.1)
    with pytest.raises(ValueError, match="duration"):
        SourceEvent(kind="emitter", center=0.0, width=0.1, time=0.0, duration=-1.0)
    with pytest.raises(ValueError, match="strength"):
        SourceEvent(kind="detector", center=0.0, width=0.1, time=0.0,
                    duration=0.1, strength=0.0)


def test_truncated_envelope_shape():
    sigma = 0.3
    edge = TRUNC_SIGMAS * sigma
    assert trunc_gauss(edge * 1.0001, sigma) == 0.0
    assert trunc_gauss(-edge * 1.0001, sigma) == 0.0
    assert trunc_gauss(0.1, sigma) == trunc_gauss(-0.1, sigma)
    # unit mass: dense Riemann sum over the support
    u = np.linspace(-edge, edge, 200001)
    mass = trunc_gauss(u, sigma).sum() * (u[1] - u[0])
    assert abs(mass - 1.0) <= 1e-8


def test_arrival_time():
    emit = SourceEvent(kind="emitter", center=2.0, width=0.1, time=1.0, duration=0.1)
    assert arrival_time(emit, 4.0, 0.5) == 5.0


def test_emitter_budget_enforced():
    mk = lambda s: SourceEvent(kind="emitter", center=0.0, width=0.1, time=0.0,
                               duration=0.1, strength=s)
    with pytest.raises(ValueError, match="exceed one photon"):
        validate_events([mk(0.6), mk(0.6)])
    # detectors are not charged against the budget
    det = SourceEvent(kind="detector", center=1.0, width=0.1, time=2.0,
                      duration=0.1, strength=1.0)
    validate_events([mk(1.0), det])


def streamed_rho(events, med, grid, times):
    """The lifecycle solve's density: its row blocks, halos dropped, stacked.

    Each block, halo rows included, must be zero outside its columns [c0, c1).
    """
    rows = []
    for _, block, c0, c1 in medium._density_blocks(events, med.v, grid, times):
        assert not block[:, :c0].any() and not block[:, c1:].any()
        rows.append(block[1:-1].copy())
    return np.concatenate(rows)


def green_response(tp, zp, med, grid, times, sigma_t, sigma_z):
    """Density of one unit emission at (tp, zp): the lifecycle solve's windowed pulse."""
    emit = SourceEvent(kind="emitter", center=zp, width=sigma_z, time=tp, duration=sigma_t)
    return streamed_rho([emit], med, grid, times)


def test_green_response_causal_support():
    med = VACUUM
    grid = SpatialGrid(n_per_axis=2048, spacing=20.0 / 2048, dimension=1, origin=-5.0)
    times = np.linspace(0.0, 9.0, 181)
    tp, zp = 2.0, 0.0
    sigma_t = 4.0 * (times[1] - times[0])
    sigma_z = 4.0 * grid.spacing
    rho = green_response(tp, zp, med, grid, times, sigma_t, sigma_z)
    before = times < tp - TRUNC_SIGMAS * sigma_t
    assert before.any()
    assert np.all(rho[before] == 0.0)
    # and nothing outside the forward light cone at any time
    z = grid.axis_positions()
    front = zp + med.v * (times[:, None] - tp) + TRUNC_SIGMAS * (sigma_z + med.v * sigma_t)
    assert np.all(rho[z[None, :] > front + 1e-12] == 0.0)


def test_green_response_mass_and_peak():
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    grid = SpatialGrid(n_per_axis=2048, spacing=25.0 / 2048, dimension=1, origin=-5.0)
    times = np.linspace(0.0, 16.0, 321)
    tp, zp = 1.0, 0.0
    rho = green_response(tp, zp, med, grid, times, 4.0 * (times[1] - times[0]),
                         4.0 * grid.spacing)
    assert abs(rho[-1].sum() * grid.spacing - 1.0) <= 1e-8
    z = grid.axis_positions()
    late = times > tp + 2.0
    peaks = z[np.argmax(rho[late], axis=1)]
    expected = zp + med.v * (times[late] - tp)
    assert np.abs(peaks - expected).max() <= grid.spacing


def lifecycle_setup(n_z=1024, steps=200, detector_time=None, with_detector=True):
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    grid = line_grid(n=n_z)
    times = np.linspace(0.0, 20.0, steps + 1)
    width = 4.0 * grid.spacing
    duration = 4.0 * (times[1] - times[0])
    emit = SourceEvent(kind="emitter", center=0.0, width=width, time=0.0,
                       duration=duration, strength=1.0)
    det = None
    if with_detector:
        t_d = arrival_time(emit, 10.0, med.v) if detector_time is None else detector_time
        det = SourceEvent(kind="detector", center=10.0, width=width, time=t_d,
                          duration=duration, strength=1.0)
    return emit, det, med, grid, times


def test_lifecycle_emitter_only_keeps_unit_norm():
    emit, _, med, grid, times = lifecycle_setup(with_detector=False)
    rep = lifecycle_1d(emit, None, med, grid, times)
    assert rep.acausal is False
    assert abs(rep.final_norm - 1.0) <= 1e-6
    # norm holds at one through the whole transit window
    transit = times > emit.time + 6.0 * emit.duration
    assert np.abs(rep.norm[transit] - 1.0).max() <= 1e-6


def test_lifecycle_peak_travels_at_medium_speed():
    emit, _, med, grid, times = lifecycle_setup(with_detector=False)
    rep = lifecycle_1d(emit, None, med, grid, times)
    window = (times > 3.0) & (times < 19.0)
    expected = emit.center + med.v * (times[window] - emit.time)
    assert np.abs(rep.peak_z[window] - expected).max() <= grid.spacing


def test_lifecycle_matched_detector_absorbs_everything():
    emit, det, med, grid, times = lifecycle_setup()
    rep = lifecycle_1d(emit, det, med, grid, times)
    assert rep.acausal is False
    assert abs(rep.final_norm) <= 1e-6
    # norm is still one in the gap between emission and detection
    mid = np.searchsorted(times, 0.5 * (emit.time + det.time))
    assert abs(rep.norm[mid] - 1.0) <= 1e-6


def test_lifecycle_acausal_detector_is_flagged_and_inert():
    emit, det, med, grid, times = lifecycle_setup(detector_time=2.0)
    assert det.time < arrival_time(emit, det.center, med.v) - 3.0 * det.duration
    rep = lifecycle_1d(emit, det, med, grid, times)
    assert rep.acausal is True
    assert abs(rep.final_norm - 1.0) <= 1e-6


def test_lifecycle_residual_converges_at_second_order():
    emit, det, med, grid, times = lifecycle_setup()
    r1 = lifecycle_1d(emit, det, med, grid, times).residual_max[1:-1].max()
    _, _, _, grid2, times2 = lifecycle_setup(n_z=2048, steps=400)
    r2 = lifecycle_1d(emit, det, med, grid2, times2).residual_max[1:-1].max()
    assert math.log2(r1 / r2) >= 1.9


def test_lifecycle_event_roles_enforced():
    emit, det, med, grid, times = lifecycle_setup()
    with pytest.raises(ValueError, match="must be an emitter"):
        lifecycle_1d(det, None, med, grid, times)
    with pytest.raises(ValueError, match="must be a detector"):
        lifecycle_1d(emit, emit, med, grid, times)
    grid3 = SpatialGrid(n_per_axis=8, spacing=0.5, dimension=3, origin=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="one-dimensional"):
        lifecycle_1d(emit, det, med, grid3, times)


def full_grid_lifecycle_1d(emit, detect, med, grid1d, times):
    """Oracle: lifecycle_1d evaluated on the whole (t, z) grid; returns it and rho.

    Every event's pulse and source is computed on every cell, the residual
    comes from full-grid np.roll copies and the causality reductions from a
    full-grid cone mask; this is the solve the streamed one must reproduce
    bit for bit.
    """
    times = np.asarray(times, dtype=float)
    z = grid1d.axis_positions()
    v = med.v

    acausal = False
    if detect is not None:
        acausal = bool(detect.time < arrival_time(emit, detect.center, v) - 3.0 * detect.duration)
    events = [emit] + ([detect] if detect is not None and not acausal else [])
    rho = np.zeros((times.size, z.size))
    for ev in events:
        xi = z[None, :] - ev.center - v * (times[:, None] - ev.time)
        tau_max = (times - ev.time)[:, None]
        rho += ev.sign * ev.strength * _advected_pulse(xi, tau_max, v, ev.duration, ev.width)

    dz = grid1d.spacing
    norm_t = rho.sum(axis=1) * dz
    peak_z = z[np.argmax(rho, axis=1)]

    source = np.zeros_like(rho)
    for i, t in enumerate(times):
        for ev in events:
            s_z = trunc_gauss(z - ev.center, ev.width)
            source[i] += ev.sign * ev.strength * s_z * float(trunc_gauss(t - ev.time, ev.duration))

    dzrho = (np.roll(rho, -1, axis=1) - np.roll(rho, 1, axis=1)) / (2.0 * dz)
    residual = np.empty_like(rho)
    dt = times[1] - times[0] if times.size > 1 else 1.0
    if times.size > 2:
        residual[1:-1] = (rho[2:] - rho[:-2]) / (2.0 * dt) + v * dzrho[1:-1] - source[1:-1]
        residual[0] = (rho[1] - rho[0]) / dt + v * dzrho[0] - source[0]
        residual[-1] = (rho[-1] - rho[-2]) / dt + v * dzrho[-1] - source[-1]
    else:
        residual[:] = 0.0

    outside = cone_mask(emit, med, grid1d, times)
    rep = LifecycleReport(times=times, norm=norm_t,
                          residual_max=np.max(np.abs(residual), axis=1), peak_z=peak_z,
                          outside_peak=np.abs(rho).max(axis=1, where=outside, initial=-np.inf),
                          outside_cell=np.argmax(np.where(outside, np.abs(rho), 0.0), axis=1),
                          acausal=acausal)
    return rep, rho


def cone_mask(emit, med, grid, times):
    """Every (t, z) cell outside the emitter's light cone, padded by its envelope support."""
    pad = TRUNC_SIGMAS * (emit.width + med.v * emit.duration)
    return np.abs(grid.axis_positions()[None, :] - emit.center) > \
        med.v * np.maximum(times[:, None] - emit.time, 0.0) + pad


def whole_array_causality(rho, emit, med, grid, times):
    """Oracle: the causality check on a whole rho; (measured, row, cell), None inside the cone."""
    outside = cone_mask(emit, med, grid, times)
    if not outside.any():
        return None
    top = rho.max(where=outside, initial=-np.inf)
    bottom = rho.min(where=outside, initial=np.inf)
    row, cell = np.unravel_index(np.argmax(np.where(outside, np.abs(rho), 0.0)), rho.shape)
    return max(abs(top), abs(bottom)), row, cell


def solved_events(emit, det, rep):
    return [emit] + ([det] if det is not None and not rep.acausal else [])


REPORT_ARRAYS = ("norm", "peak_z", "residual_max", "outside_peak", "outside_cell", "final_norm")


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def lifecycle_cases(draw, n_z=(8, 1024), n_t=(1, 160)):
    n_z = draw(st.integers(*n_z))
    n_t = draw(st.integers(*n_t))
    length = draw(st.floats(0.5, 40.0))
    grid = SpatialGrid(n_per_axis=n_z, spacing=length / n_z, dimension=1,
                       origin=draw(st.floats(-10.0, 10.0)))
    t_start = draw(st.floats(-5.0, 5.0))
    t_stop = t_start + draw(st.floats(0.5, 30.0))
    times = np.linspace(t_start, t_stop, n_t)
    step = (t_stop - t_start) / max(n_t - 1, 1)
    med = MediumSpec(epsilon_rel=draw(st.floats(1.0, 6.0)), mu_rel=draw(st.floats(0.25, 4.0)))

    def event(kind, max_strength=1.0):
        # centres and times reach past both ends of the line and of the run;
        # widths run from a tenth of a cell to 1259 cells, wider than any line drawn
        z_lo, z_hi = grid.origin - 0.5 * length, grid.origin + 1.5 * length
        return SourceEvent(kind=kind, center=draw(st.floats(z_lo, z_hi)),
                           width=grid.spacing * 10.0 ** draw(st.floats(-1.0, 3.1)),
                           time=draw(st.floats(t_start - 10.0, t_stop + 10.0)),
                           duration=step * 10.0 ** draw(st.floats(-1.0, 1.5)),
                           strength=draw(st.floats(0.05, max_strength)))

    emit = event("emitter")
    detect = draw(st.sampled_from(("absent", "drawn", "matched")))
    if detect == "absent":
        det = None
    else:
        det = event("detector")
        if detect == "matched":
            det = SourceEvent(kind="detector", center=det.center, width=det.width,
                              time=arrival_time(emit, det.center, med.v),
                              duration=det.duration, strength=det.strength)
    return emit, det, med, grid, times


@settings(max_examples=300, deadline=None)
@given(lifecycle_cases())
def test_windowed_lifecycle_matches_full_grid_oracle(case):
    emit, det, med, grid, times = case
    fast = lifecycle_1d(emit, det, med, grid, times)
    slow, full_rho = full_grid_lifecycle_1d(emit, det, med, grid, times)
    assert same_bits(streamed_rho(solved_events(emit, det, slow), med, grid, times), full_rho)
    for name in REPORT_ARRAYS:
        assert same_bits(getattr(fast, name), getattr(slow, name)), name
    assert fast.acausal is slow.acausal
    # the causality check on the per-row reductions is the whole-array one,
    # located wherever it measures more than zero
    tol = dict(TOLERANCE_DEFAULTS, causality=5e-324)
    checks, info = lifecycle_checks(fast, emit, det, med, grid, tol)
    causality = [c for c in checks if c.name == "causality"]
    located = [line for line in info if line.startswith("causality")]
    whole = whole_array_causality(full_rho, emit, med, grid, times)
    assert bool(causality) == (whole is not None)
    if whole is not None:
        measured, row, cell = whole
        assert same_bits(causality[0].measured, measured)
        assert located == ([f"causality worst density outside the cone: row {row} at "
                            f"t = {times[row]:.6g}, cell {cell} at "
                            f"z = {grid.axis_positions()[cell]:.6g}"] if measured > 0.0 else [])
    # the single-event response shares the windowed pulse
    rho = green_response(emit.time, emit.center, med, grid, times, emit.duration, emit.width)
    xi = grid.axis_positions()[None, :] - emit.center - med.v * (times[:, None] - emit.time)
    full = _advected_pulse(xi, (times - emit.time)[:, None], med.v, emit.duration, emit.width)
    assert same_bits(rho, full)


@settings(max_examples=100, deadline=None)
@given(lifecycle_cases(n_t=(1, 60)), st.sampled_from((0, 1, 2, 5)),
       st.sampled_from((1, 2, 3, 7, 1000)))
def test_pulse_row_blocks_match_full_grid_oracle(case, rows, block_rows):
    # a budget of rows * n_z cells gives pulse chunks of at least that many
    # rows, 0 gives one; density blocks of block_rows rows cut across them
    emit, det, med, grid, times = case
    slow, full_rho = full_grid_lifecycle_1d(emit, det, med, grid, times)
    with mock.patch.object(medium, "_PULSE_CELLS", rows * grid.n_points), \
            mock.patch.object(medium, "_BLOCK_CELLS", block_rows * grid.n_points):
        fast = lifecycle_1d(emit, det, med, grid, times)
        rho = streamed_rho(solved_events(emit, det, slow), med, grid, times)
    assert same_bits(rho, full_rho)
    for name in REPORT_ARRAYS:
        assert same_bits(getattr(fast, name), getattr(slow, name)), name


def test_pulse_memory_does_not_grow_with_rows():
    # the fine verify line; ten times its rows would need 86 MB for one window
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    grid = line_grid(n=4096)
    emit = SourceEvent(kind="emitter", center=0.0, width=4.0 * grid.spacing, time=0.0,
                       duration=0.1)
    for n_t in (401, 4001):
        times = np.linspace(0.0, 20.0, n_t)
        live = False
        tracemalloc.start()
        try:
            for _, _, pulse in medium._pulse_chunks(emit, med.v, grid, times):
                live |= bool(np.any(pulse))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert live
        assert peak <= 24 * 8 * medium._PULSE_CELLS, (n_t, peak)


def test_lifecycle_memory_does_not_grow_with_times():
    # the benchmark line, 8192 cells, at 1601 and 6401 times: no (times, z)
    # array is held, so the solve and its checks stay under 20 MB (one whole
    # rho would be 105 MB at 1601 times)
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    grid = line_grid(n=8192)
    for n_t in (1601, 6401):
        times = np.linspace(0.0, 20.0, n_t)
        width, duration = 4.0 * grid.spacing, 4.0 * (times[1] - times[0])
        emit = SourceEvent(kind="emitter", center=0.0, width=width, time=0.0,
                           duration=duration)
        det = SourceEvent(kind="detector", center=10.0, width=width,
                          time=arrival_time(emit, 10.0, med.v), duration=duration)
        tracemalloc.start()
        try:
            rep = lifecycle_1d(emit, det, med, grid, times)
            checks, _ = lifecycle_checks(rep, emit, det, med, grid, TOLERANCE_DEFAULTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.passed for c in checks)
        assert peak <= 20e6, (n_t, peak / 1e6)


def full_line_residual_max(rho, events, z, times, v, dz):
    """Oracle: the residual reduced over whole rows, in blocks of _BLOCK_CELLS."""
    n_t, n_z = rho.shape
    dt = times[1] - times[0]
    terms = []
    for ev in events:
        profile = _source_profile(ev, z)
        nonzero = np.flatnonzero(profile)
        if nonzero.size == 0:
            continue
        rate = np.zeros(n_t)
        for i in np.flatnonzero(np.abs(times - ev.time) <= TRUNC_SIGMAS * ev.duration):
            rate[i] = _source_rate(ev, times[i])
        cols = slice(nonzero[0], nonzero[-1] + 1)
        terms.append((cols, profile[cols], rate))

    out = np.empty(n_t)
    rows_per_block = max(1, medium._BLOCK_CELLS // n_z)
    for r0 in range(0, n_t, rows_per_block):
        r1 = min(r0 + rows_per_block, n_t)
        rows, block = np.arange(r0, r1), rho[r0:r1]
        ends = (rows == 0) | (rows == n_t - 1)
        res = rho[np.minimum(rows + 1, n_t - 1)] - rho[np.maximum(rows - 1, 0)]
        res /= np.where(ends, dt, 2.0 * dt)[:, None]
        dzrho = np.roll(block, -1, axis=1) - np.roll(block, 1, axis=1)
        dzrho /= 2.0 * dz
        dzrho *= v
        res += dzrho
        source = np.zeros_like(block)
        for cols, profile, rate in terms:
            source[:, cols] += profile * rate[rows, None]
        res -= source
        np.abs(res, out=res)
        out[rows] = res.max(axis=1)
    return out


@settings(max_examples=200, deadline=None)
@given(lifecycle_cases(n_z=(16, 256), n_t=(3, 40)), st.sampled_from(("one", "few", "all")),
       st.integers(2, 5))
def test_windowed_residual_matches_full_line_oracle(case, blocks, few):
    # events drawn past both ends of the line put windows on the periodic seam
    emit, det, med, grid, times = case
    rows = {"one": 1, "few": few, "all": times.size}[blocks]
    with mock.patch.object(medium, "_BLOCK_CELLS", rows * grid.n_points):
        rep = lifecycle_1d(emit, det, med, grid, times)
        events = solved_events(emit, det, rep)
        slow = full_line_residual_max(streamed_rho(events, med, grid, times), events,
                                      grid.axis_positions(), times, med.v, grid.spacing)
    assert same_bits(rep.residual_max, slow)


def array_blocks(rho, col_lo, col_hi):
    """The row blocks of medium._density_blocks cut from a whole rho, row spans col_lo..col_hi."""
    n_t, n_z = rho.shape
    rows_per_block = max(1, medium._BLOCK_CELLS // n_z)
    for r0 in range(0, n_t, rows_per_block):
        r1 = min(r0 + rows_per_block, n_t)
        halo = np.clip(np.arange(r0 - 1, r1 + 1), 0, n_t - 1)
        yield r0, rho[halo], col_lo[halo].min(), col_hi[halo].max()


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40), st.integers(16, 256), st.sampled_from(("one", "few", "all")),
       st.integers(2, 5), st.sampled_from((1, 4, 32)), st.integers(0, 2 ** 32 - 1))
def test_residual_max_reads_only_the_windows(n_t, n_z, blocks, few, narrow, seed):
    # random densities inside random per-row windows, some on the line's ends,
    # and random sources: a cell left out of a span would show in the max
    rng = np.random.default_rng(seed)
    grid = line_grid(n=n_z, z_min=-1.0, z_max=rng.uniform(0.5, 20.0))
    z, dz = grid.axis_positions(), grid.spacing
    times = np.linspace(0.0, dz * rng.uniform(0.2, 20.0) * n_t, n_t)
    dt = times[1] - times[0]
    width = rng.integers(1, max(2, n_z // narrow) + 1, n_t)
    col_lo = rng.integers(0, n_z - width + 1)
    col_lo[rng.random(n_t) < 0.1] = 0
    col_lo[rng.random(n_t) < 0.1] = 1
    col_lo = np.minimum(col_lo, n_z - width)
    col_hi = col_lo + width
    rho = np.zeros((n_t, n_z))
    for i in range(n_t):
        rho[i, col_lo[i]:col_hi[i]] = rng.standard_normal(width[i])
    reach = 0.3 * n_z * dz
    events = [SourceEvent(kind=kind, center=rng.uniform(z[0] - reach, z[-1] + reach),
                          width=dz * 10.0 ** rng.uniform(-1.0, 1.5),
                          time=rng.uniform(times[0], times[-1]),
                          duration=dt * 10.0 ** rng.uniform(-1.0, 1.0),
                          strength=rng.uniform(0.05, 1.0))
              for kind in ("emitter", "detector")[:rng.integers(1, 3)]]
    v = rng.uniform(0.2, 1.0)
    rows = {"one": 1, "few": few, "all": n_t}[blocks]
    with mock.patch.object(medium, "_BLOCK_CELLS", rows * n_z):
        terms = medium._source_terms(events, z, times)
        fast = np.concatenate([medium._residual_rows(block, r0, c0, c1, terms, times, v, dz)
                               for r0, block, c0, c1 in array_blocks(rho, col_lo, col_hi)])
        slow = full_line_residual_max(rho, events, z, times, v, dz)
    assert same_bits(fast, slow)


def where_pulse(xi, tau_max, v, sigma_t, sigma_z):
    """Oracle: the closed-form pulse evaluated on every cell, then masked."""
    edge_t, edge_z = TRUNC_SIGMAS * sigma_t, TRUNC_SIGMAS * sigma_z
    lo = np.maximum(-edge_t, (-edge_z - xi) / v)
    hi = np.minimum(np.minimum(tau_max, edge_t), (edge_z - xi) / v)
    sc2 = sigma_z ** 2 + (v * sigma_t) ** 2
    lam = 0.5 / sigma_t ** 2 + 0.5 * v ** 2 / sigma_z ** 2
    mu = -v * xi * sigma_t ** 2 / sc2
    amp_t = 1.0 / (sigma_t * math.sqrt(2.0 * math.pi) * medium._TRUNC_MASS)
    amp_z = 1.0 / (sigma_z * math.sqrt(2.0 * math.pi) * medium._TRUNC_MASS)
    root_lam = math.sqrt(lam)
    prefac = amp_t * amp_z * 0.5 * math.sqrt(math.pi / lam)
    body = prefac * np.exp(-0.5 * xi * xi / sc2) * (
        _erf(root_lam * (hi - mu)) - _erf(root_lam * (lo - mu)))
    return np.where(hi > lo, body, 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 60), st.floats(0.2, 1.0), st.floats(0.01, 2.0),
       st.floats(0.01, 2.0), st.integers(0, 2 ** 32 - 1))
def test_live_cell_pulse_matches_masked_full_form(n_t, n_z, v, sigma_t, sigma_z, seed):
    rng = np.random.default_rng(seed)
    reach = TRUNC_SIGMAS * (sigma_z + v * sigma_t)
    xi = rng.uniform(-1.5 * reach, 1.5 * reach, (n_t, n_z))
    tau_max = rng.uniform(-1.5 * TRUNC_SIGMAS * sigma_t, 1.5 * TRUNC_SIGMAS * sigma_t, (n_t, 1))
    fast = _advected_pulse(xi, tau_max, v, sigma_t, sigma_z)
    assert same_bits(fast, where_pulse(xi, tau_max, v, sigma_t, sigma_z))
    assert not np.signbit(fast[fast == 0.0]).any()


def erf_ulps(x):
    ref = math.erf(x)
    return abs(float(_erf(x)) - ref) / math.ulp(ref)


erf_args = st.one_of(
    st.floats(-30.0, 30.0),
    st.builds(lambda m, sign: sign * m, st.floats(1e-300, 1e-3), st.sampled_from((-1.0, 1.0))))


@settings(max_examples=300, deadline=None)
@given(st.lists(erf_args, min_size=1, max_size=40))
def test_erf_within_five_ulp_of_math_erf(xs):
    x = np.array(xs)
    y = _erf(x)
    for xi, yi in zip(xs, y):
        ref = math.erf(xi)
        assert abs(yi - ref) <= 5 * math.ulp(ref), (xi, yi, ref)
    assert (-y).tobytes() == _erf(-x).tobytes()
    assert np.abs(y).max() <= 1.0


def test_erf_special_values_and_range_seams():
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.3, np.nan, 2.0, np.nan, 5.0, 7.0])
    y = _erf(x)
    assert y[0] == 0.0 and not np.signbit(y[0])
    assert y[1] == 0.0 and np.signbit(y[1])
    assert y[2] == 1.0 and y[3] == -1.0
    assert np.isnan(y[[4, 6, 8]]).all()
    assert not np.isnan(y[[5, 7, 9, 10]]).any()
    assert np.isnan(_erf(np.nan))
    for seam in (0.46875, 0.5, 4.0, 6.0):
        for edge in (np.nextafter(seam, 0.0), seam, np.nextafter(seam, 10.0)):
            assert erf_ulps(edge) <= 5, edge
            assert erf_ulps(-edge) <= 5, -edge
