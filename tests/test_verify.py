import ast
import cmath
import csv
import importlib.util
import os
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import photonlab
from photonlab import fields, medium, scenarios, verify
from photonlab.config import TOLERANCE_DEFAULTS, ConfigError, parse_config
from photonlab.csvio import report_text, write_report_files
from photonlab.current import centered_span, number_density, position_norm
from photonlab.fdops import axis_directions, centered_diff, divergence
from photonlab.fock import LadderPair
from photonlab.fields import (FieldSnapshot, SpatialGrid, _slab_width, dual_grid, maxwell_residual,
                              mode_coefficients, slab_plan, synthesize)
from photonlab.medium import MediumSpec, SourceEvent, arrival_time, lifecycle_1d
from photonlab.modes import KGrid, gauge_shift, gaussian_packet, lambda_row, norm
from photonlab.scenarios import run_scenario
from photonlab.units import unit_system
from photonlab.verify import (_MAXWELL_T0, _maxwell_level, _maxwell_packet, _norm_block,
                              _worst_point, check_le, gauge_checks, lifecycle_checks, line_events,
                              line_setup, norm_check, packet_state, run_verify)

from helpers import same_bits, slab_widths


def test_run_verify_requires_verify_kind():
    with pytest.raises(ValueError, match="\\[verify\\] configuration"):
        run_verify(parse_config("[fock]\n"))


def test_dispersion_fault_is_caught_and_still_reported(tmp_path):
    cfg = parse_config(f"[verify]\ninject_dispersion_error = 0.05\noutput = {tmp_path}\n")
    rep = run_verify(cfg)
    assert not rep.all_passed

    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names))
    failed = {c.name for c in rep.checks if not c.passed}
    # a mis-scaled E field breaks energy-weighted norms and the Ampere law
    assert {"norm_unity", "maxwell_ampere_order"} <= failed
    # the spatial-derivative laws never see the time scaling
    assert "maxwell_divb_order" not in failed
    # the mis-scaled density no longer matches J / v; the line names where
    assert "medium_current" in failed
    assert any(line.startswith("medium_current worst point at t = 0.8: index ")
               for line in rep.info)

    txt_path, csv_path = write_report_files(
        cfg.output, report_text("photonlab verification report", cfg.echo_lines(), rep.checks,
                                rep.info), rep.checks)
    text = open(txt_path, encoding="utf-8").read()
    assert "result: FAIL" in text
    assert f"({len(names) - len(failed)}/{len(names)} checks)" in text
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == len(names) + 1
    assert {row[4] for row in rows[1:]} == {"true", "false"}


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_causality_check_catches_density_outside_the_cone(sign):
    med = MediumSpec(epsilon_rel=2.0, mu_rel=1.0)
    grid = SpatialGrid(n_per_axis=512, spacing=30.0 / 512, dimension=1, origin=-5.0)
    times = np.linspace(0.0, 20.0, 101)
    emit = SourceEvent(kind="emitter", center=0.0, width=4.0 * grid.spacing, time=0.0,
                       duration=4.0 * (times[1] - times[0]))
    rep = lifecycle_1d(emit, None, med, grid, times)
    clean, clean_info = lifecycle_checks(rep, emit, None, med, grid, TOLERANCE_DEFAULTS)
    assert {c.name: c for c in clean}["causality"].passed
    assert not any(line.startswith("causality") for line in clean_info)

    # early in the run, at the far end of the line: outside the padded cone;
    # the same fault in a later row leaves the first one named, as in row-major order
    i, later, cell = 10, 20, grid.n_points - 1
    pad = 6.0 * (emit.width + med.v * emit.duration)
    assert abs(grid.axis_positions()[cell] - emit.center) > med.v * times[later] + pad
    blocks = medium._density_blocks

    def planted(*args):
        # the solve's density gets the faults in the blocks that hold their rows
        for r0, block, c0, c1 in blocks(*args):
            for row in (i, later):
                if r0 <= row < r0 + len(block) - 2:
                    block[row - r0 + 1, cell] = sign * 1e-9
            yield r0, block, c0, c1

    with mock.patch.object(medium, "_density_blocks", planted):
        faulty = lifecycle_1d(emit, None, med, grid, times)
    checks, info = lifecycle_checks(faulty, emit, None, med, grid, TOLERANCE_DEFAULTS)
    causality = {c.name: c for c in checks}["causality"]
    assert not causality.passed
    assert causality.measured == 1e-9
    z = grid.axis_positions()[cell]
    assert (f"causality worst density outside the cone: row {i} at t = {times[i]:.6g}, "
            f"cell {cell} at z = {z:.6g}") in info


@pytest.mark.parametrize("detector", (True, False))
@pytest.mark.parametrize("units", ("natural", "si"))
def test_line_events_resolve_auto_matched_and_numbers(units, detector):
    us = unit_system(units)
    head = f"[lifecycle1d]\nunits = {units}\nn_z = 128\nt_steps = 50\n"
    off = "" if detector else "[detector]\nenabled = false\n"

    def events(body):
        cfg = parse_config(head + body)
        med, grid, times = line_setup(cfg, us)
        return (*line_events(cfg, us, med, grid, times), med, grid.spacing, times[1] - times[0])

    # the defaults: an auto-sized emitter, a matched detector at the ballistic arrival
    emit, det, med, dz, dt = events(off)
    assert emit == SourceEvent(kind="emitter", center=0.0, width=4.0 * dz, time=0.0,
                               duration=4.0 * dt, strength=1.0)
    assert det == (SourceEvent(kind="detector", center=10.0, width=emit.width,
                               time=arrival_time(emit, 10.0, med.v), duration=emit.duration,
                               strength=emit.strength) if detector else None)

    # numbers: time and duration are in config units, width and strength are not
    emit, det, med, dz, dt = events(
        "[emitter]\nwidth = 0.3\nduration = 0.2\ntime = 0.5\nstrength = 0.7\n"
        + ("[detector]\nwidth = auto\nduration = auto\ntime = 7\nstrength = 0.5\n"
           if detector else off))
    assert emit == SourceEvent(kind="emitter", center=0.0, width=0.3, time=us.time_in * 0.5,
                               duration=us.time_in * 0.2, strength=0.7)
    assert det == (SourceEvent(kind="detector", center=10.0, width=4.0 * dz,
                               time=us.time_in * 7.0, duration=4.0 * dt, strength=0.5)
                   if detector else None)


def test_residual_order_failure_names_the_worst_rows(monkeypatch):
    clean, clean_info = verify._lifecycle_block(TOLERANCE_DEFAULTS)
    assert {c.name: c for c in clean}["lifecycle_residual_order"].passed
    assert not any(line.startswith("lifecycle_residual_order") for line in clean_info)

    # the fine solve (4096 cells) reports a spiked residual in one interior row
    spike, solves = 300, {}

    def spiked(emit, detect, med, grid, times):
        rep = lifecycle_1d(emit, detect, med, grid, times)
        if grid.n_points == 4096:
            residual = rep.residual_max.copy()
            residual[spike] = 1e6
            rep = replace(rep, residual_max=residual)
        solves[grid.n_points] = rep
        return rep

    monkeypatch.setattr(verify, "lifecycle_1d", spiked)
    checks, info = verify._lifecycle_block(TOLERANCE_DEFAULTS)
    assert not {c.name: c for c in checks}["lifecycle_residual_order"].passed
    coarse, fine = solves[2048], solves[4096]
    row = int(np.argmax(coarse.residual_max[1:-1])) + 1
    assert info[-1] == (f"lifecycle_residual_order worst residual_max: coarse row {row} at "
                        f"t = {coarse.times[row]:.6g}, fine row {spike} at "
                        f"t = {fine.times[spike]:.6g}")


@pytest.mark.parametrize("speedup, failing", [
    (1.002, {"peak_speed_cells", "lifecycle_residual_order"}),
    (1.01, {"peak_speed_cells", "lifecycle_residual_order", "causality"}),
])
def test_a_pulse_advected_too_fast_fails_peak_speed_cells(monkeypatch, speedup, failing):
    # the pulse runs at speedup * v while the checks expect v: its peak leaves
    # the ballistic position by more than a cell over the transit, the pulse no
    # longer solves the transport the residual differences, and at 1% it
    # leaves the padded light cone too
    pulse = medium._pulse_chunks
    monkeypatch.setattr(medium, "_pulse_chunks",
                        lambda ev, v, grid1d, times: pulse(ev, speedup * v, grid1d, times))
    checks = {c.name: c for c in verify._lifecycle_block(TOLERANCE_DEFAULTS)[0]}
    assert {name for name, c in checks.items() if not c.passed} == failing
    assert checks["peak_speed_cells"].measured > 1.5


def whole_vector_curl(vf, spacing, dimension, twists):
    """Oracle: curl V as one whole vector, each off-diagonal derivative added as it exists."""
    out = None
    for arr_ax, direction in axis_directions(dimension):
        for comp in range(3):
            if comp == direction:
                continue
            d = centered_diff(vf[..., comp], arr_ax, spacing, twists[arr_ax])
            if out is None:
                out = np.zeros_like(vf, dtype=d.dtype)
            # (curl V)_i = d_j V_k - d_k V_j for (i, j, k) cyclic
            target = out[..., 3 - direction - comp]
            if (direction - comp) % 3 == 2:
                target += d
            else:
                target -= d
    return out


def whole_vector_residuals(now, dt_e):
    """Oracle: (div E, dE/dt - curl B) of the fields at t0 and dE/dt, curl B a whole vector."""
    twists = now.twists()
    grid = now.grid
    gauss = divergence(now.e_plus, grid.spacing, grid.dimension, twists)
    ampere = whole_vector_curl(now.b_plus, grid.spacing, grid.dimension, twists)
    np.subtract(dt_e, ampere, out=ampere)
    return gauss, ampere


def whole_vector_maxwell_residual(prev, now, nxt):
    """Oracle: the three-sum form, E at t0 -+ dt summed apart and differenced, all held at once."""
    return whole_vector_residuals(now, (nxt.e_plus - prev.e_plus) / centered_span(prev, now, nxt))


@st.composite
def residual_cases(draw):
    dim = draw(st.sampled_from((1, 3)))
    n = draw(st.integers(2, 64 if dim == 1 else 9))
    grid = SpatialGrid(n_per_axis=n, spacing=draw(st.floats(0.01, 3.0)), dimension=dim)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # twisted and untwisted axes, as on a Fourier-dual box of an offset k-lattice
    twists = tuple(cmath.exp(1j * rng.uniform(-np.pi, np.pi)) if draw(st.booleans()) else 1.0
                   for _ in range(dim))
    shape = (3,) + grid.field_shape()
    # few levels, signed zeros among them, so that differences of equal
    # samples give +-0 in every stencil, and dE/dt is +-0 where the step is
    levels = np.array([0.0, -0.0, 1.0, -1.0]) if draw(st.booleans()) else None

    def rows():
        f = np.empty(shape, dtype=np.complex128)
        for part in (f.real, f.imag):
            part[...] = rng.normal(size=shape) if levels is None else rng.choice(levels, shape)
        if draw(st.booleans()):
            f[rng.random(shape) < 0.2] = 0.0  # exact (signed) zeros at the seams too
            f[rng.random(shape) < 0.1] *= -0.0
        if draw(st.booleans()):
            f[rng.integers(3)] = 0.0  # an all-zero row, as a dead component sums
        return f

    t0, span = draw(st.floats(0.0, 6.0)), draw(st.floats(0.02, 2.0))
    now, step = (FieldSnapshot(grid, t, {"e": rows(), "b": rows()}, 1.0, twists, frozenset())
                 for t in (t0, t0 + span / 2.0))
    return now, step, span


def owned_copies(now, step):
    """maxwell_residual's sample: fresh copies of the groups asked for, the law's to overwrite."""
    by_key = {"now": now, "step": step}

    def sample(key, groups, planes):
        s = by_key[key]
        return replace(s, rows={g: s.rows[g].copy() for g in groups})
    return sample


@settings(max_examples=200, deadline=None)
@given(residual_cases())
def test_streamed_maxwell_residuals_match_whole_vector_oracle(case):
    now, step, span = case
    # a whole box is one slab, so each residual comes whole, at plane 0
    streamed = list(maxwell_residual(owned_copies(now, step), [(0, None)], span))
    gauss, ampere = whole_vector_residuals(now, step.e_plus / span)
    divb = divergence(now.b_plus, now.grid.spacing, now.grid.dimension, now.twists())
    assert [(p, k) for p, k, _ in streamed] == [(0, 0), (0, 1), (0, 2)]
    for (_, _, got), want in zip(streamed, (gauss, ampere, divb)):
        assert same_bits(got, want)


def test_maxwell_residual_sums_e_and_b_at_t0_apart():
    m = _maxwell_packet()
    sg = dual_grid(m.grid, 8)
    dt = sg.spacing / 2.0
    at = {"now": _MAXWELL_T0, "step": _MAXWELL_T0 + dt}
    calls, snaps, alive_at_b = [], [], []

    def sample(key, groups, planes):
        calls.append((key, groups, list(planes)))
        if groups == ("b",):
            alive_at_b.extend(ref() is not None for ref in snaps)
        snap = synthesize(m, sg, at[key], groups=groups, planes=planes)
        snaps.append(weakref.ref(snap))
        return snap

    with mock.patch.object(fields, "_SLAB_POINTS", 4 * 8 * 8):
        plan = slab_plan(sg)
    first, last = [list(planes) for _, planes in plan]
    assert first == [0, 1, 2, 3] and last == [4, 5, 6, 7]
    pieces = [(p, k) for p, k, _ in maxwell_residual(sample, plan, 2.0 * dt)]
    # each walk sums its group at t0 on the last 4 planes for plane 7 first,
    # then walks the slabs: E at t0 alone for div E, then per slab two sums,
    # the step of E for dE/dt and B at t0
    assert calls == [("now", ("e",), last), ("now", ("e",), first),
                     ("now", ("e",), last), ("now", ("b",), last)] + [
        (key, g, planes) for planes in (first, last)
        for key, g in (("step", ("e",)), ("now", ("b",)))]
    # every earlier snapshot, E at t0 and each walk's 4-plane sum for plane 7
    # included, is gone before B at t0 is summed, but the slab's own step of E
    step_alive = [False] * 4 + [True]
    assert alive_at_b == [False] * 3 + step_alive + [False] * 2 + step_alive
    # each residual in plane order: planes 0-2, 3, 4-6 and 7
    assert pieces == [(p, 0) for p in (0, 3, 4, 7)] + [
        (p, k) for p in (0, 3, 4, 7) for k in (1, 2)]


def whole_box_maxwell_level(m, n_x, scale):
    """Oracle: Gauss, Ampere and div B on the whole n_x^3 dual box at once.

    dE/dt is the sum of the same coefficient difference as _maxwell_level's,
    on the whole box. Returns the three residual arrays, their maxima and
    their worst points.
    """
    sg = dual_grid(m.grid, n_x)
    t0, dt = _MAXWELL_T0, sg.spacing / 2.0
    now = synthesize(m, sg, t0, omega_scale=scale, groups=("e", "b"))
    step = mode_coefficients(m, t0 + dt, scale) - mode_coefficients(m, t0 - dt, scale)
    dt_e = synthesize(m, sg, t0 + dt, scale, ("e",), coeffs=step).e_plus / (2.0 * dt)
    gauss, ampere = whole_vector_residuals(now, dt_e)
    divb = divergence(now.b_plus, sg.spacing, sg.dimension, now.twists())
    res = (gauss, ampere, divb)
    return res, [np.abs(r).max() for r in res], [_worst_point(r, sg) for r in res]


def maxwell_case(n_x, n_k, dk, center, sigma, pol, scale):
    """(packet, n_x, scale) of a Gaussian packet on an off-lattice k-grid, or None at k = 0."""
    try:
        kgrid = KGrid(n_per_axis=n_k, spacing=dk, dimension=3, center=center)
    except ValueError:
        return None  # the lattice hit k = 0
    return gaussian_packet(kgrid, center, sigma, pol), n_x, scale


@st.composite
def maxwell_cases(draw):
    # n_x = 9, 17 and 33 leave one plane over a multiple of 4, 18 two, 19 three
    n_x = draw(st.sampled_from(list(range(8, 65, 4)) + [9, 17, 33, 18, 19]))
    n_k = draw(st.integers(3, 6))
    dk = draw(st.floats(0.2, 0.6))
    # an off-lattice centre: k_0 L / 2 pi is not an integer on any axis
    center = tuple(draw(st.floats(-0.6, 0.6)) for _ in range(2)) + \
        (draw(st.floats(0.8, 1.6)),)
    case = maxwell_case(n_x, n_k, dk, center, draw(st.floats(0.2, 0.8)),
                        draw(st.sampled_from((1, -1))), draw(st.sampled_from((1.0, 1.05))))
    assume(case is not None)
    twists = synthesize(case[0], dual_grid(case[0].grid, n_x), 0.0, groups=()).twists()
    assume(all(abs(t - 1.0) > 1e-3 for t in twists))
    return case


@settings(max_examples=8, deadline=None)
@given(maxwell_cases())
@example(maxwell_case(17, 3, 0.4, (0.3, -0.2, 1.1), 0.5, 1, 1.05))
@example(maxwell_case(19, 4, 0.35, (-0.25, 0.4, 1.3), 0.6, -1, 1.0))
def test_slab_streamed_maxwell_level_matches_whole_box(case):
    m, n_x, scale = case
    res, maxima, where = whole_box_maxwell_level(m, n_x, scale)
    for width in slab_widths(n_x):
        pieces = [[], [], []]  # (first plane, a copy of the residual) per residual

        def recorded(*args):
            for p, k, r in maxwell_residual(*args):
                pieces[k].append((p, r.copy()))  # Ampere is a view of the step's sum
                yield p, k, r

        with mock.patch.object(fields, "_SLAB_POINTS", width * n_x * n_x), \
                mock.patch.object(verify, "maxwell_residual", recorded):
            assert _slab_width(n_x) == width
            assert _maxwell_level(m, n_x, scale) == (maxima, where), width
        for k in range(3):
            # every plane once, in plane order, bitwise the whole box
            firsts = [p for p, _ in pieces[k]]
            assert firsts == [0] + list(np.cumsum([len(r) for _, r in pieces[k]])[:-1]), width
            got = np.concatenate([r for _, r in pieces[k]])
            assert np.array_equal(got, res[k]), (width, k)


def test_streamed_ampere_is_the_three_sum_form_to_rounding():
    # the default packet at 48^3: E(t0 + dt) - E(t0 - dt) summed as one
    # coefficient difference is the three-sum form's difference of two sums
    # in exact arithmetic; the sums round apart by a few ulps of their terms'
    # magnitudes (under 3 eps here and on the spectral cases), bounded with room
    m, n_x = _maxwell_packet(), 48
    sg = dual_grid(m.grid, n_x)
    dt = sg.spacing / 2.0
    times = (_MAXWELL_T0 - dt, _MAXWELL_T0, _MAXWELL_T0 + dt)
    _, three_sum = whole_vector_maxwell_residual(
        *(synthesize(m, sg, t, groups=("e", "b")) for t in times))
    terms = sum(np.abs(mode_coefficients(m, t)[:, fields.GROUPS["e"]]).sum(axis=0)
                for t in (times[0], times[2]))
    rounding = 8.0 * np.finfo(float).eps * terms / (2.0 * dt)
    ampere = []

    def recorded(*args):
        for p, k, r in maxwell_residual(*args):
            if k == 1:
                ampere.append(r.copy())
            yield p, k, r

    with mock.patch.object(verify, "maxwell_residual", recorded):
        _maxwell_level(m, n_x, 1.0)
    err = np.abs(np.concatenate(ampere) - three_sum).reshape(-1, 3).max(axis=0)
    assert np.all(err <= rounding), err / rounding
    assert np.abs(three_sum).max() > 1e6 * rounding.max()  # a residual well above the bound


def test_maxwell_level_picks_the_first_worst_point_across_pieces():
    # pieces in plane order: a tie goes to the lower point, and the first NaN
    # wins over larger values and NaNs on either side, as np.argmax picks
    # them on the whole box
    m, n_x, scale = maxwell_case(16, 3, 0.4, (0.3, -0.2, 1.1), 0.5, 1, 1.0)
    firsts, widths = (0, 10, 12, 14), (10, 2, 2, 2)
    planted_values = ((1.0, 2.0, 1.0, 2.0), (1.0, np.nan, 3.0, np.nan),
                      (1.0, 2.0, 3.0, np.nan))

    def planted(sample, plan, span):
        for k, values in enumerate(planted_values):
            for p, n, v in zip(firsts, widths, values):
                yield p, k, np.full((n, 16, 16), v)

    with mock.patch.object(verify, "maxwell_residual", planted):
        values, where = _maxwell_level(m, n_x, scale)
    sg = dual_grid(m.grid, n_x)
    assert values[0] == 2.0 and np.isnan(values[1]) and np.isnan(values[2])
    assert where == [verify._grid_point(p * 256, sg) for p in (10, 10, 14)]


def test_fine_maxwell_level_memory_stays_near_its_snapshots():
    # a 4-plane slab of the 96^3 box holds dE/dt in the step's E sum and B at
    # t0 (E at t0 has a walk of its own), one residual at a time and its
    # stencil temporaries, and the x-neighbour planes carried between slabs:
    # about 5 slabs of 3 components, where the haloed plan's 12-plane slabs
    # held about one whole-box component
    slab = 3 * _slab_width(96) * 96 * 96 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        maxima, _ = _maxwell_level(_maxwell_packet(), 96, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(0.0 < r < 1e-3 for r in maxima)
    assert peak <= 5 * slab, peak / slab


def whole_box_gauge_checks(packet, strength, t, tol, omega_scale=1.0):
    """gauge_checks on whole boxes: both packets summed at once, the oracle of the slab scan."""
    m = packet_state(packet)
    gfun = strength * gaussian_packet(m.grid, packet.k0, packet.sigma,
                                      "par").amps[lambda_row("par")]
    shifted = gauge_shift(m, gfun)

    sg = dual_grid(m.grid, packet.n_x)
    s1 = fields.synthesize(m, sg, t, omega_scale=omega_scale)
    s2 = fields.synthesize(shifted, sg, t, omega_scale=omega_scale)
    field_dev = max(np.abs(s1.e_plus - s2.e_plus).max(),
                    np.abs(s1.b_plus - s2.b_plus).max())
    n1 = position_norm(number_density(s1), sg)
    n2 = position_norm(number_density(s2), sg)
    trans = [lambda_row(1), lambda_row(-1)]
    bits = 0.0 if np.array_equal(m.amps[trans], shifted.amps[trans]) else \
        np.abs(m.amps[trans] - shifted.amps[trans]).max()

    checks = [check_le("gauge_field", field_dev, tol["gauge_field"]),
              check_le("gauge_norm", abs(n1 - n2), tol["gauge_norm"]),
              check_le("gauge_transverse_amps", bits, 0.0)]
    info = [f"gauge shift moved max |phi| by {np.abs(s1.phi_plus - s2.phi_plus).max():.6g}",
            f"position norm before/after = {n1:.17g} / {n2:.17g}"]
    return checks, info, shifted


def whole_box_norm_block(tol, scale):
    """verify's norm block with each checkpoint summed as one whole box."""
    cfg = verify.parse_config("[packet3d]")
    m = packet_state(cfg.packet)
    sg = dual_grid(m.grid, cfg.packet.n_x)
    times = cfg.times.checkpoints()
    norms = [position_norm(number_density(fields.synthesize(m, sg, t, omega_scale=scale,
                                                            groups=("a", "e"))), sg)
             for t in times]
    checks, norm_info = norm_check(norms, times, 1.0, tol)
    info = [f"mode norm (all polarizations) = {norm(m):.17g}",
            f"mode norm (transverse only) = {norm(m, polarizations=(1, -1)):.17g}"]
    return checks, info + norm_info


def slab_budgets(n_x):
    """(width, _SLAB_POINTS) for every width the slab plan picks, at any n_x."""
    return [(w, w * n_x * n_x) for w in slab_widths(n_x)]


@st.composite
def packet_texts(draw, kind):
    # n_x = 18 and 19 leave 2 and 3 planes over a multiple of 4, as the box
    # does; at 9, 17 and 33 the one plane over joins the last slab
    n_x = draw(st.sampled_from(list(range(8, 33, 4)) + [9, 17, 33, 18, 19]))
    k0 = [round(draw(st.floats(-0.5, 0.5)), 4) for _ in range(2)] + \
        [round(draw(st.floats(0.8, 4.0)), 4)]
    text = (f"[{kind}]\nn_k = {draw(st.integers(3, 6))}\nn_x = {n_x}\n"
            f"k0 = ({k0[0]!r}, {k0[1]!r}, {k0[2]!r})\n"
            f"lambda = {draw(st.sampled_from(('+1', '-1', 'par')))}\n")
    try:
        parse_config(text)
    except ConfigError:
        assume(False)  # the lattice hit k = 0
    return n_x, text


@settings(max_examples=10, deadline=None)
@given(packet_texts("gauge"), st.floats(-3.0, 3.0), st.floats(0.0, 6.0),
       st.sampled_from((1.0, 1.05)))
@example((33, "[gauge]\nn_k = 5\nn_x = 33\nk0 = (0.1, -0.3, 1.7)\nlambda = +1\n"),
         0.7, 0.7, 1.0)
def test_slab_streamed_gauge_checks_match_whole_box(case, strength, t, scale):
    n_x, text = case
    packet, tol = parse_config(text).packet, dict(TOLERANCE_DEFAULTS)
    checks, info, shifted = whole_box_gauge_checks(packet, strength, t, tol, scale)
    for width, budget in slab_budgets(n_x):
        with mock.patch.object(fields, "_SLAB_POINTS", budget):
            assert _slab_width(n_x) == width
            got = gauge_checks(packet, strength, t, tol, scale)
        assert got[:2] == (checks, info), (width, text)
        assert got[2].grid == shifted.grid and np.array_equal(got[2].amps, shifted.amps)


@settings(max_examples=6, deadline=None)
@given(packet_texts("packet3d"), st.integers(1, 3), st.sampled_from((1.0, 1.05)))
@example((17, "[packet3d]\nn_k = 4\nn_x = 17\nk0 = (0.2, 0.1, 2.5)\nlambda = -1\n"), 2, 1.05)
def test_slab_streamed_norm_block_matches_whole_box(case, steps, scale):
    # the block studies the default [packet3d]; here it studies the drawn packet
    n_x, text = case
    tol = dict(TOLERANCE_DEFAULTS)

    def drawn(_):
        return parse_config(f"{text}t_steps = {steps}\n")

    with mock.patch.object(verify, "parse_config", drawn):
        expected = whole_box_norm_block(tol, scale)
        for width, budget in slab_budgets(n_x):
            with mock.patch.object(fields, "_SLAB_POINTS", budget):
                assert _slab_width(n_x) == width
                assert _norm_block(tol, scale) == expected, (width, text)


@pytest.mark.parametrize("width", [None, 6, 10])  # None: the whole box
def test_a_nan_in_one_slab_of_e_fails_gauge_field(width):
    # budgets of 6 and 10 planes cut slabs of 4 and 8; box plane 20 lies in
    # the 6th and the 3rd, so the NaN is not in the first slab, where a Python
    # max would still keep it
    n_x, plane = 32, 20
    cfg = parse_config(f"[gauge]\nn_x = {n_x}\n")
    synth = fields.synthesize

    def planted(m, grid, t, omega_scale=1.0, groups=tuple(fields.GROUPS), planes=None,
                coeffs=None):
        snap = synth(m, grid, t, omega_scale, groups, planes, coeffs)
        if not m.amps[lambda_row("par")].any():  # the packet before the shift
            snap.rows["e"][0][plane if planes is None else planes == plane] = np.nan
        return snap

    run = whole_box_gauge_checks if width is None else gauge_checks
    with mock.patch.object(fields, "synthesize", planted), \
            mock.patch.object(fields, "_SLAB_POINTS", (width or n_x) * n_x * n_x):
        checks, _, _ = run(cfg.packet, cfg.gauge_strength, cfg.t_stop, cfg.tolerances)
    field = checks[0]
    assert field.name == "gauge_field" and np.isnan(field.measured) and not field.passed


# every check that reads a field sum, for verify and the run scenarios that sum fields
_FIELD_CHECKS = {
    "[verify]\n": {"norm_unity", "continuity_order", "continuity_residual",
                   "helicity_pointwise", "helicity_longitudinal", "gauge_field", "gauge_norm",
                   "maxwell_gauss_order", "maxwell_ampere_order", "maxwell_divb_order",
                   "medium_pointwise", "medium_norm", "medium_current", "vacuum_reduction"},
    "[packet3d]\nn_k = 8\nn_x = 16\n": {"norm_unity"},
    "[helicity]\n": {"helicity_pointwise"},
    "[helicity]\nlambda = par\n": {"helicity_longitudinal"},
    "[gauge]\nn_x = 18\n": {"gauge_field", "gauge_norm"},
    "[medium1d]\n": {"medium_pointwise", "medium_norm", "medium_current", "vacuum_reduction"},
}


@pytest.mark.parametrize("text", list(_FIELD_CHECKS), ids=["verify", "packet3d", "helicity",
                                                           "helicity-par", "gauge-nx18",
                                                           "medium1d"])
def test_a_nan_in_every_field_sum_fails_every_check_that_reads_one(tmp_path, text):
    # and only those: a check on the modes, the line solve or the ladder still passes
    synth = fields.synthesize

    def planted(*args, **kwargs):
        snap = synth(*args, **kwargs)
        for rows in snap.rows.values():
            rows[...] = np.nan
        return snap

    cfg = parse_config(text + f"output = {tmp_path}\n")
    with mock.patch.object(fields, "synthesize", planted), \
            mock.patch.object(verify, "synthesize", planted), \
            mock.patch.object(scenarios, "synthesize", planted):
        outcome = run_verify(cfg) if cfg.kind == "verify" else run_scenario(cfg)
    assert {c.name for c in outcome.checks if not c.passed} == _FIELD_CHECKS[text]
    assert all(np.isnan(c.measured) or c.measured == np.inf
               for c in outcome.checks if not c.passed)


def test_a_nan_in_one_slab_of_b_alone_fails_gauge_field():
    # |dE| stays finite and a NaN |dB| follows it, which a Python max(dE, dB)
    # would drop; B feeds no density, so the norm check still passes
    plane = 20
    cfg = parse_config("[gauge]")
    synth = fields.synthesize

    def planted(m, grid, t, omega_scale=1.0, groups=tuple(fields.GROUPS), planes=None,
                coeffs=None):
        snap = synth(m, grid, t, omega_scale, groups, planes, coeffs)
        if not m.amps[lambda_row("par")].any() and plane in planes:
            snap.rows["b"][0][planes == plane] = np.nan
        return snap

    with mock.patch.object(fields, "synthesize", planted):
        checks, _, _ = gauge_checks(cfg.packet, cfg.gauge_strength, cfg.t_stop, cfg.tolerances)
    assert [c.name for c in checks if not c.passed] == ["gauge_field"]
    assert np.isnan(checks[0].measured)


def test_a_nan_in_the_last_norm_fails_norm_unity():
    tol, times = dict(TOLERANCE_DEFAULTS), [0.0, 1.0, 2.0]
    assert norm_check([1.0, 1.0, 1.0], times, 1.0, tol)[0][0].passed
    (check,), _ = norm_check([1.0, 1.0, np.nan], times, 1.0, tol)
    assert np.isnan(check.measured) and not check.passed


def _currents(kind):
    """A 1D scenario's config, its grid, and the currents of its checkpoints."""
    cfg = parse_config(f"[{kind}]")
    med = cfg.medium or medium.VACUUM
    m = packet_state(cfg.packet, speed=med.v)
    sg = dual_grid(m.grid, cfg.packet.n_x)
    currents = [cf for _, cf, _ in verify.field_scan(m, sg, cfg.times.checkpoints(), med)]
    return cfg, m, sg, currents


def test_a_nan_at_the_last_checkpoint_fails_the_pointwise_checks():
    # the first checkpoints stay finite, so a Python max over them would pass
    cfg, _, _, currents = _currents("helicity")
    tol, last = cfg.tolerances, currents[-1]
    assert all(c.passed for c in verify.helicity_check(currents, 1, tol)[0])
    last.rho[100] = np.nan
    (check,), info = verify.helicity_check(currents, 1, tol)
    assert np.isnan(check.measured) and not check.passed
    assert info == [f"helicity_pointwise worst point at t = {last.time:g}: "
                    f"{_worst_point(last.rho, last.grid)}"]
    assert " index 100 " in info[0]

    for cf in currents:
        cf.s_hel[:] = 0.0  # a longitudinal packet's helicity
    assert verify.helicity_check(currents, "par", tol)[0][0].passed
    last.s_hel[100, 2] = np.nan
    (check,), _ = verify.helicity_check(currents, "par", tol)
    assert np.isnan(check.measured) and not check.passed

    cfg, m, sg, currents = _currents("medium1d")
    free_rho = [number_density(synthesize(m, sg, cf.time)) for cf in currents]
    assert all(c.passed for c in verify.medium_checks(cfg.packet, cfg.medium, currents,
                                                      free_rho, cfg.tolerances)[0])
    currents[-1].rho[100] = np.nan
    checks, _ = verify.medium_checks(cfg.packet, cfg.medium, currents, free_rho,
                                     cfg.tolerances)
    failed = {c.name: c.measured for c in checks if not c.passed}
    assert set(failed) == {"medium_pointwise", "medium_norm", "medium_current"}
    assert all(np.isnan(v) for v in failed.values())


def test_a_nan_boost_error_fails_both_boost_checks(monkeypatch):
    # a NaN base error made the ratio 0.0, which passed boost_monotone
    cfg = parse_config("[boost]")
    errors = iter([np.nan, 1.0])
    monkeypatch.setattr(verify, "norm", lambda m: next(errors))
    checks, _, _ = verify.boost_checks(cfg.packet, cfg.beta, cfg.tolerances)
    assert [c.name for c in checks if not c.passed] == ["boost_norm", "boost_monotone"]
    assert all(np.isnan(c.measured) for c in checks)


def test_a_nan_in_the_last_commutator_fails_fock_commutator(monkeypatch):
    lp = verify.ladder_pair(parse_config("[fock]").n_states)
    exact = verify.commutator_expectation
    monkeypatch.setattr(verify, "commutator_expectation",
                        lambda lp, n: np.nan if n == lp.dim - 2 else exact(lp, n))
    checks, _ = verify.fock_checks(lp, dict(TOLERANCE_DEFAULTS))
    assert [c.name for c in checks if not c.passed] == ["fock_commutator"]
    assert np.isnan(checks[0].measured)


@pytest.mark.parametrize("error", (1e-13, 1e-6))
def test_a_perturbed_ladder_entry_fails_fock_commutator(monkeypatch, error):
    # a[4, 5] = sqrt(5) off by one part in 1/error, a_dag its adjoint: <4|[a, a_dag]|4> and
    # <5|[a, a_dag]|5> move by about 10 error, while number() is built directly and stays
    # exact; the states |n> from n = 5 on are off unit norm by error, which the info says
    exact = verify.ladder_pair

    def perturbed(n):
        lp = exact(n)
        a = lp.a.copy()
        a[4, 5] *= 1.0 + error
        return replace(lp, a=a, a_dag=a.conj().T)

    monkeypatch.setattr(verify, "ladder_pair", perturbed)
    checks, info = verify._fock_block(dict(TOLERANCE_DEFAULTS))
    by_name = {c.name: c for c in checks}
    assert [c.name for c in checks if not c.passed] == ["fock_commutator"]
    assert by_name["fock_commutator"].measured == pytest.approx(10 * error, rel=0.05)
    assert by_name["fock_number_exact"].measured == 0.0
    line = next(s for s in info if s.startswith("n-photon state norm deviation = "))
    assert float(line.split(" = ")[1]) == pytest.approx(error, rel=0.05)


def test_a_number_operator_built_from_the_ladder_fails_fock_number_exact(monkeypatch):
    # a_dag @ a leaves sqrt(n)**2 rounded on the diagonal, so <n|N|n> misses n by an ulp
    # or so; the commutator reads a and a_dag alone and still passes
    monkeypatch.setattr(LadderPair, "number", lambda self: self.a_dag @ self.a)
    checks, _ = verify._fock_block(dict(TOLERANCE_DEFAULTS))
    assert [c.name for c in checks if not c.passed] == ["fock_number_exact"]
    assert 0.0 < checks[1].measured <= 1e-14


def test_a_gauge_shift_that_leaks_into_a_transverse_row_fails_the_gauge_checks(monkeypatch):
    # a gauge function moves the longitudinal row alone; a shift that also adds 1e-3 g
    # to the +1 row changes the physical field, its density and the transverse amplitudes
    exact = verify.gauge_shift

    def leaky(m, g):
        shifted = exact(m, g)
        amps = shifted.amps.copy()
        amps[lambda_row(1)] += 1e-3 * g
        return replace(shifted, amps=amps)

    monkeypatch.setattr(verify, "gauge_shift", leaky)
    checks, _, _ = gauge_checks(parse_config("[gauge]").packet, 0.7, 0.7,
                                dict(TOLERANCE_DEFAULTS))
    assert [c.name for c in checks if not c.passed] == [
        "gauge_field", "gauge_norm", "gauge_transverse_amps"]
    assert checks[2].measured > 1e-3


@pytest.mark.parametrize("scale, measured", [(1.0, 0.9046), (1.05, 0.9498)])
def test_swapped_helicity_vectors_fail_helicity_pointwise(monkeypatch, scale, measured):
    # e_+ and e_- swapped: the lambda = +1 packet carries helicity -1, so S = -rho e_k and
    # S - rho e_k peaks at twice the largest density; the longitudinal packet still carries
    # none, with or without the dispersion fault
    exact = fields.polarization_bases

    def swapped(k):
        bases = exact(k)
        return replace(bases, e_plus=bases.e_minus, e_minus=bases.e_plus)

    monkeypatch.setattr(fields, "polarization_bases", swapped)
    checks, info = verify._helicity_block(dict(TOLERANCE_DEFAULTS), scale)
    assert [c.name for c in checks if not c.passed] == ["helicity_pointwise"]
    assert checks[0].measured == pytest.approx(measured, abs=1e-4)
    assert info[-1].startswith("helicity_pointwise worst point at t = 1: index ")


@pytest.mark.parametrize("group, failing", [
    ("e", {"maxwell_gauss_order"}),
    ("b", {"maxwell_ampere_order", "maxwell_divb_order"}),
])
def test_a_nan_in_one_slab_at_t0_fails_its_maxwell_orders(group, failing):
    # box plane 20 lies in neither the first slab nor a seam piece, at n_x = 48
    # and 96; a NaN in E at t0 reaches div E alone, one in B at t0 the other two
    plane = 20
    synth = verify.synthesize

    def planted(m, grid, t, omega_scale=1.0, groups=tuple(fields.GROUPS), planes=None,
                coeffs=None):
        snap = synth(m, grid, t, omega_scale, groups, planes, coeffs)
        if t == _MAXWELL_T0 and group in groups and plane in planes:
            snap.rows[group][0][planes == plane] = np.nan
        return snap

    m = _maxwell_packet()
    with mock.patch.object(verify, "synthesize", planted):
        levels = [_maxwell_level(m, n_x, 1.0) for n_x in (48, 96)]
    checks, info = verify._maxwell_checks(*levels, dict(TOLERANCE_DEFAULTS))
    assert {c.name for c in checks if not c.passed} == failing
    assert all(np.isnan(c.measured) for c in checks if c.name in failing)
    fine = dict(zip(("maxwell_gauss_order", "maxwell_ampere_order", "maxwell_divb_order"),
                    info[0].split(": ")[1].split(", ")))
    assert {name for name, text in fine.items() if text.endswith(" nan")} == failing
    assert " index -1 " not in info[1]


def test_a_bloch_twist_of_one_fails_every_maxwell_order():
    # the offset k-lattice makes the fields quasi-periodic; read across the wrap as periodic
    # (twist 1), each level keeps a seam residual that does not shrink as the spacing
    # halves, so no order comes near 2 (they read about -0.75, -0.99 and -0.75)
    synth = verify.synthesize

    def untwisted(m, grid, t, omega_scale=1.0, groups=tuple(fields.GROUPS), planes=None,
                  coeffs=None):
        return replace(synth(m, grid, t, omega_scale, groups, planes, coeffs),
                       bloch=(1 + 0j,) * 3)

    m = _maxwell_packet()
    assert all(abs(t - 1.0) > 1e-3 for t in synth(m, dual_grid(m.grid, 8), 0.0).twists())
    with mock.patch.object(verify, "synthesize", untwisted):
        levels = [_maxwell_level(m, n_x, 1.0) for n_x in (48, 96)]
    checks, _ = verify._maxwell_checks(*levels, dict(TOLERANCE_DEFAULTS))
    assert [c.name for c in checks if not c.passed] == [
        "maxwell_gauss_order", "maxwell_ampere_order", "maxwell_divb_order"]
    assert all(c.measured < 0.0 for c in checks)


def test_nan_residuals_fail_the_order_checks(monkeypatch):
    assert verify._order(4.0, 1.0) == 2.0 and verify._order(1.0, 0.0) == float("inf")
    for coarse, fine in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)):
        assert np.isnan(verify._order(coarse, fine))
    tol = dict(TOLERANCE_DEFAULTS)

    # a NaN in the fine line's fields reaches its continuity residual
    synth = verify.synthesize

    def planted(m, grid, t, omega_scale=1.0, groups=tuple(fields.GROUPS), planes=None,
                coeffs=None):
        snap = synth(m, grid, t, omega_scale, groups, planes, coeffs)
        if grid.n_per_axis == 4096:
            snap.rows["a"][0][100] = np.nan
        return snap

    monkeypatch.setattr(verify, "synthesize", planted)
    checks, _ = verify._continuity_block(tol, 1.0)
    order = {c.name: c for c in checks}["continuity_order"]
    assert np.isnan(order.measured) and not order.passed

    # and a NaN row in the fine lifecycle solve's residual_max
    def nan_row(emit, detect, med, grid, times):
        rep = lifecycle_1d(emit, detect, med, grid, times)
        if grid.n_points != 4096:
            return rep
        residual = rep.residual_max.copy()
        residual[300] = np.nan
        return replace(rep, residual_max=residual)

    monkeypatch.setattr(verify, "lifecycle_1d", nan_row)
    checks, _ = verify._lifecycle_block(tol)
    order = {c.name: c for c in checks}["lifecycle_residual_order"]
    assert np.isnan(order.measured) and not order.passed


def test_no_halo_free_3d_sum_is_whole(tmp_path):
    # every 3D box is visited in the slabs of fields.slab_plan, at any n_x,
    # the stencil scans (packet runs, verify's Maxwell study) too
    whole = []

    def guarded(synth):
        def call(m, grid, t, omega_scale=1.0, groups=tuple(fields.GROUPS), planes=None,
                 coeffs=None):
            if grid.dimension == 3 and planes is None:
                whole.append(grid.n_per_axis)
            return synth(m, grid, t, omega_scale, groups, planes, coeffs)
        return call

    # the fork fails, so the child lanes run in process, where the guard sees
    # their sums
    with mock.patch.object(fields, "synthesize", guarded(fields.synthesize)), \
            mock.patch.object(verify, "synthesize", guarded(verify.synthesize)), \
            mock.patch.object(os, "fork", mock.Mock(side_effect=OSError("no fork here"))):
        assert run_verify(parse_config("[verify]\n")).all_passed
        for text in ("[packet3d]\n", "[packet3d]\nn_k = 6\nn_x = 18\n", "[gauge]\n",
                     "[gauge]\nn_x = 18\n", "[gauge]\nn_x = 66\n"):
            cfg = parse_config(f"{text}output = {tmp_path}\n")
            assert run_scenario(cfg).all_passed
    assert whole == []


@pytest.mark.parametrize("n_x", [64, 66])
def test_gauge_memory_is_set_by_the_slab_not_the_box(n_x):
    # at n_x = 64 one 16-component snapshot of the whole box is 67 MB, and the
    # whole-box law held two; streamed, it holds one slab of each packet (16
    # components of 16 B a point, beside their densities and |differences|),
    # and the two whole densities (16 B a point of the box). n_x = 66 leaves
    # 2 planes over, in a last slab of 6 planes.
    item = np.dtype(np.complex128).itemsize
    cfg = parse_config(f"[gauge]\nn_x = {n_x}\n")
    sg = dual_grid(packet_state(cfg.packet).grid, n_x)
    slab_points = max(len(planes) for _, planes in slab_plan(sg)) * n_x * n_x
    tracemalloc.start()
    try:
        checks, _, _ = gauge_checks(cfg.packet, cfg.gauge_strength, cfg.t_stop,
                                    cfg.tolerances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak <= 40 * item * slab_points + item * n_x ** 3, peak / 1e6


def test_each_check_name_is_built_in_one_place():
    # verify and run share one function per law, so no name has two builders
    names = {"norm_unity", "continuity_order", "continuity_residual",
             "helicity_pointwise", "helicity_longitudinal", "gauge_field", "gauge_norm",
             "gauge_transverse_amps", "boost_norm", "boost_monotone",
             "maxwell_gauss_order", "maxwell_ampere_order", "maxwell_divb_order",
             "medium_pointwise", "medium_norm", "medium_current", "vacuum_reduction",
             "lifecycle_norm_transit", "peak_speed_cells", "lifecycle_final_norm",
             "causality", "lifecycle_residual_order", "fock_commutator",
             "fock_number_exact"}
    built = []
    for path in sorted(Path(photonlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in ("check_le", "check_ge"):
                assert isinstance(node.args[0], ast.Constant), (path.name, node.lineno)
                built.append(node.args[0].value)
    assert sorted(built) == sorted(names)


def _named(node):
    """Every identifier node reads or writes as an ast.Name or an ast.Attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_module_imports_a_name_it_does_not_use():
    # a name is imported from its module where it is used; no module re-exports
    unused = []
    for path in sorted(Path(photonlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = set(_named(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_no_module_imports_a_private_name():
    # a name with a leading underscore stays inside its module: a module that
    # needs another's helper imports it under a public name (dunders are public)
    private = []
    for path in sorted(Path(photonlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}:{alias.name}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_every_public_definition_has_a_caller_in_src():
    # a public symbol stays only if the program itself uses it: a test does
    # not count, and neither does an import (an ast.alias, not an ast.Name)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(photonlab.__file__).parent.glob("*.py"))}
    everywhere = Counter(name for tree in trees.values() for name in _named(tree))
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [m for m in node.body if isinstance(m, ast.FunctionDef)]
            for d in members:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    names = [d.name]
                elif isinstance(d, ast.Assign):
                    names = [t.id for t in d.targets if isinstance(t, ast.Name)]
                else:
                    continue
                own = Counter(_named(d))
                uncalled += [f"{module}:{name}" for name in names
                             if not name.startswith("_") and everywhere[name] == own[name]]
    assert uncalled == []


def _calls(trees):
    """name -> (positional count, keyword names) of every call of that name."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}))
    return calls


def test_every_optional_parameter_is_set_by_a_caller():
    # a default that no call overrides is a setting nobody sets: the program
    # (src/photonlab) and the benchmark driving its CLI (perfbench) are the callers
    src = sorted(Path(photonlab.__file__).parent.glob("*.py"))
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in src + bench]
    calls = _calls(trees)
    unset = []
    for path, tree in zip(src, trees):
        methods = {id(d) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for d in node.body if isinstance(d, ast.FunctionDef)}
        for d in ast.walk(tree):
            if not isinstance(d, ast.FunctionDef) or d.name.startswith("__"):
                continue
            positional = d.args.posonlyargs + d.args.args
            shift = 1 if id(d) in methods else 0  # self is not written at the call
            optional = [(i - shift, a.arg)
                        for i, a in enumerate(positional)
                        if i >= len(positional) - len(d.args.defaults)]
            optional += [(None, a.arg) for a, default in
                         zip(d.args.kwonlyargs, d.args.kw_defaults) if default is not None]
            for index, arg in optional:
                if not any(arg in keywords or (index is not None and n_args > index)
                           for n_args, keywords in calls.get(d.name, ())):
                    unset.append(f"{path.name}:{d.name}({arg})")
    assert unset == []


def test_every_benchmark_tracer_target_exists():
    # perfbench/tracer.py wraps photonlab functions by module and name, and
    # Tracer.install calls getattr on each, so renaming or folding one of them
    # (current_density, say) would break every `perfbench/run.py --trace 1` run
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", bench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read-only: leave no __pycache__ in perfbench/
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = dont_write
    missing = [f"{module}.{name}" for module, name, *_ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert len(tracer.TARGETS) > 0 and missing == []
