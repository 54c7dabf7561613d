import cmath
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from photonlab import fields
from photonlab.fdops import curl, divergence
from photonlab.fields import (AMPLITUDE_SCALE, GROUPS, SpatialGrid, _last_group, _mode_sum,
                              dual_grid, is_dual, maxwell_residual, mode_coefficients, slab_plan,
                              synthesize, walk)
from photonlab.modes import (KGrid, ModeAmplitudes, POLARIZATIONS, gauge_shift, gaussian_packet,
                             kmagnitudes, kvectors, lambda_row, measure_weights)
from photonlab.relativity import polarization_bases

from helpers import owned_copies, same_bits, slab_widths, zero_state
from test_fdops import roll_curl, stencil_cases
from test_verify import whole_vector_maxwell_residual


def single_mode(kz, pol, c):
    grid = KGrid(n_per_axis=1, spacing=0.5, dimension=1, center=(0.0, 0.0, kz))
    amps = np.zeros((3, 1), dtype=np.complex128)
    amps[lambda_row(pol), 0] = c
    return ModeAmplitudes(grid, amps)


def now_and_step(m, grid, t0, dt, omega_scale=1.0):
    """The fields at t0, E(t0 + dt) - E(t0 - dt) as one sum of the coefficient difference, 2 dt."""
    step = mode_coefficients(m, t0 + dt, omega_scale) - mode_coefficients(m, t0 - dt, omega_scale)
    return (synthesize(m, grid, t0, omega_scale),
            synthesize(m, grid, t0 + dt, omega_scale, coeffs=step), 2.0 * dt)


def test_zero_amplitudes_zero_snapshot():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    sg = dual_grid(grid, 16)
    snap = synthesize(zero_state(grid), sg, 0.3)
    for arr in (snap.a_plus, snap.e_plus, snap.b_plus, snap.phi_plus):
        assert np.all(arr == 0.0)
    assert snap.lambdas_present == frozenset()


def test_transverse_snapshot_arrays_are_separate_and_dead_parts_zero():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=3, center=(0.25, 0.25, 1.25))
    snap = synthesize(gaussian_packet(grid, (0.25, 0.25, 1.25), 0.4, 1), dual_grid(grid, 6), 0.3)
    for dead in (snap.a_par_plus, snap.e_par_plus, snap.phi_plus):
        assert dead.dtype == np.complex128 and np.all(dead == 0.0)
    assert np.any(snap.a_plus) and np.any(snap.e_plus) and np.any(snap.b_plus)
    arrays = [snap.a_plus, snap.e_plus, snap.b_plus, snap.phi_plus,
              snap.a_par_plus, snap.e_par_plus]
    for i, first in enumerate(arrays):
        for second in arrays[i + 1:]:
            assert not np.shares_memory(first, second)


def test_single_transverse_mode_closed_form():
    # one mode at k = 2 z-hat: A+ = scale * w * c * e_lambda * exp(i(kz - wt))
    kz, c, t = 2.0, 0.7 + 0.3j, 0.45
    m = single_mode(kz, 1, c)
    w = measure_weights(m.grid)[0]
    basis = polarization_bases(np.array((0.0, 0.0, kz)))
    sg = SpatialGrid(n_per_axis=8, spacing=0.35, dimension=1, origin=-1.2)
    snap = synthesize(m, sg, t)
    z = sg.axis_positions()
    phase = np.exp(1j * (kz * z - kz * t))
    expected_a = AMPLITUDE_SCALE * w * c * phase[:, None] * basis.e_plus[None, :]
    assert np.max(np.abs(snap.a_plus - expected_a)) <= 1e-15 * np.abs(expected_a).max()
    # exact k-space derivatives: E = i omega A, B = lambda |k| A
    assert np.max(np.abs(snap.e_plus - 1j * kz * expected_a)) <= 1e-15 * kz * np.abs(expected_a).max()
    assert np.max(np.abs(snap.b_plus - kz * expected_a)) <= 1e-15 * kz * np.abs(expected_a).max()
    assert np.all(snap.phi_plus == 0.0)


def test_single_longitudinal_mode_has_no_electric_field():
    m = single_mode(3.0, "par", 1.2 - 0.4j)
    sg = SpatialGrid(n_per_axis=16, spacing=0.2, dimension=1, origin=0.0)
    snap = synthesize(m, sg, 0.8)
    assert np.max(np.abs(snap.e_plus)) == 0.0
    assert np.max(np.abs(snap.b_plus)) == 0.0
    # phi = c A_par, both nonzero
    assert np.abs(snap.phi_plus).max() > 0.0
    assert np.max(np.abs(snap.phi_plus - snap.a_plus[:, 2])) <= 1e-15


def test_minus_helicity_flips_magnetic_sign():
    kz, c = 2.0, 0.9
    plus = synthesize(single_mode(kz, 1, c),
                      SpatialGrid(4, 0.3, 1, 0.0), 0.0)
    minus = synthesize(single_mode(kz, -1, c),
                       SpatialGrid(4, 0.3, 1, 0.0), 0.0)
    # b = lambda |k| a for each helicity
    assert np.max(np.abs(plus.b_plus - kz * plus.a_plus)) <= 1e-14
    assert np.max(np.abs(minus.b_plus + kz * minus.a_plus)) <= 1e-14


def test_spectral_transversality_of_b():
    # k . B = 0 pointwise for single modes in assorted directions
    rng = np.random.default_rng(31)
    for _ in range(10):
        kvec = rng.normal(size=3)
        kvec /= np.linalg.norm(kvec)
        kvec *= rng.uniform(0.5, 3.0)
        grid = KGrid(n_per_axis=1, spacing=0.5, dimension=3, center=tuple(kvec))
        amps = np.zeros((3, 1), dtype=np.complex128)
        amps[0, 0] = rng.normal() + 1j * rng.normal()
        snap = synthesize(ModeAmplitudes(grid, amps),
                          SpatialGrid(3, 0.4, 3, -0.5), 0.2)
        kdotb = snap.b_plus @ kvec
        assert np.max(np.abs(kdotb)) <= 1e-14 * max(1.0, np.abs(snap.b_plus).max())


def test_time_translation_matches_phase_rotation():
    grid = KGrid(n_per_axis=16, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    sg = dual_grid(grid, 64)
    t = 1.3
    direct = synthesize(m, sg, t)
    # each amplitude picks up exp(-i omega_k t)
    evolved = dataclasses.replace(m, amps=m.amps * np.exp(-1j * kmagnitudes(grid) * t))
    rotated = synthesize(evolved, sg, 0.0)
    scale = np.abs(direct.a_plus).max()
    assert np.max(np.abs(direct.a_plus - rotated.a_plus)) <= 1e-14 * scale
    assert np.max(np.abs(direct.e_plus - rotated.e_plus)) <= 1e-14 * scale
    assert np.max(np.abs(direct.b_plus - rotated.b_plus)) <= 1e-14 * scale


def test_hermitian_total_fields_are_real():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, -1)
    snap = synthesize(m, dual_grid(grid, 32), 0.6)
    total_a = snap.a_plus + np.conj(snap.a_plus)
    total_e = snap.e_plus + np.conj(snap.e_plus)
    assert np.max(np.abs(total_a.imag)) <= 1e-14
    assert np.max(np.abs(total_e.imag)) <= 1e-14


def test_quasiperiodic_wrap_factor():
    # f(x + L) = theta f(x) with theta = exp(i k_min L) per axis
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    sg = dual_grid(grid, 32)
    length = sg.box_length
    snap = synthesize(m, sg, 0.2)
    shifted = synthesize(m, SpatialGrid(sg.n_per_axis, sg.spacing, 1,
                                        sg.origin + length), 0.2)
    theta = snap.twists()[0]
    assert abs(theta - np.exp(1j * grid.axis_values(2)[0] * length)) <= 1e-12
    scale = np.abs(snap.a_plus).max()
    assert np.max(np.abs(shifted.a_plus - theta * snap.a_plus)) <= 1e-12 * scale


def test_twists_refused_off_dual_grid():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    off = SpatialGrid(n_per_axis=32, spacing=0.3, dimension=1, origin=0.0)
    snap = synthesize(m, off, 0.0)
    assert not is_dual(off, grid)
    with pytest.raises(ValueError, match="dual"):
        snap.twists()


def test_gauge_shift_leaves_e_and_b_exactly():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    g = 0.6 * gaussian_packet(grid, (0.0, 0.0, 2.0), 0.3, "par").amps[lambda_row("par")]
    sg = dual_grid(grid, 32)
    s1 = synthesize(m, sg, 0.7)
    s2 = synthesize(gauge_shift(m, g), sg, 0.7)
    assert np.max(np.abs(s1.e_plus - s2.e_plus)) <= 1e-12
    assert np.max(np.abs(s1.b_plus - s2.b_plus)) <= 1e-12
    # potentials do change
    assert np.abs(s1.phi_plus - s2.phi_plus).max() > 1e-6
    assert np.abs(s1.a_plus - s2.a_plus).max() > 1e-6


def residuals(now, step, span):
    """div E, dE/dt - curl B and div B of the fields at t0 and their step over span.

    The law owns what sample returns and writes dE/dt over it, so it gets copies.
    """
    # a whole box is one slab, so each residual comes whole, at plane 0
    return [r for _, _, r in maxwell_residual(owned_copies(now, step), [(0, None)], span)]


def test_maxwell_residual_zero_fields():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    sg = dual_grid(grid, 16)
    gauss, ampere, divb = residuals(*now_and_step(zero_state(grid), sg, 0.1, 0.1))
    assert np.all(gauss == 0.0)
    assert np.all(ampere == 0.0)
    assert np.all(divb == 0.0)


def test_maxwell_residual_convergence_3d():
    grid = KGrid(n_per_axis=4, spacing=0.25, dimension=3, center=(0.0, 0.0, 0.875))
    m = gaussian_packet(grid, (0.0, 0.0, 0.875), 0.3, 1)
    maxes = []
    for n_x in (32, 64):
        sg = dual_grid(grid, n_x)
        dt = sg.spacing / 2.0
        gauss, ampere, _ = residuals(*now_and_step(m, sg, 0.4, dt))
        maxes.append(max(np.abs(gauss).max(), np.abs(ampere).max()))
    order = math.log2(maxes[0] / maxes[1])
    assert order >= 1.9


def test_maxwell_residual_linear_in_dispersion_fault():
    # corrupting E by delta shifts the residual by an amount proportional
    # to delta on top of the (delta-independent) stencil error
    grid = KGrid(n_per_axis=4, spacing=0.25, dimension=3, center=(0.0, 0.0, 0.875))
    m = gaussian_packet(grid, (0.0, 0.0, 0.875), 0.3, 1)
    sg = dual_grid(grid, 24)
    dt = sg.spacing / 2.0
    _, base, _ = residuals(*now_and_step(m, sg, 0.4, dt))
    shifts = []
    for delta in (0.01, 0.02):
        _, ampere, _ = residuals(*now_and_step(m, sg, 0.4, dt, omega_scale=1.0 + delta))
        shifts.append(np.abs(ampere - base).max())
    assert shifts[0] > 0.0
    assert abs(shifts[1] / shifts[0] - 2.0) <= 1e-9


def test_maxwell_residual_validates_inputs():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    sg = dual_grid(grid, 16)
    other = dual_grid(grid, 32)
    now, step, span = now_and_step(m, sg, 0.1, 0.1)
    with pytest.raises(ValueError, match="grid"):
        residuals(now, synthesize(m, other, 0.2), span)
    with pytest.raises(ValueError, match="grid"):
        residuals(synthesize(m, other, 0.1), step, span)


def spectral_maxwell_residuals(m, sg, times, omega_scale):
    """Oracle: div E, dE/dt - curl B and div B on the dual box, as one _mode_sum of five columns.

    On the Fourier-dual box a centered difference is exact for each mode:
    along axis a it multiplies the mode by i sin(k_a h) / h, the Bloch twist
    at the seam being the mode's own phase, and the centered time difference
    multiplies it by -i sin(omega dt) / dt. This is the modified-wavenumber
    view of a stencil (Lele, J. Comput. Phys. 103 (1992) 16). Returns the
    three residuals and the scale at which rounding enters them: the larger
    sum over modes of |E| or |B|, times 1 + |k| L / 2 + omega |t0| for the
    rounding of the phases k.x - omega t, over h.
    """
    k = kvectors(m.grid)
    kmag = np.sqrt(np.sum(k * k, axis=-1))
    h, dt, t0 = sg.spacing, sg.spacing / 2.0, times[1]
    d = 1j * np.sin(k * h) / h  # the centered difference along each axis, per mode
    c = mode_coefficients(m, t0, omega_scale)
    e, b = c[:, GROUPS["e"]], c[:, GROUPS["b"]]
    curl_b = np.stack([d[:, (i + 1) % 3] * b[:, (i + 2) % 3] - d[:, (i + 2) % 3] * b[:, (i + 1) % 3]
                       for i in range(3)], axis=1)
    dt_e = (-1j * np.sin(m.speed * kmag * dt) / dt)[:, None] * e
    cols = np.column_stack([np.sum(d * e, axis=1), dt_e - curl_b, np.sum(d * b, axis=1)])
    rows = _mode_sum(cols, m.grid, sg).reshape((5,) + sg.field_shape())
    phases = 1.0 + kmag * sg.box_length / 2.0 + m.speed * kmag * abs(t0)
    floor = max((np.abs(f) * phases[:, None]).sum(axis=0).max() for f in (e, b)) / h
    return (rows[0], np.moveaxis(rows[1:4], 0, -1), rows[4]), floor


def spectral_case(n_x, width, amps, n_k, dk, center, speed, t0, omega_scale):
    """(packet, n_x, slab width, t0, omega_scale); amps None is a Gaussian packet at center."""
    kgrid = KGrid(n_per_axis=n_k, spacing=dk, dimension=3, center=center)
    m = ModeAmplitudes(kgrid, amps, speed) if amps is not None else \
        gaussian_packet(kgrid, center, 0.5, 1, speed=speed)
    return m, n_x, width, t0, omega_scale


@st.composite
def spectral_cases(draw):
    # random amplitudes in all three rows, dead modes among them, on an offset
    # lattice whose Bloch twists are all well off the real axis
    n_k = draw(st.integers(2, 5))
    center = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(3))
    try:
        kgrid = KGrid(n_per_axis=n_k, spacing=draw(st.floats(0.2, 0.8)), dimension=3,
                      center=center)
    except ValueError:
        assume(False)  # the lattice hit k = 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.normal(size=(3, kgrid.n_points)) + 1j * rng.normal(size=(3, kgrid.n_points))
    amps[rng.random(amps.shape) < 0.2] = 0.0
    n_x = draw(st.integers(4, 40))
    case = spectral_case(n_x, draw(st.sampled_from((4, 8, 12, 40))), amps, n_k, kgrid.spacing,
                         center, draw(st.floats(0.5, 1.0)), draw(st.floats(0.0, 3.0)),
                         draw(st.floats(0.9, 1.1)))
    twists = synthesize(case[0], dual_grid(kgrid, n_x), 0.0, groups=()).twists()
    assume(all(abs(t.imag) > 0.05 for t in twists))
    return case


@settings(max_examples=40, deadline=None)
@given(spectral_cases())
# the twist of k0 = (0.37, -0.21, 5.13) on the x axis is 0.992 - 0.125i; n_x = 33
# joins a one-plane last slab to the one before, 30 and 35 leave 2 and 3 planes over
@example(spectral_case(33, 4, None, 8, 0.25, (0.37, -0.21, 5.13), 1.0, 0.5, 1.0))
@example(spectral_case(30, 8, None, 8, 0.25, (0.37, -0.21, 5.13), 1.0, 0.5, 1.05))
@example(spectral_case(35, 12, None, 8, 0.25, (0.37, -0.21, 5.13), 1.0, 0.5, 0.95))
@example(spectral_case(17, 40, None, 8, 0.25, (0.37, -0.21, 5.13), 1.0, 0.5, 1.0))
def test_streamed_maxwell_residuals_match_the_spectral_oracle(case):
    # an independent second side for the stencils and for walk's seam
    # twist: every piece, in plane order, within rounding of the oracle
    m, n_x, width, t0, omega_scale = case
    sg = dual_grid(m.grid, n_x)
    dt = sg.spacing / 2.0
    times = (t0 - dt, t0, t0 + dt)
    coeffs = [mode_coefficients(m, t, omega_scale) for t in times]
    at = {"now": (t0, coeffs[1]), "step": (t0 + dt, coeffs[2] - coeffs[0])}
    want, floor = spectral_maxwell_residuals(m, sg, times, omega_scale)
    # the three-sum form, E summed at t0 -+ dt apart, is the same difference in
    # exact arithmetic: its sums and the step's round apart by a few ulps of
    # their terms' magnitudes (under 3 eps in 400 cases), bounded with room
    _, three_sum = whole_vector_maxwell_residual(
        *(synthesize(m, sg, t, omega_scale, ("e", "b")) for t in times))
    terms = (np.abs(coeffs[0][:, GROUPS["e"]]) + np.abs(coeffs[2][:, GROUPS["e"]])).sum(axis=0)
    rounding = 8.0 * np.finfo(float).eps * terms / (2.0 * dt)

    def sample(key, groups, planes):
        t, c = at[key]
        return synthesize(m, sg, t, omega_scale, groups, planes, c)

    with mock.patch.object(fields, "_SLAB_POINTS", width * n_x * n_x):
        plan = slab_plan(sg)
    done = [0, 0, 0]  # planes done per residual
    for p, k, r in maxwell_residual(sample, plan, 2.0 * dt):
        assert p == done[k], (p, k)
        done[k] += len(r)
        err = np.abs(r - want[k][p:p + len(r)]).max()
        assert err <= 1e-15 * floor, (p, k, err / floor)
        if k == 1:
            err = np.abs(r - three_sum[p:p + len(r)]).reshape(-1, 3).max(axis=0)
            assert np.all(err <= rounding), (p, err / rounding)
    assert done == [n_x] * 3


def test_last_group_sums_plane_n_x_minus_1_as_its_slab_does():
    # every plan of more than one slab, at every slab width, of a packet with
    # twists well off the real axis
    center = (0.37, -0.21, 5.13)
    m = gaussian_packet(KGrid(n_per_axis=8, spacing=0.25, dimension=3, center=center),
                        center, 0.5, 1)
    checked = set()
    for n_x in range(4, 41):
        sg = dual_grid(m.grid, n_x)
        coeffs = mode_coefficients(m, 0.5)
        for width in slab_widths(n_x):
            with mock.patch.object(fields, "_SLAB_POINTS", width * n_x * n_x):
                plan = slab_plan(sg)
            if len(plan) == 1:
                continue
            last = _last_group(plan)
            slab = synthesize(m, sg, 0.5, planes=plan[-1][1], coeffs=coeffs)
            alone = synthesize(m, sg, 0.5, planes=last, coeffs=coeffs)
            assert last[-1] == n_x - 1 and set(last) <= set(plan[-1][1])
            for g in GROUPS:
                assert same_bits(alone.rows[g][:, -1], slab.rows[g][:, -1]), (n_x, width, g)
            checked.add(n_x)
    assert checked == set(range(6, 41))  # n_x = 4 and 5 are one slab at every width


@st.composite
def slab_walks(draw):
    """A stencil case cut into x-slabs of at least 2 planes."""
    vf, spacing, dim, twists = draw(stencil_cases())
    n = len(vf)
    bounds = [0]
    while n - bounds[-1] >= 4 and draw(st.booleans()):
        bounds.append(bounds[-1] + draw(st.integers(2, n - bounds[-1] - 2)))
    bounds.append(n)
    return vf, spacing, dim, twists, bounds


@settings(max_examples=300, deadline=None)
@given(slab_walks())
@example((np.arange(24.0).reshape(2, 2, 2, 3) * (1 - 2j), 0.5, 3,
          (cmath.exp(0.4j), cmath.exp(-2.0j), cmath.exp(3.0j)), [0, 2]))
def test_walked_slab_stencils_match_the_whole_box(case):
    # every plane once, in plane order, from pieces whose x-neighbours walk
    # carried between slabs walked from plane 0, wrap giving plane n_x - 1
    # before the walk: bitwise the whole box
    vf, spacing, dim, twists, bounds = case
    plan = [(a, np.arange(a, b)) for a, b in zip(bounds, bounds[1:])]
    wrapped, sampled, pieces = [], [], []

    def wrap(planes):
        wrapped.append(list(planes))
        return vf[planes], twists[0]

    def sample(planes):
        sampled.append(list(planes))
        return [vf[planes]]

    for p, (g,), ends in walk(plan, wrap, sample):
        curls = [curl(g, spacing, dim, twists, comp, ends=ends) for comp in range(3)]
        pieces.append((p, divergence(g, spacing, dim, twists, ends), np.stack(curls, axis=-1)))
    # wrap once ahead of a walk of slabs, never for one slab; each slab sampled once, in order
    assert wrapped == ([list(_last_group(plan))] if len(plan) > 1 else [])
    assert sampled == [list(planes) for _, planes in plan]
    firsts = [p for p, _, _ in pieces]
    assert firsts == [0] + list(np.cumsum([len(d) for _, d, _ in pieces])[:-1])
    got = [np.concatenate([piece[i] for piece in pieces]) for i in (1, 2)]
    assert same_bits(got[0], divergence(vf, spacing, dim, twists))
    assert same_bits(got[1], roll_curl(vf, spacing, dim, twists))


def test_dual_grid_geometry():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    sg = dual_grid(grid, 48)
    assert abs(sg.box_length - 2.0 * math.pi / 0.25) <= 1e-12
    assert is_dual(sg, grid)
    assert abs(sg.origin + 0.5 * sg.box_length) <= 1e-12


def test_spatial_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(n_per_axis=1, spacing=0.5, dimension=1)
    with pytest.raises(ValueError):
        SpatialGrid(n_per_axis=8, spacing=-0.5, dimension=1)
    with pytest.raises(ValueError):
        SpatialGrid(n_per_axis=8, spacing=0.5, dimension=2)


def test_dimension_mismatch_rejected():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    with pytest.raises(ValueError, match="dimension"):
        synthesize(m, SpatialGrid(4, 0.5, 3, 0.0), 0.0)


def direct_mode_sum(coeffs, k, grid):
    """Oracle: sum_m coeffs[m, :] e^{i k_m . x}, one full plane wave per mode."""
    x = grid.axis_positions()
    if grid.dimension == 1:
        plane = np.exp(1j * np.outer(k[:, 2], x))
    else:
        px, py, pz = (np.exp(1j * np.outer(k[:, a], x)) for a in range(3))
        plane = (px[:, :, None, None] * py[:, None, :, None]
                 * pz[:, None, None, :]).reshape(k.shape[0], -1)
    return coeffs.T @ plane


@st.composite
def mode_sum_cases(draw):
    dim = draw(st.sampled_from((1, 3)))
    n_k = draw(st.integers(1, 17 if dim == 1 else 6))
    # n_x both below (aliased) and above n_k
    n_x = draw(st.integers(2, 40 if dim == 1 else 10))
    dk = draw(st.floats(0.05, 1.0))
    k0 = [draw(st.floats(-3.0, 3.0)) if dim == 3 else 0.0 for _ in range(2)]
    k0.append(draw(st.floats(-3.0, 3.0)))
    try:
        kgrid = KGrid(n_per_axis=n_k, spacing=dk, dimension=dim, center=tuple(k0))
    except ValueError:
        assume(False)  # the lattice hit k = 0
    if draw(st.booleans()):
        grid = dual_grid(kgrid, n_x)
    else:
        grid = SpatialGrid(n_per_axis=n_x, spacing=draw(st.floats(0.05, 2.0)),
                           dimension=dim, origin=draw(st.floats(-5.0, 5.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (kgrid.n_points, draw(st.integers(1, 16)))
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs[rng.random(kgrid.n_points) < 0.3] = 0.0  # dead modes
    return coeffs, kgrid, grid


@settings(max_examples=80, deadline=None)
@given(mode_sum_cases())
def test_separable_mode_sum_matches_direct_sum(case):
    coeffs, kgrid, grid = case
    fast = _mode_sum(coeffs, kgrid, grid)
    slow = direct_mode_sum(coeffs, kvectors(kgrid), grid)
    assert fast.shape == slow.shape == (coeffs.shape[1], grid.n_points)
    assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()


def eager_synthesize(m, grid, t, omega_scale=1.0):
    """Oracle: every live component summed, then copied into interleaved arrays."""
    k = kvectors(m.grid)
    kmag = np.sqrt(np.sum(k * k, axis=-1))
    omega = m.speed * kmag
    w = measure_weights(m.grid, m.speed)
    bases = polarization_bases(k)
    phase_t = np.exp(-1j * omega * t)
    coeffs = np.zeros((m.grid.n_points, 16), dtype=np.complex128)
    for pol, c, unit in zip(POLARIZATIONS, m.amps, (bases.e_plus, bases.e_minus, bases.e_par)):
        if not np.any(c):
            continue
        s = AMPLITUDE_SCALE * w * c * phase_t
        a_coef = s[:, None] * unit
        coeffs[:, 0:3] += a_coef
        if pol == "par":
            coeffs[:, 9:10] += s[:, None]
            coeffs[:, 10:13] += a_coef
            e_par = (1j * (omega * omega_scale - kmag))[:, None] * a_coef
            coeffs[:, 13:16] += e_par
            coeffs[:, 3:6] += e_par
        else:
            coeffs[:, 3:6] += (1j * omega * omega_scale)[:, None] * a_coef
            coeffs[:, 6:9] += (pol * kmag)[:, None] * a_coef
    live_cols = np.flatnonzero(np.any(coeffs != 0.0, axis=0)).tolist()
    summed = dict(zip(live_cols, _mode_sum(coeffs[:, live_cols], m.grid, grid)))

    def field(start, stop, shape):
        arr = np.zeros((grid.n_points, stop - start), dtype=np.complex128)
        for j, col in enumerate(range(start, stop)):
            if col in summed:
                arr[:, j] = summed[col]
        return arr.reshape(shape)

    vec, scalar = grid.field_shape() + (3,), grid.field_shape()
    return {"a_plus": field(0, 3, vec), "e_plus": field(3, 6, vec), "b_plus": field(6, 9, vec),
            "phi_plus": field(9, 10, scalar), "a_par_plus": field(10, 13, vec),
            "e_par_plus": field(13, 16, vec)}


GROUP_FIELDS = {"a": ("a_plus",), "e": ("e_plus",), "b": ("b_plus",),
                "par": ("phi_plus", "a_par_plus", "e_par_plus")}


@st.composite
def snapshot_cases(draw):
    dim = draw(st.sampled_from((1, 3)))
    n_k = draw(st.integers(1, 12 if dim == 1 else 5))
    n_x = draw(st.integers(2, 48 if dim == 1 else 9))
    dk = draw(st.floats(0.05, 1.0))
    k0 = [draw(st.floats(-3.0, 3.0)) if dim == 3 else 0.0 for _ in range(2)]
    k0.append(draw(st.floats(-3.0, 3.0)))
    try:
        kgrid = KGrid(n_per_axis=n_k, spacing=dk, dimension=dim, center=tuple(k0))
    except ValueError:
        assume(False)  # the lattice hit k = 0
    if draw(st.booleans()):
        grid = dual_grid(kgrid, n_x)
    else:
        grid = SpatialGrid(n_per_axis=n_x, spacing=draw(st.floats(0.05, 2.0)),
                           dimension=dim, origin=draw(st.floats(-5.0, 5.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # any mix of lambda = +1, -1 and par, including none
    pols = draw(st.sets(st.sampled_from(POLARIZATIONS)))
    amps = np.zeros((3, kgrid.n_points), dtype=np.complex128)
    for pol in pols:
        row = rng.normal(size=kgrid.n_points) + 1j * rng.normal(size=kgrid.n_points)
        row[rng.random(kgrid.n_points) < 0.3] = 0.0
        amps[lambda_row(pol)] = row
    speed = draw(st.sampled_from((1.0, 0.7071067811865475)))
    m = ModeAmplitudes(kgrid, amps, speed)
    omega_scale = draw(st.sampled_from((1.0, 1.05, 0.9)))
    groups = tuple(draw(st.sets(st.sampled_from(tuple(GROUPS)))))
    return m, grid, draw(st.floats(-3.0, 3.0)), omega_scale, groups


@settings(max_examples=300, deadline=None)
@given(snapshot_cases())
def test_requested_groups_match_eager_synthesis(case):
    m, grid, t, omega_scale, groups = case
    snap = synthesize(m, grid, t, omega_scale=omega_scale, groups=groups)
    oracle = eager_synthesize(m, grid, t, omega_scale)
    for group, names in GROUP_FIELDS.items():
        for name in names:
            if group in groups:
                assert same_bits(getattr(snap, name), oracle[name]), name
            else:
                with pytest.raises(ValueError, match="not synthesized"):
                    getattr(snap, name)


def test_unknown_group_refused():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    with pytest.raises(ValueError, match="unknown field groups"):
        synthesize(m, dual_grid(grid, 8), 0.0, groups=("e", "phi"))
