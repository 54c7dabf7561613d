import dataclasses
import math

import numpy as np
import pytest

from photonlab.modes import (KGrid, ModeAmplitudes, boost_amplitudes, gauge_shift, gaussian_packet,
                             kvectors, measure_weights, norm, normalize)

from helpers import single_cell_state, zero_state

TWO_PI = 2.0 * math.pi


def test_grid_excludes_zero_mode():
    with pytest.raises(ValueError):
        KGrid(n_per_axis=3, spacing=1.0, dimension=1, center=(0.0, 0.0, 0.0))


def test_grid_offcenter_1d_rejected():
    with pytest.raises(ValueError):
        KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(1.0, 0.0, 2.0))


def test_measure_weight_plugin():
    # dk = 1, d = 3, omega = 1: 1 / ((2 pi)^3 * 2)
    grid = KGrid(n_per_axis=1, spacing=1.0, dimension=3, center=(0.0, 0.0, 1.0))
    w = measure_weights(grid)[0]
    assert abs(w - 1.0 / (TWO_PI ** 3 * 2.0)) <= 1e-18


def test_measure_weight_scales_inverse_omega():
    g1 = KGrid(n_per_axis=1, spacing=0.5, dimension=1, center=(0.0, 0.0, 1.0))
    g2 = KGrid(n_per_axis=1, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    w1 = measure_weights(g1)[0]
    w2 = measure_weights(g2)[0]
    assert abs(w2 - 0.5 * w1) <= 1e-15 * w1


def test_riemann_sum_matches_quadrature_oracle():
    # sum w(k) |c(k)|^2 on a refined 1D lattice against trapezoid quadrature
    # of the same integrand at 8x resolution over the identical window
    k0, sigma = 4.0, 0.5
    n = 16384
    dk = 6.0 / n
    grid = KGrid(n_per_axis=n, spacing=dk, dimension=1, center=(0.0, 0.0, k0))
    kz = grid.axis_values(2)
    amps = np.zeros((3, n), dtype=np.complex128)
    amps[0] = np.exp(-((kz - k0) ** 2) / (4.0 * sigma * sigma))
    value = norm(ModeAmplitudes(grid, amps))

    fine = np.linspace(kz[0], kz[-1], 8 * n + 1)
    integrand = np.exp(-((fine - k0) ** 2) / (2.0 * sigma * sigma)) / (TWO_PI * 2.0 * fine)
    oracle = np.trapezoid(integrand, fine)
    assert abs(value - oracle) <= 1e-6 * oracle


def test_norm_zero_state():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    assert norm(zero_state(grid)) == 0.0


def test_norm_single_cell_inversion():
    # c = sqrt((2 pi)^d * 2 omega / dk^d) occupies one cell with norm exactly 1
    m = single_cell_state(kz=2.0, dk=1.0, dimension=1)
    assert abs(norm(m) - 1.0) <= 1e-15
    m3 = single_cell_state(kz=1.0, dk=1.0, dimension=3)
    assert abs(norm(m3) - 1.0) <= 1e-15


def test_normalized_gaussian_has_unit_norm():
    grid = KGrid(n_per_axis=16, spacing=0.25, dimension=1, center=(0.0, 0.0, 3.0))
    m = gaussian_packet(grid, (0.0, 0.0, 3.0), 0.4, 1)
    assert abs(norm(m) - 1.0) <= 1e-12


def test_normalize_idempotent_and_projective():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.3, -1)
    again = normalize(m)
    assert np.max(np.abs(again.amps - m.amps)) <= 1e-15
    scaled = normalize(dataclasses.replace(m, amps=7.0 * m.amps))
    assert np.max(np.abs(scaled.amps - m.amps)) <= 1e-12
    complex_scaled = normalize(dataclasses.replace(m, amps=(2.0 - 3.0j) * m.amps))
    assert abs(norm(complex_scaled) - 1.0) <= 1e-12


def test_normalize_null_state_raises():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="null state"):
        normalize(zero_state(grid))


def test_gaussian_small_sigma_concentrates():
    grid = KGrid(n_per_axis=16, spacing=0.25, dimension=1, center=(0.0, 0.0, 3.0))
    k0 = (0.0, 0.0, 3.125)
    m = gaussian_packet(grid, k0, 0.01, 1)
    mags = np.abs(m.amps[0]) ** 2
    nearest = np.argmin(np.abs(grid.axis_values(2) - k0[2]))
    assert np.argmax(mags) == nearest
    assert mags[nearest] / mags.sum() > 0.999


def test_gaussian_mirror_symmetry():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=3, center=(0.0, 0.0, 0.0))
    k0 = np.array([0.25, 0.25, 0.75])
    m_fwd = gaussian_packet(grid, k0, 0.6, 1)
    m_rev = gaussian_packet(grid, -k0, 0.6, 1)
    fwd = (np.abs(m_fwd.amps[0]) ** 2).reshape(4, 4, 4)
    rev = (np.abs(m_rev.amps[0]) ** 2).reshape(4, 4, 4)
    mirrored = np.flip(rev, axis=(0, 1, 2))
    assert np.max(np.abs(fwd - mirrored)) <= 1e-12 * fwd.max()


def test_gaussian_rejects_out_of_extent_center():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="extent"):
        gaussian_packet(grid, (0.0, 0.0, 5.0), 0.3, 1)
    with pytest.raises(ValueError):
        gaussian_packet(grid, (0.0, 0.0, 2.0), -0.1, 1)


def test_gauge_shift_moves_only_longitudinal_row():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.3, 1)
    rng = np.random.default_rng(13)
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    shifted = gauge_shift(m, g)
    assert np.array_equal(shifted.amps[0], m.amps[0])
    assert np.array_equal(shifted.amps[1], m.amps[1])
    assert np.max(np.abs(shifted.amps[2] - (m.amps[2] + g))) == 0.0
    same = gauge_shift(m, np.zeros(8, dtype=np.complex128))
    assert np.array_equal(same.amps, m.amps)


def test_gauge_shift_requires_vacuum():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.3, 1, speed=0.5)
    with pytest.raises(ValueError, match="vacuum"):
        gauge_shift(m, np.zeros(4, dtype=np.complex128))


def test_boost_beta_zero_bit_identical():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.3, 1)
    assert boost_amplitudes(m, 0.0) is m


def test_boost_norm_invariance_with_refinement():
    grid = KGrid(n_per_axis=16, spacing=0.25, dimension=3, center=(0.0, 0.0, 4.0))
    m = gaussian_packet(grid, (0.0, 0.0, 4.0), 0.5, 1)
    err_base = abs(norm(boost_amplitudes(m, 0.3)) - 1.0)
    assert err_base <= 2e-2
    wide = KGrid(n_per_axis=32, spacing=0.25, dimension=3, center=(0.0, 0.0, 4.0))
    err_fine = abs(norm(boost_amplitudes(m, 0.3, dest_grid=wide)) - 1.0)
    assert err_fine < err_base


def test_boost_single_mode_doppler_shift():
    # kz = 4 at beta = 0.6 lands exactly on the lattice cell at gamma(1-beta)k = 2
    grid = KGrid(n_per_axis=16, spacing=0.5, dimension=1, center=(0.0, 0.0, 4.25))
    kz = grid.axis_values(2)
    amps = np.zeros((3, 16), dtype=np.complex128)
    src = int(np.argmin(np.abs(kz - 4.0)))
    amps[0, src] = 1.0 + 1.0j
    m = normalize(ModeAmplitudes(grid, amps))
    boosted = boost_amplitudes(m, 0.6)
    live = np.flatnonzero(np.abs(boosted.amps[0]) > 0.0)
    assert live.size == 1
    assert abs(kz[live[0]] - 2.0) <= 1e-12
    assert abs(norm(boosted) - 1.0) <= 1e-12
    # phase rides along with the amplitude
    phasor = boosted.amps[0, live[0]] / np.abs(boosted.amps[0, live[0]])
    src_phasor = m.amps[0, src] / np.abs(m.amps[0, src])
    assert abs(phasor - src_phasor) <= 1e-12


def test_boost_rejects_medium_and_superluminal():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    slow = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.3, 1, speed=0.5)
    with pytest.raises(ValueError, match="vacuum"):
        boost_amplitudes(slow, 0.3)
    fast = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.3, 1)
    with pytest.raises(ValueError):
        boost_amplitudes(fast, 1.0)


def test_amplitudes_validate_shape_and_finiteness():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        ModeAmplitudes(grid, np.zeros((2, 4), dtype=np.complex128))
    bad = np.zeros((3, 4), dtype=np.complex128)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ModeAmplitudes(grid, bad)


def test_norm_polarization_subset():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    rng = np.random.default_rng(17)
    amps = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    m = ModeAmplitudes(grid, amps)
    total = norm(m)
    parts = sum(norm(m, polarizations=(p,)) for p in (1, -1, "par"))
    assert abs(total - parts) <= 1e-14 * total
    w = measure_weights(grid)
    direct = float(np.sum((np.abs(amps[0]) ** 2) * w))
    assert abs(norm(m, polarizations=(1,)) - direct) <= 1e-15 * direct


def test_kvectors_lexicographic_order():
    grid = KGrid(n_per_axis=2, spacing=1.0, dimension=3, center=(0.5, 0.5, 1.5))
    k = kvectors(grid)
    # x varies slowest, z fastest
    assert np.array_equal(k[0], [0.0, 0.0, 1.0])
    assert np.array_equal(k[1], [0.0, 0.0, 2.0])
    assert np.array_equal(k[2], [0.0, 1.0, 1.0])
    assert np.array_equal(k[4], [1.0, 0.0, 1.0])
