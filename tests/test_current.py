import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photonlab.current import (continuity_residual, current_density, helicity_density,
                               number_density, photon_current, position_norm)
from photonlab.fields import FieldSnapshot, SpatialGrid, dual_grid, synthesize
from photonlab.modes import (KGrid, ModeAmplitudes, gauge_shift, gaussian_packet, kvectors,
                             lambda_row, measure_weights, norm, normalize)


def single_cell_state(kz=2.0, pol=1, dk=0.5):
    grid = KGrid(n_per_axis=1, spacing=dk, dimension=1, center=(0.0, 0.0, kz))
    amps = np.zeros((3, 1), dtype=np.complex128)
    amps[lambda_row(pol), 0] = math.sqrt(2.0 * math.pi * 2.0 * abs(kz) / dk)
    return ModeAmplitudes(grid, amps)


def current_triplet(m, sg, t, dt, **kw):
    return tuple(photon_current(synthesize(m, sg, t + k * dt), **kw)
                 for k in (-1, 0, 1))


def test_zero_fields_give_zero_densities():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    m = dataclasses.replace(gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1),
                            amps=np.zeros((3, 4), dtype=np.complex128))
    cf = photon_current(synthesize(m, dual_grid(grid, 16), 0.0))
    assert np.all(cf.rho == 0.0)
    assert np.all(cf.j == 0.0)
    assert np.all(cf.s_hel == 0.0)


def test_single_mode_uniform_density_and_z_current():
    # normalized single mode in a periodic box: rho = 1/V, J = rho z-hat
    m = single_cell_state(kz=2.0)
    sg = dual_grid(m.grid, 32)
    snap = synthesize(m, sg, 0.9)
    rho = number_density(snap)
    volume = sg.box_length
    assert np.max(np.abs(rho - 1.0 / volume)) <= 1e-12 / volume
    j = current_density(snap)
    assert np.max(np.abs(j[:, 2] - rho)) <= 1e-12 / volume
    assert np.max(np.abs(j[:, :2])) <= 1e-14 / volume
    assert abs(position_norm(photon_current(snap).rho, sg) - 1.0) <= 1e-12


def test_two_mode_density_oscillates_but_integrates_to_one():
    grid = KGrid(n_per_axis=2, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.25))
    amps = np.zeros((3, 2), dtype=np.complex128)
    amps[0] = (1.0, 1.0)
    m = normalize(ModeAmplitudes(grid, amps))
    snap = synthesize(m, dual_grid(grid, 16), 0.4)
    cf = photon_current(snap)
    assert cf.rho.max() - cf.rho.min() > 1e-3 * cf.rho.max()
    assert abs(position_norm(cf.rho, cf.grid) - 1.0) <= 1e-10


def test_longitudinal_mode_carries_no_current():
    m = single_cell_state(kz=2.0, pol="par")
    snap = synthesize(m, dual_grid(m.grid, 16), 0.3)
    assert np.max(np.abs(number_density(snap))) == 0.0
    assert np.max(np.abs(current_density(snap))) == 0.0


def test_helicity_sign_for_each_polarization():
    for pol in (1, -1):
        m = single_cell_state(kz=2.0, pol=pol)
        snap = synthesize(m, dual_grid(m.grid, 16), 0.7)
        s = helicity_density(snap)
        rho = number_density(snap)
        expected = pol * rho[:, None] * np.array([0.0, 0.0, 1.0])
        assert np.max(np.abs(s - expected)) <= 1e-12 * rho.max()


def test_helicity_vanishes_for_longitudinal():
    m = single_cell_state(kz=2.0, pol="par")
    snap = synthesize(m, dual_grid(m.grid, 16), 0.7)
    assert np.max(np.abs(helicity_density(snap))) <= 1e-12


def test_helicity_rejects_mixed_polarizations():
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=1, center=(0.0, 0.0, 2.0))
    amps = np.ones((3, 4), dtype=np.complex128)
    snap = synthesize(ModeAmplitudes(grid, amps), dual_grid(grid, 16), 0.0)
    with pytest.raises(ValueError, match="per lambda"):
        helicity_density(snap)
    # the current leaves S out there, and carries it wherever it is defined
    assert photon_current(snap).s_hel is None
    single = synthesize(gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, -1), dual_grid(grid, 16), 0.0)
    assert photon_current(single).s_hel.tobytes() == helicity_density(single).tobytes()


def test_helicity_mixed_directions_integrates_to_weighted_e_k():
    # box integral of S equals the k-space sum of lambda w |c|^2 e_k
    rng = np.random.default_rng(37)
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=3, center=(0.25, 0.25, 1.25))
    amps = np.zeros((3, grid.n_points), dtype=np.complex128)
    amps[0] = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
    m = normalize(ModeAmplitudes(grid, amps))
    sg = dual_grid(grid, 8)
    snap = synthesize(m, sg, 0.4)
    s_int = helicity_density(snap).reshape(-1, 3).sum(axis=0) * sg.cell_volume
    k = kvectors(grid)
    e_k = k / np.sqrt(np.sum(k * k, axis=-1))[:, None]
    expected = (measure_weights(grid) * np.sum(np.abs(m.amps) ** 2, axis=0)) @ e_k
    assert np.max(np.abs(s_int - expected)) <= 1e-12


def test_position_norm_scaling_and_zero():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    sg = dual_grid(grid, 32)
    cf = photon_current(synthesize(m, sg, 0.0))
    assert abs(position_norm(cf.rho, sg) - 1.0) <= 1e-10
    doubled = dataclasses.replace(m, amps=2.0 * m.amps)
    cf2 = photon_current(synthesize(doubled, sg, 0.0))
    assert abs(position_norm(cf2.rho, sg) - 4.0) <= 4e-10
    assert position_norm(np.zeros_like(cf.rho), sg) == 0.0


def test_norm_conserved_across_times():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=3, center=(0.0, 0.0, 1.0))
    m = gaussian_packet(grid, (0.0, 0.0, 1.0), 0.5, 1)
    sg = dual_grid(grid, 16)
    period = 2.0 * math.pi
    norms = [position_norm(photon_current(synthesize(m, sg, t)).rho, sg)
             for t in (0.0, 0.5 * period, period)]
    for n in norms:
        assert abs(n - norms[0]) <= 1e-8


def test_continuity_static_single_mode():
    m = single_cell_state(kz=2.0)
    sg = dual_grid(m.grid, 16)
    cfs = current_triplet(m, sg, 0.5, 0.05)
    res = continuity_residual(*cfs)
    assert np.max(np.abs(res)) <= 1e-13


def test_continuity_convergence_order():
    grid = KGrid(n_per_axis=16, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.5, 1)
    maxes = []
    for n_x in (256, 512):
        sg = dual_grid(grid, n_x)
        res = continuity_residual(*current_triplet(m, sg, 1.0, sg.spacing / 2.0))
        maxes.append(np.abs(res).max())
    order = math.log2(maxes[0] / maxes[1])
    assert order >= 1.9


def test_continuity_closure_with_matching_source():
    grid = KGrid(n_per_axis=16, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.5, 1)
    sg = dual_grid(grid, 256)
    prev, now, nxt = current_triplet(m, sg, 1.0, sg.spacing / 2.0)
    # oracle: d rho/dt closed by div J, with the periodic z difference built by np.roll
    span = (now.time - prev.time) + (nxt.time - now.time)
    drho_dt = (nxt.rho - prev.rho) / span
    jz = now.j[:, 2]
    closed = drho_dt + (np.roll(jz, -1) - np.roll(jz, 1)) / (2.0 * sg.spacing)
    res = continuity_residual(prev, now, nxt)
    assert np.array_equal(res, closed)
    assert np.abs(res).max() <= 1e-2 * np.abs(drho_dt).max()


def test_continuity_validates_inputs():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    sg = dual_grid(grid, 32)
    other = dual_grid(grid, 64)
    a = photon_current(synthesize(m, sg, 0.0))
    b = photon_current(synthesize(m, sg, 0.1))
    c = photon_current(synthesize(m, other, 0.2))
    with pytest.raises(ValueError, match="grid"):
        continuity_residual(a, b, c)
    d = photon_current(synthesize(m, sg, 0.25))
    with pytest.raises(ValueError, match="spaced"):
        continuity_residual(a, b, d)


def test_densities_gauge_invariant():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    g = 0.8 * gaussian_packet(grid, (0.0, 0.0, 2.0), 0.3, "par").amps[lambda_row("par")]
    shifted = gauge_shift(m, g)
    sg = dual_grid(grid, 32)
    cf1 = photon_current(synthesize(m, sg, 0.6))
    cf2 = photon_current(synthesize(shifted, sg, 0.6))
    assert np.max(np.abs(cf1.rho - cf2.rho)) <= 1e-12
    assert np.max(np.abs(cf1.j - cf2.j)) <= 1e-12
    # helicity is defined per transverse lambda; the restriction is untouched
    def plus_only(state):
        amps = np.zeros_like(state.amps)
        amps[lambda_row(1)] = state.amps[lambda_row(1)]
        return dataclasses.replace(state, amps=amps)

    s1 = helicity_density(synthesize(plus_only(m), sg, 0.6))
    s2 = helicity_density(synthesize(plus_only(shifted), sg, 0.6))
    assert np.array_equal(s1, s2)


def test_densities_are_real_arrays():
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, -1)
    snap = synthesize(m, dual_grid(grid, 32), 0.2)
    cf = photon_current(snap)
    for arr in (cf.rho, cf.j, cf.s_hel):
        assert not np.iscomplexobj(arr)


def test_position_norm_matches_mode_norm_scaled_state():
    # the box Riemann sum reproduces the k-space norm for non-unit states too
    grid = KGrid(n_per_axis=8, spacing=0.25, dimension=1, center=(0.0, 0.0, 2.0))
    m = gaussian_packet(grid, (0.0, 0.0, 2.0), 0.4, 1)
    scaled = dataclasses.replace(m, amps=(0.3 + 1.1j) * m.amps)
    sg = dual_grid(grid, 32)
    cf = photon_current(synthesize(scaled, sg, 0.0))
    assert abs(position_norm(cf.rho, sg) - norm(scaled)) <= 1e-10 * norm(scaled)


# Oracle: the whole-vector bilinears that the per-component kernels replaced,
# kept verbatim. The kernels must match them bit for bit, signed zeros and the
# summation order of rho included; only NaN signs are free (assert_same_bits).

def _imag_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Im[conj(x).y] over the trailing component axis."""
    return np.sum((np.conj(x) * y).imag, axis=-1)


def _imag_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Im[conj(x) x y] componentwise."""
    return np.cross(np.conj(x), y).imag


def oracle_number_density(snap, eps=1.0):
    return eps * _imag_dot(snap.a_plus, snap.e_plus)


def oracle_current_density(snap, eps=1.0, mu=1.0):
    a_perp = snap.a_plus - snap.a_par_plus
    transverse = _imag_cross(a_perp, snap.b_plus) / mu
    longitudinal = eps * (np.conj(snap.phi_plus)[..., None] * snap.e_par_plus).imag
    return transverse + longitudinal


def oracle_helicity_density(snap):
    if len(snap.lambdas_present) > 1:
        raise ValueError("helicity density defined per lambda")
    return -np.cross(snap.a_plus, np.conj(snap.e_plus)).real


SPECIALS = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e300)
GROUP_WIDTHS = (("a", 3), ("e", 3), ("b", 3), ("par", 7))  # par: phi, A_par, E_par


def complex_of(re, im):
    # assembled part by part: x + 1j * y would turn -0 and inf parts into +0 and nan
    z = np.empty(re.shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


@st.composite
def bilinear_cases(draw):
    """A snapshot of drawn component-major fields, with a drawn eps and mu."""
    dim = draw(st.sampled_from((1, 3)))
    n = draw(st.integers(2, 48 if dim == 1 else 6))
    grid = SpatialGrid(n_per_axis=n, spacing=0.5, dimension=dim)
    sample = grid.field_shape()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rate = draw(st.sampled_from((0.0, 0.1, 0.4)))

    def parts(shape):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        hit = rng.random(shape) < rate
        values[hit] = np.array(SPECIALS)[rng.integers(0, len(SPECIALS), size=int(hit.sum()))]
        return values

    rows = {g: complex_of(parts((width,) + sample), parts((width,) + sample))
            for g, width in GROUP_WIDTHS}
    # points that are -0 in every component of every field, and points where
    # A = +0 and E = +0 - 0i instead, whose three terms Im[conj(A_i) E_i] are -0
    zero = rng.random(sample) < 0.2
    for block in rows.values():
        block.real[:, zero] = block.imag[:, zero] = -0.0
    plus = zero & (rng.random(sample) < 0.5)
    rows["a"].real[:, plus] = rows["a"].imag[:, plus] = rows["e"].real[:, plus] = 0.0
    # a snapshot of the whole box, or of some planes of array axis 0, with at
    # least two points, as every snapshot of the program has (a line has
    # n >= 2 points, a plane n^2): on a one-point snapshot numpy runs the
    # oracle's loops along the strided component axis, where they round some
    # values differently (seen: 1 ulp)
    lo = draw(st.integers(0, n - 2))
    hi = draw(st.integers(lo + 2, n))
    rows = {g: block[:, lo:hi] for g, block in rows.items()}
    lambdas = draw(st.sampled_from(((1,), (-1,), ("par",), (1, -1), (1, -1, "par"))))
    snap = FieldSnapshot(grid=grid, time=0.0, rows=rows, speed=1.0, bloch=None,
                         lambdas_present=frozenset(lambdas))
    eps = draw(st.sampled_from((1.0, 2.25)) | st.floats(0.05, 20.0))
    mu = draw(st.sampled_from((1.0, 0.5)) | st.floats(0.05, 20.0))
    return snap, eps, mu


@settings(max_examples=200, deadline=None)
@given(bilinear_cases())
def test_component_kernels_match_whole_vector_oracle(case):
    snap, eps, mu = case
    single = len(snap.lambdas_present) == 1
    with np.errstate(all="ignore"):  # nan and inf parts make nan and overflow on both sides
        oracles = [oracle_number_density(snap, eps), oracle_current_density(snap, eps, mu)]
        results = [number_density(snap, eps), current_density(snap, eps, mu)]
        if single:
            oracles.append(oracle_helicity_density(snap))
            results.append(helicity_density(snap))
        cf = photon_current(snap, eps, mu)
    assert (cf.s_hel is not None) == single
    bundled = [cf.rho, cf.j] + ([cf.s_hel] if single else [])
    for new, old in zip(results + bundled, oracles * 2):
        assert new.shape == old.shape and new.dtype == old.dtype
        assert_same_bits(new, old)


def assert_same_bits(new, old):
    # Every value that is not a NaN, signed zeros included, must match bit for
    # bit. A NaN made from two NaN operands takes the sign of whichever the
    # instruction propagates, and numpy's complex multiply propagates a
    # different one in different parts of its loop: with AVX-512, the
    # imaginary part of (nan - inf i)(1e300 - nan i) is +nan at positions 0-3
    # and 6 of a length-7 product and -nan at 4-5. The oracle's loop runs over
    # all three components at once and the kernels' over one, so a point's NaN
    # can sit at another position. A NaN must stay a NaN; the CSV writes both
    # signs as "nan".
    nan = np.isnan(old)
    assert np.array_equal(np.isnan(new), nan)
    assert new[~nan].tobytes() == old[~nan].tobytes()


def test_photon_current_memory_per_point():
    # rho, j and s_hel are 56 B a point; the kernels add their reused scratch
    # components, where the whole-vector forms held about 264 B a point
    k0 = (0.0, 0.0, 4.0)
    grid = KGrid(n_per_axis=4, spacing=0.5, dimension=3, center=k0)
    snap = synthesize(gaussian_packet(grid, k0, 0.4, 1), dual_grid(grid, 32), 0.3)
    points = snap.grid.n_points
    assert points == 32768
    tracemalloc.start()
    try:
        cf = photon_current(snap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cf.s_hel is not None
    assert peak <= 120 * points, peak / points
