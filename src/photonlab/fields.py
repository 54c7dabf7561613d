"""Positive-frequency field synthesis from mode amplitudes.

A+(x,t) = i sqrt(2) sum_lambda sum_k w(k) c_lambda(k) e_lambda(k) e^{i(k.x - w t)}
in natural units (c = hbar = eps0 = 1), with w(k) the invariant measure weight.
E+ and B+ come from exact k-space derivatives (multiplication by i omega, i k);
finite differences are reserved for the verification stencils so the checks
stay independent of the synthesis path (dE/dt there is E(t0 + dt) - E(t0 - dt),
one sum of the coefficients' difference, over 2 dt). phi+ = c A+_par throughout.

The k-lattice and the sample box are tensor products of 1D axes, so the mode
sum factors into one contraction per axis with an n_k x n_x table of
e^{i k_a x_a}: the direct sum reassociated, exact to rounding on every grid.

Callers name the field groups they read (GROUPS: A, E, B, and the
longitudinal sector phi, A_par, E_par); only those are summed, all in one
contraction. Each group is a view of that component-major sum, so the sum is
the only copy of the fields; a group that was not requested cannot be read.
A caller may also sum a few x-planes at a time, sharing one k-space prep
(mode_coefficients); every 3D box is visited that way, in the x-slabs of
slab_plan, the stencil scans taking x-neighbour planes from adjacent slabs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fdops
from .modes import POLARIZATIONS, KGrid, ModeAmplitudes, kvectors, measure_weights
from .relativity import polarization_bases

# Expansion prefactor: |alpha|^2 = 2 makes the box integral of the number
# density equal the k-space norm exactly.
AMPLITUDE_SCALE = 1j * math.sqrt(2.0)

# Column layout of the lattice-ordered coefficient matrix fed to _mode_sum.
_COLS_A = slice(0, 3)
_COLS_E = slice(3, 6)
_COLS_B = slice(6, 9)
_COLS_PHI = slice(9, 10)
_COLS_APAR = slice(10, 13)
_COLS_EPAR = slice(13, 16)
_NCOMP = 16

# Field groups synthesize can be asked for, with their coefficient columns.
# The longitudinal sector (phi, A_par, E_par in that order) is one group:
# current_density reads all of it.
GROUPS = {"a": _COLS_A, "e": _COLS_E, "b": _COLS_B,
          "par": slice(_COLS_PHI.start, _COLS_EPAR.stop)}


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic sample box; 1D grids vary along z only.

    Every used axis runs origin + j * spacing for j = 0..n-1; the box length
    is n * spacing and the stencils wrap periodically.
    """

    n_per_axis: int
    spacing: float
    dimension: int = 3
    origin: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
        if self.n_per_axis < 2:
            raise ValueError("n_per_axis must be at least 2")
        if not self.spacing > 0.0:
            raise ValueError("spacing must be positive")

    @property
    def box_length(self) -> float:
        return self.n_per_axis * self.spacing

    @property
    def n_points(self) -> int:
        return self.n_per_axis ** self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dimension

    def axis_positions(self) -> np.ndarray:
        return self.origin + np.arange(self.n_per_axis) * self.spacing

    def field_shape(self) -> tuple:
        return (self.n_per_axis,) * self.dimension


def dual_grid(kgrid: KGrid, n_per_axis: int) -> SpatialGrid:
    """Fourier-dual sample box: length 2 pi / dk, centered on the origin."""
    length = 2.0 * math.pi / kgrid.spacing
    return SpatialGrid(
        n_per_axis=n_per_axis,
        spacing=length / n_per_axis,
        dimension=kgrid.dimension,
        origin=-0.5 * length,
    )


def is_dual(grid: SpatialGrid, kgrid: KGrid) -> bool:
    if grid.dimension != kgrid.dimension:
        return False
    return abs(grid.box_length * kgrid.spacing / (2.0 * math.pi) - 1.0) < 1e-9


def _view(name: str, group: str, cols: slice) -> property:
    """A snapshot field: read-only view of its columns in the group's sum."""
    def read(snap):
        if group not in snap.rows:
            raise ValueError(f"{name} was not synthesized; request its field group")
        lo = cols.start - GROUPS[group].start
        block = snap.rows[group]
        # component-major rows seen with a trailing component axis: no copy
        view = block[lo] if cols.stop - cols.start == 1 else np.moveaxis(block[lo:lo + 3], 0, -1)
        view.flags.writeable = False
        return view
    return property(read)


@dataclass(frozen=True)
class FieldSnapshot:
    """Complex positive-frequency fields sampled on a spatial grid at one time.

    rows maps each synthesized field group (GROUPS) to its component-major
    sum, shape (components,) + the sample shape. The fields are read-only
    views of it, vector fields with a trailing component axis of 3; a field
    of a group not in rows raises ValueError when read. a_par_plus/e_par_plus
    hold the spectrally longitudinal parts so bilinears never need a position
    space transverse split. bloch holds the per-axis quasi-periodic wrap
    factors when the grid is the Fourier dual of the synthesizing k-lattice,
    else None (finite-difference stencils then refuse the snapshot).
    """

    grid: SpatialGrid
    time: float
    rows: dict
    speed: float
    bloch: tuple | None
    lambdas_present: frozenset

    a_plus = _view("a_plus", "a", _COLS_A)
    e_plus = _view("e_plus", "e", _COLS_E)
    b_plus = _view("b_plus", "b", _COLS_B)
    phi_plus = _view("phi_plus", "par", _COLS_PHI)
    a_par_plus = _view("a_par_plus", "par", _COLS_APAR)
    e_par_plus = _view("e_par_plus", "par", _COLS_EPAR)

    def twists(self) -> tuple:
        if self.bloch is None:
            raise ValueError("finite differences need the Fourier-dual spatial grid")
        return self.bloch


def mode_coefficients(m: ModeAmplitudes, t: float, omega_scale: float = 1.0) -> np.ndarray:
    """synthesize's k-space prep: lattice-ordered coefficients of all _NCOMP columns at t.

    omega_scale deliberately mis-scales the frequency in the time derivative
    that builds E+ (a dispersion fault for verification drills); 1.0 is physical.
    """
    k = kvectors(m.grid)
    kmag = np.sqrt(np.sum(k * k, axis=-1))
    omega = m.speed * kmag
    w = measure_weights(m.grid, m.speed)
    bases = polarization_bases(k)
    phase_t = np.exp(-1j * omega * t)

    # rows sharing a k add, dead modes (c = 0) add exact zeros
    coeffs = np.zeros((m.grid.n_points, _NCOMP), dtype=np.complex128)
    for pol, c, unit in zip(POLARIZATIONS, m.amps, (bases.e_plus, bases.e_minus, bases.e_par)):
        if not np.any(c):
            continue
        s = AMPLITUDE_SCALE * w * c * phase_t
        a_coef = s[:, None] * unit
        coeffs[:, _COLS_A] += a_coef
        if pol == "par":
            # phi = c A_par with c = 1; E_par = i(omega - |k|) s e_k is an
            # exact zero on shell in vacuum.
            coeffs[:, _COLS_PHI] += s[:, None]
            coeffs[:, _COLS_APAR] += a_coef
            e_par = (1j * (omega * omega_scale - kmag))[:, None] * a_coef
            coeffs[:, _COLS_EPAR] += e_par
            coeffs[:, _COLS_E] += e_par
        else:
            coeffs[:, _COLS_E] += (1j * omega * omega_scale)[:, None] * a_coef
            coeffs[:, _COLS_B] += (pol * kmag)[:, None] * a_coef
    return coeffs


def synthesize(m: ModeAmplitudes, grid: SpatialGrid, t: float, omega_scale: float = 1.0,
               groups=tuple(GROUPS), planes=None, coeffs=None) -> FieldSnapshot:
    """Evaluate the requested field groups of A+, E+, B+, phi+ at time t.

    groups names keys of GROUPS: "a" (a_plus), "e" (e_plus), "b" (b_plus)
    and "par" (phi_plus, a_par_plus, e_par_plus); all by default. Every
    requested group with a nonzero coefficient is summed in one _mode_sum
    call and kept as a view of its rows; dead groups are zeros. Fields of
    groups not requested raise when read.

    planes, an index array, samples only those x-planes (array axis 0).
    coeffs is mode_coefficients(m, t, omega_scale) when a caller shares it
    between the plane sets of one time.
    """
    if grid.dimension != m.grid.dimension:
        raise ValueError("mode grid and spatial grid dimensions differ")
    unknown = set(groups) - GROUPS.keys()
    if unknown:
        raise ValueError(f"unknown field groups {sorted(unknown)}; choose from {list(GROUPS)}")
    if coeffs is None:
        coeffs = mode_coefficients(m, t, omega_scale)
    bloch = tuple(complex(np.exp(1j * m.grid.axis_values(a)[0] * grid.box_length))
                  for a in m.grid.used_axes) if is_dual(grid, m.grid) else None
    shape = grid.field_shape() if planes is None else planes.shape + grid.field_shape()[1:]

    # whole groups are summed, so every sum has at least three columns (numpy
    # sends a single row through gemv, which rounds differently from gemm)
    live = np.any(coeffs != 0.0, axis=0)
    requested = [g for g in GROUPS if g in groups]
    summed_groups = [g for g in requested if live[GROUPS[g]].any()]
    cols = [c for g in summed_groups for c in range(GROUPS[g].start, GROUPS[g].stop)]
    summed = _mode_sum(coeffs[:, cols], m.grid, grid, planes)
    summed[~live[cols]] = 0.0  # a dead column sums signed zeros; store +0
    rows, start = {}, 0
    for g in requested:
        width = GROUPS[g].stop - GROUPS[g].start
        if g in summed_groups:
            rows[g] = summed[start:start + width].reshape((width,) + shape)
            start += width
        else:
            rows[g] = np.zeros((width,) + shape, dtype=np.complex128)

    return FieldSnapshot(
        grid=grid,
        time=float(t),
        rows=rows,
        speed=m.speed,
        bloch=bloch,
        lambdas_present=frozenset(pol for pol, c in zip(POLARIZATIONS, m.amps) if np.any(c)),
    )


_SLAB_POINTS = 1 << 13  # points per x-slab: 8 planes of 32^2; larger boxes take 4 planes


def _slab_width(n_x: int) -> int:
    """x-planes per slab of an n_x^3 box: most whole groups of 4 within _SLAB_POINTS, at least 1."""
    return 4 * max(1, _SLAB_POINTS // (4 * n_x * n_x))


def slab_plan(grid: SpatialGrid) -> list:
    """(first plane, planes) per x-slab of the box, in order; a 1D box is one slab (0, None).

    zgemm rounds a sum's leftover columns apart, and gemv (a one-plane sum)
    rounds apart from gemm. So the slabs are _slab_width(n_x) planes, the last
    one shorter or, where it would be one plane, joined to the one before: the
    last leaves over the n_x mod 4 planes the box does, and every slab sums
    bitwise as the whole box.
    """
    if grid.dimension == 1:
        return [(0, None)]
    n_x = grid.n_per_axis
    bounds = list(range(0, n_x - 1, _slab_width(n_x))) + [n_x]
    return [(a, np.arange(a, b)) for a, b in zip(bounds, bounds[1:])]


def last_group(plan):
    """The planes of slab_plan's plan that sum plane n_x - 1 alone bitwise as its slab does.

    They are the last slab's last group of 4 planes with any planes over, so
    they leave over the planes the slab does. A stencil scan sums plane
    n_x - 1 from them ahead of its walk, for plane 0 to read; None for a plan
    of one slab, which wraps itself.
    """
    if len(plan) == 1:
        return None
    last = plan[-1][1]
    return last[(len(last) - 2) // 4 * 4:]


def slabs(m: ModeAmplitudes, grid: SpatialGrid, t: float, omega_scale=1.0,
          groups=tuple(GROUPS)):
    """Yield (first plane, snapshot of its planes) per x-slab of slab_plan at t.

    All slabs share one k-space prep.
    """
    coeffs = mode_coefficients(m, t, omega_scale)
    for p0, planes in slab_plan(grid):
        yield p0, synthesize(m, grid, t, omega_scale, groups, planes, coeffs)


def _mode_sum(coeffs: np.ndarray, kgrid: KGrid, grid: SpatialGrid, planes=None) -> np.ndarray:
    """sum_m coeffs[m, :] e^{i k_m . x} over the grid points, one axis at a time.

    coeffs is lattice-ordered, shape (kgrid.n_points, n_components). Each
    tensordot contracts the leading k axis with that axis' phase table and
    appends the x axis, so (c, kx, ky, kz) rotates through (c, ky, kz, x) and
    (c, kz, x, y) into (c, x, y, z). planes, if given, are the indices of the
    first axis to sample (the x-planes; z on a 1D grid). Returns shape
    (n_components, sampled points).
    """
    x = grid.axis_positions()
    ncomp = coeffs.shape[1]
    t = coeffs.T.reshape((ncomp,) + (kgrid.n_per_axis,) * kgrid.dimension)
    for i, axis in enumerate(kgrid.used_axes):
        xa = x[planes] if i == 0 and planes is not None else x
        phase = np.exp(1j * np.outer(kgrid.axis_values(axis), xa))
        t = np.tensordot(t, phase, axes=(1, 0))
    return t.reshape(ncomp, math.prod(t.shape[1:]))


def _on_grid(s, grid: SpatialGrid):
    """s, a snapshot, checked to lie on grid."""
    if s.grid != grid:
        raise ValueError("samples must share one spatial grid")
    return s


def maxwell_residual(sample, plan, span):
    """Yield (first plane, k, residual) pieces of the source-free Maxwell equations on E+ and B+.

    In natural units (c = eps0 = 1), with a centered difference in time and
    second-order centered differences in space: k = 0 is div E, 1 dE/dt -
    curl B, 2 div B, each built only when the caller asks for it. plan is
    slab_plan of one box; sample(key, groups, planes) is the snapshot of the
    named field groups on those planes (a slab's, or last_group's): key "now"
    the fields at t0, key "step" E(t0 + dt) - E(t0 - dt), which span, 2 dt,
    divides into dE/dt. The residuals come in the pieces of fdops.Lag, in
    plane order, whole for a box of one slab. The box is walked once for E
    at t0 and once for B at t0; each walk first sums its group at t0 on
    last_group(plan) and keeps plane n_x - 1, which plane 0 reads. Each
    snapshot belongs to the law: dE/dt is written over the step's sum, piece
    by piece, dE/dt - curl B over that (a view with a trailing component
    axis). So a slab holds one field group at t0 beside the step at most.
    """
    grid, last = None, last_group(plan)

    def residuals(pieces):  # div f, after dE/dt - curl f where E's step comes along (f is B)
        for p, (f, *step), (ends,) in pieces:
            if step:
                dt_e, curl_b = np.divide(step[0], span, out=step[0]), None
                for comp in range(3):
                    curl_b = fdops.curl(f, grid.spacing, grid.dimension, twists, comp, curl_b, ends)
                    dt_e[..., comp] -= curl_b
                del curl_b
                yield p, 1, dt_e
            yield p, 2 if step else 0, fdops.divergence(f, grid.spacing, grid.dimension, twists,
                                                        ends)

    for group in ("e", "b"):
        lag = before = None
        if last is not None:
            now = sample("now", (group,), last)
            grid = _on_grid(now, grid or now.grid).grid
            before = [np.moveaxis(now.rows[group][:, -1:], 0, -1).copy()]
            del now  # freed before the first slab is summed
        for p0, planes in plan:
            step = [_on_grid(sample("step", ("e",), planes), grid)] if group == "b" else []
            now = sample("now", (group,), planes)
            grid, twists = _on_grid(now, grid or now.grid).grid, now.twists()
            lag = lag or fdops.Lag(grid.n_per_axis, before, twists[0], local=len(step))
            fields = [np.moveaxis(s.rows[g], 0, -1) for s, g in zip([now] + step, (group, "e"))]
            yield from residuals(lag.step(p0, fields))
            del now, step, fields  # freed before the next slab is summed
        yield from residuals(lag.close())
