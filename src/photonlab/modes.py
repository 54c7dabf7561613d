"""Invariant one-photon amplitudes c_lambda(k) on a discrete wavevector grid.

The grid carries an invariant measure dk^d / ((2pi)^d 2 omega_k); norms, boosts,
and gauge shifts all act on the amplitude arrays without ever touching
position space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# Row order of the amplitude array: helicity +1, helicity -1, longitudinal.
POLARIZATIONS = (1, -1, "par")
# How configs and modes.csv spell each polarization.
POL_LABELS = {1: "+1", -1: "-1", "par": "par"}
_ROW = {1: 0, -1: 1, "par": 2}

TWO_PI = 2.0 * math.pi


def lambda_row(pol) -> int:
    """Array row for a polarization label (+1, -1, or "par")."""
    try:
        return _ROW[pol]
    except (KeyError, TypeError):
        raise ValueError(f"unknown polarization {pol!r}; use +1, -1, or 'par'") from None


@dataclass(frozen=True)
class KGrid:
    """Uniform wavevector lattice with no point at k = 0.

    Axis values are center + (m - (n-1)/2) * spacing for m = 0..n-1, so an
    even count straddles the center by half a cell. dimension 1 puts the
    lattice on the z-axis (kx = ky = 0).
    """

    n_per_axis: int
    spacing: float
    dimension: int = 3
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
        if self.n_per_axis < 1:
            raise ValueError("n_per_axis must be positive")
        if not self.spacing > 0.0:
            raise ValueError("spacing must be positive")
        c = tuple(float(v) for v in np.asarray(self.center, dtype=float).reshape(3))
        if self.dimension == 1 and (c[0] != 0.0 or c[1] != 0.0):
            raise ValueError("a 1D grid lies on the z-axis; center x and y must be 0")
        object.__setattr__(self, "center", c)
        mags = kmagnitudes(self)
        if np.min(mags) <= 0.0:
            raise ValueError("grid contains k = 0 (measure diverges); shift center or count")

    @property
    def used_axes(self) -> tuple:
        return (2,) if self.dimension == 1 else (0, 1, 2)

    @property
    def n_points(self) -> int:
        return self.n_per_axis ** self.dimension

    def axis_values(self, axis: int) -> np.ndarray:
        n = self.n_per_axis
        return self.center[axis] + (np.arange(n) - 0.5 * (n - 1)) * self.spacing


def kvectors(grid: KGrid) -> np.ndarray:
    """All lattice wavevectors, shape (n_points, 3), lexicographic in (kx,ky,kz)."""
    axes = [grid.axis_values(a) if a in grid.used_axes else np.zeros(1) for a in range(3)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def kmagnitudes(grid: KGrid) -> np.ndarray:
    k = kvectors(grid)
    return np.sqrt(np.sum(k * k, axis=-1))


def measure_weights(grid: KGrid, speed: float = 1.0) -> np.ndarray:
    """Invariant cell weights dk^d / ((2pi)^d 2 omega_k) for every lattice point."""
    omega = speed * kmagnitudes(grid)
    d = grid.dimension
    return grid.spacing ** d / (TWO_PI ** d * 2.0 * omega)


@dataclass(frozen=True)
class ModeAmplitudes:
    """One-photon state: complex c_lambda(k) for each lattice point and row.

    amps has shape (3, n_points) in POLARIZATIONS row order. speed is the
    dispersion speed, omega_k = speed * |k| (1 in vacuum, (eps mu)^(-1/2)
    in a linear medium, natural units).
    """

    grid: KGrid
    amps: np.ndarray
    speed: float = 1.0

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=np.complex128)
        if a.shape != (3, self.grid.n_points):
            raise ValueError(f"amps must have shape (3, {self.grid.n_points})")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitudes must be finite")
        if not self.speed > 0.0:
            raise ValueError("dispersion speed must be positive")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)
        object.__setattr__(self, "speed", float(self.speed))


def norm(m: ModeAmplitudes, polarizations=None) -> float:
    """Invariant-measure norm sum_lambda sum_k w(k) |c_lambda(k)|^2.

    polarizations restricts the row sum (e.g. (1, -1) for the transverse-only
    norm); None sums all three rows.
    """
    w = measure_weights(m.grid, m.speed)
    if polarizations is None:
        rows = slice(None)
    else:
        rows = [lambda_row(p) for p in polarizations]
    mags = np.abs(m.amps[rows]) ** 2
    return float(np.sum(mags @ w))


def normalize(m: ModeAmplitudes) -> ModeAmplitudes:
    n = norm(m)
    if n <= 0.0:
        raise ValueError("cannot normalize null state")
    return replace(m, amps=m.amps / math.sqrt(n))


def gaussian_packet(grid: KGrid, k0, sigma: float, pol, speed: float = 1.0) -> ModeAmplitudes:
    """Normalized packet c(k) = exp(-|k - k0|^2 / (4 sigma^2)) on one polarization row."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    k0 = np.asarray(k0, dtype=float).reshape(3)
    half = 0.5 * grid.spacing
    for axis in (0, 1, 2):
        if axis in grid.used_axes:
            vals = grid.axis_values(axis)
            if not (vals[0] - half <= k0[axis] <= vals[-1] + half):
                raise ValueError(f"k0[{axis}] = {k0[axis]} outside grid extent")
        elif k0[axis] != 0.0:
            raise ValueError("k0 must lie on the z-axis for a 1D grid")
    k = kvectors(grid)
    d2 = np.sum((k - k0) ** 2, axis=-1)
    amps = np.zeros((3, grid.n_points), dtype=np.complex128)
    amps[lambda_row(pol)] = np.exp(-d2 / (4.0 * sigma * sigma))
    return normalize(ModeAmplitudes(grid, amps, speed))


def gauge_shift(m: ModeAmplitudes, g) -> ModeAmplitudes:
    """On-shell gauge transformation: c_par(k) += g(k), transverse rows untouched.

    In the representation phi = c A_par, an on-shell gauge function moves only
    the longitudinal amplitude; it needs vacuum dispersion (box alpha = 0).
    """
    if m.speed != 1.0:
        raise ValueError("gauge shift requires vacuum dispersion")
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (m.grid.n_points,):
        raise ValueError(f"gauge function must have shape ({m.grid.n_points},)")
    amps = m.amps.copy()
    amps[_ROW["par"]] = amps[_ROW["par"]] + g
    return replace(m, amps=amps)


def boost_amplitudes(m: ModeAmplitudes, beta: float, dest_grid: KGrid | None = None) -> ModeAmplitudes:
    """Boost the state along z; amplitudes ride their wavevectors to new cells.

    Each mode's (omega/c, k) is boosted, the invariant weight w|c|^2 is
    deposited into the nearest destination cell, and |c| is reconstructed
    there from the deposited weight so the norm sum is conserved up to
    clipping at the destination extent. Phases are carried as weight-averaged
    unit phasors. beta = 0 onto the same grid returns the input unchanged.
    """
    if m.speed != 1.0:
        raise ValueError("boost defined only in vacuum")
    if abs(beta) >= 1.0:
        raise ValueError("boost speed must satisfy |beta| < 1")
    dest = m.grid if dest_grid is None else dest_grid
    if beta == 0.0 and dest == m.grid:
        return m

    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    k = kvectors(m.grid)
    omega = np.sqrt(np.sum(k * k, axis=-1))
    kb = k.copy()
    kb[:, 2] = gamma * (k[:, 2] - beta * omega)

    n = dest.n_per_axis
    inside = np.ones(m.grid.n_points, dtype=bool)
    flat = np.zeros(m.grid.n_points, dtype=np.int64)
    for axis in dest.used_axes:
        vals = dest.axis_values(axis)
        idx = np.rint((kb[:, axis] - vals[0]) / dest.spacing).astype(np.int64)
        inside &= (idx >= 0) & (idx < n)
        flat = flat * n + np.clip(idx, 0, n - 1)
    if dest.dimension == 1:
        off_line = (kb[:, 0] != 0.0) | (kb[:, 1] != 0.0)
        inside &= ~off_line

    w_src = measure_weights(m.grid, 1.0)
    w_dst = measure_weights(dest, 1.0)
    out = np.zeros((3, dest.n_points), dtype=np.complex128)
    for row in range(3):
        c = m.amps[row]
        mag2 = np.abs(c) ** 2
        use = inside & (mag2 > 0.0)
        if not np.any(use):
            continue
        weight = w_src[use] * mag2[use]
        phasor = c[use] / np.abs(c[use])
        acc_w = np.zeros(dest.n_points)
        acc_p = np.zeros(dest.n_points, dtype=np.complex128)
        np.add.at(acc_w, flat[use], weight)
        np.add.at(acc_p, flat[use], weight * phasor)
        mag = np.sqrt(acc_w / w_dst)
        pmag = np.abs(acc_p)
        unit = np.where(pmag > 0.0, acc_p / np.where(pmag > 0.0, pmag, 1.0), 1.0)
        out[row] = mag * unit
    return ModeAmplitudes(dest, out, 1.0)
