"""Photon number, current, and helicity densities with their conservation checks.

All bilinears pair the positive-frequency fields with their conjugates in the
convention rho = Im[conj(A+).E+] (natural units), whose box integral equals
the k-space norm; the current splits into a transverse A x B part and a
longitudinal phi E_par part, and the helicity density is the same pairing
under a cross product without the i. Each is built a component at a time
straight into its output through reused scratch, with the operations, operand
order and summation order of the whole-vector np.sum and np.cross forms: its
bits are theirs, but for the sign of a NaN made from two NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fdops
from .fields import FieldSnapshot, SpatialGrid


@dataclass(frozen=True)
class CurrentField:
    """Real densities on a spatial grid at one time.

    rho is the photon number density, j its flux partner in the continuity
    equation, s_hel the helicity density. s_hel is None for a snapshot that
    mixes polarizations; j and s_hel are None only for a density built alone.
    """

    grid: SpatialGrid
    time: float
    rho: np.ndarray
    j: np.ndarray | None
    s_hel: np.ndarray | None = None


# (i, p, q) cyclic: component i of the cross product x X y is x_p y_q - x_q y_p
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def number_density(snap: FieldSnapshot, eps: float = 1.0) -> np.ndarray:
    """rho = eps Im[conj(A+).E+]; eps is the relative permittivity scale."""
    a, e = snap.a_plus, snap.e_plus
    rho = np.zeros(a.shape[:-1])
    t = np.empty(rho.shape, dtype=np.complex128)
    for i in range(3):
        # ((+0 + x0) + x1) + x2, the order np.sum takes over the component axis
        rho += np.multiply(np.conj(a[..., i], out=t), e[..., i], out=t).imag
    return np.multiply(eps, rho, out=rho)


def current_density(snap: FieldSnapshot, eps: float = 1.0, mu: float = 1.0) -> np.ndarray:
    """J = Im[conj(A_perp+) x B+]/mu + eps Im[conj(phi+) E_par+].

    The transverse/longitudinal split of A comes spectrally from the
    synthesis; nothing here applies a position-space projection. The second
    term broadcasts the scalar phi over the longitudinal E vector.
    """
    a, a_par, b, e_par = snap.a_plus, snap.a_par_plus, snap.b_plus, snap.e_par_plus
    j = np.empty(b.shape)
    s, t = np.empty((2,) + b.shape[:-1], dtype=np.complex128)
    longitudinal = np.empty(b.shape[:-1])
    for i, p, q in _CYCLIC:
        np.multiply(np.conj(np.subtract(a[..., p], a_par[..., p], out=s), out=s), b[..., q], out=t)
        np.conj(np.subtract(a[..., q], a_par[..., q], out=s), out=s)
        t -= np.multiply(s, b[..., p], out=s)
        np.divide(t.imag, mu, out=j[..., i])
        np.multiply(np.conj(snap.phi_plus, out=t), e_par[..., i], out=t)
        j[..., i] += np.multiply(eps, t.imag, out=longitudinal)
    return j


def helicity_density(snap: FieldSnapshot) -> np.ndarray:
    """S = -Re[A+ x conj(E+)] for a single-polarization snapshot.

    Equals lambda rho e_k pointwise for single-direction transverse states
    and vanishes identically for longitudinal ones.
    """
    if len(snap.lambdas_present) > 1:
        raise ValueError("helicity density defined per lambda")
    a, e = snap.a_plus, snap.e_plus
    s_hel = np.empty(a.shape)
    s, t = np.empty((2,) + a.shape[:-1], dtype=np.complex128)
    for i, p, q in _CYCLIC:
        np.multiply(a[..., p], np.conj(e[..., q], out=t), out=t)
        t -= np.multiply(a[..., q], np.conj(e[..., p], out=s), out=s)
        np.negative(t.real, out=s_hel[..., i])
    return s_hel


def photon_current(snap: FieldSnapshot, eps: float = 1.0, mu: float = 1.0) -> CurrentField:
    """Bundle rho and J, and S wherever it is defined: a single-polarization snapshot."""
    return CurrentField(
        grid=snap.grid,
        time=snap.time,
        rho=number_density(snap, eps),
        j=current_density(snap, eps, mu),
        s_hel=helicity_density(snap) if len(snap.lambdas_present) <= 1 else None,
    )


def position_norm(rho: np.ndarray, grid: SpatialGrid) -> float:
    """Box Riemann sum of the density rho; spectrally exact for band-limited periodic fields."""
    return float(np.sum(rho) * grid.cell_volume)


def centered_span(prev, now, nxt) -> float:
    """(now - prev) + (nxt - now), the divisor of a centered time difference.

    The three samples (snapshots or currents) share one grid and are equally
    spaced in time.
    """
    if not prev.grid == now.grid == nxt.grid:
        raise ValueError("samples must share one spatial grid")
    dt_lo, dt_hi = now.time - prev.time, nxt.time - now.time
    if abs(dt_hi - dt_lo) > 1e-12 * max(abs(dt_lo), abs(dt_hi)):
        raise ValueError("samples must be equally spaced in time")
    return dt_lo + dt_hi


def continuity_residual(cf_prev: CurrentField, cf_now: CurrentField,
                        cf_next: CurrentField, ends=None) -> np.ndarray:
    """d rho/dt + div J with centered differences, periodic wrap; ends as fdops.Lag's."""
    span = centered_span(cf_prev, cf_now, cf_next)
    g = cf_now.grid
    div_j = fdops.divergence(cf_now.j, g.spacing, g.dimension, (1.0,) * g.dimension, ends)
    return (cf_next.rho - cf_prev.rho) / span + div_j
