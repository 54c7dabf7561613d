"""Photon number, current, and helicity densities with their conservation checks.

All bilinears pair the positive-frequency fields with their conjugates in the
convention rho = Im[conj(A+).E+] (natural units), whose box integral equals
the k-space norm; the current splits into a transverse A x B part and a
longitudinal phi E_par part, and the helicity density is the same pairing
under a cross product without the i.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fdops
from .fields import FieldSnapshot, SpatialGrid, centered_span


@dataclass(frozen=True)
class CurrentField:
    """Real densities on a spatial grid at one time.

    rho is the photon number density, j its flux partner in the continuity
    equation, s_hel the helicity density (None for a snapshot that mixes
    polarizations, or a density built alone).
    """

    grid: SpatialGrid
    time: float
    rho: np.ndarray
    j: np.ndarray
    s_hel: np.ndarray | None = None

    def cut(self, inner) -> CurrentField:
        """The densities on the planes inner of array axis 0."""
        return replace(self, rho=self.rho[inner], j=None if self.j is None else self.j[inner],
                       s_hel=None if self.s_hel is None else self.s_hel[inner])


def _imag_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Im[conj(x).y] over the trailing component axis."""
    return np.sum((np.conj(x) * y).imag, axis=-1)


def _imag_cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Im[conj(x) x y] componentwise."""
    return np.cross(np.conj(x), y).imag


def number_density(snap: FieldSnapshot, eps: float = 1.0) -> np.ndarray:
    """rho = eps Im[conj(A+).E+]; eps is the relative permittivity scale."""
    return eps * _imag_dot(snap.a_plus, snap.e_plus)


def current_density(snap: FieldSnapshot, eps: float = 1.0, mu: float = 1.0) -> np.ndarray:
    """J = Im[conj(A_perp+) x B+]/mu + eps Im[conj(phi+) E_par+].

    The transverse/longitudinal split of A comes spectrally from the
    synthesis; nothing here applies a position-space projection. The second
    term broadcasts the scalar phi over the longitudinal E vector.
    """
    a_perp = snap.a_plus - snap.a_par_plus
    transverse = _imag_cross(a_perp, snap.b_plus) / mu
    longitudinal = eps * (np.conj(snap.phi_plus)[..., None] * snap.e_par_plus).imag
    return transverse + longitudinal


def helicity_density(snap: FieldSnapshot) -> np.ndarray:
    """S = -Re[A+ x conj(E+)] for a single-polarization snapshot.

    Equals lambda rho e_k pointwise for single-direction transverse states
    and vanishes identically for longitudinal ones.
    """
    if len(snap.lambdas_present) > 1:
        raise ValueError("helicity density defined per lambda")
    return -np.cross(snap.a_plus, np.conj(snap.e_plus)).real


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


def continuity_residual(cf_prev: CurrentField, cf_now: CurrentField,
                        cf_next: CurrentField) -> np.ndarray:
    """d rho/dt + div J with centered differences, periodic wrap."""
    span = centered_span(cf_prev, cf_now, cf_next)
    g = cf_now.grid
    div_j = fdops.divergence(cf_now.j, g.spacing, g.dimension, (1.0,) * g.dimension)
    return (cf_next.rho - cf_prev.rho) / span + div_j
