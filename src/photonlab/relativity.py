"""The helicity polarization bases of the mode grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROOT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class PolarizationBasis:
    """Helicity unit vectors e_{+1}, e_{-1} and the longitudinal direction e_par.

    Fields have a trailing axis of length 3 and broadcast over any leading
    shape, so one instance can hold the basis for a whole mode grid.
    """

    e_plus: np.ndarray
    e_minus: np.ndarray
    e_par: np.ndarray


def polarization_bases(kvecs: np.ndarray) -> PolarizationBasis:
    """Helicity basis e_lambda = (e_theta + i lambda e_phi)/sqrt(2) for each k.

    kvecs has shape (..., 3). On the z-axis the azimuth is frozen at phi = 0,
    which keeps a single continuous formula valid for every nonzero k:
    e_theta = (+-1, 0, 0) and e_phi = (0, 1, 0) at the poles.
    """
    k = np.asarray(kvecs, dtype=float)
    if k.shape[-1] != 3:
        raise ValueError("wavevectors must have a trailing axis of length 3")
    kmag = np.sqrt(np.sum(k * k, axis=-1))
    if np.any(kmag == 0.0):
        raise ValueError("polarization basis undefined at k = 0")
    rho = np.hypot(k[..., 0], k[..., 1])
    cos_th = k[..., 2] / kmag
    sin_th = rho / kmag
    on_axis = rho == 0.0
    safe = np.where(on_axis, 1.0, rho)
    cos_ph = np.where(on_axis, 1.0, k[..., 0] / safe)
    sin_ph = np.where(on_axis, 0.0, k[..., 1] / safe)
    e_th = np.stack([cos_th * cos_ph, cos_th * sin_ph, -sin_th], axis=-1)
    e_ph = np.stack([-sin_ph, cos_ph, np.zeros_like(sin_ph)], axis=-1)
    e_plus = ROOT_HALF * (e_th + 1j * e_ph)
    e_minus = ROOT_HALF * (e_th - 1j * e_ph)
    e_par = k / kmag[..., None]
    return PolarizationBasis(e_plus=e_plus, e_minus=e_minus, e_par=e_par)

