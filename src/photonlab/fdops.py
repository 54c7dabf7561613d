"""Centered finite-difference stencils on periodic and quasi-periodic grids.

Complex positive-frequency fields synthesized from an offset k-lattice are
periodic over the dual box only up to a constant per-axis phase twist
f(x + L) = theta * f(x); stencils here take that twist at the wrap seam.
Real bilinear fields (densities, currents) use twist 1.

Each derivative is written through slices into one preallocated array: the
interior planes difference their neighbours directly, and only the two seam
planes read across the wrap, with the twist (or its conjugate) applied there.

An axis may also be haloed: a slab with one extra plane at each end, read
across the seam where it wraps (fields.synthesize with planes). Its interior
planes come out exactly as on the whole box; the caller drops the end planes.
"""

from __future__ import annotations

import numpy as np


def centered_diff(f: np.ndarray, axis: int, spacing: float, twist: complex = 1.0) -> np.ndarray:
    """Second-order centered derivative along one array axis.

    Samples past the end wrap to the start times twist, samples before the
    start wrap to the end times its inverse (the conjugate: twists are unit
    modulus). Twist 1 keeps a real field real.
    """
    out = np.empty_like(f, dtype=np.result_type(f, 1.0) if twist == 1.0 else np.complex128)
    f, o = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    # the two seam planes, kept as length-1 slices so 1D planes stay arrays
    first, second, last, before_last = f[:1], f[1:2], f[-1:], f[-2:-1]
    if twist == 1.0:
        np.subtract(first, before_last, out=o[-1:])
        np.subtract(second, last, out=o[:1])
    else:
        np.subtract(first * twist, before_last, out=o[-1:])
        np.subtract(second, last * np.conj(twist), out=o[:1])
    out /= 2.0 * spacing
    return out


def axis_directions(dimension: int):
    """(array axis, spatial direction) pairs; a 1D grid varies along z."""
    if dimension == 1:
        return ((0, 2),)
    return ((0, 0), (1, 1), (2, 2))


def divergence(vf: np.ndarray, spacing: float, dimension: int, twists) -> np.ndarray:
    """div V with centered differences; vf has a trailing component axis of 3."""
    (first_ax, first_dir), *rest = axis_directions(dimension)
    out = centered_diff(vf[..., first_dir], first_ax, spacing, twists[first_ax])
    for arr_ax, direction in rest:
        out += centered_diff(vf[..., direction], arr_ax, spacing, twists[arr_ax])
    return out


def curl(vf: np.ndarray, spacing: float, dimension: int, twists) -> np.ndarray:
    """curl V with centered differences; derivatives along flat axes are 0.

    Only the off-diagonal derivatives d_j V_k (j != k) enter. Each one is
    added to or subtracted from its curl component as soon as it exists, so
    one derivative array is alive at a time.
    """
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
            del d  # freed before the next derivative is built
    return out
