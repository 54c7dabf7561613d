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


def centered_diff(f: np.ndarray, axis: int, spacing: float, twist: complex = 1.0,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Second-order centered derivative along one array axis, in out if given.

    Samples past the end wrap to the start times twist, samples before the
    start wrap to the end times its inverse (the conjugate: twists are unit
    modulus). Twist 1 keeps a real field real.
    """
    if out is None:
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


def curl(vf: np.ndarray, spacing: float, dimension: int, twists, comp: int,
         out: np.ndarray | None = None) -> np.ndarray:
    """Component comp of curl V with centered differences, in out if given.

    (curl V)_i = (0 + d_j V_k) - d_k V_j for (i, j, k) cyclic; a derivative
    along a flat axis is 0. Only d_k V_j is a temporary, so a caller can build
    the curl one component at a time in one buffer.
    """
    axis_of = {direction: arr_ax for arr_ax, direction in axis_directions(dimension)}
    j, k = (comp + 1) % 3, (comp + 2) % 3
    if out is None:
        out = np.empty(vf.shape[:-1], np.result_type(vf, 1.0, *(t for t in twists if t != 1.0)))
    if j in axis_of:
        centered_diff(vf[..., k], axis_of[j], spacing, twists[axis_of[j]], out=out)
        out += 0.0  # 0 + d_j V_k: -0 becomes +0
    else:
        out.fill(0.0)
    if k in axis_of:
        out -= centered_diff(vf[..., j], axis_of[k], spacing, twists[axis_of[k]])
    return out
