"""Centered finite-difference stencils on periodic and quasi-periodic grids.

Complex positive-frequency fields synthesized from an offset k-lattice are
periodic over the dual box only up to a constant per-axis phase twist
f(x + L) = theta * f(x); stencils here take that twist at the wrap seam.
Real bilinear fields (densities, currents) use twist 1.

Each derivative is written through slices into one preallocated array: the
interior planes difference their neighbours directly, and only the two end
planes read past the ends: across the wrap with the twist (or its
conjugate), or, in an x-slab of a box, the adjacent slabs' planes that Lag
carries between slabs.
"""

from __future__ import annotations

import numpy as np


def centered_diff(f: np.ndarray, axis: int, spacing: float, twist: complex = 1.0,
                  out: np.ndarray | None = None, ends=None) -> np.ndarray:
    """Second-order centered derivative along one array axis, in out if given.

    Samples past the end wrap to the start times twist, samples before the
    start wrap to the end times its inverse (the conjugate: twists are unit
    modulus). Twist 1 keeps a real field real. ends, the (before, after)
    planes next to f's ends along axis (twisted already), replace the wrap.
    """
    if out is None:
        out = np.empty_like(f, dtype=np.result_type(f, 1.0) if twist == 1.0 else np.complex128)
    f, o = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    if ends is not None:
        before, after = (np.moveaxis(e, axis, 0) for e in ends)
    elif twist == 1.0:
        before, after = f[-1:], f[:1]
    else:
        before, after = f[-1:] * np.conj(twist), f[:1] * twist
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    # the two end planes, kept as length-1 slices so 1D planes stay arrays
    np.subtract(after, f[-2:-1] if len(f) > 1 else before, out=o[-1:])
    np.subtract(f[1:2] if len(f) > 1 else after, before, out=o[:1])
    out /= 2.0 * spacing
    return out


def axis_directions(dimension: int):
    """(array axis, spatial direction) pairs; a 1D grid varies along z."""
    if dimension == 1:
        return ((0, 2),)
    return ((0, 0), (1, 1), (2, 2))


def _ends_of(ends, arr_ax: int, comp: int):
    """Component comp of a vector field's (before, after) planes; only array axis 0 has them."""
    return None if ends is None or arr_ax else tuple(e[..., comp] for e in ends)


def divergence(vf: np.ndarray, spacing: float, dimension: int, twists,
               ends=None) -> np.ndarray:
    """div V with centered differences; vf has a trailing component axis of 3, ends as Lag's."""
    (first_ax, first_dir), *rest = axis_directions(dimension)
    out = centered_diff(vf[..., first_dir], first_ax, spacing, twists[first_ax],
                        ends=_ends_of(ends, first_ax, first_dir))
    for arr_ax, direction in rest:
        out += centered_diff(vf[..., direction], arr_ax, spacing, twists[arr_ax])
    return out


def curl(vf: np.ndarray, spacing: float, dimension: int, twists, comp: int,
         out: np.ndarray | None = None, ends=None) -> np.ndarray:
    """Component comp of curl V with centered differences, in out if given.

    (curl V)_i = (0 + d_j V_k) - d_k V_j for (i, j, k) cyclic; a derivative
    along a flat axis is 0. Only d_k V_j is a temporary, so a caller can build
    the curl one component at a time in one buffer. ends as Lag's.
    """
    axis_of = {direction: arr_ax for arr_ax, direction in axis_directions(dimension)}
    j, k = (comp + 1) % 3, (comp + 2) % 3
    if out is None:
        out = np.empty(vf.shape[:-1], np.result_type(vf, 1.0, *(t for t in twists if t != 1.0)))
    if j in axis_of:
        centered_diff(vf[..., k], axis_of[j], spacing, twists[axis_of[j]], out,
                      _ends_of(ends, axis_of[j], k))
        out += 0.0  # 0 + d_j V_k: -0 becomes +0
    else:
        out.fill(0.0)
    if k in axis_of:
        out -= centered_diff(vf[..., j], axis_of[k], spacing, twists[axis_of[k]],
                             ends=_ends_of(ends, axis_of[k], j))
    return out


class Lag:
    """x-neighbour planes carried between the x-slabs of a periodic box, one plane behind.

    Slabs of 2 planes or more come in plane order from plane 0, as arrays
    (planes on axis 0): the fields differentiated along x, then `local` ones.
    before holds the differentiated fields' planes before plane 0, plane
    n_x - 1 untwisted; a box of one slab does not read it. step(p0, fields)
    yields the pieces a slab completes: the previous slab's last plane, then
    its own planes but the last, so the pieces come in plane order; close()
    yields the last slab's last plane. A piece is (first plane, fields, ends),
    ends the differentiated fields' (before, after) planes, twisted across
    plane 0 as the wrap reads them; a whole-box slab is one piece with ends
    None. Only plane 0 and each slab's last planes are copied.
    """

    def __init__(self, n_x: int, before, twist: complex = 1.0, local: int = 0):
        self.n_x, self.before, self.twist, self.local = n_x, before, twist, local
        self.head = self.tail = None  # copies of plane 0; (first plane, copies of a slab's last)

    def _piece(self, p, fields, before, after):
        k = len(fields) - self.local
        before, after = before[:k], after[:k]
        if self.twist != 1.0 and p == 0:
            before = [b * np.conj(self.twist) for b in before]
        if self.twist != 1.0 and p + len(fields[0]) == self.n_x:
            after = [a * self.twist for a in after]
        return p, fields, list(zip(before, after))

    def _tail_piece(self, after):
        q, tail = self.tail
        return self._piece(q, [t[-1:] for t in tail], [t[:1] for t in tail], after)

    def step(self, p0: int, fields):
        n, k = len(fields[0]), len(fields) - self.local
        if n == self.n_x:
            yield p0, fields, [None] * k
            return
        if self.tail is None:
            self.head, before = [f[:1].copy() for f in fields[:k]], self.before
        else:
            yield self._tail_piece([f[:1] for f in fields])
            before = [t[-1:] for t in self.tail[1]]
        yield self._piece(p0, [f[:n - 1] for f in fields], before, [f[n - 1:] for f in fields])
        self.tail = p0 + n - 1, [f[n - (2 if i < k else 1):].copy() for i, f in enumerate(fields)]

    def close(self):
        if self.tail is not None:
            yield self._tail_piece(self.head)
