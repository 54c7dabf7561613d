"""Helpers that several test modules share."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np

from photonlab import fields
from photonlab.current import continuity_residual
from photonlab.modes import KGrid, ModeAmplitudes, lambda_row


def same_bits(a, b):
    """Equal dtype, shape and bytes: signed zeros count."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def slab_widths(n_x):
    """Every width the slab plan picks for some point budget."""
    widths = set()
    for planes in range(4, n_x + 1):
        with mock.patch.object(fields, "_SLAB_POINTS", planes * n_x * n_x):
            widths.add(fields._slab_width(n_x))
    return sorted(widths)


def zero_state(grid):
    return ModeAmplitudes(grid, np.zeros((3, grid.n_points), dtype=np.complex128))


def single_cell_state(kz=2.0, pol=1, dk=0.5, dimension=1):
    """Norm-one state occupying exactly one lattice cell at (0, 0, kz)."""
    grid = KGrid(n_per_axis=1, spacing=dk, dimension=dimension, center=(0.0, 0.0, kz))
    amps = np.zeros((3, 1), dtype=np.complex128)
    amps[lambda_row(pol), 0] = math.sqrt((2.0 * math.pi) ** dimension * 2.0 * abs(kz)
                                         / dk ** dimension)
    return ModeAmplitudes(grid, amps)


def three_current_residual(prev, now, nxt):
    """The continuity residual at now from the currents at t - dt, t and t + dt."""
    return continuity_residual(now, nxt.rho - prev.rho,
                               (now.time - prev.time) + (nxt.time - now.time))


def owned_copies(now, step):
    """maxwell_residual's sample: fresh copies of the groups asked for, the law's to overwrite."""
    by_key = {"now": now, "step": step}

    def sample(key, groups, planes):
        s = by_key[key]
        return replace(s, rows={g: s.rows[g].copy() for g in groups})
    return sample
