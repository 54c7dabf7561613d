"""Helpers that several test modules share."""

from unittest import mock

import numpy as np

from photonlab import fields
from photonlab.modes import ModeAmplitudes


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
