import cmath

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonlab.fdops import Lag, axis_directions, curl, divergence

from helpers import same_bits


# ---------------------------------------------------------------------------
# oracle: the np.roll stencils the slice stencils replaced

def wrap_shift(f, axis, step, twist=1.0):
    """Sample f at index j + step along axis with quasi-periodic wrap."""
    g = np.roll(f, -step, axis=axis)
    if twist == 1.0:
        return g
    g = np.asarray(g, dtype=np.complex128)
    sl = [slice(None)] * g.ndim
    if step == 1:
        sl[axis] = slice(-1, None)
        g[tuple(sl)] = g[tuple(sl)] * twist
    else:
        sl[axis] = slice(0, 1)
        g[tuple(sl)] = g[tuple(sl)] * np.conj(twist)
    return g


def roll_centered_diff(f, axis, spacing, twist=1.0):
    return (wrap_shift(f, axis, 1, twist) - wrap_shift(f, axis, -1, twist)) / (2.0 * spacing)


def roll_divergence(vf, spacing, dimension, twists):
    out = None
    for arr_ax, direction in axis_directions(dimension):
        term = roll_centered_diff(vf[..., direction], arr_ax, spacing, twists[arr_ax])
        out = term if out is None else out + term
    return out


def roll_curl(vf, spacing, dimension, twists):
    d = {}
    for arr_ax, direction in axis_directions(dimension):
        for comp in range(3):
            d[(direction, comp)] = roll_centered_diff(vf[..., comp], arr_ax, spacing,
                                                      twists[arr_ax])

    def dd(direction, comp):
        return d.get((direction, comp), 0.0)

    cx = dd(1, 2) - dd(2, 1)
    cy = dd(2, 0) - dd(0, 2)
    cz = dd(0, 1) - dd(1, 0)
    zeros = np.zeros(vf.shape[:-1], dtype=vf.dtype)
    return np.stack([cx + zeros, cy + zeros, cz + zeros], axis=-1)


# ---------------------------------------------------------------------------

@st.composite
def stencil_cases(draw):
    dim = draw(st.sampled_from((1, 3)))
    n = draw(st.integers(2, 64 if dim == 1 else 9))
    complex_field = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (n,) * dim + (3,)
    vf = rng.normal(size=shape)
    if complex_field:
        # random unit twists, as on a Fourier-dual box of an offset k-lattice
        vf = vf + 1j * rng.normal(size=shape)
        twists = tuple(cmath.exp(1j * rng.uniform(-np.pi, np.pi)) for _ in range(dim))
    else:
        # twist 1 on a real field: the continuity_residual path
        twists = (1.0,) * dim
    if draw(st.booleans()):
        vf[rng.random(shape) < 0.2] = 0.0  # exact (signed) zeros at the seams too
        vf[rng.random(shape) < 0.1] *= -0.0
    if draw(st.booleans()):
        # component-major layout, as synthesize returns its field groups
        vf = np.moveaxis(np.ascontiguousarray(np.moveaxis(vf, -1, 0)), 0, -1)
    spacing = draw(st.floats(0.01, 3.0))
    return vf, spacing, dim, twists


@settings(max_examples=300, deadline=None)
@given(stencil_cases())
@example((np.arange(6.0).reshape(2, 3) * (1 + 0.5j), 0.3, 1, (cmath.exp(0.7j),)))
@example((np.arange(9.0).reshape(3, 3) - 4.0, 0.3, 1, (1.0,)))
@example((np.arange(24.0).reshape(2, 2, 2, 3) * (1 - 2j), 0.5, 3,
          (cmath.exp(0.4j), cmath.exp(-2.0j), cmath.exp(3.0j))))
@example((np.arange(81.0).reshape(3, 3, 3, 3) - 40.0, 0.5, 3, (1.0, 1.0, 1.0)))
def test_slice_stencils_match_roll_oracle(case):
    # n = 2: both neighbours of every cell are seam cells; n = 3: one interior plane
    vf, spacing, dim, twists = case
    assert same_bits(divergence(vf, spacing, dim, twists),
                     roll_divergence(vf, spacing, dim, twists))
    # the components one at a time, each written over the one before in one buffer
    buf, comps = None, []
    for comp in range(3):
        buf = curl(vf, spacing, dim, twists, comp, buf)
        comps.append(buf.copy())
    assert same_bits(np.stack(comps, axis=-1), roll_curl(vf, spacing, dim, twists))



@st.composite
def slab_walks(draw):
    """A stencil case cut into x-slabs of at least 2 planes."""
    vf, spacing, dim, twists = draw(stencil_cases())
    n = len(vf)
    bounds = [0]
    while n - bounds[-1] >= 4 and draw(st.booleans()):
        bounds.append(bounds[-1] + draw(st.integers(2, n - bounds[-1] - 2)))
    bounds.append(n)
    return vf, spacing, dim, twists, bounds


@settings(max_examples=300, deadline=None)
@given(slab_walks())
@example((np.arange(24.0).reshape(2, 2, 2, 3) * (1 - 2j), 0.5, 3,
          (cmath.exp(0.4j), cmath.exp(-2.0j), cmath.exp(3.0j)), [0, 2]))
def test_lagged_slab_stencils_match_the_whole_box(case):
    # every plane once, in plane order, from pieces whose x-neighbours the Lag
    # carried between slabs walked from plane 0, given plane n_x - 1 before
    # the walk: bitwise the whole box
    vf, spacing, dim, twists, bounds = case
    lag, pieces = Lag(len(vf), [vf[-1:]], twists[0]), []
    for step in [lag.step(a, [vf[a:b]]) for a, b in zip(bounds, bounds[1:])] + [lag.close()]:
        for p, (g,), ends in step:
            curls = [curl(g, spacing, dim, twists, comp, ends=ends[0]) for comp in range(3)]
            pieces.append((p, divergence(g, spacing, dim, twists, ends[0]),
                           np.stack(curls, axis=-1)))
    firsts = [p for p, _, _ in pieces]
    assert firsts == [0] + list(np.cumsum([len(d) for _, d, _ in pieces])[:-1])
    got = [np.concatenate([piece[i] for piece in pieces]) for i in (1, 2)]
    assert same_bits(got[0], divergence(vf, spacing, dim, twists))
    assert same_bits(got[1], roll_curl(vf, spacing, dim, twists))
