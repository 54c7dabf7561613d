"""Linear media, localized emitter/detector events, and the 1D line scenarios.

Dressed densities use the same bilinear kernel as free space with D = eps E
and H = B/mu folded in, so vacuum parameters reproduce the free-space outputs
bit for bit. Sources are hard-truncated Gaussians (six sigma, renormalized),
which makes the causal support of every 1D solution exact rather than
approximate. The 1D transport solve integrates along characteristics in
closed form; finite differences appear only in the verification residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .current import CurrentField, photon_current
from .fields import FieldSnapshot, SpatialGrid

# Envelope support is cut hard at this many sigmas and the retained mass is
# renormalized to one, so "outside the cone" means exactly zero.
TRUNC_SIGMAS = 6.0
_TRUNC_MASS = math.erf(TRUNC_SIGMAS / math.sqrt(2.0))
_ROOT_2PI = math.sqrt(2.0 * math.pi)

# Cody's rational Chebyshev approximations (W. J. Cody, Math. Comp. 23 (1969)
# 631; the coefficients of SPECFUN's CALERF): erf x R_A(x^2) on |x| <= 0.5,
# erfc on 0.5 < |x| <= 4 by R_C(|x|) and beyond by (1/sqrt(pi) - R_P(1/x^2))/|x|,
# each times exp(-x^2). Numerators list their leading coefficient last. The
# erf form runs to Cody's 0.5, not CALERF's 0.46875: below 0.477 erf < 0.5 <
# erfc, so 1 - erfc there loses a bit and reaches 6 ulp.
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
          2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
          1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
          1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
          6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1


@dataclass(frozen=True)
class MediumSpec:
    """Nondispersive linear medium, natural units (vacuum eps = mu = 1).

    Propagation speed is v = (eps mu)^(-1/2) <= 1 for eps >= 1, mu >= 1.
    """

    epsilon_rel: float = 1.0
    mu_rel: float = 1.0

    def __post_init__(self):
        if not self.epsilon_rel >= 1.0:
            raise ValueError("epsilon must be >= 1 (relative to vacuum)")
        if not self.mu_rel > 0.0:
            raise ValueError("mu must be positive")

    @property
    def v(self) -> float:
        return 1.0 / math.sqrt(self.epsilon_rel * self.mu_rel)


VACUUM = MediumSpec()


def current_in_medium(snap: FieldSnapshot, med: MediumSpec) -> CurrentField:
    """Dressed density and current for fields synthesized at the medium speed.

    rho_pm = eps Im[conj(A+).E+] and J_pm pairs A_perp with H = B/mu and phi
    with D_par = eps E_par, the same kernel as free space.
    """
    if abs(snap.speed - med.v) > 1e-12 * max(snap.speed, med.v):
        raise ValueError("snapshot speed does not match the medium speed")
    return photon_current(snap, eps=med.epsilon_rel, mu=med.mu_rel)


@dataclass(frozen=True)
class SourceEvent:
    """Localized emitter or detector on the 1D line.

    width is the spatial envelope sigma, duration the temporal sigma; both
    envelopes are unit-mass truncated Gaussians. strength is the number of
    photons injected (emitter) or absorbed (detector); detectors enter every
    source term with a negative sign.
    """

    kind: str
    center: float
    width: float
    time: float
    duration: float
    strength: float = 1.0

    def __post_init__(self):
        if self.kind not in ("emitter", "detector"):
            raise ValueError("kind must be 'emitter' or 'detector'")
        if not self.width > 0.0:
            raise ValueError("width must be positive")
        if not self.duration > 0.0:
            raise ValueError("duration must be positive")
        if not self.strength > 0.0:
            raise ValueError("strength must be positive")

    @property
    def sign(self) -> float:
        return 1.0 if self.kind == "emitter" else -1.0


def trunc_gauss(u, sigma: float):
    """Unit-mass Gaussian hard-truncated at TRUNC_SIGMAS; exactly 0 outside."""
    u = np.asarray(u, dtype=float)
    amp = 1.0 / (sigma * _ROOT_2PI * _TRUNC_MASS)
    g = amp * np.exp(-0.5 * (u / sigma) ** 2)
    return np.where(np.abs(u) <= TRUNC_SIGMAS * sigma, g, 0.0)


def _cody_ratio(u, num_c, den_c):
    """Numerator and denominator of a Cody rational in u, by Horner's rule in CALERF's order."""
    num = num_c[-1] * u
    den = u.copy()
    for a, b in zip(num_c[:-2], den_c[:-1]):
        num += a
        num *= u
        den += b
        den *= u
    num += num_c[-2]
    den += den_c[-1]
    return num, den


def _erf_from_scaled_erfc(y, scaled):
    """1 - exp(-y^2) scaled, with exp(-y^2) split at s = trunc(16 y)/16 as in CALERF."""
    s = np.trunc(y * 16.0) / 16.0
    scaled *= np.exp(-s * s) * np.exp(-(y - s) * (y + s))
    return (0.5 - scaled) + 0.5


def _erf(x):
    """erf by Cody's approximations: odd, |erf| <= 1, within 3 ulp of math.erf.

    From |x| = 6 on erfc < 2**-55, so erf rounds to exactly +-1 and is not
    evaluated. NaN stays NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.ones_like(y)
    near = y <= 0.5
    mid = ~near & (y <= 4.0)
    far = ~(y <= 4.0) & ~(y >= 6.0)       # NaN lands here and propagates

    s = y[near]
    num, den = _cody_ratio(s * s, _ERF_A, _ERF_B)
    out[near] = s * num / den

    t = y[mid]
    num, den = _cody_ratio(t, _ERF_C, _ERF_D)
    out[mid] = _erf_from_scaled_erfc(t, num / den)

    t = y[far]
    r = 1.0 / (t * t)
    num, den = _cody_ratio(r, _ERF_P, _ERF_Q)
    out[far] = _erf_from_scaled_erfc(t, (_INV_SQRT_PI - r * num / den) / t)
    return np.copysign(out, x, out=out)


def arrival_time(emit: SourceEvent, z: float, v: float) -> float:
    """Ballistic arrival of the emitted pulse center at position z."""
    return emit.time + (z - emit.center) / v


def validate_events(events) -> None:
    total = sum(e.strength for e in events if e.kind == "emitter")
    if total > 1.0 + 1e-12:
        raise ValueError("emitter strengths exceed one photon")


def _source_profile(ev: SourceEvent, z):
    """Signed spatial factor sign strength s_z(z - z0) of an event's source."""
    return ev.sign * ev.strength * trunc_gauss(z - ev.center, ev.width)


def _source_rate(ev: SourceEvent, t) -> float:
    """Temporal factor s_t(t - t0) of an event's source at one time.

    Scalar on purpose: squaring a 0-d array rounds differently from the array
    path for some arguments, and lifecycle_1d's residual is pinned to this form.
    """
    return float(trunc_gauss(t - ev.time, ev.duration))


def _advected_pulse(xi, tau_max, v: float, sigma_t: float, sigma_z: float):
    """Closed form of the characteristics integral.

    Evaluates integral over tau of s_t(tau) s_z(xi + v tau) for tau in
    [-6 sigma_t, min(tau_max, 6 sigma_t)], both envelopes unit-mass truncated
    Gaussians. Completing the square leaves a Gaussian in xi times an erf
    difference over the support intersection; it is evaluated only where that
    intersection is nonempty, and the other cells are exact zeros.
    """
    xi = np.asarray(xi, dtype=float)
    tau_max = np.asarray(tau_max, dtype=float)
    edge_t = TRUNC_SIGMAS * sigma_t
    edge_z = TRUNC_SIGMAS * sigma_z
    lo = np.maximum(-edge_t, (-edge_z - xi) / v)
    hi = np.minimum(np.minimum(tau_max, edge_t), (edge_z - xi) / v)
    live = hi > lo
    out = np.zeros(live.shape)
    xi, lo, hi = (np.broadcast_to(a, live.shape)[live] for a in (xi, lo, hi))

    sc2 = sigma_z ** 2 + (v * sigma_t) ** 2
    lam = 0.5 / sigma_t ** 2 + 0.5 * v ** 2 / sigma_z ** 2
    mu = -v * xi * sigma_t ** 2 / sc2
    amp_t = 1.0 / (sigma_t * _ROOT_2PI * _TRUNC_MASS)
    amp_z = 1.0 / (sigma_z * _ROOT_2PI * _TRUNC_MASS)
    root_lam = math.sqrt(lam)
    prefac = amp_t * amp_z * 0.5 * math.sqrt(math.pi / lam)
    out[live] = prefac * np.exp(-0.5 * xi * xi / sc2) * (
        _erf(root_lam * (hi - mu)) - _erf(root_lam * (lo - mu))
    )
    return out


# Cells per row chunk of a pulse window: each of _erf's temporaries stays
# near 256 KB however many rows the window has.
_PULSE_CELLS = 1 << 15


def _pulse_chunks(ev: SourceEvent, v: float, grid1d: SpatialGrid, times):
    """Yield (rows, window cells, sign * strength * pulse) of one event, chunk by chunk.

    Row i of the pulse is exactly zero unless
    |z - center - v (t_i - t0)| < 6 sigma_z + 6 v sigma_t, so it is evaluated
    on a window of cells that follows the characteristic, clipped to the line.
    Two cells and a rounding allowance of padding keep every nonzero cell in it.
    Each chunk holds the windows of about _PULSE_CELLS cells of rows.
    """
    n_z = grid1d.n_points
    z = grid1d.axis_positions()
    dz = grid1d.spacing
    tau = times - ev.time
    half = TRUNC_SIGMAS * (ev.width + v * ev.duration)
    scale_z = np.abs(z[[0, -1]]).max() + abs(ev.center) + v * np.abs(tau).max(initial=0.0) + half
    reach = half + 2.0 * dz + 64.0 * np.finfo(float).eps * scale_z
    width = min(n_z, int(math.ceil(2.0 * reach / dz)) + 2)
    first = np.floor((ev.center + v * tau - reach - z[0]) / dz)
    start = np.clip(first, 0, n_z - width).astype(np.intp)
    rows_per_chunk = max(1, _PULSE_CELLS // width)
    for r0 in range(0, times.size, rows_per_chunk):
        rows = slice(r0, min(r0 + rows_per_chunk, times.size))
        cells = start[rows, None] + np.arange(width)
        xi = z[cells] - ev.center - v * (times[rows, None] - ev.time)
        pulse = _advected_pulse(xi, tau[rows, None], v, ev.duration, ev.width)
        yield rows, cells, ev.sign * ev.strength * pulse


# Rows per block of the density: about 2 MB of float64 per temporary.
_BLOCK_CELLS = 1 << 18


def _density_blocks(events, v: float, grid1d: SpatialGrid, times):
    """Yield (r0, block, c0, c1) per block of rows r0 .. r0 + len(block) - 3 of rho.

    rho superposes the pulse of each event in order. block holds its rows
    between two halo rows, the rows before and after them clamped to the run,
    so the first and last rows stand in for their missing neighbour. Every
    cell of block outside the columns [c0, c1) is zero. The pulses are
    evaluated lazily in their chunks (_pulse_chunks), and no row twice: the
    last two rows of a block are carried over as the first two of the next.
    block is one buffer, overwritten by the next block.
    """
    n_t, n_z = times.size, grid1d.n_points
    # per row, the columns [col_lo, col_hi) hold every cell any pulse touches
    col_lo, col_hi = np.full(n_t, n_z, dtype=np.intp), np.zeros(n_t, dtype=np.intp)
    feeds = [[_pulse_chunks(ev, v, grid1d, times), None] for ev in events]

    def add_rows(dest, a, b):
        # dest[i - a] += row i of every pulse, for rows a <= i < b
        for feed in feeds:
            i = a
            while i < b:
                if feed[1] is None or feed[1][0].stop <= i:
                    feed[1] = next(feed[0])
                rows, cells, pulse = feed[1]
                end = min(b, rows.stop)
                take = slice(i - rows.start, end - rows.start)
                offsets = np.arange(i - a, end - a) * n_z
                dest.reshape(-1)[cells[take] + offsets[:, None]] += pulse[take]
                np.minimum(col_lo[i:end], cells[take, 0], out=col_lo[i:end])
                np.maximum(col_hi[i:end], cells[take, -1] + 1, out=col_hi[i:end])
                i = end

    rows_per_block = max(1, _BLOCK_CELLS // n_z)
    buf = np.empty((min(rows_per_block, n_t) + 2, n_z))
    for r0 in range(0, n_t, rows_per_block):
        r1 = min(r0 + rows_per_block, n_t)
        if r0:
            buf[:2] = buf[-2:]  # rows r0 - 1 and r0, the last block's halo
        block = buf[:r1 - r0 + 2]
        first = r0 + 1 if r0 else 0  # the first row not yet evaluated
        fresh = block[first - r0 + 1:]
        fresh.fill(0.0)
        add_rows(fresh, first, min(r1 + 1, n_t))
        if not r0:
            block[0] = block[1]
        if r1 == n_t:
            block[-1] = block[-2]
        halo = slice(max(r0 - 1, 0), min(r1 + 1, n_t))
        yield r0, block, col_lo[halo].min(), col_hi[halo].max()


@dataclass(frozen=True)
class LifecycleReport:
    """Emission / transit / detection summary on the 1D line, one value per time.

    outside_peak is the largest |rho| outside the emitter's light cone padded
    by its envelope support (-inf in a row with no cell there), and
    outside_cell the first cell that holds it (0 where it is not positive).
    """

    times: np.ndarray
    norm: np.ndarray
    residual_max: np.ndarray
    peak_z: np.ndarray
    outside_peak: np.ndarray
    outside_cell: np.ndarray
    acausal: bool

    @property
    def final_norm(self) -> float:
        return float(self.norm[-1])


def lifecycle_1d(emit: SourceEvent, detect: SourceEvent | None, med: MediumSpec,
                 grid1d: SpatialGrid, times) -> LifecycleReport:
    """Solve the sourced 1D continuity equation for an emitter and optional sink.

    rho(z, t) superposes the closed-form advected pulse of each event with its
    sign; the detector is flagged acausal when it fires more than three of its
    temporal sigmas before the ballistic arrival time. An acausal detector
    absorbs nothing (there is no photon at its location yet), so it is excluded
    from the superposition and the norm stays at the emitted value.
    residual_max holds the finite-difference residual of
    d rho/dt + d(v rho)/dz - source per time (centered in the interior,
    one-sided at the ends).

    rho is never held whole: it is built in blocks of rows (_density_blocks),
    each pulse only on a window of about 12 (sigma_z + v sigma_t) cells per row
    that follows its characteristic, and each block is reduced to the per-row
    outputs and dropped. This is the one entry into the solve: a caller that
    needs only residual_max (verify's refined line) reads it from the report.
    """
    if grid1d.dimension != 1:
        raise ValueError("the lifecycle scenario is one-dimensional")
    if emit.kind != "emitter":
        raise ValueError("first event must be an emitter")
    if detect is not None and detect.kind != "detector":
        raise ValueError("second event must be a detector")
    validate_events([emit] + ([detect] if detect is not None else []))

    times = np.asarray(times, dtype=float)
    v = med.v
    acausal = False
    if detect is not None:
        acausal = bool(detect.time < arrival_time(emit, detect.center, v) - 3.0 * detect.duration)
    events = [emit] + ([detect] if detect is not None and not acausal else [])
    z = grid1d.axis_positions()
    terms = _source_terms(events, z, times)
    n_t = times.size
    norm_t, residual_max, outside_peak = np.zeros(n_t), np.zeros(n_t), np.zeros(n_t)
    peak_cell, outside_cell = np.zeros(n_t, np.intp), np.zeros(n_t, np.intp)
    # the emitter's light cone, padded by the envelope support
    dist = np.abs(z - emit.center)
    reach = v * np.maximum(times - emit.time, 0.0) + \
        TRUNC_SIGMAS * (emit.width + v * emit.duration)
    for r0, block, c0, c1 in _density_blocks(events, v, grid1d, times):
        rows = block[1:-1]
        r1 = r0 + len(rows)
        norm_t[r0:r1] = rows.sum(axis=1)
        peak_cell[r0:r1] = np.argmax(rows, axis=1)
        if n_t > 2:
            residual_max[r0:r1] = _residual_rows(block, r0, c0, c1, terms, times, v,
                                                 grid1d.spacing)
        # whole rows, not the block's columns: the check must not trust the windows
        outside = dist > reach[r0:r1, None]
        # max |rho| = max(top, -bottom); 0 - bottom keeps a zero positive
        peak = np.maximum(rows.max(axis=1, where=outside, initial=-np.inf),
                          0.0 - rows.min(axis=1, where=outside, initial=np.inf))
        outside_peak[r0:r1] = peak
        if peak.max() > 0.0:
            outside_cell[r0:r1] = np.argmax(np.where(outside, np.abs(rows), 0.0), axis=1)
    norm_t *= grid1d.spacing

    return LifecycleReport(
        times=times,
        norm=norm_t,
        residual_max=residual_max,
        peak_z=z[peak_cell],
        outside_peak=outside_peak,
        outside_cell=outside_cell,
        acausal=acausal,
    )


def _source_terms(events, z, times):
    """(columns, spatial profile there, rate per time) of each event with a nonzero profile."""
    terms = []
    for ev in events:
        profile = _source_profile(ev, z)
        nonzero = np.flatnonzero(profile)
        if nonzero.size == 0:
            continue
        rate = np.zeros(times.size)
        for i in np.flatnonzero(np.abs(times - ev.time) <= TRUNC_SIGMAS * ev.duration):
            rate[i] = _source_rate(ev, times[i])
        cols = slice(nonzero[0], nonzero[-1] + 1)
        terms.append((cols, profile[cols], rate))
    return terms


def _residual_rows(block, r0: int, c0: int, c1: int, terms, times, v: float, dz: float):
    """max over z of |d rho/dt + v d rho/dz - source| for the rows of one block.

    Centred differences in z (periodic) and in t, one-sided in t on the first
    and last rows, whose clamped halo rows make the difference one step. rho is
    zero outside the block's columns [c0, c1) (_density_blocks) and the
    source outside its columns (_source_terms) and rows, so the block reduces over
    that span widened by one cell and the columns of the sources live in it;
    the residual outside is exactly zero. A span that reaches an end of the
    line takes the whole periodic row.
    """
    n_t, n_z = times.size, block.shape[1]
    dt = times[1] - times[0]
    rows = np.arange(r0, r0 + len(block) - 2)
    live = [(cols, profile, rate) for cols, profile, rate in terms if rate[rows].any()]
    c0 = min([c0 - 1] + [cols.start for cols, _, _ in live])
    c1 = max([c1 + 1] + [cols.stop for cols, _, _ in live])
    mid = block[1:-1]
    if c0 >= 1 and c1 <= n_z - 1:
        dzrho = mid[:, c0 + 1:c1 + 1] - mid[:, c0 - 1:c1 - 1]
    else:
        c0, c1 = 0, n_z
        dzrho = np.roll(mid, -1, axis=1) - np.roll(mid, 1, axis=1)
    ends = (rows == 0) | (rows == n_t - 1)
    res = block[2:, c0:c1] - block[:-2, c0:c1]
    res /= np.where(ends, dt, 2.0 * dt)[:, None]
    dzrho /= 2.0 * dz
    dzrho *= v
    res += dzrho
    source = np.zeros_like(res)
    for cols, profile, rate in live:
        source[:, cols.start - c0:cols.stop - c0] += profile * rate[rows, None]
    res -= source
    np.abs(res, out=res)
    return res.max(axis=1, initial=0.0)
