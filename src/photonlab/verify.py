"""The batch verification suite behind `photonlab verify`.

Nine check blocks probe the conservation laws end to end: box norms,
continuity-residual convergence, helicity alignment, gauge and boost
invariance, Maxwell residual convergence, medium consistency, the 1D
emitter/detector lifecycle, and the ladder-operator identities. Each law
is one function here that `photonlab run` calls too, on the scenario's own
packet; the blocks study the packets and the medium of the default scenarios
at their own sizes (the lifecycle block solves the default [lifecycle1d] run),
and tolerances come from the config.
"""

from __future__ import annotations

import math
import os
import pickle
import time as _time
from dataclasses import dataclass, replace

import numpy as np

from .config import PacketParams, ScenarioConfig, parse_config
from .csvio import write_report_files
from .current import (CurrentField, continuity_residual, number_density, photon_current,
                      position_norm)
from .fdops import Lag
from .fields import (SpatialGrid, dual_grid, maxwell_residual, mode_coefficients, slab_plan,
                     slabs, synthesize)
from .fock import basis_state, commutator_expectation, ladder_pair, n_photon_state
from .medium import (TRUNC_SIGMAS, VACUUM, SourceEvent, arrival_time, current_in_medium,
                     lifecycle_1d, residual_max)
from .modes import KGrid, boost_amplitudes, gauge_shift, gaussian_packet, lambda_row, norm
from .units import unit_system


@dataclass(frozen=True)
class CheckResult:
    """One verification check; sense 'ge' marks convergence-order lower bounds."""
    name: str
    measured: float
    tolerance: float
    passed: bool
    order: float | None = None
    sense: str = "le"


def check_le(name, measured, tolerance, order=None) -> CheckResult:
    return CheckResult(name=name, measured=float(measured), tolerance=float(tolerance),
                       passed=bool(measured <= tolerance), order=order, sense="le")


def check_ge(name, measured, tolerance) -> CheckResult:
    return CheckResult(name=name, measured=float(measured), tolerance=float(tolerance),
                       passed=bool(measured >= tolerance), order=float(measured), sense="ge")


@dataclass(frozen=True)
class Outcome:
    """Checks, info lines and timings of a verify or run call; files a run wrote."""
    checks: tuple
    info: tuple
    timings: dict
    files: tuple = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _grid_point(i, grid) -> str:
    x = grid.axis_positions()[list(np.unravel_index(i, grid.field_shape()))]
    return f"index {i} at ({', '.join(f'{v:.6g}' for v in x)})"


def _worst_point(res, grid) -> str:
    """Flat grid index and position of the largest |res| entry."""
    return _grid_point(int(np.argmax(np.abs(res).reshape(grid.n_points, -1).max(axis=1))), grid)


def _order(coarse, fine) -> float:
    """Convergence order of a residual that shrinks from coarse to fine on halving; NaN
    unless both are finite, so a NaN or inf residual fails its check."""
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return float("nan")
    return math.log2(coarse / fine) if fine > 0 else float("inf")


def _located_failure(check, maxima, deviation, currents) -> list:
    """One info line naming the worst point of a failed check.

    maxima holds the largest deviation at each checkpoint; the deviation field
    deviation(i) is rebuilt only for the worst checkpoint i and only on
    failure, so a passing report is unchanged.
    """
    if check.passed:
        return []
    i = int(np.argmax(maxima))
    cf = currents[i]
    return [f"{check.name} worst point at t = {cf.time:g}: "
            f"{_worst_point(deviation(i), cf.grid)}"]


def beside(main, side):
    """Run main() here and side() in a forked child lane at once; return
    (main(), side()).

    The child pickles (ok, value) into a pipe and always leaves through
    os._exit, so it runs no atexit handler and none of its caller's clean-up;
    an exception that will not pickle comes back as RuntimeError(repr(exc)).
    The parent reads the pipe to its end, so a large result cannot stall
    either side, and then reaps the child, on every path. main's error goes
    first, then side's, then a RuntimeError naming the wait status of a child
    that ended without a result. Without os.fork, or if the fork fails, this
    is the serial main(), side().
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork here, or the fork failed
        os.close(r)
        os.close(w)
        return main(), side()
    if pid == 0:  # the child lane; it never returns
        try:
            os.close(r)
            try:
                sent = (True, side())
            except BaseException as exc:  # raised again by the parent
                sent = (False, exc)
            try:
                data = pickle.dumps(sent)
            except Exception:
                data = pickle.dumps((False, RuntimeError(repr(sent[1]))))
            with open(w, "wb") as pipe:
                pipe.write(data)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    try:
        here = main()
    finally:
        try:
            with open(r, "rb") as pipe:
                data = pipe.read()
        finally:
            status = os.waitpid(pid, 0)[1]
    if status != 0 or not data:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit code {code}" if code >= 0 else f"signal {-code}"
        raise RuntimeError(f"child lane {pid} ended without a result "
                           f"(wait status {status:#x}: {how})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return here, value


def packet_state(packet: PacketParams, speed: float = 1.0):
    """The packet's Gaussian mode amplitudes on its k-grid."""
    grid = KGrid(n_per_axis=packet.n_k, spacing=packet.dk,
                 dimension=packet.dimension, center=packet.k0)
    return gaussian_packet(grid, packet.k0, packet.sigma, packet.pol, speed=speed)


def field_scan(m, grid, times, med=VACUUM):
    """Yield current.csv records (first plane, current, |residual|), in plane order per time.

    The current is current_in_medium of the snapshot at t; at t -+ dt, dt half
    a grid cell, only the density is built, scaled by med.epsilon_rel, since
    the continuity residual reads nothing else there. Each time walks the
    slabs of slab_plan in plane order, and J's x-neighbours come from the
    adjacent slabs (fdops.Lag, twist 1): a slab completes the previous slab's
    last plane and its own planes but the last, and each such piece is
    yielded at once. J on plane n_x - 1, which plane 0 reads, is summed
    first, on the last slab's last group of 4 planes, so no record waits for
    the end of the walk. A record's rho is its own copy, so a caller that
    keeps the densities keeps only their planes.
    """
    dt, plan = grid.spacing / 2.0, slab_plan(grid)

    def records(t, steps, pieces):
        for p, (j, prev, rho, nxt, s), (ends,) in pieces:
            at = [CurrentField(grid, u, r, jj) for u, r, jj in zip(steps, (prev, rho, nxt),
                                                                   (None, j, None))]
            res = np.abs(continuity_residual(*at, ends=ends))
            yield p, CurrentField(grid, t, rho.copy(), j, s), res

    for t in times:
        steps = [t + k * dt for k in (-1, 0, 1)]
        coeffs = [mode_coefficients(m, s) for s in steps]

        def density(k, planes):
            snap = synthesize(m, grid, steps[k], groups=("a", "e"), planes=planes,
                              coeffs=coeffs[k])
            return number_density(snap, med.epsilon_rel)

        def current(planes):
            return current_in_medium(synthesize(m, grid, t, planes=planes, coeffs=coeffs[1]), med)

        # J on plane n_x - 1 from the last slab's last group of 4 planes (with
        # any planes over), which sums as the slab does
        last = plan[-1][1]
        before = None if len(plan) == 1 else \
            [current(last[(len(last) - 2) // 4 * 4:]).j[-1:].copy()]
        lag = Lag(grid.n_per_axis, local=4, before=before)
        for p0, planes in plan:
            prev, nxt = density(0, planes), density(2, planes)
            cf = current(planes)
            yield from records(t, steps, lag.step(p0, [cf.j, prev, cf.rho, nxt, cf.s_hel]))
            del prev, cf, nxt  # freed before the next slab is summed
        yield from records(t, steps, lag.close())


# ---------------------------------------------------------------------------
# one function per law; verify and run call them at different sizes

def norm_check(norms, times, target, tol):
    """norm_unity: the box norm of rho stays at the mode norm `target` at every time."""
    dev = np.max(np.abs(np.subtract(norms, target)))
    info = [f"position norm at t = {t:.6g}: {n:.17g}" for t, n in zip(times, norms)]
    return [check_le("norm_unity", dev, tol["norm_unity"])], info


def helicity_check(currents, pol, tol):
    """S = lambda rho e_k at every point of every current (helicity_pointwise).

    A longitudinal packet (pol "par") must carry no helicity at all
    (helicity_longitudinal).
    """
    if pol == "par":
        dev = np.max([np.abs(cf.s_hel).max() for cf in currents])
        return [check_le("helicity_longitudinal", dev, tol["helicity_longitudinal"])], []
    e_k = np.array([0.0, 0.0, 1.0])

    def deviation(i):
        return currents[i].s_hel - pol * currents[i].rho[:, None] * e_k

    maxima = [np.abs(deviation(i)).max() for i in range(len(currents))]
    check = check_le("helicity_pointwise", np.max(maxima), tol["helicity_pointwise"])
    return [check], _located_failure(check, maxima, deviation, currents)


def gauge_checks(packet, strength, t, tol, omega_scale: float = 1.0):
    """E, B and the box norm at time t are unchanged by a longitudinal gauge shift.

    The shift is `strength` times the packet's Gaussian profile; the
    transverse amplitudes must stay bit for bit. Returns the checks, the info
    lines and the shifted modes.
    """
    m = packet_state(packet)
    gfun = strength * gaussian_packet(m.grid, packet.k0, packet.sigma,
                                      "par").amps[lambda_row("par")]
    shifted = gauge_shift(m, gfun)

    # both boxes in step, slab by slab; each norm sums its whole rho (slab sums round apart)
    sg = dual_grid(m.grid, packet.n_x)
    rho, dev, after = [], [], slabs(shifted, sg, t, omega_scale)
    for _, s1 in slabs(m, sg, t, omega_scale):
        _, s2 = next(after)
        rho.append((number_density(s1), number_density(s2)))
        dev.append([np.abs(getattr(s1, f) - getattr(s2, f)).max()
                    for f in ("e_plus", "b_plus", "phi_plus")])
        del s1, s2  # freed before the next slab is summed
    dev = np.max(dev, axis=0)  # max |dE|, |dB|, |dphi|; np.max keeps a NaN of any slab
    n1, n2 = (position_norm(np.concatenate(r), sg) for r in zip(*rho))
    trans = [lambda_row(1), lambda_row(-1)]
    bits = 0.0 if np.array_equal(m.amps[trans], shifted.amps[trans]) else \
        np.abs(m.amps[trans] - shifted.amps[trans]).max()

    checks = [check_le("gauge_field", np.max(dev[:2]), tol["gauge_field"]),
              check_le("gauge_norm", abs(n1 - n2), tol["gauge_norm"]),
              check_le("gauge_transverse_amps", bits, 0.0)]
    info = [f"gauge shift moved max |phi| by {dev[2]:.6g}",
            f"position norm before/after = {n1:.17g} / {n2:.17g}"]
    return checks, info, shifted


def boost_checks(packet, beta, tol):
    """A z-boost keeps the norm, and its error shrinks on a grid twice as wide.

    Returns the checks, the info lines and the boosted modes.
    """
    m = packet_state(packet)
    boosted = boost_amplitudes(m, beta)
    err_base = abs(norm(boosted) - 1.0)
    wide = KGrid(n_per_axis=2 * packet.n_k, spacing=packet.dk,
                 dimension=packet.dimension, center=packet.k0)
    err_fine = abs(norm(boost_amplitudes(m, beta, dest_grid=wide)) - 1.0)
    # a NaN error on either grid keeps a NaN ratio, which fails boost_monotone
    ratio = err_fine / err_base if err_base != 0 else 0.0 * err_fine
    checks = [check_le("boost_norm", err_base, tol["boost_norm"]),
              check_le("boost_monotone", ratio, 1.0)]
    info = [f"boost norm error base/refined = {err_base:.6g} / {err_fine:.6g}"]
    return checks, info, boosted


def medium_checks(packet, med, currents, free_rho, tol, omega_scale: float = 1.0):
    """In-medium currents against the free-space density of the same snapshots.

    currents are current_in_medium of the packet's snapshot at each
    checkpoint and free_rho their number_density. vacuum_reduction compares
    the two currents of the same packet moving at c, at the first checkpoint.
    """
    e_k = np.array([0.0, 0.0, 1.0])

    def rho_deviation(i):
        return currents[i].rho - med.epsilon_rel * free_rho[i]

    def j_deviation(i):
        return currents[i].j - med.v * currents[i].rho[:, None] * e_k

    rho_max = [np.abs(rho_deviation(i)).max() for i in range(len(currents))]
    j_max = [np.abs(j_deviation(i)).max() for i in range(len(currents))]
    norm_dev = np.max([abs(position_norm(cf.rho / med.epsilon_rel, cf.grid) - 1.0)
                       for cf in currents])

    first = currents[0]
    snap_vac = synthesize(packet_state(packet), first.grid, first.time,
                          omega_scale=omega_scale)
    cf_v1 = current_in_medium(snap_vac, VACUUM)
    cf_v2 = photon_current(snap_vac)
    vac_dev = np.max([np.abs(cf_v1.rho - cf_v2.rho).max(), np.abs(cf_v1.j - cf_v2.j).max()])

    checks = [check_le("medium_pointwise", np.max(rho_max), tol["medium_pointwise"]),
              check_le("medium_norm", norm_dev, tol["medium_norm"]),
              check_le("medium_current", np.max(j_max), tol["medium_current"]),
              check_le("vacuum_reduction", vac_dev, tol["vacuum_reduction"])]
    info = [f"in-medium norm of rho_pm = {position_norm(first.rho, first.grid):.17g}"]
    info += _located_failure(checks[0], rho_max, rho_deviation, currents)
    info += _located_failure(checks[2], j_max, j_deviation, currents)
    return checks, info


def line_setup(cfg: ScenarioConfig, us):
    """The medium, the 1D grid and the checkpoint times of a [lifecycle1d] config."""
    line = cfg.line
    grid = SpatialGrid(n_per_axis=line.n_z, spacing=(line.z_max - line.z_min) / line.n_z,
                       dimension=1, origin=line.z_min)
    return cfg.medium, grid, us.time_in * cfg.times.checkpoints()


def line_events(cfg: ScenarioConfig, us, med, grid, times):
    """Turn config emitter/detector settings into concrete SourceEvents.

    One rule resolves both events: "auto" is 4 cells wide, 4 time steps long
    and, for the detector's time, the ballistic arrival; "matched" copies the
    emitter; a time or duration number is in config units, scaled by time_in.
    """
    auto = {"width": 4.0 * grid.spacing, "duration": 4.0 * (times[1] - times[0])}

    def resolve(kind, ev, emit=None):
        vals = {}
        for key in ("width", "time", "duration", "strength"):
            raw = getattr(ev, key)
            if raw == "matched":
                vals[key] = getattr(emit, key)
            elif raw == "auto":
                vals[key] = arrival_time(emit, ev.center, med.v) if key == "time" else auto[key]
            else:
                vals[key] = us.time_in * float(raw) if key in ("time", "duration") else float(raw)
        return SourceEvent(kind=kind, center=ev.center, **vals)

    emit = resolve("emitter", cfg.emitter)
    detect = None if cfg.detector is None else resolve("detector", cfg.detector, emit)
    return emit, detect


def lifecycle_checks(rep, emit, detect, med, grid, tol):
    """Transit-norm, final-norm, causality, and peak-speed checks for one run."""
    checks, info = [], []
    times, v = rep.times, med.v
    margin = TRUNC_SIGMAS * (emit.duration + emit.width / v)
    end = detect.time - margin if detect is not None else times[-1]
    transit = (times >= emit.time + margin) & (times <= end)
    if transit.any():
        dev = np.abs(rep.norm[transit] - emit.strength).max()
        checks.append(check_le("lifecycle_norm_transit", dev, tol["lifecycle_norm"]))
        expected = emit.center + v * (times[transit] - emit.time)
        peak_cells = np.abs(rep.peak_z[transit] - expected).max() / grid.spacing
        checks.append(check_le("peak_speed_cells", peak_cells, tol["peak_cells"]))
    else:
        info.append("transit window empty; norm and peak checks skipped")

    # an acausal detector is excluded from the solve and absorbs nothing, so
    # the expected remainder is the full emitted strength
    target = emit.strength if detect is None or rep.acausal else 0.0
    checks.append(check_le("lifecycle_final_norm", abs(rep.final_norm - target),
                           tol["lifecycle_norm"]))

    # |rho| outside the emitter light cone, padded by the envelope support, per
    # row of the solve; -inf marks a row with no cell outside
    if (rep.outside_peak > -np.inf).any():
        checks.append(check_le("causality", abs(rep.outside_peak.max()), tol["causality"]))
        if not checks[-1].passed:
            row = int(np.argmax(rep.outside_peak))  # the first worst row
            cell = rep.outside_cell[row]
            info.append(f"causality worst density outside the cone: row {row} at "
                        f"t = {times[row]:.6g}, cell {cell} at "
                        f"z = {grid.axis_positions()[cell]:.6g}")
    if rep.acausal:
        info.append("acausal detection: detector fires before ballistic arrival")
    return checks, info


def fock_checks(lp, tol):
    """[a, a_dag] = 1 below the truncation corner, and a_dag a counts exactly."""
    comm_dev = np.max([abs(commutator_expectation(lp, n) - 1.0) for n in range(lp.dim - 1)])
    num = lp.number()
    number_dev = np.max([abs(np.vdot(basis_state(lp, n), num @ basis_state(lp, n)).real - n)
                         for n in range(lp.dim)])
    checks = [check_le("fock_commutator", comm_dev, tol["fock_commutator"]),
              check_le("fock_number_exact", number_dev, 0.0)]
    corner = (lp.a @ lp.a_dag - lp.a_dag @ lp.a)[-1, -1].real
    return checks, [f"truncation corner of [a, a_dag] = {corner:g}"]


# ---------------------------------------------------------------------------
# check blocks: verify's study sizes, on the default scenarios' packets and
# medium; each block parses its scenario when it runs, since `run` imports this


def _norm_block(tol, scale):
    cfg = parse_config("[packet3d]")
    m = packet_state(cfg.packet)
    sg = dual_grid(m.grid, cfg.packet.n_x)
    times = cfg.times.checkpoints()
    norms = [position_norm(np.concatenate([number_density(s) for _, s in
                                           slabs(m, sg, t, scale, ("a", "e"))]), sg)
             for t in times]
    checks, norm_info = norm_check(norms, times, 1.0, tol)
    info = [f"mode norm (all polarizations) = {norm(m):.17g}",
            f"mode norm (transverse only) = {norm(m, polarizations=(1, -1)):.17g}"]
    return checks, info + norm_info


def _continuity_block(tol, scale):
    m = packet_state(parse_config("[medium1d]").packet)
    t0 = 1.0

    def level(n_x):
        sg = dual_grid(m.grid, n_x)
        dt = sg.spacing / 2.0
        prev, nxt = (CurrentField(sg, t0 + k * dt, number_density(
            synthesize(m, sg, t0 + k * dt, scale, ("a", "e"))), j=None) for k in (-1, 1))
        res = continuity_residual(prev, photon_current(synthesize(m, sg, t0, scale)), nxt)
        drho = np.abs(nxt.rho - prev.rho).max() / (2.0 * dt)
        return np.abs(res).max(), drho, _worst_point(res, sg)

    r_coarse, _, _ = level(2048)
    r_fine, drho_fine, where = level(4096)
    order = _order(r_coarse, r_fine)
    rel = r_fine / drho_fine if drho_fine > 0 else float("inf")
    checks = [check_ge("continuity_order", order, tol["continuity_order"]),
              check_le("continuity_residual", rel, tol["continuity_residual"],
                       order=order)]
    info = [f"continuity residual coarse/fine = {r_coarse:.6g} / {r_fine:.6g}",
            f"max |d rho/dt| at fine level = {drho_fine:.6g}",
            f"continuity worst fine-level residual at t = {t0:g}: {where}"]
    return checks, info


def _boost_block(tol):
    cfg = parse_config("[boost]")
    return boost_checks(cfg.packet, cfg.beta, tol)[:2]


_MAXWELL_T0 = 0.5


def _maxwell_packet():
    return packet_state(parse_config("[gauge]").packet)


def _maxwell_slabs(m, n_x, scale):
    """Yield maxwell_residual's (first plane, k, residual k) on the slabs of an n_x^3 dual box.

    k = 0, 1, 2 are Gauss, Ampere and div B; the caller drops each residual
    before it asks for the next.
    """
    sg = dual_grid(m.grid, n_x)
    t0, dt = _MAXWELL_T0, sg.spacing / 2.0
    times = (t0 - dt, t0, t0 + dt)
    coeffs = {t: mode_coefficients(m, t, scale) for t in times}

    def sampler(planes):
        return lambda t, groups: synthesize(m, sg, t, scale, groups, planes, coeffs[t])

    return maxwell_residual([(p0, sampler(planes)) for p0, planes in slab_plan(sg)], times)


def _maxwell_level(m, n_x, scale):
    """Max |residual| and worst point of Gauss, Ampere and div B on an n_x^3 dual box.

    The pieces come out of plane order, so the worst point is picked once all
    are in, as np.argmax picks it on the whole box: the first NaN, else the
    first largest value.
    """
    plane = n_x * n_x
    found = [[], [], []]  # (first plane, max |residual|, its point) per piece
    for p, k, res in _maxwell_slabs(m, n_x, scale):
        point_max = np.abs(res).reshape(len(res) * plane, -1).max(axis=1)
        i = int(np.argmax(point_max))
        found[k].append((p, point_max[i], p * plane + i))
        del res, point_max  # dropped before the next residual is built
    worst = []
    for pieces in found:
        pieces.sort(key=lambda piece: piece[0])
        worst.append(pieces[int(np.argmax([v for _, v, _ in pieces]))][1:])
    sg = dual_grid(m.grid, n_x)
    return [v for v, _ in worst], [_grid_point(i, sg) for _, i in worst]


def _maxwell_block(tol, scale):
    m = _maxwell_packet()
    coarse, _ = _maxwell_level(m, 48, scale)
    fine, where = _maxwell_level(m, 96, scale)
    orders = [_order(a, b) for a, b in zip(coarse, fine)]
    checks = [check_ge("maxwell_gauss_order", orders[0], tol["maxwell_order"]),
              check_ge("maxwell_ampere_order", orders[1], tol["maxwell_order"]),
              check_ge("maxwell_divb_order", orders[2], tol["maxwell_order"])]
    info = [f"maxwell residual fine level: gauss {fine[0]:.6g}, "
            f"ampere {fine[1]:.6g}, divB {fine[2]:.6g}",
            f"maxwell worst fine-level residual at t = {_MAXWELL_T0:g}: gauss {where[0]}; "
            f"ampere {where[1]}; divB {where[2]}"]
    return checks, info


def _helicity_block(tol, scale):
    packet = parse_config("[helicity]").packet
    m = packet_state(packet)
    sg = dual_grid(m.grid, 1024)
    cf = photon_current(synthesize(m, sg, 1.0, omega_scale=scale))
    checks, located = helicity_check([cf], packet.pol, tol)

    m_par = packet_state(replace(packet, pol="par"))
    cf_par = photon_current(synthesize(m_par, sg, 1.0, omega_scale=scale))
    checks += helicity_check([cf_par], "par", tol)[0]
    return checks, [f"helicity deviation (lambda = +1) = {checks[0].measured:.6g}"] + located


def _medium_block(tol, scale):
    cfg = parse_config("[medium1d]")
    med = cfg.medium
    m = packet_state(cfg.packet, speed=med.v)
    snap = synthesize(m, dual_grid(m.grid, 1024), 0.8, omega_scale=scale)
    checks, info = medium_checks(cfg.packet, med, [current_in_medium(snap, med)],
                                 [number_density(snap)], tol, scale)
    info[0] += f" (epsilon_rel = {med.epsilon_rel:g})"
    return checks, info


def _lifecycle_block(tol):
    # the default [lifecycle1d] run at verify's tolerances, then its solve on a
    # line and a time step refined twice
    cfg = parse_config("[lifecycle1d]")
    us = unit_system(cfg.units)
    med, grid, times = line_setup(cfg, us)
    emit, det = line_events(cfg, us, med, grid, times)
    rep = lifecycle_1d(emit, det, med, grid, times)
    checks, info = lifecycle_checks(rep, emit, det, med, grid, tol)

    # end rows use one-sided time stencils; convergence is measured where the
    # stencil is centered
    coarse = rep.residual_max[1:-1]
    fine_cfg = replace(cfg, line=replace(cfg.line, n_z=2 * cfg.line.n_z),
                       times=replace(cfg.times, steps=2 * cfg.times.steps))
    _, grid2, times2 = line_setup(fine_cfg, us)
    fine = residual_max(emit, det, med, grid2, times2)[1:-1]
    r_coarse, r_fine = coarse.max(), fine.max()
    order = _order(r_coarse, r_fine)
    checks.append(check_ge("lifecycle_residual_order", order, tol["continuity_order"]))

    info += [f"ballistic arrival time = {arrival_time(emit, det.center, med.v):.17g}",
             f"lifecycle residual coarse/fine = {r_coarse:.6g} / {r_fine:.6g}"]
    if not checks[-1].passed:
        i, k = int(np.argmax(coarse)) + 1, int(np.argmax(fine)) + 1
        info.append(f"lifecycle_residual_order worst residual_max: coarse row {i} at "
                    f"t = {times[i]:.6g}, fine row {k} at t = {times2[k]:.6g}")
    return checks, info


def _fock_block(tol):
    lp = ladder_pair(parse_config("[fock]").n_states)
    checks, corner = fock_checks(lp, tol)
    product_dev = np.abs(lp.a_dag @ lp.a - lp.number()).max()
    state_norm_dev = np.max([abs(np.linalg.norm(n_photon_state(lp, n)) - 1.0)
                             for n in range(lp.dim)])
    info = [f"max |a_dag a - number()| = {product_dev:.6g}",
            f"n-photon state norm deviation = {state_norm_dev:.6g}"]
    return checks, info + corner


# ---------------------------------------------------------------------------

def run_verify(cfg: ScenarioConfig) -> Outcome:
    """Run every invariant check; deterministic for a fixed config."""
    if cfg.kind != "verify":
        raise ValueError("run_verify needs a [verify] configuration")
    tol = cfg.tolerances
    scale = 1.0 + cfg.inject_dispersion_error

    blocks = {
        "norm": lambda: _norm_block(tol, scale),
        "continuity": lambda: _continuity_block(tol, scale),
        "helicity": lambda: _helicity_block(tol, scale),
        "gauge": lambda: gauge_checks(parse_config("[gauge]").packet, 0.7, 0.7, tol, scale)[:2],
        "boost": lambda: _boost_block(tol),
        "maxwell": lambda: _maxwell_block(tol, scale),
        "medium": lambda: _medium_block(tol, scale),
        "lifecycle": lambda: _lifecycle_block(tol),
        "fock": lambda: _fock_block(tol),
    }

    def timed(block):
        started = _time.perf_counter()
        return block(), _time.perf_counter() - started

    # the Maxwell study, the longest block, runs in a child lane beside the
    # other eight, none of which reads its result
    done, maxwell = beside(
        lambda: {name: timed(block) for name, block in blocks.items() if name != "maxwell"},
        lambda: timed(blocks["maxwell"]))
    done["maxwell"] = maxwell

    checks, info, timings = [], [], {}
    for name in blocks:
        (block_checks, block_info), timings[name] = done[name]
        checks.extend(block_checks)
        info.extend(block_info)
    return Outcome(checks=tuple(checks), info=tuple(info), timings=timings)


def write_verify_report(report: Outcome, cfg: ScenarioConfig):
    """Emit report.txt and report.csv into the configured output directory."""
    return write_report_files(cfg.output, "photonlab verification report",
                              cfg.echo_lines(), report.checks, report.info)
