"""Scenario execution behind `photonlab run`: CSV products plus a summary report."""

from __future__ import annotations

import os
import time as _time

import numpy as np

from .config import ScenarioConfig
from .csvio import (write_current_csv, write_fields_csv, write_lifecycle_csv,
                    write_modes_csv, write_report_files)
from .current import number_density, position_norm
from .fields import dual_grid, slabs, synthesize
from .fock import ladder_pair
from .medium import arrival_time, lifecycle_1d
from .modes import norm
from .units import UnitSystem, unit_system
from .verify import (Outcome, beside, boost_checks, field_scan, fock_checks, gauge_checks,
                     helicity_check, lifecycle_checks, line_events, line_setup,
                     medium_checks, norm_check, packet_state)


def _run_packet3d(cfg: ScenarioConfig, us: UnitSystem, outdir: str):
    m = packet_state(cfg.packet)
    sg = dual_grid(m.grid, cfg.packet.n_x)
    times = us.time_in * cfg.times.checkpoints()
    norms = []

    def blocks():
        # current.csv is written record by record; the box norm sums the whole
        # density of a time at once, as the slabs' partial sums would round apart
        rho = []
        for p0, cf, res in field_scan(m, sg, times):
            rho.append(cf.rho)
            yield p0, cf, res
            del cf, res  # freed before the scan sums the next slab
            if p0 + len(rho[-1]) == sg.n_per_axis:  # the last slab of t
                norms.append(position_norm(np.concatenate(rho), sg))
                rho = []

    files = [os.path.join(outdir, name) for name in ("modes.csv", "current.csv", "fields.csv")]

    def modes_and_current():
        write_modes_csv(files[0], m)
        write_current_csv(files[1], blocks(), us)

    # fields.csv sums the last time's box again, apart from the scan: a child
    # lane writes it beside modes.csv and current.csv
    beside(modes_and_current, lambda: write_fields_csv(files[2], slabs(m, sg, times[-1]), us))

    # longitudinal packets carry no on-shell position-space density, so the
    # box integral is compared against the transverse part of the mode norm
    target = norm(m, polarizations=(1, -1))
    checks, norm_info = norm_check(norms, times, target, cfg.tolerances)
    info = [f"transverse mode norm = {target:.17g}"] + norm_info
    return checks, info, files


def _run_helicity(cfg: ScenarioConfig, us: UnitSystem, outdir: str):
    m = packet_state(cfg.packet)
    sg = dual_grid(m.grid, cfg.packet.n_x)
    times = us.time_in * cfg.times.checkpoints()
    blocks = list(field_scan(m, sg, times))

    checks, located = helicity_check([cf for _, cf, _ in blocks], cfg.packet.pol,
                                     cfg.tolerances)
    info = [f"position norm at t = {cf.time:.6g}: {position_norm(cf.rho, sg):.17g}"
            for _, cf, _ in blocks] + located

    files = [os.path.join(outdir, "modes.csv"), os.path.join(outdir, "current.csv")]
    write_modes_csv(files[0], m)
    write_current_csv(files[1], blocks, us)
    return checks, info, files


def _run_gauge(cfg: ScenarioConfig, us: UnitSystem, outdir: str):
    checks, info, shifted = gauge_checks(cfg.packet, cfg.gauge_strength,
                                         us.time_in * cfg.t_stop, cfg.tolerances)
    files = [os.path.join(outdir, "modes.csv")]
    write_modes_csv(files[0], shifted)
    return checks, info, files


def _run_boost(cfg: ScenarioConfig, us: UnitSystem, outdir: str):
    checks, info, boosted = boost_checks(cfg.packet, cfg.beta, cfg.tolerances)
    files = [os.path.join(outdir, "modes.csv")]
    write_modes_csv(files[0], boosted)
    return checks, [f"beta = {cfg.beta:g}"] + info, files


def _run_medium1d(cfg: ScenarioConfig, us: UnitSystem, outdir: str):
    med = cfg.medium
    m = packet_state(cfg.packet, speed=med.v)
    sg = dual_grid(m.grid, cfg.packet.n_x)
    times = us.time_in * cfg.times.checkpoints()

    blocks = list(field_scan(m, sg, times, med))
    # the free density of each checkpoint's snapshot, summed again: on the 1D
    # line it is bitwise the snapshot the scan built its current from
    free_rho = [number_density(synthesize(m, sg, cf.time)) for _, cf, _ in blocks]
    checks, info = medium_checks(cfg.packet, med, [cf for _, cf, _ in blocks], free_rho,
                                 cfg.tolerances)
    info = [f"medium speed v = {med.v:.17g}"] + info

    files = [os.path.join(outdir, "modes.csv"), os.path.join(outdir, "current.csv")]
    write_modes_csv(files[0], m)
    write_current_csv(files[1], blocks, us)
    return checks, info, files


def _run_lifecycle1d(cfg: ScenarioConfig, us: UnitSystem, outdir: str):
    med, grid, times = line_setup(cfg, us)
    emit, detect = line_events(cfg, us, med, grid, times)
    rep = lifecycle_1d(emit, detect, med, grid, times)

    checks, info = lifecycle_checks(rep, emit, detect, med, grid, cfg.tolerances)
    if detect is not None:
        arrival = arrival_time(emit, detect.center, med.v)
        info.append(f"ballistic arrival time = {us.time_out * arrival:.17g}")
    info.append(f"final norm = {rep.final_norm:.17g}")

    files = [os.path.join(outdir, "lifecycle.csv")]
    write_lifecycle_csv(files[0], rep, us)
    return checks, info, files


def _run_fock(cfg: ScenarioConfig, us: UnitSystem, outdir: str):
    lp = ladder_pair(cfg.n_states)
    checks, info = fock_checks(lp, cfg.tolerances)
    return checks, [f"truncation dimension = {lp.dim}"] + info, []


_RUNNERS = {
    "packet3d": _run_packet3d,
    "helicity": _run_helicity,
    "gauge": _run_gauge,
    "boost": _run_boost,
    "medium1d": _run_medium1d,
    "lifecycle1d": _run_lifecycle1d,
    "fock": _run_fock,
}


def run_scenario(cfg: ScenarioConfig) -> Outcome:
    """Execute one non-verify scenario; writes CSVs and the summary report."""
    if cfg.kind == "verify":
        raise ValueError("use run_verify for [verify] configurations")
    us = None if cfg.units is None else unit_system(cfg.units)  # boost and fock scale nothing
    runner = _RUNNERS[cfg.kind]
    started = _time.perf_counter()
    checks, info, files = runner(cfg, us, cfg.output)
    timings = {cfg.kind: _time.perf_counter() - started}
    paths = write_report_files(cfg.output, f"photonlab scenario report: {cfg.kind}",
                               cfg.echo_lines(), checks, info)
    return Outcome(checks=tuple(checks), info=tuple(info), timings=timings,
                   files=tuple(list(files) + list(paths)))
