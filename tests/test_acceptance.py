"""End-to-end acceptance checks, one test (and one printed line) per criterion.

The shared verification report is computed once per session; each test then
holds the measured numbers against the release tolerances stated inline, so
`pytest -v tests/test_acceptance.py` doubles as the sign-off sheet.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photonlab
from photonlab.config import default_verify_config
from photonlab.fock import basis_state, commutator_expectation, ladder_pair
from photonlab.verify import run_verify


@pytest.fixture(scope="module")
def rep():
    return run_verify(default_verify_config())


def named(rep):
    return {c.name: c for c in rep.checks}


def stamp(n, label, ok):
    print(f"acceptance {n} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_acceptance_01_norm_conservation(rep):
    c = named(rep)["norm_unity"]
    ok = c.measured <= 1e-6 and rep.timings["norm"] <= 60.0
    assert stamp(1, "norm conserved to 1e-6 within 60 s", ok), \
        (c.measured, rep.timings["norm"])


def test_acceptance_02_continuity(rep):
    checks = named(rep)
    order = checks["continuity_order"].measured
    residual = checks["continuity_residual"].measured
    ok = order >= 1.9 and residual <= 1e-4
    assert stamp(2, "continuity order >= 1.9, residual <= 1e-4", ok), (order, residual)


def test_acceptance_03_helicity(rep):
    checks = named(rep)
    point = checks["helicity_pointwise"].measured
    longitudinal = checks["helicity_longitudinal"].measured
    ok = point <= 1e-10 and longitudinal <= 1e-12
    assert stamp(3, "helicity density sign and null cases", ok), (point, longitudinal)


def test_acceptance_04_gauge_invariance(rep):
    checks = named(rep)
    field = checks["gauge_field"].measured
    norm_dev = checks["gauge_norm"].measured
    transverse = checks["gauge_transverse_amps"].measured
    ok = field <= 1e-12 and norm_dev <= 1e-10 and transverse == 0.0
    assert stamp(4, "observables gauge invariant", ok), (field, norm_dev, transverse)


def test_acceptance_05_boost_covariance(rep):
    checks = named(rep)
    dev = checks["boost_norm"].measured
    mono = checks["boost_monotone"]
    ok = dev <= 2e-2 and mono.passed
    assert stamp(5, "boosted norm within 2e-2 and improving", ok), (dev, mono.measured)


def test_acceptance_06_maxwell_residuals(rep):
    checks = named(rep)
    orders = [checks[k].measured for k in
              ("maxwell_gauss_order", "maxwell_ampere_order", "maxwell_divb_order")]
    ok = all(o >= 1.9 for o in orders)
    assert stamp(6, "all Maxwell residuals converge at order >= 1.9", ok), orders


def test_acceptance_07_medium(rep):
    checks = named(rep)
    point = checks["medium_pointwise"].measured
    norm_dev = checks["medium_norm"].measured
    vac = checks["vacuum_reduction"].measured
    ok = point <= 1e-12 and norm_dev <= 1e-6 and vac <= 1e-14
    assert stamp(7, "dressed densities and vacuum reduction", ok), (point, norm_dev, vac)


def test_acceptance_08_lifecycle(rep):
    checks = named(rep)
    transit = checks["lifecycle_norm_transit"].measured
    final = checks["lifecycle_final_norm"].measured
    peak = checks["peak_speed_cells"].measured
    causal = checks["causality"].measured
    ok = (transit <= 1e-6 and final <= 1e-6 and peak <= 1.0
          and causal <= 1e-12 and rep.timings["lifecycle"] <= 10.0)
    assert stamp(8, "emission/transit/detection lifecycle", ok), \
        (transit, final, peak, causal, rep.timings["lifecycle"])


def test_acceptance_09_counting_identities():
    lp = ladder_pair(32)
    num = lp.number()
    comm_dev = max(abs(commutator_expectation(lp, n) - 1.0)
                   for n in range(lp.dim - 1))
    exact = all(np.vdot(basis_state(lp, n), num @ basis_state(lp, n)).real == float(n)
                for n in range(lp.dim))
    ok = comm_dev <= 1e-14 and exact
    assert stamp(9, "ladder commutator and exact occupation numbers", ok), comm_dev


def test_acceptance_10_deterministic_reports(tmp_path):
    # Each run is a fresh interpreter on the same photonlab this test imported,
    # so the check needs no installed console script.
    src = str(Path(photonlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "out"
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"[verify]\noutput = {out}\n", encoding="utf-8")

    def run_once():
        res = subprocess.run(
            [sys.executable, "-m", "photonlab", "verify", "--config", str(cfg)],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert res.returncode == 0, res.stdout + res.stderr
        return ((out / "report.txt").read_bytes(), (out / "report.csv").read_bytes())

    first = run_once()
    second = run_once()
    ok = first == second
    assert stamp(10, "repeated runs byte-identical", ok)
