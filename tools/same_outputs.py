"""Check that the working tree's outputs are byte-identical to those of a revision.

    python3 tools/same_outputs.py REV

Exports REV with `git archive` into a temporary directory, then runs the same
photonlab calls with REV's `src` and with the working tree's, each in the same
output directory, and compares every file written there (reports and CSVs),
stdout and the exit code. A call whose stderr holds a Python traceback on
either side differs too: a crash exits 1 as a failed check does. Prints one
line per call; exits 1 and names the files that differ, 0 when every output
is byte-identical. After each call's
line it prints the call's peak RSS on both sides (ru_maxrss from os.wait4, as
perfbench reads it), its minor page faults (ru_minflt) and its CPU seconds
(ru_utime + ru_stime, both from the same os.wait4), so a check of identical
bytes also shows where memory moved, what the move cost in page faults, and
how much CPU time every thread of the call spent. After the per-call lines
one summary line names every call whose peak RSS or minor faults moved by
more than 10% either way. One call a side also moves with host noise, so a
call that moved is run twice more on each side, alternating sides, and is
named only if the median of its three runs a side moved by more than 10%.
Before that summary, one totals line a side sums the minor faults and CPU
seconds of every call's first run and names the largest peak RSS among them.
Stdlib only; the 34 call pairs take a few minutes on two cores.
"""

from __future__ import annotations

import filecmp
import importlib.util
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _perfbench_configs() -> dict:
    """The seed-3 packet3d and lifecycle1d configs of perfbench/run.py, read-only."""
    bench = ROOT / "perfbench"
    sys.path.insert(0, str(bench))  # run.py imports its sibling tracer.py
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
    return {"perfbench-packet3d-seed3": run._packet3d_config(random.Random(3)),
            "perfbench-lifecycle1d-seed3": run._lifecycle1d_config(random.Random(3))}


# call name -> config text; None runs `photonlab verify` with no config
CALLS = {
    "verify-default": None,
    "verify-dispersion-fault": "[verify]\ninject_dispersion_error = 0.05\n",
    **{f"{kind}-default": f"[{kind}]\n" for kind in
       ("packet3d", "helicity", "gauge", "boost", "medium1d", "lifecycle1d", "fock")},
    "helicity-par": "[helicity]\nlambda = par\n",
    "packet3d-par": "[packet3d]\nlambda = par\n",
    "packet3d-refused": "[packet3d]\nn_x = 4\n",
    "packet3d-k0-inf": "[packet3d]\nk0 = (0, 0, inf)\n",
    # finite packets whose normalization fails (amplitudes underflow, dk^3
    # overflows): refused with exit 2 since the pre-flight builds the packet
    "packet3d-sigma-underflow": "[packet3d]\nsigma = 1e-300\nn_k = 4\nn_x = 8\n",
    "packet3d-dk-overflow": "[packet3d]\ndk = 1e300\n",
    # the scan and fields.csv in 16 slabs of 4 planes, the scan's x-neighbour
    # planes carried from slab to slab
    "packet3d-nx64": "[packet3d]\nn_x = 64\n",
    # n_x not a multiple of 4: slabs of 4 planes and a last one of 2
    "packet3d-nx18": "[packet3d]\nn_x = 18\n",
    "packet3d-nx50": "[packet3d]\nn_k = 6\nn_x = 50\nt_steps = 1\n",
    "packet3d-nx66": "[packet3d]\nn_k = 8\nn_x = 66\nt_steps = 1\n",
    # one plane over a multiple of 4, joined to the last slab (7 x 4 + 5 planes)
    "packet3d-nx33": "[packet3d]\nn_x = 33\n",
    "packet3d-si-steps5": "[packet3d]\nunits = si\nt_steps = 5\n",
    # the gauge law on 16 slabs of 4 planes, and on boxes whose last slab
    # leaves 2 planes over (4 x 4 + 2 and 16 x 4 + 2 planes)
    "gauge-nx64": "[gauge]\nn_x = 64\n",
    "gauge-nx18": "[gauge]\nn_x = 18\n",
    "gauge-nx66": "[gauge]\nn_x = 66\n",
    # the one call on which [gauge] scales its lone t_stop by `units`
    "gauge-si-t-stop": "[gauge]\nunits = si\nt_stop = 2e-9\n",
    "lifecycle1d-si": "[lifecycle1d]\nunits = si\n",
    "lifecycle1d-no-detector": "[lifecycle1d]\n[detector]\nenabled = false\n",
    "lifecycle1d-acausal": "[lifecycle1d]\n[detector]\ntime = 1.0\n",
    "lifecycle1d-numeric-events": "[lifecycle1d]\n[emitter]\nwidth = 0.08\nduration = 0.15\n"
                                  "[detector]\nwidth = 0.08\nduration = 0.15\n",
    # a detector wider and longer than the pulse drains density outside the
    # cone: causality fails (exit 1) and names its worst cell
    "lifecycle1d-wide-detector": "[lifecycle1d]\n[emitter]\nwidth = 0.08\nduration = 0.15\n"
                                 "[detector]\nwidth = 0.1\nduration = 0.3\n",
    # windows clipped at the line's start: the residual takes whole periodic rows
    "lifecycle1d-seam": "[lifecycle1d]\n[emitter]\ncenter = -4.95\n[detector]\ncenter = 24.9\n",
    "medium1d-eps3-mu1.5": "[medium1d]\nepsilon_rel = 3.0\nmu_rel = 1.5\n",
}


def _export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _call(src: Path, config: Path | None, outdir: Path) -> tuple[int, bytes, float, bytes, int, float]:
    """Run one CLI call from outdir, the config's output directory ('.').

    Returns the exit code, stdout, the call's peak RSS in MB, stderr, the
    call's minor page faults and its CPU seconds (user plus system).
    """
    args = ["verify"] if config is None else \
        ["verify" if config.read_text().startswith("[verify]") else "run", "--config", str(config)]
    env = dict(os.environ, PYTHONPATH=str(src))
    # stderr goes to a file, so a full pipe cannot stall the call while stdout is read
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "photonlab", *args], cwd=outdir,
                                env=env, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return (proc.returncode, stdout, usage.ru_maxrss / 1024.0, stderr, usage.ru_minflt,
            usage.ru_utime + usage.ru_stime)


def _differences(name: str, ref: Path, new: Path, ref_run, new_run) -> list[str]:
    diffs = []
    if ref_run[0] != new_run[0]:
        diffs.append(f"{name}: exit code {ref_run[0]} -> {new_run[0]}")
    if ref_run[1] != new_run[1]:
        diffs.append(f"{name}: stdout")
    for side, run in (("at the revision", ref_run), ("here", new_run)):
        if b"Traceback" in run[3]:
            diffs.append(f"{name}: traceback on stderr {side}")
    ref_files = sorted(p.name for p in ref.iterdir())
    new_files = sorted(p.name for p in new.iterdir())
    for f in sorted(set(ref_files) ^ set(new_files)):
        diffs.append(f"{name}/{f}: written on one side only")
    for f in sorted(set(ref_files) & set(new_files)):
        if not filecmp.cmp(ref / f, new / f, shallow=False):
            diffs.append(f"{name}/{f}")
    return diffs


def _moved(name: str, ref_runs, new_runs) -> list[str]:
    """The call's median peak RSS and minor faults that moved by more than 10%, either way."""
    moved = []
    for what, i, fmt in (("peak RSS", 2, "{:.1f} MB"), ("minor faults", 4, "{}")):
        ref, new = (statistics.median(run[i] for run in runs) for runs in (ref_runs, new_runs))
        if abs(new - ref) > 0.1 * ref:
            moved.append(f"{name} {what} {fmt.format(ref)} -> {fmt.format(new)}")
    return moved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    calls = {**CALLS, **_perfbench_configs()}
    diffs, moved = [], []
    firsts = ([], [])  # each call's first run at the revision and here
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        _export(argv[0], tmp / "rev")
        out, ref = tmp / "out", tmp / "ref"
        for name, text in calls.items():
            config = None
            if text is not None:
                config = tmp / f"{name}.ini"
                config.write_text(text)
            # both sides write to the same path, so the echoed `output` matches
            out.mkdir()
            ref_run = _call(tmp / "rev" / "src", config, out)
            out.rename(ref)
            out.mkdir()
            new_run = _call(ROOT / "src", config, out)
            found = _differences(name, ref, out, ref_run, new_run)
            print(f"{name}: exit {new_run[0]}, " + ("DIFFERS" if found else "identical"))
            print(f"{name}: peak RSS {ref_run[2]:.1f} MB, {ref_run[4]} minor faults, "
                  f"{ref_run[5]:.2f} s CPU at {argv[0]}; {new_run[2]:.1f} MB, "
                  f"{new_run[4]} minor faults, {new_run[5]:.2f} s CPU here")
            diffs += found
            firsts[0].append(ref_run)
            firsts[1].append(new_run)
            shutil.rmtree(ref)
            shutil.rmtree(out)
            ref_runs, new_runs = [ref_run], [new_run]
            if _moved(name, ref_runs, new_runs):
                sides = [(ROOT / "src", new_runs), (tmp / "rev" / "src", ref_runs)]
                for first in (0, 1):  # this side first, then the revision first
                    for src, runs in sides[first:] + sides[:first]:
                        out.mkdir()
                        runs.append(_call(src, config, out))
                        shutil.rmtree(out)
                ref_med, new_med = (f"{statistics.median(r[2] for r in runs):.1f} MB, "
                                    f"{statistics.median(r[4] for r in runs):.0f} minor faults"
                                    for runs in (ref_runs, new_runs))
                print(f"{name}: median of 3 calls a side: {ref_med} at {argv[0]}; "
                      f"{new_med} here")
            moved += _moved(name, ref_runs, new_runs)
    for side, runs in zip((f"at {argv[0]}", "here"), firsts):
        print(f"totals {side}: "
              f"{sum(r[4] for r in runs)} minor faults, {sum(r[5] for r in runs):.2f} s CPU, "
              f"largest peak RSS {max(r[2] for r in runs):.1f} MB")
    print("moved by more than 10%: " + ("; ".join(moved) if moved else "no call's peak RSS "
                                         "or minor faults"))
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(calls)} calls against {argv[0]}: "
          + (f"{len(diffs)} differences" if diffs else "every output byte-identical"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
