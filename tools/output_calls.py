"""The photonlab CLI calls whose outputs are pinned byte for byte, and how to make one.

`tests/test_outputs.py` makes every call with the working tree's `src` and
compares their digests with those in `tests/outputs.sha256.json`, which
`python3 tools/same_outputs.py --record` rewrites. `tools/same_outputs.py
REV` makes every call with REV's `src`, exported by export(), and with the
working tree's, and compares the two sides' digests. Both make each call
through run() and compare through differences(). A call's digests are its
exit code and the SHA-256 of its stdout and of each file it writes. The
manifest also records the numpy version and the BLAS numpy was built with,
since another BLAS may round apart.
Stdlib only, but for environment(), which asks numpy.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "outputs.sha256.json"


def perfbench_configs() -> dict:
    """The seed-3 packet3d and lifecycle1d configs of perfbench/run.py, read-only."""
    bench = ROOT / "perfbench"
    sys.path.insert(0, str(bench))  # run.py imports its sibling tracer.py
    no_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
        sys.dont_write_bytecode = no_bytecode
    return {"perfbench-packet3d-seed3": run._packet3d_config(random.Random(3)),
            "perfbench-lifecycle1d-seed3": run._lifecycle1d_config(random.Random(3))}


# call name -> config text; None runs `photonlab verify` with no config
CALLS = {
    "verify-default": None,
    "verify-dispersion-fault": "[verify]\ninject_dispersion_error = 0.05\n",
    **{f"{kind}-default": f"[{kind}]\n" for kind in
       ("packet3d", "helicity", "gauge", "boost", "medium1d", "lifecycle1d", "fock")},
    "helicity-par": "[helicity]\nlambda = par\n",
    # the line scan at lambda = -1; 3D pins it only through the perfbench packet
    "helicity-minus": "[helicity]\nlambda = -1\n",
    "medium1d-minus": "[medium1d]\nlambda = -1\n",
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
    # n_x not a multiple of 4: 18 is one slab, whose sum leaves 2 planes over a
    # multiple of 4; 50 and 66 are slabs of 4 planes and a last one of 2 (12 x 4
    # + 2 and 16 x 4 + 2 planes)
    "packet3d-nx18": "[packet3d]\nn_x = 18\n",
    "packet3d-nx50": "[packet3d]\nn_k = 6\nn_x = 50\nt_steps = 1\n",
    "packet3d-nx66": "[packet3d]\nn_k = 8\nn_x = 66\nt_steps = 1\n",
    # one plane over a multiple of 4, joined to the last slab (7 x 4 + 5 planes)
    "packet3d-nx33": "[packet3d]\nn_x = 33\n",
    "packet3d-si-steps5": "[packet3d]\nunits = si\nt_steps = 5\n",
    # the gauge law on 16 slabs of 4 planes, on one slab of 18 planes, and on
    # 16 x 4 + 2 planes, the last slab's 2 planes over
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


def all_calls() -> dict:
    """CALLS and the perfbench configs: every call name -> config text (None: default verify)."""
    return {**CALLS, **perfbench_configs()}


def export(rev: str, dest: Path) -> None:
    """Extract `git archive rev` into dest; a git failure raises CalledProcessError (its .stderr)."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _left_running(pgid: int) -> bool:
    """Whether the process group pgid still has a member; if so, the group is killed."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    os.killpg(pgid, signal.SIGKILL)
    return True


def call(src: Path, config: Path | None,
         outdir: Path) -> tuple[int, bytes, float, bytes, int, float, bool]:
    """Run one CLI call from outdir, the config's output directory ('.').

    Returns the exit code, stdout, the call's peak RSS in MB, stderr, the
    call's minor page faults, its CPU seconds (user plus system), and whether
    a process of its own process group outlived it. The peak RSS (ru_maxrss)
    is at least this process's own high-water RSS at the fork: on Linux with
    CPython 3.11, a `python -c pass` child read 13.6 MB, and 213.6 MB once its
    parent had touched 200 MB, freed or not. So digests() hashes in chunks.
    """
    args = ["verify"] if config is None else \
        ["verify" if config.read_text().startswith("[verify]") else "run", "--config", str(config)]
    env = dict(os.environ, PYTHONPATH=str(src))
    # stdout and stderr go to files, so neither a full pipe nor a process left
    # holding one can stall the call; its own session makes it a process group
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "photonlab", *args], cwd=outdir,
                                env=env, stdout=out, stderr=err, start_new_session=True)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stray = _left_running(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    return (proc.returncode, stdout, usage.ru_maxrss / 1024.0, stderr, usage.ru_minflt,
            usage.ru_utime + usage.ru_stime, stray)


def environment() -> dict:
    """The numpy version and the BLAS it was built with, as the manifest records them."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration", f"{blas['name']} {blas['version']}")}


def _sha256(path: Path) -> str:
    """The file's SHA-256, read in 64 KiB chunks, so no whole file raises this process's RSS."""
    sha = hashlib.sha256()
    with path.open("rb") as f:
        while chunk := f.read(1 << 16):
            sha.update(chunk)
    return sha.hexdigest()


def digests(result, outdir: Path) -> dict:
    """A call's exit code and the SHA-256 of its stdout and of each file it wrote."""
    return {"exit": result[0], "stdout": hashlib.sha256(result[1]).hexdigest(),
            "files": {p.name: _sha256(p) for p in sorted(outdir.iterdir())}}


def run(src: Path, name: str, text: str | None, tmp: Path) -> tuple[tuple, dict]:
    """Make call name (config text, None: default verify) with src's photonlab in a fresh tmp/out.

    Returns call()'s result and the call's digests; tmp/out is removed after.
    """
    config = None
    if text is not None:
        config = tmp / f"{name}.ini"
        config.write_text(text)
    outdir = tmp / "out"
    outdir.mkdir()
    result = call(src, config, outdir)
    found = digests(result, outdir)
    shutil.rmtree(outdir)
    return result, found


def faults(result) -> list[str]:
    """What a call did wrong beside its outputs: a traceback on stderr, a process left running."""
    return ((["traceback on stderr"] if b"Traceback" in result[3] else [])
            + (["a process left running in its group"] if result[6] else []))


def manifest(src: Path, calls: dict) -> dict:
    """The environment and every call's digests with src's photonlab.

    A call with a fault (faults()) raises, with its stderr.
    """
    found = {}
    with tempfile.TemporaryDirectory(prefix="output_calls-") as tmp:
        for name, text in calls.items():
            result, found[name] = run(src, name, text, Path(tmp))
            if bad := faults(result):
                raise RuntimeError(f"{name}: {'; '.join(bad)}\n"
                                   + result[3].decode(errors="replace"))
    return {"environment": environment(), "calls": found}


def differences(want: dict, got: dict):
    """Yield each call and output whose digest differs between two manifests, in recorded order.

    The environment is compared first: outputs made with another numpy or
    BLAS are not comparable, and the line names both.
    """
    if want["environment"] != got["environment"]:
        yield f"environment: recorded {want['environment']}, here {got['environment']}"
    for name in dict.fromkeys([*want["calls"], *got["calls"]]):  # in the recorded order
        if name not in got["calls"] or name not in want["calls"]:
            yield f"{name}: a call on one side only"
            continue
        a, b = want["calls"][name], got["calls"][name]
        if a["exit"] != b["exit"]:
            yield f"{name}: exit code {a['exit']} recorded, {b['exit']} here"
        if a["stdout"] != b["stdout"]:
            yield f"{name}: stdout"
        for f in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(f) != b["files"].get(f):
                yield f"{name}/{f}"
