"""photonlab benchmark: fixed workloads through the real CLI, one fresh interpreter per call.

    python3 perfbench/run.py --workload verify|packet3d|lifecycle1d \
        --seed N --seconds S --trace 0|1

Each run first starts a few interpreters that stop once set-up is done, then
makes closed-loop CLI calls, one at a time, while the next call is expected
to end within S seconds (at least two calls, so that their reports can be
compared). Every call passes an output gate: exit 0, every check ``pass``,
CSV headers and row counts as the schema and grid demand, and reports
byte-identical to the run's first call. ``attempted`` and ``failed`` count
these gated calls only; a set-up probe that goes wrong is reported as a
problem and makes the run incorrect.

The host's speed drifts by a third over tens of minutes on a shared 2-vCPU
machine, in memory-bound work more than in cached arithmetic. So with the
tracer off each run also times reference.py, a fixed numpy/scipy job of the
same kinds, before and after its calls, and the end-to-end times are
reported in seconds at the reference speed: median time x REFERENCE_S /
median reference time. The unscaled medians are printed and kept in the
run's result.json.

``--trace 0`` reports the end-to-end metrics with the tracer off.
``--trace 1`` alternates untraced calls with calls whose public photonlab
functions are wrapped from outside the package (see tracer.py), then makes
one tracemalloc call for the per-span memory peaks, and reports the
per-layer metrics. The last line of standard output is one JSON object;
the lines before it are for people. Everything a run writes goes to
``.perfbench-runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import count_lines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"

SETUP_PROBES = 4
# Typical spawn-to-exit seconds of reference.py on the host where the bounds
# were set (2 vCPUs of a 2.1 GHz Xeon). Timed values are rescaled by this over
# the run's own reference median, which takes out the host's speed drift.
REFERENCE_S = 1.2
MIN_CALLS = 2
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Sizes stay fixed for every seed, so the work per call does not depend on it.
PACKET3D = {"n_k": 16, "dk": 0.25, "sigma": 0.5, "n_x": 32,
            "t_start": 0.0, "t_stop": 6.0, "t_steps": 2}
LINE = {"mu_rel": 1.0, "n_z": 8192, "z_min": -5.0, "z_max": 25.0,
        "t_start": 0.0, "t_stop": 20.0, "t_steps": 1600}
VERIFY_BLOCKS = ("norm", "continuity", "helicity", "gauge", "boost",
                 "maxwell", "medium", "lifecycle", "fock")


def _packet3d_config(rng: random.Random) -> str:
    # The k lattice spans k0 +- 1.875 per axis; kz >= 3 keeps every mode at
    # |k| > 1, clear of the excluded k = 0, and |kx|, |ky| <= 1 keeps the
    # packet within about 25 degrees of the z axis like the default packet.
    k0 = (round(rng.uniform(-1.0, 1.0), 4), round(rng.uniform(-1.0, 1.0), 4),
          round(rng.uniform(3.0, 5.0), 4))
    lam = rng.choice(("+1", "-1"))
    lines = ["[packet3d]", f"k0 = ({k0[0]!r}, {k0[1]!r}, {k0[2]!r})", f"lambda = {lam}"]
    lines += [f"{key} = {value!r}" for key, value in PACKET3D.items()]
    return "\n".join(lines) + "\n"


def _lifecycle1d_config(rng: random.Random) -> str:
    # The emitter fires at t = 0 at least 2 units inside the line; the
    # detector sits 2 units or more downstream, inside the line, where the
    # pulse (speed 1/sqrt(eps)) arrives at least 2 time units before t_stop,
    # which leaves room for the transit window and for the absorption.
    eps = rng.uniform(1.0, 4.0)
    v = 1.0 / (eps * LINE["mu_rel"]) ** 0.5
    z_emit = rng.uniform(LINE["z_min"] + 2.0, 5.0)
    z_far = min(LINE["z_max"] - 2.0, z_emit + v * (LINE["t_stop"] - 2.0))
    z_detect = rng.uniform(z_emit + 2.0, z_far)
    lines = ["[lifecycle1d]", f"epsilon_rel = {round(eps, 4)!r}"]
    lines += [f"{key} = {value!r}" for key, value in LINE.items()]
    lines += ["[emitter]", f"center = {round(z_emit, 4)!r}", "time = 0.0",
              "[detector]", f"center = {round(z_detect, 4)!r}"]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""
    name: str
    make_config: object        # rng -> config text; None runs the default verify
    products: object           # csvio module -> {file: (header, rows)}


WORKLOADS = {w.name: w for w in (
    Workload("verify", None, lambda c: {}),
    Workload("packet3d", _packet3d_config,
             lambda c: {"modes.csv": (c.MODES_COLUMNS, PACKET3D["n_k"] ** 3),
                        "fields.csv": (c.FIELDS_COLUMNS, PACKET3D["n_x"] ** 3),
                        "current.csv": (c.CURRENT_COLUMNS,
                                        (PACKET3D["t_steps"] + 1) * PACKET3D["n_x"] ** 3)}),
    Workload("lifecycle1d", _lifecycle1d_config,
             lambda c: {"lifecycle.csv": (c.LIFECYCLE_COLUMNS, LINE["t_steps"] + 1)}),
)}

# Layer metric -> (end-to-end metrics it should move, workloads where it
# should, workloads where it is predicted flat).
LAYER_MAP = {
    "fields.synthesize": ("wall_s peak_rss_mb", "verify packet3d", "lifecycle1d"),
    "fields.maxwell_residual": ("wall_s", "verify", "packet3d lifecycle1d"),
    "modes.kprep": ("wall_s", "verify", "lifecycle1d"),
    "modes.boost": ("wall_s", "verify", "lifecycle1d"),
    # packet3d reaches the stencils through current.continuity_residual.
    "fdops.stencil": ("wall_s", "verify packet3d", "lifecycle1d"),
    "current.bilinear": ("wall_s", "packet3d verify", "lifecycle1d"),
    "current.continuity": ("wall_s", "packet3d verify", "lifecycle1d"),
    "medium.lifecycle": ("wall_s peak_rss_mb", "lifecycle1d", "packet3d"),
    "csvio": ("wall_s peak_rss_mb", "packet3d", "verify lifecycle1d"),
    "verify.block": ("wall_s", "verify", "-"),
    "scenarios.run": ("wall_s", "packet3d lifecycle1d", "-"),
    "cli.import": ("setup_s", "all", "-"),
    "config.parse": ("setup_s", "all", "-"),
    "cli.cpu": ("wall_s (threading)", "all", "-"),
    "trace.overhead": ("-", "-", "all"),
}


def git_commit() -> str | None:
    """The checkout's commit; None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# one CLI call

def spawn(mode: str, cli_args: list, cwd: Path, stamps: Path, timeout: float) -> dict:
    """Run child.py once; wall time from spawn to exit, rusage of that child only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(stamps), "--", *cli_args]
    with open(cwd / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
                if timed_out:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    call = {"mode": mode, "code": proc.returncode, "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    if timed_out:
        call["problems"].append(f"killed after {timeout:.0f} s")
    try:
        marks = json.loads(stamps.read_text())
        call.update(import_s=marks["imported"] - start,
                    parse_s=marks["parsed"] - marks["parsing"],
                    setup_s=marks["ready"] - start, spans=marks.get("spans"))
    except (OSError, ValueError, KeyError):
        call["problems"].append("no set-up stamps")
    return call


def time_reference(timeout: float) -> float:
    """Spawn-to-exit seconds of one reference.py run."""
    start = time.monotonic()
    subprocess.run([sys.executable, str(HERE / "reference.py")], check=True,
                   timeout=max(timeout, 1.0), stdout=subprocess.DEVNULL)
    return time.monotonic() - start


def _csv_shape(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        header = tuple(next(csv.reader([fh.readline()])))
    return header, count_lines(path) - 1


def gate(outdir: Path, code: int, products: dict, report_columns) -> tuple[list, dict]:
    """Problems with one call's outputs, and the digests of its two report files."""
    problems = [] if code == 0 else [f"exit code {code}"]
    digests = {}
    try:
        with open(outdir / "report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or tuple(rows[0]) != tuple(report_columns):
            problems.append("report.csv header differs from csvio.REPORT_COLUMNS")
        failing = [r[0] for r in rows[1:] if r[-1] != "true"]
        if failing:
            problems.append("failed checks: " + ", ".join(failing))
        n = len(rows) - 1
        text = (outdir / "report.txt").read_text(encoding="utf-8")
        if n < 1 or f"result: PASS ({n}/{n} checks)" not in text:
            problems.append("report.txt does not show every check passing")
        for name, (header, want) in products.items():
            got_header, got = _csv_shape(outdir / name)
            if got_header != tuple(header):
                problems.append(f"{name} header differs from the csvio schema")
            if got != want:
                problems.append(f"{name} has {got} rows, the grid needs {want}")
        for name in ("report.txt", "report.csv"):
            digests[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    except (OSError, IndexError) as exc:
        problems.append(f"missing or unreadable output: {exc}")
    return problems, digests


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced call

def _self_and_outermost(spans):
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        parent, outermost = by_id.get(s["parent"]), True
        while parent is not None:
            if parent["name"] == s["name"]:
                outermost = False
                break
            parent = by_id.get(parent["parent"])
        yield s, (s["end"] - s["start"]) - covered[s["id"]], outermost


def layer_metrics(spans) -> dict:
    busy = defaultdict(float)
    calls = Counter()
    sizes = Counter()
    timings = {}
    for s, self_s, outermost in _self_and_outermost(spans):
        busy[s["name"]] += self_s
        if s["name"] in ("verify.run", "scenarios.run"):
            timings[s["name"]] = s["timings"]
        if outermost:
            calls[s["name"]] += 1
            for key in ("points", "modes", "cells", "bytes", "rows"):
                sizes[s["name"], key] += s.get(key, 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {
        "fields.synthesize_s": busy["fields.synthesize"],
        "fields.synthesize_calls": calls["fields.synthesize"],
        "fields.synthesize_points": sizes["fields.synthesize", "points"],
        "fields.synthesize_modes": sizes["fields.synthesize", "modes"],
        "fields.synthesize_points_per_s": rate(sizes["fields.synthesize", "points"],
                                               busy["fields.synthesize"]),
        "fields.maxwell_residual_s": busy["fields.maxwell_residual"],
        "modes.kprep_s": busy["modes.kprep"],
        "modes.kprep_calls": calls["modes.kprep"],
        "modes.boost_s": busy["modes.boost"],
        "fdops.stencil_s": busy["fdops.stencil"],
        "fdops.stencil_calls": calls["fdops.stencil"],
        "fdops.stencil_points": sizes["fdops.stencil", "points"],
        "current.bilinear_s": busy["current.bilinear"],
        "current.bilinear_points": sizes["current.bilinear", "points"],
        "current.continuity_s": busy["current.continuity"],
        "medium.lifecycle_s": busy["medium.lifecycle"],
        "medium.lifecycle_calls": calls["medium.lifecycle"],
        "medium.lifecycle_cells": sizes["medium.lifecycle", "cells"],
        "medium.lifecycle_cells_per_s": rate(sizes["medium.lifecycle", "cells"],
                                             busy["medium.lifecycle"]),
        "csvio.write_s": busy["csvio.write"],
        "csvio.bytes": sizes["csvio.write", "bytes"],
        "csvio.rows": sizes["csvio.write", "rows"],
        "csvio.mb_per_s": rate(sizes["csvio.write", "bytes"] / 1e6, busy["csvio.write"]),
    }
    blocks = timings.get("verify.run", {})
    for name in VERIFY_BLOCKS:
        m[f"verify.block.{name}_s"] = blocks.get(name, 0.0)
    m["scenarios.run_s"] = sum(timings.get("scenarios.run", {}).values())
    return m


def memory_metrics(spans) -> dict:
    peak = defaultdict(int)
    for s in spans:
        peak[s["name"]] = max(peak[s["name"]], s["peak_bytes"])
    return {"fields.synthesize_peak_mb": peak["fields.synthesize"] / 1e6,
            "medium.lifecycle_peak_mb": peak["medium.lifecycle"] / 1e6,
            "csvio.peak_mb": peak["csvio.write"] / 1e6}


# ---------------------------------------------------------------------------

def _median(calls, key):
    return statistics.median(c[key] for c in calls)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from photonlab import csvio
    products = workload.products(csvio)
    rundir = RUNS / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = environment(seed)
    cli_args = ["verify"]
    if workload.make_config is not None:
        config = rundir / "config.ini"
        config.write_text(workload.make_config(random.Random(seed)), encoding="utf-8")
        cli_args = ["run", "--config", str(config)]

    start = time.monotonic()
    deadline, limit = start + seconds, start + RUN_LIMIT_S
    done = []
    first_digests = None
    yardstick, problems = [], []

    def time_host():
        if trace:
            return
        try:
            yardstick.append(time_reference(limit - time.monotonic()))
        except (subprocess.SubprocessError, OSError) as exc:
            problems.append(f"reference run failed: {exc}")

    def call(mode):
        nonlocal first_digests
        outdir = rundir / f"call{len(done):03d}"
        outdir.mkdir()
        c = spawn(mode, cli_args, outdir, rundir / f"call{len(done):03d}.json",
                  limit - time.monotonic())
        if mode != "setup":
            faults, digests = gate(outdir, c["code"], products, csvio.REPORT_COLUMNS)
            first_digests = first_digests or digests
            if digests != first_digests:
                faults.append("reports differ from the run's first call")
            c["problems"] += faults
        elif c["code"] != 0:
            c["problems"].append(f"exit code {c['code']}")
        if not c["problems"]:
            shutil.rmtree(outdir)
        done.append(c)

    time_host()
    for _ in range(SETUP_PROBES):
        call("setup")
    time_host()
    modes = ("plain", "trace") if trace else ("plain",)
    n = 0
    while True:
        workers = [c for c in done if c["mode"] != "setup"]
        expected = _median(workers, "wall_s") if workers else 0.0
        if n >= MIN_CALLS and time.monotonic() + expected > deadline:
            break
        call(modes[n % len(modes)])
        time_host()
        n += 1
    if trace:
        call("memory")

    problems += [p for c in done for p in c["problems"]]
    # Only the calls that run the CLI to the end and pass the gate count as
    # attempted; the set-up probes stop before any computation.
    gated = [c for c in done if c["mode"] != "setup"]
    failed = sum(1 for c in gated if c["problems"])
    host = statistics.median(yardstick) if yardstick else REFERENCE_S
    plain = [c for c in done if c["mode"] == "plain"]
    setups = [c for c in done if c["mode"] in ("setup", "plain") and "setup_s" in c]
    values, samples, raw = {}, {}, {"reference_s": host} if yardstick else {}
    if not trace:
        raw.update(wall_s=_median(plain, "wall_s"))
        values = {"wall_s": raw["wall_s"] * REFERENCE_S / host,
                  "peak_rss_mb": _median(plain, "peak_rss_mb"),
                  "passed_frac": 1.0 - failed / len(gated)}
        if setups:
            raw["setup_s"] = _median(setups, "setup_s")
            values["setup_s"] = raw["setup_s"] * REFERENCE_S / host
        samples = {"wall_s": len(plain), "setup_s": len(setups), "peak_rss_mb": len(plain)}
    else:
        traced = [c for c in done if c["mode"] == "trace" and c.get("spans")]
        per_call = [layer_metrics(c["spans"]) for c in traced]
        for name in per_call[0] if per_call else ():
            values[name] = statistics.median(p[name] for p in per_call)
        for c in done:
            if c["mode"] == "memory" and c.get("spans"):
                values.update(memory_metrics(c["spans"]))
        wall = _median(plain, "wall_s")
        values.update({"cli.cpu_s": _median(plain, "cpu_s"),
                       "cli.cpu_util": _median(plain, "cpu_s") / wall})
        if setups:
            values.update({"cli.import_s": _median(setups, "import_s"),
                           "config.parse_s": _median(setups, "parse_s")})
        if traced:
            values["trace.overhead_s"] = _median(traced, "wall_s") - wall

    metrics = {}
    for entry in load_benchmark()["per_layer" if trace else "end_to_end"]:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        else:
            problems.append(f"no value for {entry['name']}")
    result = {
        "workload": workload.name, "trace": int(trace), "env": env,
        "calls": dict(Counter(c["mode"] for c in done)),
        "problems": problems,
        "metrics": metrics,
        "samples": samples,
        "unscaled": raw,
        "attempted": len(gated),
        "failed": failed,
    }
    (rundir / "result.json").write_text(json.dumps({**result, "each_call": done}),
                                        encoding="utf-8")
    return result


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _layer_of(metric: str) -> str:
    for prefix in sorted(LAYER_MAP, key=len, reverse=True):
        if metric.startswith(prefix):
            return prefix
    return metric


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "photonlab" / "cli.py").is_file():
        print(f"perfbench: no photonlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"perfbench {result['workload']} seed={args.seed} trace={args.trace} "
          f"calls={result['calls']}")
    print("env " + json.dumps(result["env"]))
    print("unscaled " + json.dumps(result["unscaled"]))
    for problem in result["problems"]:
        print("problem: " + problem)
    layers_seen = set()
    for name, m in result["metrics"].items():
        line = f"{name:32s} {m['value']:>14.6g} {m['unit']}"
        if name in result["samples"]:
            line += f"    median of {result['samples'][name]}"
        layer = _layer_of(name)
        if args.trace and layer in LAYER_MAP and layer not in layers_seen:
            layers_seen.add(layer)
            line += "    moves {} on {}; flat on {}".format(*LAYER_MAP[layer])
        print(line)
    if not args.trace:
        print(f"{'failed_frac':32s} {result['failed'] / result['attempted']:>14.6g} fraction")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
