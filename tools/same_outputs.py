"""Check that the working tree's outputs are byte-identical to those of a revision.

    python3 tools/same_outputs.py REV
    python3 tools/same_outputs.py --record

Exports REV with `git archive` into a temporary directory, then runs the same
photonlab calls with REV's `src` and with the working tree's, each in the same
output directory, and compares every file written there (reports and CSVs),
stdout and the exit code. A call whose stderr holds a Python traceback on
either side differs too: a crash exits 1 as a failed check does. So does a
call that leaves a process running: each call starts its own session, and
once it has exited, a member left in its process group (a child lane never
reaped, say) is named and killed. Prints one line per call; exits 1 and
names the files that differ, 0 when every output is byte-identical. After
each call's line it prints the call's peak RSS on both sides (ru_maxrss from
os.wait4, as perfbench reads it), its minor page faults (ru_minflt) and its
CPU seconds (ru_utime + ru_stime, both from the same os.wait4), so a check of
identical bytes also shows where memory moved, what the move cost in page
faults, and how much CPU time every thread of the call and of its reaped
child lanes spent. After the per-call lines one summary line names every
call whose peak RSS or minor faults moved by more than 10% either way. One
call a side also moves with host noise, so a call that moved is run twice
more on each side, alternating sides, and is named only if the median of its
three runs a side moved by more than 10%. Before that summary, one totals
line a side sums the minor faults and CPU seconds of every call's first run
and names the largest peak RSS among them.
Stdlib only; the 34 call pairs take about 25 s on two cores.

The calls are output_calls.all_calls(). With --record, the working tree's
outputs are not compared with a revision's: their digests are written to
tests/outputs.sha256.json, which tests/test_outputs.py holds the tree to,
and each output whose digest moved against the manifest replaced is named,
in recorded order, or "none".
"""

from __future__ import annotations

import filecmp
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from output_calls import MANIFEST, ROOT, all_calls, call, differences, manifest


def _export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _differences(name: str, ref: Path, new: Path, ref_run, new_run) -> list[str]:
    diffs = []
    if ref_run[0] != new_run[0]:
        diffs.append(f"{name}: exit code {ref_run[0]} -> {new_run[0]}")
    if ref_run[1] != new_run[1]:
        diffs.append(f"{name}: stdout")
    for side, run in (("at the revision", ref_run), ("here", new_run)):
        if b"Traceback" in run[3]:
            diffs.append(f"{name}: traceback on stderr {side}")
        if run[6]:
            diffs.append(f"{name}: a process left running in its group {side}")
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
    calls = all_calls()
    if argv[0] == "--record":
        before = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else None
        found = manifest(ROOT / "src", calls)
        MANIFEST.write_text(json.dumps(found, indent=1) + "\n")
        print(f"{len(calls)} calls recorded in {MANIFEST.relative_to(ROOT)}")
        moved = ["no manifest before"] if before is None else list(differences(before, found))
        for line in moved or ["none"]:
            print(f"moved: {line}")
        return 0
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
            ref_run = call(tmp / "rev" / "src", config, out)
            out.rename(ref)
            out.mkdir()
            new_run = call(ROOT / "src", config, out)
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
                        runs.append(call(src, config, out))
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
