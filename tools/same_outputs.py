"""Check that the working tree's outputs are byte-identical to those of a revision.

    python3 tools/same_outputs.py REV
    python3 tools/same_outputs.py --record

Exports REV with `git archive` into a temporary directory, makes the same
photonlab calls with REV's `src` and with the working tree's, and compares
each call's exit code and the SHA-256 of its stdout and of every file it
writes through output_calls.differences(), as the manifest test does (REV's
side reads as "recorded"). A Python traceback on either side's stderr
differs too: a crash exits 1 as a failed check does. So does a process left
running: each call starts its own session, and once it has exited, a member
left in its process group (a child lane never reaped, say) is named and
killed. Prints one line per call; exits 1 and names the outputs that differ,
0 when every output is byte-identical, and 2 when git cannot export REV.
After each call's line it prints the call's peak RSS on both sides
(ru_maxrss from os.wait4, as perfbench reads it), its minor page faults
(ru_minflt) and its CPU seconds (ru_utime + ru_stime), so a check of
identical bytes also shows where memory moved, what the move cost in page
faults, and how much CPU time every thread of the call and of its reaped
child lanes spent. One call a side also moves with host noise, so a call
whose peak RSS or minor faults moved by more than 10% either way is run
twice more on each side, alternating sides, and is named on the summary
line only if the median of its three runs a side moved by more than 10%.
Before that summary, one totals line a side sums the minor faults and CPU
seconds of every call's first run and names the largest peak RSS.
Stdlib only; the 36 call pairs take about 15 s on two cores.

The calls are output_calls.all_calls(). With --record, the working tree's
outputs are not compared with a revision's: their digests are written to
tests/outputs.sha256.json, which tests/test_outputs.py holds the tree to,
and each output whose digest moved against the manifest replaced is named,
in recorded order, or "none".
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from output_calls import MANIFEST, ROOT, all_calls, differences, export, faults, manifest, run


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
    rev, diffs, moved = argv[0], [], []
    firsts = ([], [])  # each call's first run at the revision and here
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        try:
            export(rev, tmp / "rev")
        except subprocess.CalledProcessError as e:
            print(f"same_outputs: cannot export {rev}: {e.stderr.decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
        srcs = (tmp / "rev" / "src", ROOT / "src")
        for name, text in calls.items():
            (ref_run, ref), (new_run, new) = (run(src, name, text, tmp) for src in srcs)
            found = list(differences(*({"environment": None, "calls": {name: d}}
                                       for d in (ref, new))))
            found += [f"{name}: {fault} {side}" for side, r in
                      (("at the revision", ref_run), ("here", new_run)) for fault in faults(r)]
            print(f"{name}: exit {new_run[0]}, " + ("DIFFERS" if found else "identical"))
            print(f"{name}: peak RSS {ref_run[2]:.1f} MB, {ref_run[4]} minor faults, "
                  f"{ref_run[5]:.2f} s CPU at {rev}; {new_run[2]:.1f} MB, "
                  f"{new_run[4]} minor faults, {new_run[5]:.2f} s CPU here")
            diffs += found
            firsts[0].append(ref_run)
            firsts[1].append(new_run)
            ref_runs, new_runs = [ref_run], [new_run]
            if _moved(name, ref_runs, new_runs):
                sides = [(srcs[1], new_runs), (srcs[0], ref_runs)]
                for first in (0, 1):  # this side first, then the revision first
                    for src, runs in sides[first:] + sides[:first]:
                        runs.append(run(src, name, text, tmp)[0])
                ref_med, new_med = (f"{statistics.median(r[2] for r in runs):.1f} MB, "
                                    f"{statistics.median(r[4] for r in runs):.0f} minor faults"
                                    for runs in (ref_runs, new_runs))
                print(f"{name}: median of 3 calls a side: {ref_med} at {rev}; {new_med} here")
            moved += _moved(name, ref_runs, new_runs)
    for side, runs in zip((f"at {rev}", "here"), firsts):
        print(f"totals {side}: "
              f"{sum(r[4] for r in runs)} minor faults, {sum(r[5] for r in runs):.2f} s CPU, "
              f"largest peak RSS {max(r[2] for r in runs):.1f} MB")
    print("moved by more than 10%: " + ("; ".join(moved) if moved else "no call's peak RSS "
                                         "or minor faults"))
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(calls)} calls against {rev}: "
          + (f"{len(diffs)} differences" if diffs else "every output byte-identical"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
