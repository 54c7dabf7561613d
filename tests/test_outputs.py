"""Every output of tools/output_calls.py's CLI calls, pinned by its recorded digest.

An intended change of output is a reviewed diff of tests/outputs.sha256.json,
rewritten by `python3 tools/same_outputs.py --record`. The harness is tested
here too: its comparison, both modes of tools/same_outputs.py (with fake calls
in place of the CLI), and the slab plans the calls' comments name.
"""

import copy
import json
import sys
from pathlib import Path

from photonlab.fields import dual_grid, slab_plan
from photonlab.modes import KGrid

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import output_calls  # noqa: E402  (tools/ is not a package)
import same_outputs  # noqa: E402


def test_every_output_matches_its_recorded_digest():
    # the environment is checked before the calls: another numpy or BLAS fails
    # at once and names both, rather than as a file that differs
    want = json.loads(output_calls.MANIFEST.read_text())
    env = output_calls.environment()
    assert env == want["environment"], f"recorded {want['environment']}, here {env}"
    differs = next(output_calls.differences(
        want, output_calls.manifest(ROOT / "src", output_calls.all_calls())), None)
    assert differs is None, differs


def test_one_changed_byte_is_named(tmp_path):
    stdout, data = b"result: PASS\n", bytes(range(256)) * 4
    (tmp_path / "report.txt").write_bytes(stdout)
    (tmp_path / "current.csv").write_bytes(data)
    want = {"environment": output_calls.environment(),
            "calls": {"a": output_calls.digests((0, stdout), tmp_path)}}
    assert next(output_calls.differences(want, copy.deepcopy(want)), None) is None

    flipped = bytearray(data)
    flipped[517] ^= 1
    (tmp_path / "current.csv").write_bytes(bytes(flipped))
    got = {"environment": want["environment"],
           "calls": {"a": output_calls.digests((0, stdout), tmp_path)}}
    assert next(output_calls.differences(want, got), None) == "a/current.csv"
    got["calls"]["a"] = output_calls.digests((0, b"result: PASS\r"), tmp_path)
    assert next(output_calls.differences(want, got), None) == "a: stdout"
    got["calls"]["a"] = output_calls.digests((1, stdout), tmp_path)
    assert next(output_calls.differences(want, got), None) == "a: exit code 0 recorded, 1 here"
    (tmp_path / "current.csv").unlink()
    got["calls"]["a"] = output_calls.digests((0, stdout), tmp_path)
    assert next(output_calls.differences(want, got), None) == "a/current.csv"

    got["environment"] = dict(want["environment"], numpy="0.0")
    assert next(output_calls.differences(want, got), None) == (
        f"environment: recorded {want['environment']}, here {got['environment']}")


def test_record_names_every_moved_output_in_recorded_order(tmp_path, monkeypatch, capsys):
    env = output_calls.environment()

    def run(exit_code, stdout, files):
        return {"exit": exit_code, "stdout": stdout, "files": files}

    before = {"environment": env, "calls": {
        "c": run(0, "s", {"report.txt": "1", "current.csv": "2"}),
        "a": run(0, "s", {"report.txt": "3"}),
        "b": run(1, "s", {"report.txt": "4"})}}
    after = {"environment": env, "calls": {
        "c": run(0, "s", {"report.txt": "1", "current.csv": "5"}),
        "a": run(0, "t", {"report.txt": "6"}),
        "b": run(1, "s", {"report.txt": "4"}),
        "d": run(2, "s", {})}}
    moved = ["c/current.csv", "a: stdout", "a/report.txt", "d: a call on one side only"]
    assert list(output_calls.differences(before, after)) == moved

    manifest = tmp_path / "outputs.sha256.json"
    manifest.write_text(json.dumps(before))
    monkeypatch.setattr(same_outputs, "ROOT", tmp_path)
    monkeypatch.setattr(same_outputs, "MANIFEST", manifest)
    monkeypatch.setattr(same_outputs, "all_calls", lambda: dict.fromkeys(after["calls"]))
    monkeypatch.setattr(same_outputs, "manifest", lambda src, calls: after)
    for lines in (moved, ["none"]):  # a second record replaces a manifest it matches
        assert same_outputs.main(["--record"]) == 0
        assert json.loads(manifest.read_text()) == after
        assert capsys.readouterr().out.splitlines() == [
            "4 calls recorded in outputs.sha256.json"] + [f"moved: {line}" for line in lines]


def test_rev_names_each_planted_difference_once(tmp_path, monkeypatch, capsys):
    # a fake call per name, no git and no CLI: each side's exit code, files,
    # stderr, process left running and peak RSS
    stdout, data = b"result: PASS\n", bytes(range(256)) * 4
    flipped = bytearray(data)
    flipped[517] ^= 1

    def side(exit_code=0, extra=None, csv=data, stderr=b"", stray=False, rss=30.5):
        return exit_code, {"report.txt": stdout, "current.csv": csv, **(extra or {})}, stderr, \
            stray, rss

    plants = {  # name -> (the revision's side, this side)
        "clean": (side(), side(rss=31.0)),
        "flipped": (side(), side(csv=bytes(flipped))),
        "exit": (side(), side(exit_code=1)),
        "one-side": (side(), side(extra={"extra.csv": b"1\n"})),
        "traceback": (side(stderr=b"Traceback (most recent call last):\n"), side()),
        "stray": (side(), side(stray=True)),
        "moved": (side(), side(rss=40.0)),
    }
    named = ["flipped/current.csv", "exit: exit code 0 recorded, 1 here", "one-side/extra.csv",
             "traceback: traceback on stderr at the revision",
             "stray: a process left running in its group here"]
    made = []

    def call(src, config, outdir):
        here = src == ROOT / "src"
        exit_code, files, stderr, stray, rss = plants[config.stem][here]
        for name, content in files.items():
            (outdir / name).write_bytes(content)
        made.append((config.stem, here))
        return exit_code, stdout, rss, stderr, 1000 + 10 * here, 0.25, stray

    monkeypatch.setattr(same_outputs, "export", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(output_calls, "call", call)
    monkeypatch.setattr(same_outputs, "all_calls", lambda: {name: "" for name in plants})
    assert same_outputs.main(["REV"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line for line in lines if line.startswith("differs: ")) == sorted(
        f"differs: {line}" for line in named)
    assert "clean: exit 0, identical" in lines and "flipped: exit 0, DIFFERS" in lines
    assert ("clean: peak RSS 30.5 MB, 1000 minor faults, 0.25 s CPU at REV; 31.0 MB, "
            "1010 minor faults, 0.25 s CPU here") in lines
    # the one call whose peak RSS moved by more than 10% is run three times a side
    assert made.count(("moved", True)) == made.count(("moved", False)) == 3
    assert "moved by more than 10%: moved peak RSS 30.5 MB -> 40.0 MB" in lines
    assert lines[-1] == "7 calls against REV: 5 differences"

    monkeypatch.setattr(same_outputs, "all_calls", lambda: {"clean": ""})
    assert same_outputs.main(["REV"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 calls against REV: every output byte-identical")


def test_a_revision_git_cannot_export_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "all_calls", dict)
    assert same_outputs.main(["no-such-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("same_outputs: cannot export no-such-rev: fatal: ")  # git's message


def test_the_slab_plans_the_calls_name():
    # the comments on the packet3d-nx* and gauge-nx* calls name these cuts; a
    # change of fields._SLAB_POINTS fails here rather than leaving them wrong
    kgrid = KGrid(n_per_axis=4, spacing=0.25)
    for n_x, planes in {18: [18], 32: [8] * 4, 33: [4] * 7 + [5], 50: [4] * 12 + [2],
                        64: [4] * 16, 66: [4] * 16 + [2]}.items():
        assert [len(p) for _, p in slab_plan(dual_grid(kgrid, n_x))] == planes, n_x
