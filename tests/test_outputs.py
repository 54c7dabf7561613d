"""Every output of tools/output_calls.py's CLI calls, pinned by its recorded digest.

An intended change of output is a reviewed diff of tests/outputs.sha256.json,
rewritten by `python3 tools/same_outputs.py --record`.
"""

import copy
import json
import sys
from pathlib import Path

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
    differs = output_calls.first_difference(
        want, output_calls.manifest(ROOT / "src", output_calls.all_calls()))
    assert differs is None, differs


def test_one_changed_byte_is_named(tmp_path):
    stdout, data = b"result: PASS\n", bytes(range(256)) * 4
    (tmp_path / "report.txt").write_bytes(stdout)
    (tmp_path / "current.csv").write_bytes(data)
    want = {"environment": output_calls.environment(),
            "calls": {"a": output_calls.digests((0, stdout), tmp_path)}}
    assert output_calls.first_difference(want, copy.deepcopy(want)) is None

    flipped = bytearray(data)
    flipped[517] ^= 1
    (tmp_path / "current.csv").write_bytes(bytes(flipped))
    got = {"environment": want["environment"],
           "calls": {"a": output_calls.digests((0, stdout), tmp_path)}}
    assert output_calls.first_difference(want, got) == "a/current.csv"
    got["calls"]["a"] = output_calls.digests((0, b"result: PASS\r"), tmp_path)
    assert output_calls.first_difference(want, got) == "a: stdout"
    got["calls"]["a"] = output_calls.digests((1, stdout), tmp_path)
    assert output_calls.first_difference(want, got) == "a: exit code 0 recorded, 1 here"
    (tmp_path / "current.csv").unlink()
    got["calls"]["a"] = output_calls.digests((0, stdout), tmp_path)
    assert output_calls.first_difference(want, got) == "a/current.csv"

    got["environment"] = dict(want["environment"], numpy="0.0")
    assert output_calls.first_difference(want, got) == (
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
    assert output_calls.first_difference(before, after) == moved[0]

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
