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
