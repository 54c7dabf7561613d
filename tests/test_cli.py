import ctypes
import errno
import os
import shutil
import subprocess
import sys

import pytest

import photonlab
from photonlab.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_fock_scenario_passes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"[fock]\nn_states = 12\noutput = {out}\n")
    assert main(["run", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "result: PASS" in stdout
    assert "fock_commutator" in stdout
    assert sorted(os.listdir(out)) == ["report.csv", "report.txt"]


def test_check_failure_exits_one_but_still_reports(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""[fock]
n_states = 12
output = {out}

[tolerances]
fock_commutator = 1e-30
""")
    assert main(["run", "--config", cfg]) == 1
    stdout = capsys.readouterr().out
    assert "result: FAIL" in stdout
    assert (out / "report.txt").exists() and (out / "report.csv").exists()
    assert "FAIL" in (out / "report.txt").read_text(encoding="utf-8")


def test_wide_detector_fails_causality_at_its_worst_cell(tmp_path, capsys):
    # the detector is a prescribed sink: wider and longer than the pulse it
    # meets, it drains density outside the emitter's cone before the arrival
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"[lifecycle1d]\noutput = {out}\n"
                                 "[emitter]\nwidth = 0.08\nduration = 0.15\n"
                                 "[detector]\nwidth = 0.1\nduration = 0.3\n")
    assert main(["run", "--config", cfg]) == 1
    lines = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    causality = next(line.split() for line in lines if line.startswith("causality "))
    assert causality[2] == "2.0381653254540475e-05" and causality[-1] == "FAIL"
    assert ("causality worst density outside the cone: row 342 at t = 17.1, "
            "cell 1243 at z = 13.208") in lines
    assert not any("acausal" in line for line in lines)
    assert "result: FAIL (3/4 checks)" in lines


def test_config_error_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, "[fock]\nbogus_key = 1\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "photonlab: config error" in err
    assert "bogus_key" in err


# finite packets whose normalization fails: every amplitude underflows to 0,
# or the mode measure dk^3 overflows; each is refused naming its field
EXTREME_PACKETS = {
    "[packet3d]\nsigma = 1e-300\nn_k = 4\nn_x = 8\n": "field 'sigma'",
    "[packet3d]\ndk = 1e300\n": "field 'dk'",
}


@pytest.mark.parametrize("text", [
    "[packet3d]\nk0 = (0, 0, inf)\n",
    "[packet3d]\ndk = inf\n",
    "[packet3d]\nt_stop = inf\n",
    "[gauge]\ngauge_strength = nan\n",
    "[lifecycle1d]\nepsilon_rel = inf\n",
    "[lifecycle1d]\nz_max = inf\n",
    *EXTREME_PACKETS,
])
def test_non_finite_number_exits_two_before_computing(tmp_path, text):
    # a separate process, so a crash would show as a traceback and exit 1
    out = tmp_path / "out"
    cfg = write_config(tmp_path, text + f"output = {out}\n")
    res = subprocess.run([sys.executable, "-m", "photonlab", "run", "--config", cfg],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert res.returncode == 2
    assert "photonlab: config error: field" in res.stderr
    assert EXTREME_PACKETS.get(text, "expected a finite number") in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("run", "fock", "seed", "1"),
    ("run", "gauge", "t_start", "3"),
    ("run", "gauge", "t_steps", "7"),
    ("run", "boost", "units", "si"),
    ("verify", "verify", "units", "si"),
])
def test_key_that_changes_nothing_exits_two_before_computing(tmp_path, command, section,
                                                             key, value):
    # every run is deterministic, the gauge law holds at one instant, and these
    # sections scale no time or column: each key is unknown, at its line
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"[{section}]\noutput = {out}\n{key} = {value}\n")
    res = subprocess.run([sys.executable, "-m", "photonlab", command, "--config", cfg],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert res.returncode == 2
    assert (f"photonlab: config error: line 3 field '{key}': unknown key '{key}' in "
            f"[{section}]") in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_gauge_t_stop_needs_no_start(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"[gauge]\nt_stop = -1\noutput = {out}\n")
    assert main(["run", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "t_stop = -1" in lines
    assert "result: PASS (3/3 checks)" in lines


def test_missing_config_exits_three(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 3
    assert "cannot read config" in capsys.readouterr().err


def test_kind_gating_both_directions(tmp_path, capsys):
    scenario = write_config(tmp_path, "[fock]\n", name="a.cfg")
    assert main(["verify", "--config", scenario]) == 2
    assert "use `photonlab run --config ...`" in capsys.readouterr().err
    ver = write_config(tmp_path, "[verify]\n", name="b.cfg")
    assert main(["run", "--config", ver]) == 2
    assert "use `photonlab verify --config ...`" in capsys.readouterr().err


def test_unwritable_output_exits_three_before_computing(tmp_path, capsys):
    cfg = write_config(tmp_path, "[fock]\noutput = /proc/photonlab-denied\n")
    assert main(["run", "--config", cfg]) == 3
    assert "cannot write to output directory" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_subcommand_required():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_installed_entry_point_reports_version():
    res = subprocess.run([sys.executable, "-m", "photonlab.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("photonlab ")


@pytest.mark.skipif(shutil.which("photonlab") is None,
                    reason="photonlab console script not on PATH (package not installed)")
def test_console_script_reports_version():
    res = subprocess.run(["photonlab", "--version"], capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.strip() == f"photonlab {photonlab.__version__}"


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # erf is computed in numpy; neither the import nor a lifecycle solve loads scipy
    env = dict(os.environ, PYTHONPATH=SRC)
    cfg = write_config(tmp_path, "[lifecycle1d]\nn_z = 512\nt_steps = 100\n"
                                 f"output = {tmp_path / 'out'}\n")
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, photonlab.cli; print(photonlab.cli.__file__); print('scipy' in sys.modules)\n"
         f"code = photonlab.cli.main(['run', '--config', {cfg!r}])\n"
         "print(code, 'scipy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    where, loaded = lines[:2]
    code, loaded_after = lines[-1].split()
    assert where.startswith(SRC)
    assert loaded == "False"
    assert code == "0" and loaded_after == "False"
    assert (tmp_path / "out" / "lifecycle.csv").exists()


def _blas_env(threads):
    """The child's env: importing photonlab.cli set the variable in this process too."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.parametrize("threads, expected", [
    (None, 1),
    pytest.param(2, 2, marks=pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                                reason="fewer than 2 CPUs")),
])
def test_cli_loads_blas_on_one_thread_unless_told_otherwise(threads, expected):
    res = subprocess.run(
        [sys.executable, "-c",
         "import os, photonlab.cli, numpy as np\n"
         "a = np.ones((256, 256), dtype=complex)\n"
         "a @ a\n"
         "print(len(os.listdir('/proc/self/task')))"],
        capture_output=True, text=True, env=_blas_env(threads))
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) == expected


@pytest.mark.parametrize("config", [None, "[packet3d]\n", "[gauge]\nn_x = 18\n",
                                    "[gauge]\nn_x = 66\n"],
                         ids=["verify", "packet3d", "gauge-nx18", "gauge-nx66"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, config):
    """Every output file and stdout are byte-identical at 1 and 2 OpenBLAS threads,
    and with the CLI's malloc thresholds left at glibc's defaults.

    The default packet3d box is cut into 4 slabs of 8 planes, and the gauge
    boxes, whose n_x is not a multiple of 4, into slabs of 4 planes and a
    last one of 2 (4 x 4 + 2 at n_x = 18, 16 x 4 + 2 at n_x = 66), so
    fields.slab_plan's multiple-of-4 rule is checked at 1 and 2 threads too,
    on boxes with leftover planes. With the thresholds set, np.empty and the
    scratch buffers come from recycled heap memory rather than freshly zeroed
    pages, so a read before a write would show as a difference.
    """
    args = ["verify"]
    if config is not None:
        args = ["run", "--config", write_config(tmp_path, config)]
    default_malloc = ("import sys\nfrom photonlab import cli\n"
                      "cli._keep_freed_pages = lambda: None\n"
                      "sys.exit(cli.main(sys.argv[1:]))")
    runs = []
    for name, threads, entry in (("threads1", 1, ["-m", "photonlab"]),
                                 ("threads2", 2, ["-m", "photonlab"]),
                                 ("default-malloc", 1, ["-c", default_malloc])):
        out = tmp_path / name
        out.mkdir()
        res = subprocess.run([sys.executable, *entry, *args], cwd=out,
                             capture_output=True, env=_blas_env(threads))
        assert res.returncode == 0, res.stderr
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((res.stdout, files))
    assert runs[0][1] and runs[0] == runs[1] == runs[2]


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the C library is not glibc")
def test_cli_keeps_freed_pages_for_the_next_block():
    # a CSV block's churn: 40 arrays of 128 KiB written and freed, 20 times
    # over; the first round maps the heap and the other 19 are counted
    churn = (
        "import resource, numpy as np\n"
        "from photonlab import cli\n"
        "def faults():\n"
        "    for i in range(20):\n"
        "        if i == 1:\n"
        "            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "        held = [np.ones(16384) for _ in range(40)]\n"
        "        del held\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start\n"
        "default = faults()\n"
        "cli._keep_freed_pages()\n"
        "print(default, faults())")
    res = subprocess.run([sys.executable, "-c", churn], capture_output=True, text=True,
                         env=_blas_env(None))
    assert res.returncode == 0, res.stderr
    default, kept = map(int, res.stdout.split())
    assert default > 2000 and kept < 300, (default, kept)


def test_cli_runs_where_the_c_library_is_not_glibc(tmp_path, monkeypatch):
    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_mallopt(*args, **kwargs):
        raise AssertionError("mallopt reached without glibc")

    monkeypatch.setattr(os, "confstr", no_glibc)
    monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
    cfg = write_config(tmp_path, f"[fock]\nn_states = 12\noutput = {tmp_path / 'out'}\n")
    assert main(["run", "--config", cfg]) == 0


@pytest.mark.parametrize("command, section", [("run", "fock"), ("verify", "verify")])
def test_failed_output_write_exits_three(tmp_path, capsys, monkeypatch, command, section):
    def no_space(path, chunks):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr("photonlab.csvio.atomic_write_chunks", no_space)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"[{section}]\noutput = {out}\n")
    assert main([command, "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "photonlab: cannot write outputs: [Errno 28] No space left on device" in captured.err
    assert captured.out == ""
    assert os.listdir(out) == []


def test_medium1d_longitudinal_packet_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"[medium1d]\nn_k = 8\nlambda = par\noutput = {out}\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "photonlab: config error: line 3 field 'lambda':" in err
    assert "lambda = +1 or -1" in err
    assert not out.exists()
