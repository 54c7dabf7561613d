import ctypes
import errno
import os
import shutil
import subprocess
import sys
import time

import pytest

import photonlab
from photonlab import csvio, scenarios, verify
from photonlab.cli import main
from photonlab.config import default_verify_config
from photonlab.verify import beside

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


@pytest.mark.parametrize("command, config, code", [
    ("verify", "[verify]\ninject_dispersion_error = 0.05\n", 1),
    ("run", "[lifecycle1d]\nn_z = 512\nt_steps = 100\n", 0),
], ids=("verify", "run"))
def test_stdout_is_the_report_it_wrote(tmp_path, capsysbinary, command, config, code):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config + f"output = {out}\n")
    assert main([command, "--config", cfg]) == code
    assert capsysbinary.readouterr().out == (out / "report.txt").read_bytes()


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
    with the CLI's malloc thresholds left at glibc's defaults, and with os.fork
    removed, so the child lanes (packet3d's fields.csv, verify's Maxwell study)
    run in process, in the serial order.

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
    inline_lanes = ("import os, sys\nfrom photonlab import cli\ndel os.fork\n"
                    "sys.exit(cli.main(sys.argv[1:]))")
    runs = []
    for name, threads, entry in (("threads1", 1, ["-m", "photonlab"]),
                                 ("threads2", 2, ["-m", "photonlab"]),
                                 ("default-malloc", 1, ["-c", default_malloc]),
                                 ("inline-lanes", 1, ["-c", inline_lanes])):
        out = tmp_path / name
        out.mkdir()
        res = subprocess.run([sys.executable, *entry, *args], cwd=out,
                             capture_output=True, env=_blas_env(threads))
        assert res.returncode == 0, res.stderr
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((res.stdout, files))
    assert runs[0][1] and runs[0] == runs[1] == runs[2] == runs[3]


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


# ---------------------------------------------------------------------------
# the child lanes: packet3d's fields.csv and verify's Maxwell study

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
SMALL_PACKET = "[packet3d]\nn_k = 4\nn_x = 8\nt_steps = 1\n"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_space(path, *args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)


@pytest.mark.parametrize("lanes", ["forked", "inline"])
def test_failed_fields_lane_exits_three_as_the_serial_run(tmp_path, capsys, monkeypatch, lanes):
    if lanes == "inline":
        monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(scenarios, "write_fields_csv", no_space)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_PACKET + f"output = {out}\n")
    assert main(["run", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("photonlab: cannot write outputs: [Errno 28] No space left on "
                            f"device: '{out / 'fields.csv'}'\n")
    assert captured.out == ""
    assert sorted(os.listdir(out)) == ["current.csv", "modes.csv"]
    assert_no_child_left()


@needs_fork
def test_a_lane_that_exits_without_a_result_raises_naming_its_status(tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "write_fields_csv", lambda *args: os._exit(9))
    cfg = write_config(tmp_path, SMALL_PACKET + f"output = {tmp_path / 'out'}\n")
    with pytest.raises(RuntimeError, match=r"ended without a result \(wait status 0x900: "
                                           r"exit code 9\)"):
        main(["run", "--config", cfg])
    assert_no_child_left()


@needs_fork
def test_the_parent_lanes_error_goes_first_and_the_child_is_reaped(tmp_path, capsys,
                                                                    monkeypatch):
    # the fields lane is still running when current.csv fails, and then fails too
    def slow_no_space(path, *args):
        time.sleep(0.5)
        no_space(path)

    def io_error(path, *args):
        raise OSError(errno.EIO, os.strerror(errno.EIO), path)

    monkeypatch.setattr(scenarios, "write_fields_csv", slow_no_space)
    monkeypatch.setattr(scenarios, "write_current_csv", io_error)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, SMALL_PACKET + f"output = {out}\n")
    assert main(["run", "--config", cfg]) == 3
    assert capsys.readouterr().err == ("photonlab: cannot write outputs: [Errno 5] "
                                       f"Input/output error: '{out / 'current.csv'}'\n")
    assert_no_child_left()


@needs_fork
def test_verify_raises_the_parent_lanes_error_and_reaps_the_maxwell_lane(monkeypatch):
    level = verify._maxwell_level

    def maxwell_fails(m, n_x, scale):  # the child lane's 96^3 level
        if n_x == 96:
            raise ValueError("the Maxwell lane failed")
        return level(m, n_x, scale)

    def fock_fails(tol):
        raise KeyError("the last parent block failed")

    monkeypatch.setattr(verify, "_maxwell_level", maxwell_fails)
    with pytest.raises(ValueError, match="the Maxwell lane failed"):
        verify.run_verify(default_verify_config())
    monkeypatch.setattr(verify, "_fock_block", fock_fails)
    with pytest.raises(KeyError, match="the last parent block failed"):
        verify.run_verify(default_verify_config())
    assert_no_child_left()


@needs_fork
def test_verify_keeps_the_block_order_and_the_lanes_own_time():
    rep = verify.run_verify(default_verify_config())
    assert list(rep.timings) == ["norm", "continuity", "helicity", "gauge", "boost", "maxwell",
                                 "medium", "lifecycle", "fock"]
    assert rep.timings["maxwell"] > 0
    names = [c.name for c in rep.checks]
    at = names.index("boost_monotone") + 1
    assert names[at:at + 4] == ["maxwell_gauss_order", "maxwell_ampere_order",
                                "maxwell_divb_order", "medium_pointwise"]
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("command, config, lane, files", [
    ("run", SMALL_PACKET, "photonlab.scenarios.write_fields_csv",
     ["current.csv", "fields.csv", "modes.csv", "report.csv", "report.txt"]),
    ("verify", "[verify]\n", "photonlab.verify._maxwell_level",
     ["n_x=48", "report.csv", "report.txt"]),
])
def test_only_the_lane_runs_in_the_child(tmp_path, capsys, monkeypatch, command, config, lane,
                                         files):
    # the lane runs in one child, and every write but fields.csv is the parent's; of
    # verify's two Maxwell levels the lane is the 96^3 one, and the 48^3 one is the parent's
    pids = tmp_path / "pids"

    def recorded(fn, what):  # what(args): the call's name
        def call(*args, **kwargs):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{what(args)} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return call

    def lane_call(args):
        return "lane" if command == "run" or args[1] == 96 else f"n_x={args[1]}"

    module, _, name = lane.rpartition(".")
    monkeypatch.setattr(lane, recorded(getattr(sys.modules[module], name), lane_call))
    monkeypatch.setattr(csvio, "atomic_write_chunks",
                        recorded(csvio.atomic_write_chunks, lambda args: os.path.basename(args[0])))
    cfg = write_config(tmp_path, config + f"output = {tmp_path / 'out'}\n")
    assert main([command, "--config", cfg]) == 0
    assert capsys.readouterr().out.count("result: PASS") == 1
    records = [line.split() for line in pids.read_text(encoding="utf-8").splitlines()]
    writers = {name: int(pid) for name, pid in records}
    assert sorted(name for name, _ in records) == sorted(files + ["lane"])
    child = writers.pop("lane")
    assert child != os.getpid()
    assert writers == {name: child if name == "fields.csv" else os.getpid() for name in files}
    assert_no_child_left()


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not sent")


@needs_fork
def test_beside_sends_back_a_large_result_and_any_exception():
    big = bytes(range(256)) * 4096  # 1 MiB, 16 pipe buffers
    assert beside(lambda: "main", lambda: big) == ("main", big)

    def fails():
        raise Unpicklable("kept as its repr")

    with pytest.raises(RuntimeError, match=r"^Unpicklable\('kept as its repr'\)$"):
        beside(lambda: None, fails)
    with pytest.raises(KeyError, match="sent back"):
        beside(lambda: None, lambda: {}["sent back"])
    assert_no_child_left()


def cannot_fork():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("fork", [None, cannot_fork], ids=["no-fork", "fork-fails"])
def test_without_fork_main_then_side_run_here(monkeypatch, fork):
    if fork is None:
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "fork", fork)
    ran = []
    assert beside(lambda: ran.append(("main", os.getpid())) or 1,
                  lambda: ran.append(("side", os.getpid())) or 2) == (1, 2)
    assert ran == [("main", os.getpid()), ("side", os.getpid())]
    ran.clear()
    with pytest.raises(KeyError, match="main failed"):
        beside(lambda: {}["main failed"], lambda: ran.append("side"))
    assert ran == []  # as in the serial order, side does not run after main raised
    with pytest.raises(KeyError, match="side failed"):
        beside(lambda: ran.append("main"), lambda: {}["side failed"])
    assert ran == ["main"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@needs_fork
@pytest.mark.parametrize("main_, side, fork, raised", [
    (lambda: 1, lambda: 2, None, None),
    (lambda: {}["main failed"], lambda: 2, None, KeyError),
    (lambda: 1, lambda: {}["side failed"], None, KeyError),
    (lambda: 1, lambda: os._exit(9), None, RuntimeError),
    (lambda: 1, lambda: 2, cannot_fork, None),
], ids=["success", "main-raises", "side-raises", "side-exits", "fork-fails"])
def test_beside_leaves_no_descriptor_and_no_child(monkeypatch, main_, side, fork, raised):
    if fork is not None:
        monkeypatch.setattr(os, "fork", fork)
    before = os.listdir("/proc/self/fd")
    if raised is None:
        assert beside(main_, side) == (1, 2)
    else:
        with pytest.raises(raised):
            beside(main_, side)
    assert os.listdir("/proc/self/fd") == before
    assert_no_child_left()
