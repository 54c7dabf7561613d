"""Command line front end: verification suite and scenario runner.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error,
3 I/O error (unreadable config, unwritable output directory, or a failed
output write).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from . import __version__

# One BLAS thread unless the user set a count: OpenBLAS reads this once, when numpy
# loads it, and every gemm in photonlab is a contraction only n_k deep.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from .config import ConfigError, default_verify_config, parse_config
from .csvio import report_text, write_report_files
from .scenarios import run_scenario
from .verify import run_verify

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_IO_ERROR = 3

# glibc's malloc thresholds (mallopt(3)), at the values its own adaptive rule ends
# at on 64-bit: DEFAULT_MMAP_THRESHOLD_MAX, and a trim threshold of twice that
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt's parameter numbers (malloc.h)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlab",
        description="numerical workbench for single-photon field scenarios")
    parser.add_argument("--version", action="version",
                        version=f"photonlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run the full invariant verification suite")
    p_verify.add_argument("--config", metavar="PATH", default=None,
                          help="optional [verify] configuration file")

    p_run = sub.add_parser("run", help="run one scenario and write its CSVs")
    p_run.add_argument("--config", metavar="PATH", required=True,
                       help="scenario configuration file")
    return parser


def _read_config_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _prepare_output(outdir: str) -> None:
    """Fail fast on an unwritable output directory, before any computation."""
    os.makedirs(outdir, exist_ok=True)
    probe = os.path.join(outdir, ".photonlab-write-probe")
    with open(probe, "w", encoding="utf-8"):
        pass
    os.remove(probe)


def _keep_freed_pages() -> None:
    """Keep freed slab- and block-sized temporaries in glibc's heap for the next slab.

    By default glibc maps such a block afresh, returns its pages to the kernel
    when it is freed and faults them in again for the next slab, until some
    free happens to raise its thresholds. A no-op unless the C library is glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (ValueError, OSError):
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_pages()
    args = build_parser().parse_args(argv)

    try:
        if args.config is None:
            cfg = default_verify_config()
        else:
            cfg = _read_config_file(args.config)
    except ConfigError as exc:
        print(f"photonlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"photonlab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    if args.command == "verify" and cfg.kind != "verify":
        print(f"photonlab: config selects scenario '{cfg.kind}'; "
              "use `photonlab run --config ...`", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if args.command == "run" and cfg.kind == "verify":
        print("photonlab: config selects the verification suite; "
              "use `photonlab verify --config ...`", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        _prepare_output(cfg.output)
    except OSError as exc:
        print(f"photonlab: cannot write to output directory: {exc}",
              file=sys.stderr)
        return EXIT_IO_ERROR

    if cfg.kind == "verify":
        run, title = run_verify, "photonlab verification report"
    else:
        run, title = run_scenario, f"photonlab scenario report: {cfg.kind}"
    try:
        outcome = run(cfg)
        report = report_text(title, cfg.echo_lines(), outcome.checks, outcome.info)
        write_report_files(cfg.output, report, outcome.checks)
    except OSError as exc:
        print(f"photonlab: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    sys.stdout.write(report)
    return EXIT_PASS if outcome.all_passed else EXIT_CHECK_FAILURE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
