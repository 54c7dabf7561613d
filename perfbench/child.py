"""One photonlab CLI call in a fresh interpreter, with set-up time stamps.

Usage: child.py MODE STAMPS -- CLI-ARGS...

MODE is ``plain`` (tracer off), ``trace`` (span times), ``memory`` (span
peaks under tracemalloc) or ``setup`` (stop once set-up is done). The
checkout's ``src`` must be on PYTHONPATH. The stamps are taken on the CLI's
own set-up path: ``imported`` once ``photonlab.cli`` is imported, ``parsing``
and ``parsed`` around its config read, ``ready`` when its output directory
check returns. They use CLOCK_MONOTONIC, which the parent process shares,
and are written to STAMPS as JSON together with the spans of a traced call.
"""

import json
import sys
import time


class SetupDone(Exception):
    """Raised from the CLI's output directory check in ``setup`` mode."""


def _stamped(fn, stamps, before, after, stop=False):
    def call(*args, **kwargs):
        if before:
            stamps[before] = time.monotonic()
        result = fn(*args, **kwargs)
        stamps[after] = time.monotonic()
        if stop:
            raise SetupDone
        return result
    return call


def main() -> int:
    mode, stamps_path, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "memory", "setup"):
        raise SystemExit("usage: child.py plain|trace|memory|setup STAMPS -- CLI-ARGS...")
    import photonlab.cli as cli
    stamps = {"imported": time.monotonic()}
    for name in ("default_verify_config", "_read_config_file"):
        setattr(cli, name, _stamped(getattr(cli, name), stamps, "parsing", "parsed"))
    cli._prepare_output = _stamped(cli._prepare_output, stamps, None, "ready",
                                   stop=mode == "setup")

    code = 0
    tracer = None
    if mode in ("trace", "memory"):
        from tracer import Tracer
        tracer = Tracer(memory=mode == "memory")
        tracer.install()
    try:
        code = cli.main(cli_args)
    except SetupDone:
        pass
    finally:
        if tracer is not None:
            stamps["spans"] = tracer.spans
        with open(stamps_path, "w", encoding="utf-8") as fh:
            json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
