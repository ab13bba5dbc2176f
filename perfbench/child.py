"""Fresh-interpreter probes, run by run.py one process at a time.

    python3 perfbench/child.py setup <config> <kind>
        seconds from interpreter start of this script to a parsed spec:
        import alebench (the CLI and everything it imports), read the
        config, parse it.
    python3 perfbench/child.py import_probe
        seconds to import a fixed set of standard-library modules: the
        machine's speed at fresh-interpreter imports, without alebench
        or numpy (speed.py).
    python3 perfbench/child.py run <config> <kind> <out_dir>
        one workload run through alebench.cli.main, then its exit code
        (null if it raised, with the exception in "error") and the
        high-water RSS of this process (VmHWM).

Each prints one JSON object on its last stdout line.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _setup(config, kind):
    import alebench.cli  # noqa: F401
    from alebench.bench import parse_config

    parse_config(Path(config).read_text(encoding="utf-8"), kind=kind)
    return {"setup_s": time.perf_counter() - _T0}


def _import_probe():
    start = time.perf_counter()
    import argparse, csv, dataclasses, decimal, email.parser, fractions, http.client, logging, typing  # noqa: E401, F401

    return {"import_s": time.perf_counter() - start}


def _run(config, kind, out_dir):
    import alebench.cli

    rc, error = None, ""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = alebench.cli.main([kind, "--config", config, "--out", out_dir, "--jobs", "1"])
    except Exception as err:  # noqa: BLE001 - reported as a failed run
        error = repr(err)
    return {"rc": rc, "error": error, "peak_rss_mb": _peak_rss_kib() / 1024.0}


def _peak_rss_kib():
    # VmHWM is this process's own high-water mark.  ru_maxrss is not: Linux
    # carries the spawning process's peak into it across exec.
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    result = {"setup": _setup, "import_probe": _import_probe, "run": _run}[mode](*rest)
    print(json.dumps(result))
