"""Child processes: one at a time, waited for, with their own rusage."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """The caller's environment with the checkout's src/ first on the path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(argv, cwd, stdout_path, stderr_path, env=None):
    """Run argv to completion; return (exit code, wall seconds, max RSS in KB).

    Output goes to files, so no pipe can fill and stall the child; os.wait4
    reaps it and yields the rusage of that child alone.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env or child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _importtime_ms(stderr_text: str, module: str) -> float:
    """Cumulative import time of a top-level module from -X importtime output."""
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1000.0
    return 0.0  # never imported


def import_probes(cwd: Path, reps: int = 5) -> dict:
    """Median interpreter start-up and import costs of a non-region CLI call.

    `python -c pass` gives the bare interpreter; `python -X importtime -m
    entrecovery.cli bell ...` gives the cumulative import time of the package
    and of numpy as that call pays them.  Both run from cwd, outside src/.
    """
    out, err = cwd / "probe.out", cwd / "probe.err"
    interp, pkg, numpy = [], [], []
    for _ in range(reps):
        code, wall, _ = spawn([sys.executable, "-c", "pass"], cwd, out, err)
        if code != 0:
            raise RuntimeError("`python -c pass` failed")
        interp.append(wall * 1000.0)
        argv = [sys.executable, "-X", "importtime", "-m", "entrecovery.cli",
                "bell", "--a", "0.6", "--p", "0.7", "--json"]
        code, _, _ = spawn(argv, cwd, out, err)
        if code != 0:
            raise RuntimeError("importtime probe of the CLI failed")
        text = err.read_text()
        pkg.append(_importtime_ms(text, "entrecovery"))
        numpy.append(_importtime_ms(text, "numpy"))
    return {
        "cli.interpreter_ms": statistics.median(interp),
        "cli.import_entrecovery_ms": statistics.median(pkg),
        "cli.import_numpy_ms": statistics.median(numpy),
    }
