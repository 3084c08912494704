"""Tests that run the package and its scripts in child processes, and the
reproduction script's report in process.

Each child gets this checkout's `src` on PYTHONPATH and PYTHONUNBUFFERED
removed, so its stdout is block-buffered as in a user's shell.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entrecovery
from entrecovery.cli import main
from conftest import reproduce_examples
from test_cli import REGION_CSV_SHA256

REPO = Path(__file__).resolve().parent.parent
SRC = Path(entrecovery.__file__).resolve().parent.parent
TIMEOUT_S = 60


def _env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run(argv, **kwargs):
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *argv], stderr=subprocess.PIPE, env=_env(),
        timeout=TIMEOUT_S, **kwargs,
    )


# Imports every package module, answers one transform, classify and bell
# query, and only then runs a small region.  Test modules import numpy
# themselves, so this check needs a fresh interpreter.
IMPORT_GUARD = """
import contextlib, io, pkgutil, sys
import entrecovery, entrecovery.cli
for info in pkgutil.iter_modules(entrecovery.__path__, "entrecovery."):
    __import__(info.name)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [
        entrecovery.cli.main(["transform", "--a", "0.7", "--b", "0.8"]),
        entrecovery.cli.main(["classify", "--a", "0.7", "--b", "0.8",
                              "--p", "0.6", "--q", "0.55"]),
        entrecovery.cli.main(["bell", "--a", "0.6", "--p", "0.7", "--b", "0.9"]),
    ]
assert codes == [0, 0, 0], codes
assert "numpy" not in sys.modules, "numpy was imported without a grid"
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    assert entrecovery.cli.main(["region", "--a", "0.7", "--b", "0.8", "--n", "4"]) == 0
assert "numpy" in sys.modules
print("ok")
"""


def test_scalar_commands_do_not_import_numpy():
    proc = _run(["-c", IMPORT_GUARD])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"ok\n"


# Answers one text-mode transform, classify and bell query, then one --json
# query.  It checks sys.modules before anything else could import these
# modules: pkgutil.iter_modules, which IMPORT_GUARD calls, imports inspect.
LAZY_IMPORT_GUARD = """
import contextlib, io, sys
import entrecovery.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        entrecovery.cli.main(["transform", "--a", "0.7", "--b", "0.8"]),
        entrecovery.cli.main(["classify", "--a", "0.7", "--b", "0.8",
                              "--p", "0.6", "--q", "0.55"]),
        entrecovery.cli.main(["bell", "--a", "0.6", "--p", "0.7", "--b", "0.9"]),
    ]
assert codes == [0, 0, 0], codes
loaded = [m for m in ("dataclasses", "inspect", "json") if m in sys.modules]
assert loaded == [], f"text-mode commands imported {loaded}"
with contextlib.redirect_stdout(io.StringIO()):
    assert entrecovery.cli.main(["bell", "--a", "0.6", "--p", "0.7", "--json"]) == 0
assert "json" in sys.modules
print("ok")
"""


def test_text_commands_do_not_import_dataclasses_inspect_or_json():
    proc = _run(["-c", LAZY_IMPORT_GUARD])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"ok\n"


def test_reproduce_examples_script_passes():
    proc = _run([str(REPO / "scripts" / "reproduce_examples.py")])
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "7 of 7 checks passed"


def test_reproduce_examples_reports_a_failing_check(monkeypatch, capsys):
    # the script's own checks all pass, so its FAIL path runs on a stub table
    monkeypatch.setattr(reproduce_examples, "CHECKS",
                        (("holds", lambda: True), ("breaks", lambda: False)))
    assert reproduce_examples.main() == 1
    assert capsys.readouterr().out == "PASS holds\nFAIL breaks\n1 of 2 checks passed\n"


CLI_COMMANDS = [
    ["transform", "--source", "0.7,0.3", "--target", "0.8,0.2"],
    ["classify", "--a", "0.7", "--b", "0.8", "--p", "0.9", "--q", "0.8", "--json"],
    ["region", "--a", "0.7", "--b", "0.8", "--n", "20"],
    ["bell", "--a", "0.7", "--p", "0.8"],
    ["bell", "--a", "0.7", "--p", "2.0"],
]


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=" ".join)
def test_console_entry_matches_in_process_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    proc = _run(["-m", "entrecovery.cli", *argv])
    assert (proc.returncode, proc.stdout) == (status, out.getvalue().encode())
    assert proc.stderr == err.getvalue().encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["transform", "--a", "0.7", "--b", "0.8"],
     ["region", "--a", "0.7", "--b", "0.8", "--n", "5"]],
    ids=lambda argv: argv[0],
)
def test_full_disk_exits_2(argv):
    with open("/dev/full", "w") as full:
        proc = _run(["-m", "entrecovery.cli", *argv], stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        "error: [Errno 28] No space left on device\n"
    )


def test_closed_pipe_exits_2(tmp_path):
    err_path = tmp_path / "err.txt"
    with err_path.open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "entrecovery.cli", "region",
             "--a", "0.7", "--b", "0.8", "--n", "300"],
            stdout=subprocess.PIPE, stderr=err, env=_env(),
        )
        assert proc.stdout.readline() == b"p,q,class\n"
        proc.stdout.close()  # the reader goes away, as with `| head -1`
        assert proc.wait(timeout=TIMEOUT_S) == 2
    assert err_path.read_text() == "error: [Errno 32] Broken pipe\n"


def test_region_to_a_redirected_stdout_writes_the_out_bytes(tmp_path):
    # `region ... > file`, which takes the two-process export when the grid
    # is large enough, gives the bytes that --out writes
    a, b, n, eps, digest = REGION_CSV_SHA256[1]
    path = tmp_path / "grid.csv"
    with path.open("wb") as fh:
        proc = _run(["-m", "entrecovery.cli", "region", "--a", a, "--b", b, "--n", n,
                     "--eps", eps], stdout=fh)
    assert proc.returncode == 0, proc.stderr.decode()
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    assert h.hexdigest() == digest


def test_closed_stdout_fd_exits_2():
    # `>&-` starts the child with fd 1 closed, as in a shell
    proc = _run(["-c", 'import os, sys; os.close(1); os.execv(sys.executable, '
                 '[sys.executable, "-m", "entrecovery.cli", "region", '
                 '"--a", "0.7", "--b", "0.8", "--n", "3"])'])
    assert proc.returncode == 2
    assert proc.stderr == b"error: stdout is closed\n"
