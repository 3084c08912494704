import collections
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import re
import signal
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrecovery
from conftest import cli_equivalence, grid_equivalence
from entrecovery import (
    DEFAULT_TOL,
    InvalidTypeError,
    RecoveryProblem,
    RegionClass,
    Tolerance,
    classify_point,
    region_grid,
)
from entrecovery import cli
from entrecovery.cli import main, write_region_csv

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_equal(capsys):
    code, out, _ = run(capsys, "transform", "--source", "0.5,0.5", "--target", "0.5,0.5")
    assert code == 0
    assert "verdict: equal" in out


def test_transform_incomparable(capsys):
    code, out, _ = run(
        capsys,
        "transform",
        "--source", "0.63,0.27,0.07,0.03",
        "--target", "0.64,0.16,0.16,0.04",
    )
    assert code == 1
    assert "verdict: incomparable" in out


def test_transform_backward(capsys):
    code, out, _ = run(capsys, "transform", "--source", "0.8,0.2", "--target", "0.7,0.3")
    assert code == 1
    assert "verdict: backward" in out


def test_transform_scalar_parameters(capsys):
    code, out, _ = run(capsys, "transform", "--a", "0.3", "--b", "0.8")
    assert code == 0  # 0.3 canonicalizes to 0.7
    assert "source: (0.7, 0.3)" in out
    assert "verdict: forward" in out


def test_transform_input_errors(capsys):
    code, _, err = run(capsys, "transform", "--source", "0.7,0.3", "--a", "0.7",
                       "--target", "0.8,0.2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "transform", "--source", "xyz", "--target", "0.8,0.2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "transform", "--source", "0.7,0.2", "--target", "0.8,0.2")
    assert code == 2 and "error:" in err  # not normalized
    code, _, err = run(capsys, "transform", "--source", ",", "--target", "0.8,0.2")
    assert code == 2 and err == "error: cannot parse spectrum ','\n"  # no weight
    code, _, err = run(capsys, "transform", "--source", "0.7,0.3", "--target", "0.8,0.2",
                       "--b", "0.8")
    assert code == 2 and err == "error: give exactly one of --target or --b\n"
    code, _, err = run(capsys, "transform", "--source", "0.7,0.3")
    assert code == 2 and err == "error: give exactly one of --target or --b\n"


def test_transform_unsorted_input_canonicalized(capsys):
    code, out, _ = run(capsys, "transform", "--source", "0.3,0.7", "--target", "0.2,0.8")
    assert code == 0
    assert "source: (0.7, 0.3)" in out
    assert "target: (0.8, 0.2)" in out


@pytest.mark.parametrize("text", [None, 0.7, b"0.7,0.3", ["0.7", "0.3"]])
def test_parse_spectrum_rejects_text_that_is_not_a_str(text):
    with pytest.raises(InvalidTypeError, match=re.escape(f"got {text!r}")):
        cli.parse_spectrum(text, DEFAULT_TOL)


def test_classify_complete(capsys):
    code, out, _ = run(capsys, "classify", "--a", "0.7", "--b", "0.8",
                       "--p", "0.8", "--q", "0.7")
    assert code == 0
    assert "class: complete-recovery" in out


def test_classify_negative_verdicts(capsys):
    code, out, _ = run(capsys, "classify", "--a", "0.7", "--b", "0.8",
                       "--p", "0.9", "--q", "0.8")
    assert code == 1
    assert "class: incomparable" in out
    code, out, _ = run(capsys, "classify", "--a", "0.7", "--b", "0.8",
                       "--p", "0.9", "--q", "0.55")
    assert code == 1
    assert "class: entanglement-increasing" in out


def test_classify_domain_errors(capsys):
    # b = 1 is no domain error: the oracle answers it, as region does
    code, out, _ = run(capsys, "classify", "--a", "0.7", "--b", "1.0",
                       "--p", "0.6", "--q", "0.55")
    assert code == 0 and "class: true-recovery" in out
    code, _, err = run(capsys, "classify", "--a", "0.8", "--b", "0.7",
                       "--p", "0.6", "--q", "0.55")
    assert code == 2
    code, _, err = run(capsys, "classify", "--a", "0.7", "--b", "0.8",
                       "--p", "0.3", "--q", "0.55")
    assert code == 2


def test_bell_concentration_verdicts(capsys):
    code, out, _ = run(capsys, "bell", "--a", "0.6", "--p", "0.7")
    assert code == 0
    assert "concentratable: true" in out
    code, out, _ = run(capsys, "bell", "--a", "0.7", "--p", "0.8")
    assert code == 1
    assert "concentratable: false" in out


def test_bell_product_target_routes_to_concentration(capsys):
    code, out, _ = run(capsys, "bell", "--a", "0.6", "--p", "0.7", "--b", "1.0")
    assert code == 0
    assert "feasible_with_residual: true" in out


def test_region_csv_file_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "region", "--a", "0.7", "--b", "0.8",
                       "--n", "8", "--out", str(out_path), "--json")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,q,class"
    assert len(lines) == 1 + 81
    prob = RecoveryProblem(0.7, 0.8)
    seen = {}
    for line in lines[1:]:
        p_txt, q_txt, label = line.split(",")
        assert classify_point(prob, float(p_txt), float(q_txt)).value == label
        seen[label] = seen.get(label, 0) + 1
    assert record["results"]["counts"] == {
        key: seen.get(key, 0)
        for key in ("complete", "true", "trivial", "incomparable", "increasing",
                    "infeasible")
    }


def test_region_determinism_quick(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run(capsys, "region", "--a", "0.7", "--b", "0.8",
                         "--n", "200", "--out", str(path))
        assert code == 0
    csv = paths[0].read_bytes()
    assert paths[1].read_bytes() == csv
    assert csv.startswith(b"p,q,class\n") and csv.count(b"\n") == 1 + 201 * 201


def test_region_domain_errors(tmp_path, capsys):
    code, _, err = run(capsys, "region", "--a", "0.7", "--b", "0.8", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "region", "--a", "0.7", "--b", "0.8", "--n", "10001")
    assert code == 2 and "exceeds" in err
    code, _, err = run(capsys, "region", "--a", "0.8", "--b", "0.7", "--n", "5")
    assert code == 2
    # an --out in a missing directory, and one naming a directory
    for out in (tmp_path / "missing" / "grid.csv", tmp_path):
        code, stdout, err = run(capsys, "region", "--a", "0.7", "--b", "0.8", "--n", "3",
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_region_summary_takes_the_kernel_tally(tmp_path, capsys, monkeypatch):
    # the CSV writer takes the summary's counts while the grid still holds
    # region_grid's census, before its own read of codes drops it
    tallied = []
    counts = entrecovery.RegionGrid.counts

    def spy(grid):
        tallied.append(grid._census is not None)
        return counts(grid)

    monkeypatch.setattr(entrecovery.RegionGrid, "counts", spy)
    argv = ("region", "--a", "0.7", "--b", "0.8", "--n", "8")
    assert run(capsys, *argv, "--out", str(tmp_path / "grid.csv"))[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert tallied == [True, True]


def test_region_csv_matches_library_writer(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    run(capsys, "region", "--a", "0.6", "--b", "0.9", "--n", "6",
        "--out", str(out_path))
    buf = io.StringIO()
    write_region_csv(region_grid(RecoveryProblem(0.6, 0.9), 6), buf)
    assert out_path.read_text(encoding="utf-8") == buf.getvalue()


def reference_region_csv(grid) -> str:
    """The grid's CSV as a per-cell loop writes it: the reference for write_region_csv."""
    cells = range(grid.n + 1)
    return "p,q,class\n" + "".join(
        f"{grid.p_value(i)!r},{grid.q_value(j)!r},{grid.class_at(i, j).value}\n"
        for i in cells for j in cells)


def _assert_writer_matches_reference(grid):
    # the per-cell tally of class_at is the reference for the returned census
    cells = range(grid.n + 1)
    tally = collections.Counter(grid.class_at(i, j) for i in cells for j in cells)
    buf = io.StringIO()
    counts = write_region_csv(grid, buf)
    assert buf.getvalue() == reference_region_csv(grid), (grid.a, grid.b, grid.n)
    assert counts == {cls: tally[cls] for cls in RegionClass}, (grid.a, grid.b, grid.n)


def test_write_region_csv_matches_per_cell_reference_on_family_grids():
    for _, a, b, eps, n in grid_equivalence.families(0):
        if n <= 16:
            _assert_writer_matches_reference(
                region_grid(RecoveryProblem(a, b, Tolerance(eps)), n))


# (n + 1)^2 > _BLOCK_CELLS, so the writer's row blocks split the grid
SEAM_N = math.isqrt(cli._BLOCK_CELLS) + 10


@pytest.mark.parametrize("n,codes", [(1, None), (40, "one-class"), (40, "alternating"),
                                     (SEAM_N, None), (SEAM_N, "alternating")])
def test_write_region_csv_matches_per_cell_reference(n, codes):
    grid = region_grid(RecoveryProblem(0.6, 0.9), n)
    if codes == "one-class":
        grid.codes[:] = 0
    elif codes == "alternating":
        # a caller's write that changes class at every column: each cell starts a run
        grid.codes[:] = np.arange(n + 1) % len(RegionClass)
    _assert_writer_matches_reference(grid)


class _LengthSink:
    """A file-like object that keeps only the number and length of its writes."""

    def __init__(self):
        self.writes = self.length = 0

    def write(self, text):
        self.writes += 1
        self.length += len(text)


def test_write_region_csv_memory_is_bounded_by_its_block():
    # every cell starts a run, the worst case for the writer's run-edge arrays;
    # run edges found over the whole grid at once would hold two intp arrays of
    # about 251k entries each and lists of them, a peak of about 12 MiB, which
    # breaks the bound, while the writer's own peak is about 2.3 MiB
    n = 500
    grid = region_grid(RecoveryProblem(0.6, 0.9), n)
    grid.codes[:] = np.arange(n + 1) % len(RegionClass)
    sink = _LengthSink()
    tracemalloc.start()
    try:
        write_region_csv(grid, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.writes == n + 2
    assert peak < 256 * cli._BLOCK_CELLS, peak  # 8 MiB at 32768 cells a block


def _split_families():
    """The family grids at or above the split threshold that the split-path
    tests write: open brackets at 1500, swap-block at 1200, and the first
    four-decimal problem at 1000 and 1500."""
    draws = list(grid_equivalence.families(0))
    four = next(draw[1:3] for draw in draws if draw[0] == "four-decimal")
    return [("open-brackets", *grid_equivalence.OPEN_BRACKETS, 1500),
            ("swap-block", *grid_equivalence.SWAP_BLOCK, 1200),
            ("four-decimal", *four, 1e-12, 1000), ("four-decimal", *four, 1e-12, 1500)]


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made while a test runs, counted in this process."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _write_csv_file(grid, path, **open_args):
    """write_region_csv into a file opened as `region --out` opens it, or
    with open_args instead; returns (census, bytes, fh.tell() after it)."""
    kwargs = {"mode": "w", "encoding": "utf-8", "newline": "", **open_args}
    with open(path, **kwargs) as fh:
        counts = write_region_csv(grid, fh)
        where = fh.tell()
    return counts, path.read_bytes(), where


def _serial_csv(grid):
    buf = io.StringIO()
    return write_region_csv(grid, buf), buf.getvalue().encode()


@pytest.mark.parametrize("family,a,b,eps,n", _split_families(),
                         ids=[f"{draw[0]}-n{draw[4]}" for draw in _split_families()])
def test_split_write_gives_the_serial_bytes_on_family_grids(tmp_path, forks, family, a, b, eps, n):
    assert (n + 1) ** 2 >= cli._SPLIT_CELLS
    prob = RecoveryProblem(a, b, Tolerance(eps))
    counts, want = _serial_csv(region_grid(prob, n))
    got_counts, got, where = _write_csv_file(region_grid(prob, n), tmp_path / "grid.csv")
    assert forks == [1]
    assert got == want and got_counts == counts and where == len(want)
    _assert_no_child_left()


def test_split_write_takes_the_csv_end_from_a_recounted_census(tmp_path, forks):
    # a grid built from codes has no kernel census: counts() recounts its codes
    kernel = region_grid(RecoveryProblem(0.7, 0.8, Tolerance(9e-4)), 600)
    grid = entrecovery.RegionGrid(kernel.a, kernel.b, kernel.n, kernel.codes)
    counts, want = _serial_csv(grid)
    assert _write_csv_file(grid, tmp_path / "grid.csv") == (counts, want, len(want))
    assert forks == [1]


@pytest.mark.parametrize("below", [0, 1], ids=["at-threshold", "one-cell-below"])
def test_split_starts_at_its_threshold(tmp_path, forks, monkeypatch, below):
    n = math.isqrt(cli._SPLIT_CELLS)
    monkeypatch.setattr(cli, "_SPLIT_CELLS", (n + 1) ** 2 + below)
    grid = region_grid(RecoveryProblem(0.6, 0.9), n)
    counts, want = _serial_csv(grid)
    assert _write_csv_file(grid, tmp_path / "grid.csv") == (counts, want, len(want))
    assert forks == ([] if below else [1])


def test_split_threshold_lies_between_the_benchmark_sizes():
    # region-export's n = 500 ops stay serial and its n = 1000 ones split
    assert 501 ** 2 < cli._SPLIT_CELLS <= 1001 ** 2


@pytest.mark.parametrize("open_args", [{"mode": "a"}, {"newline": "\r\n"},
                                       {"encoding": "utf-8-sig"}, {"encoding": "utf-16"},
                                       {"encoding": "cp500"}],
                         ids=["append", "crlf", "utf-8-sig", "utf-16", "cp500"])
def test_files_the_split_cannot_address_are_written_serially(tmp_path, forks, monkeypatch,
                                                              open_args):
    # a file that appends, or whose bytes are not the rows' ASCII text (cp500
    # writes the header as 10 bytes, but not as ASCII)
    monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
    grid = region_grid(RecoveryProblem(0.7, 0.8), 40)
    path = tmp_path / "grid.csv"
    path.write_bytes(b"kept\n")
    encoding = open_args.get("encoding", "utf-8")
    want = io.StringIO(newline=open_args.get("newline", ""))
    write_region_csv(grid, want)
    want = want.getvalue().encode(encoding)
    _, got, _ = _write_csv_file(grid, path, **open_args)
    assert got == (b"kept\n" + want if "a" in open_args.get("mode", "") else want)
    assert forks == []


def test_a_file_with_universal_newlines_splits(tmp_path, forks, monkeypatch):
    # newline=None translates "\n" to os.linesep, which is "\n" wherever
    # os.fork exists, so the header goes out as its 10 bytes
    monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
    grid = region_grid(RecoveryProblem(0.7, 0.8), 40)
    counts, want = _serial_csv(grid)
    assert _write_csv_file(grid, tmp_path / "grid.csv", newline=None) == (counts, want, len(want))
    assert forks == [1]


def test_region_to_stdout_on_a_regular_file_splits(tmp_path, capsys, forks, monkeypatch):
    # `region ... > file` leaves sys.stdout a UTF-8 text file on a regular file
    monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
    _, want = _serial_csv(region_grid(RecoveryProblem(0.7, 0.8), 40))
    path = tmp_path / "grid.csv"
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = main(["region", "--a", "0.7", "--b", "0.8", "--n", "40"])
    assert (code, path.read_bytes(), forks) == (0, want, [1])
    assert capsys.readouterr().err.startswith("command: region\n")
    _assert_no_child_left()


def test_split_write_ignores_the_fork_warning_of_a_threaded_process(tmp_path, monkeypatch):
    # Python 3.12+ warns in the parent, after the child has started, when
    # os.fork runs beside other threads; under an "error" filter that
    # warning would raise and leave the child unreaped
    fork, forks = os.fork, []

    def warning_fork():
        pid = fork()
        if pid:
            forks.append(1)
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    grid = region_grid(RecoveryProblem(0.6, 0.9), 600)
    counts, want = _serial_csv(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _write_csv_file(grid, tmp_path / "grid.csv") == (counts, want, len(want))
    assert forks == [1]
    _assert_no_child_left()


def test_split_needs_a_child_it_can_reap(tmp_path, forks, monkeypatch):
    # with SIGCHLD ignored, a child is reaped by the kernel and waitpid fails
    monkeypatch.setattr(cli, "_SPLIT_CELLS", 1)
    grid = region_grid(RecoveryProblem(0.7, 0.8), 40)
    counts, want = _serial_csv(grid)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _write_csv_file(grid, tmp_path / "grid.csv") == (counts, want, len(want))
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert forks == []


def _failing_pwrite(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_split_write_raises_the_childs_errno(tmp_path, forks, monkeypatch):
    # the child inherits the patched os.pwrite, so its half fails as on a full disk
    monkeypatch.setattr(os, "pwrite", _failing_pwrite)
    grid = region_grid(RecoveryProblem(0.6, 0.9), 600)
    with pytest.raises(OSError) as exc:
        _write_csv_file(grid, tmp_path / "grid.csv")
    assert (exc.value.errno, exc.value.strerror) == (errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert forks == [1]
    _assert_no_child_left()


def test_split_child_writes_on_after_a_short_write(tmp_path, forks, monkeypatch):
    # the child inherits the patched os.pwrite, which writes at most 4 KiB a
    # call, as pwrite may write less than it is given; rows at n = 600 are
    # about 25 KB, so each takes several calls
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:4096], offset))
    grid = region_grid(RecoveryProblem(0.6, 0.9), 600)
    counts, want = _serial_csv(grid)
    assert _write_csv_file(grid, tmp_path / "grid.csv") == (counts, want, len(want))
    assert forks == [1]
    _assert_no_child_left()


def test_region_exits_2_when_the_split_child_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "pwrite", _failing_pwrite)
    out = tmp_path / "grid.csv"
    code, stdout, err = run(capsys, "region", "--a", "0.6", "--b", "0.9", "--n", "600",
                            "--out", str(out))
    serial = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))  # as a serial write raises it
    assert (code, stdout, err) == (2, "", f"error: cannot write {out}: {serial}\n")
    _assert_no_child_left()


def test_split_write_kills_the_child_when_its_own_rows_fail(tmp_path, forks):
    grid = region_grid(RecoveryProblem(0.6, 0.9), 600)
    with open(tmp_path / "grid.csv", "w", encoding="utf-8", newline="") as fh:
        writes = []
        write = fh.write

        def failing_write(text):  # the header goes out, this process's first row fails
            writes.append(text)
            if writes[1:]:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return write(text)

        fh.write = failing_write
        with pytest.raises(OSError) as exc:
            write_region_csv(grid, fh)
    assert exc.value.errno == errno.EIO and forks == [1]
    _assert_no_child_left()


def test_split_write_memory_is_bounded_per_cell(forks):
    # this process takes the CSV's end from the census and writes its rows
    # with the serial path's block arrays and tails; a temporary of intp over
    # half the grid, as np.bincount or np.take of its codes makes, would
    # take 8 bytes a cell and break the bound
    n = 1500
    grid = region_grid(RecoveryProblem(0.6, 0.9), n)
    head_cells = (n + 1) // 2 * (n + 1)
    tracemalloc.start()
    try:
        with tempfile.TemporaryFile("w", encoding="utf-8", newline="") as fh:
            write_region_csv(grid, fh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forks == [1]
    assert peak < 4 * head_cells, peak


# sha256 of `region --out` bytes: any drift in the CSV format or a class shows here
REGION_CSV_SHA256 = [
    ("0.7", "0.8", "200", "1e-12",
     "ea2580ebee93112f7589fa0d9642a22ea6d02a358d5ed09767bd6a3c8210a335"),
    # n = 1500 runs the kernel over more than one chunk of rows
    ("0.6", "0.9", "1500", "1e-12",
     "d2a787f60c1b9802b5031d06ce7ba090a51d7761cad63e040c673f86ec70d629"),
    ("0.625", "0.75", "64", "5e-4",
     "e65850b56700f864f0eddcb5f6189614ec1afa49f26050588c08f0473985343b"),
    ("0.6", "1.0", "301", "1e-12",
     "2cb9df82526039776d8b753bdc8f3cacac09e6900888c51e9048adc829532aba"),
    ("0.5", "0.51", "7", "9e-4",
     "e058eb4f5f1c821d053a946987e9cfcdae7d5952f90bfdbe90e324f9f452b691"),
]


# each case through --out, and one also without it, which writes the CSV to stdout
REGION_CSV_CASES = ([(*case, False) for case in REGION_CSV_SHA256]
                    + [(*REGION_CSV_SHA256[2], True)])


@pytest.mark.parametrize(
    "a,b,n,eps,digest,to_stdout", REGION_CSV_CASES,
    ids=[f"a{c[0]}-b{c[1]}-n{c[2]}-eps{c[3]}" + ("-stdout" if c[5] else "")
         for c in REGION_CSV_CASES],
)
def test_region_csv_golden_bytes(tmp_path, capsys, a, b, n, eps, digest, to_stdout):
    argv = ["region", "--a", a, "--b", b, "--n", n, "--eps", eps]
    h = hashlib.sha256()
    if to_stdout:
        code, out, _ = run(capsys, *argv)
        h.update(out.encode())
    else:
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, *argv, "--out", str(out_path))
        with out_path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out_path.unlink()
    assert code == 0
    assert h.hexdigest() == digest


# a valid command line for every command, with the float flags it takes
FLOAT_FLAG_COMMANDS = [
    (["transform", "--source", "0.7,0.3", "--target", "0.8,0.2"],
     ("--source", "--target", "--eps")),
    (["transform", "--a", "0.7", "--b", "0.8"], ("--a", "--b", "--eps")),
    (["classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.55"],
     ("--a", "--b", "--p", "--q", "--eps")),
    (["region", "--a", "0.7", "--b", "0.8", "--n", "4"], ("--a", "--b", "--eps")),
    (["bell", "--a", "0.6", "--p", "0.7", "--b", "0.9"],
     ("--a", "--p", "--b", "--eps")),
]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag", ["--source", "--target", "--a", "--b", "--p", "--q", "--eps"]
)
def test_non_finite_float_argument_exits_2(capsys, flag, bad):
    for base, flags in FLOAT_FLAG_COMMANDS:
        if flag not in flags:
            continue
        value = f"{bad},0.5" if flag in ("--source", "--target") else bad
        argv = list(base)
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_transform_inside_eps_band_gives_verdict(capsys):
    # entropies differ by more than eps here; this once tripped an assert
    code, out, err = run(capsys, "transform", "--source", "0.999999999001,9.99e-10",
                         "--target", "0.999999999,1e-09")
    assert code in (0, 1)
    assert "verdict: equal" in out and err == ""


def test_json_key_order_is_stable(capsys):
    _, out, _ = run(capsys, "transform", "--source", "0.7,0.3",
                    "--target", "0.8,0.2", "--json")
    record = json.loads(out)
    assert list(record.keys()) == ["command", "inputs", "results", "status"]
    assert list(record["inputs"].keys()) == ["source", "target", "eps"]
    assert list(record["results"].keys()) == [
        "verdict", "forward", "backward", "entropy_source", "entropy_target",
    ]


def test_twelve_significant_digits(capsys):
    _, out, _ = run(capsys, "bell", "--a", "0.7", "--p", "0.6", "--b", "0.8",
                    "--json")
    record = json.loads(out)
    assert record["results"]["bound"] == 0.571428571429


def test_eps_flag_loosens_comparisons(capsys):
    args = ("transform", "--source", "0.7000000001,0.2999999999",
            "--target", "0.7,0.3")
    code, out, _ = run(capsys, *args)
    assert code == 1
    assert "verdict: backward" in out
    code, out, _ = run(capsys, *args, "--eps", "1e-6")
    assert code == 0
    assert "verdict: equal" in out


def test_eps_flag_validated(capsys):
    code, _, err = run(capsys, "transform", "--source", "0.7,0.3",
                       "--target", "0.8,0.2", "--eps", "0.5")
    assert code == 2 and "eps" in err


def test_missing_required_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--a", "0.7", "--b", "0.8", "--p", "0.6"])
    assert exc.value.code == 2


class _FailingStdout(io.StringIO):
    """A stdout whose every write fails, like a closed pipe or a full disk."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize(
    "exc", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
            OSError(errno.ENOSPC, "No space left on device")],
    ids=["broken-pipe", "disk-full"],
)
@pytest.mark.parametrize(
    "argv",
    [["transform", "--a", "0.7", "--b", "0.8"],
     ["classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.55"],
     ["bell", "--a", "0.6", "--p", "0.7"],
     ["region", "--a", "0.7", "--b", "0.8", "--n", "300"]],
    ids=lambda argv: argv[0],
)
def test_failed_stdout_write_exits_2(capsys, monkeypatch, argv, exc):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(exc))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {exc}\n"


@pytest.mark.parametrize(
    "argv",
    [["transform", "--a", "0.7", "--b", "0.8"],
     ["classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.55"],
     ["bell", "--a", "0.6", "--p", "0.7"],
     ["region", "--a", "0.7", "--b", "0.8", "--n", "3"],
     ["region", "--a", "0.7", "--b", "0.8", "--n", "3", "--out", "grid.csv"]],
    ids=" ".join,
)
def test_closed_stdout_exits_2(capsys, monkeypatch, tmp_path, argv):
    # the interpreter sets sys.stdout to None when it starts with fd 1 closed
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", None)
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == "error: stdout is closed\n"
    assert not (tmp_path / "grid.csv").exists()


# Every record shape as bytes: text and JSON of each command, and both homes
# of the region summary (stdout with --out, stderr when the CSV is on stdout).
# GOLDEN_OUTCOMES below compares each command line's exact bytes.
TRANSFORM_GOLDEN = """\
command: transform
source: (0.7, 0.3)
target: (0.8, 0.2)
eps: 1e-12
verdict: forward
forward: true
backward: false
entropy_source: 0.881290899231
entropy_target: 0.721928094887
status: 0
"""

TRANSFORM_GOLDEN_JSON = (
    '{"command": "transform", "inputs": {"source": [0.7, 0.3], '
    '"target": [0.8, 0.2], "eps": 1e-12}, "results": {"verdict": "forward", '
    '"forward": true, "backward": false, "entropy_source": 0.881290899231, '
    '"entropy_target": 0.721928094887}, "status": 0}\n'
)

CLASSIFY_GOLDEN = """\
command: classify
a: 0.7
b: 0.8
p: 0.6
q: 0.55
eps: 1e-12
class: true-recovery
joint_before: (0.42, 0.28, 0.18, 0.12)
joint_after: (0.44, 0.36, 0.11, 0.09)
entropy_source: 0.881290899231
entropy_target: 0.721928094887
entropy_aux_before: 0.970950594455
entropy_aux_after: 0.992774453988
recovered: 0.0218238595331
status: 0
"""

CLASSIFY_GOLDEN_JSON = (
    '{"command": "classify", "inputs": {"a": 0.7, "b": 0.8, "p": 0.6, '
    '"q": 0.55, "eps": 1e-12}, "results": {"class": "true-recovery", '
    '"joint_before": [0.42, 0.28, 0.18, 0.12], '
    '"joint_after": [0.44, 0.36, 0.11, 0.09], '
    '"entropy_source": 0.881290899231, "entropy_target": 0.721928094887, '
    '"entropy_aux_before": 0.970950594455, '
    '"entropy_aux_after": 0.992774453988, '
    '"recovered": 0.0218238595331}, "status": 0}\n'
)

BELL_GOLDEN = """\
command: bell
a: 0.6
p: 0.7
b: 0.9
eps: 1e-12
bound: 0.75
feasible_with_residual: true
status: 0
"""

BELL_CONCENTRATION_GOLDEN = """\
command: bell
a: 0.6
p: 0.7
eps: 1e-12
concentratable: true
ap: 0.42
status: 0
"""

BELL_CONCENTRATION_GOLDEN_JSON = (
    '{"command": "bell", "inputs": {"a": 0.7, "p": 0.8, "eps": 1e-12}, '
    '"results": {"concentratable": false, "ap": 0.56}, "status": 1}\n'
)

REGION_FILE_SUMMARY_GOLDEN = """\
command: region
a: 0.7
b: 0.8
n: 8
eps: 1e-12
out: {out}
cells: 81
counts: complete=0 true=4 trivial=0 incomparable=10 increasing=22 infeasible=45
status: 0
"""

REGION_N1_CSV = ("p,q,class\n0.5,0.5,infeasible\n0.5,1.0,infeasible\n"
                 "1.0,0.5,increasing\n1.0,1.0,infeasible\n")

REGION_STDOUT_SUMMARY_GOLDEN_JSON = (
    '{"command": "region", "inputs": {"a": 0.7, "b": 0.8, "n": 1, '
    '"eps": 1e-12, "out": "-"}, "results": {"cells": 4, "counts": '
    '{"complete": 0, "true": 0, "trivial": 0, "incomparable": 0, '
    '"increasing": 1, "infeasible": 3}}, "status": 0}\n'
)


def test_region_file_summary_golden(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, out, err = run(capsys, "region", "--a", "0.7", "--b", "0.8", "--n", "8",
                         "--out", str(out_path))
    assert (code, err) == (0, "")
    assert out == REGION_FILE_SUMMARY_GOLDEN.format(out=out_path)


def test_domain_errors_name_the_value_out_of_range(capsys):
    for value in ("inf", "nan", "0.3", "1.5"):
        code, out, err = run(capsys, "classify", "--a", value, "--b", "0.8",
                             "--p", "0.6", "--q", "0.55")
        assert (code, out, err) == (2, "", f"error: a must lie in [1/2, 1], got {value}\n")


# At a wide eps, a coefficient within eps outside [1/2, 1] is clamped onto the
# end, and the record prints the clamped value and decides and takes its
# entropies on it: q = 0.4999 is q = 1/2, whose pair entropy is 1.  A b
# within eps below 1 is stored as 1 too, so bell's bound is 1/(2a) and the
# target's entropy in classify is 0.
WIDE_EPS_FIELDS = [
    (("classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.4999", "--eps", "9e-4"),
     {"q": "0.5", "joint_after": "(0.4, 0.4, 0.1, 0.1)", "entropy_aux_after": "1"}),
    (("classify", "--a", "0.4999", "--b", "0.8", "--p", "0.6", "--q", "0.55", "--eps", "9e-4"),
     {"a": "0.5", "entropy_source": "1"}),
    (("bell", "--a", "1.0005", "--p", "0.6", "--eps", "9e-4"),
     {"a": "1", "ap": "0.6", "concentratable": "false"}),
    (("bell", "--a", "0.7", "--p", "1.0005", "--b", "0.9", "--eps", "9e-4"),
     {"p": "1", "b": "0.9"}),
    (("region", "--a", "0.4999", "--b", "0.8", "--n", "1", "--eps", "9e-4", "--json"),
     {"a": "0.5", "b": "0.8"}),
    (("bell", "--a", "0.7", "--p", "0.6", "--b", "0.9995", "--eps", "9e-4"),
     {"b": "1", "bound": "0.714285714286"}),
    (("region", "--a", "0.7", "--b", "0.9995", "--n", "2", "--eps", "9e-4", "--json"),
     {"b": "1.0"}),
    (("classify", "--a", "0.7", "--b", "0.9995", "--p", "0.8", "--q", "0.6", "--eps", "9e-4"),
     {"b": "1", "joint_after": "(0.6, 0.4, 0, 0)", "entropy_target": "0"}),
]


@pytest.mark.parametrize("argv,want", WIDE_EPS_FIELDS,
                         ids=[" ".join(argv) for argv, _ in WIDE_EPS_FIELDS])
def test_wide_eps_records_print_the_clamped_coefficients(argv, want):
    assert argv in cli_equivalence.ARGVS  # and so compared across revisions
    status, out, err = cli_equivalence.run(entrecovery, argv)
    record = err if argv[0] == "region" else out  # region's CSV is on stdout
    assert status in (0, 1)
    shown = printed_fields(record, "--json" in argv)
    assert {key: shown[key] for key in want} == want


# One parser serves every main call of a process (build_parser is cached).
# argparse keeps nothing from one parse_args call to the next: each fills a
# fresh Namespace, and usage, errors and --help are formatted at the
# terminal width and printed to the sys.stdout/sys.stderr of the moment.

GOLDEN_OUTCOMES = [
    (("transform", "--source", "0.7,0.3", "--target", "0.8,0.2"), (0, TRANSFORM_GOLDEN, "")),
    (("transform", "--source", "0.7,0.3", "--target", "0.8,0.2", "--json"),
     (0, TRANSFORM_GOLDEN_JSON, "")),
    (("classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.55"),
     (0, CLASSIFY_GOLDEN, "")),
    (("classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.55", "--json"),
     (0, CLASSIFY_GOLDEN_JSON, "")),
    (("bell", "--a", "0.6", "--p", "0.7", "--b", "0.9"), (0, BELL_GOLDEN, "")),
    (("bell", "--a", "0.6", "--p", "0.7"), (0, BELL_CONCENTRATION_GOLDEN, "")),
    (("bell", "--a", "0.7", "--p", "0.8", "--json"), (1, BELL_CONCENTRATION_GOLDEN_JSON, "")),
    (("region", "--a", "0.7", "--b", "0.8", "--n", "1", "--json"),
     (0, REGION_N1_CSV, REGION_STDOUT_SUMMARY_GOLDEN_JSON)),
]
MISSING_Q = ("classify", "--a", "0.7", "--b", "0.8", "--p", "0.6")


def outcome(argv):
    """(exit status or SystemExit code, stdout, stderr) of main(argv), printed
    to streams of this call's own: a parser that kept the streams of an
    earlier call would leave them empty."""
    return cli_equivalence.run(entrecovery, argv)


def fresh_outcome(argv):
    """outcome of main(argv) on a newly built parser."""
    cli.build_parser.cache_clear()
    return outcome(argv)


def test_main_builds_its_parser_once():
    cli.build_parser.cache_clear()
    for argv, _ in GOLDEN_OUTCOMES:
        outcome(argv)
    outcome(MISSING_Q)
    outcome(("--help",))
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(GOLDEN_OUTCOMES) + 1)


def test_golden_argvs_are_compared_across_revisions():
    assert {argv for argv, _ in GOLDEN_OUTCOMES} <= set(cli_equivalence.ARGVS)


@pytest.mark.parametrize("argv,want", GOLDEN_OUTCOMES,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_OUTCOMES])
def test_reused_parser_gives_the_golden_bytes_again(argv, want):
    assert fresh_outcome(argv) == want
    assert outcome(argv) == want
    status, out, err = outcome(MISSING_Q)
    assert (status, out) == (2, "") and err.endswith("the following arguments are required: --q\n")
    assert outcome(argv) == want
    status, out, err = outcome(("--help",))
    assert (status, err) == (0, "") and out.startswith("usage: entrecovery ")
    assert outcome(argv) == want
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [MISSING_Q, ("--help",), ("classify", "--help"),
                                  ("frobnicate",), ("classify", "--a", "x")])
def test_reused_parser_prints_usage_and_help_as_a_fresh_one(argv):
    first = fresh_outcome(argv)
    assert first[0] in (0, 2) and first[1:] != ("", "")
    for golden_argv, _ in GOLDEN_OUTCOMES:
        outcome(golden_argv)
    assert outcome(argv) == outcome(argv) == first


def test_usage_error_is_formatted_at_the_width_of_the_moment(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    wide = fresh_outcome(MISSING_Q)
    monkeypatch.setenv("COLUMNS", "40")
    narrow = outcome(MISSING_Q)
    # the usage lines wrap at 40 columns; the error line after them does not
    assert max(len(line) for line in narrow[2].splitlines()[:-1]) <= 40
    assert narrow[2].splitlines()[-1] == wide[2].splitlines()[-1]
    assert narrow == fresh_outcome(MISSING_Q)
    monkeypatch.setenv("COLUMNS", "200")
    assert outcome(MISSING_Q) == wide


# The argv net: command lines built from the four commands, their flags and
# hostile values, in-band ones included (within eps outside [1/2, 1], or [0, 1]
# for a weight), end in an exit status or SystemExit code with one error line
# on exit 2, never a traceback, and no record prints NaN, a negative weight
# or entropy, or a coefficient outside [1/2, 1].
SCALARS = ("0.7", "0.8", "0.6", "0.55", "0.5", "1", "0.3", "1.2", "-1", "-0",
           "nan", "inf", "-inf", "1e400", "", "junk",
           "1.0000000000005", "0.4999999999995", "-0.0000000000005", "1.0005", "0.4995",
           "0.9995")
SPECTRA = ("0.7,0.3", "0.5,0.5", "1,0", "0.6,0.4,0", "0.25,0.25,0.25,0.25",
           "1.0000000000005,-0.0000000000005", "0.5000000000005,0.4999999999995,-0",
           "0.7,0.4", "-0.1,1.1", "nan,1", "1e400,0", "", ",", "junk")
VALUES = {
    "--a": SCALARS, "--b": SCALARS, "--p": SCALARS, "--q": SCALARS,
    "--source": SPECTRA, "--target": SPECTRA,
    "--n": ("1", "3", "8", "0", "-1", "10001", "nan", "1e400", "", "2.5", "x"),
    "--eps": ("1e-12", "1e-15", "9e-4", "1e-3", "0", "-1e-12", "nan", "inf", "", "x"),
    "--out": ("{dir}/grid.csv", "{dir}/missing/grid.csv", "{dir}"),
}
COMMAND_FLAGS = {
    "transform": ("--source", "--target", "--a", "--b"),
    "classify": ("--a", "--b", "--p", "--q"),
    "region": ("--a", "--b", "--n", "--out"),
    "bell": ("--a", "--p", "--b"),
}
# the coefficients classify, bell and region decided on; transform prints none
PRINTED_COEFFICIENTS = {"a", "b", "p", "q"}
PRINTED_NONNEGATIVE = {"source", "target", "joint_before", "joint_after", "entropy_source",
                       "entropy_target", "entropy_aux_before", "entropy_aux_after"}


@st.composite
def hostile_argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag in COMMAND_FLAGS[command] + ("--eps",):
        if draw(st.integers(0, 4)):  # each flag is left out one time in five
            argv += [flag, draw(st.sampled_from(VALUES[flag]))]
    if draw(st.booleans()):
        argv.append("--json")
    if not draw(st.integers(0, 15)):
        argv.append(draw(st.sampled_from(("--help", "--junk", "extra"))))
    return argv


def printed_fields(record: str, as_json: bool) -> dict:
    """{key: value as printed} of a record's inputs and results."""
    if as_json:
        rec = json.loads(record)
        return {key: json.dumps(val) for key, val in {**rec["inputs"], **rec["results"]}.items()}
    return dict(line.split(": ", 1) for line in record.splitlines())


@given(hostile_argvs())
@example(["classify", "--a", "0.7", "--b", "0.8", "--p", "1.0000000000005", "--q", "0.6"])
@example(["classify", "--a", "0.7", "--b", "1.0000000000005", "--p", "0.6", "--q", "0.8",
          "--json"])
@example(["transform", "--a", "1.0000000000005", "--target", "0.7,0.3"])
@example(["classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.4999", "--eps", "9e-4"])
@example(["bell", "--a", "1.0005", "--p", "0.6", "--eps", "9e-4"])
@example(["bell", "--a", "0.7", "--p", "0.6", "--b", "0.9995", "--eps", "9e-4"])
@settings(max_examples=300, deadline=None)
def test_hostile_command_lines_exit_cleanly(tmp_path_factory, argv):
    folder = tmp_path_factory.getbasetemp() / "argv-net"
    folder.mkdir(exist_ok=True)
    argv = [arg.format(dir=folder) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status, exited = main(argv), False
        except SystemExit as exc:
            status, exited = exc.code, True
    out, err = out.getvalue(), err.getvalue()
    assert status in ((0, 2) if exited else (0, 1, 2)), argv
    assert "Traceback" not in out + err
    assert sum("error:" in line for line in err.splitlines()) == (status == 2), argv
    if exited or status == 2:
        return
    to_stderr = argv[0] == "region" and "--out" not in argv  # the CSV is on stdout
    for key, shown in printed_fields(err if to_stderr else out, "--json" in argv).items():
        if key != "out":
            assert "nan" not in shown.lower(), (argv, key, shown)
        if key in PRINTED_NONNEGATIVE:
            numbers = re.findall(r"[^\s,()\[\]]+", shown)
            assert not any(x.startswith("-") for x in numbers), (argv, key, shown)
        if key in PRINTED_COEFFICIENTS:
            assert 0.5 <= float(shown) <= 1.0, (argv, key, shown)
