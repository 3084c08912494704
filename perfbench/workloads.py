"""The four workloads: seeded inputs, one timed op, and its output checks.

Each workload is a closed loop driven by one client in this process: the
next op starts when the previous one and its checks are done.  The seed
picks the parameters of each op; the mix and the grid sizes are fixed, so
runs with different seeds measure the same amount of work.  Importing this
module imports entrecovery, which is part of the measured set-up.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from entrecovery import cli, nielsen, recovery, spectra

import procs
import reference

HERE = Path(__file__).resolve().parent


def _round4(x: float) -> float:
    return round(x, 4)


def _problem(rng: random.Random, b_max: float = 0.98) -> tuple[float, float]:
    """A recovery problem 1/2 < a < b < 1 as a user would type it."""
    a = _round4(rng.uniform(0.52, 0.9))
    b = _round4(rng.uniform(a + 0.02, b_max))
    return a, b


def _cell_samples(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    return [(rng.randint(0, n), rng.randint(0, n)) for _ in range(count)]


def _grid_value(n: int, i: int) -> float:
    # the grid coordinate exactly as documented: 1/2 + i/(2n)
    return 0.5 + i / (2 * n)


def _check_cell(a, b, p, q, label, problems, where):
    """Compare one classified cell with the scalar oracle and exact truth."""
    want = recovery.classify_point(recovery.RecoveryProblem(a, b), p, q).value
    if label != want:
        problems.append(f"{where}: label {label!r}, classify_point says {want!r}")
    exact = reference.classify(a, b, p, q)
    if exact is not None and label != exact:
        problems.append(f"{where}: label {label!r}, exact arithmetic says {exact!r}")


def _check_counts(counts: dict, n: int, problems: list, where: str) -> None:
    if set(counts) != set(reference.LABELS):
        problems.append(f"{where}: count keys {sorted(counts)}")
    elif sum(counts.values()) != (n + 1) ** 2:
        problems.append(f"{where}: counts sum to {sum(counts.values())}, want {(n + 1) ** 2}")


class Workload:
    """Shared driver interface; subclasses fill in inputs, op and check."""

    name = ""
    item = ""          # what items_per_s counts
    tail_pct = 99.0    # percentile reported as op_ms_tail
    cycle = 1          # ops in one fixed-composition cycle; runs end on whole cycles
    trace_cycles = 1   # whole cycles in each phase of the traced run, fixed so
                       # that per-layer totals do not grow with the program's speed

    def __init__(self, seed: int, tmp: Path, tiny: bool = False):
        self.seed = seed
        self.tmp = tmp
        self.tiny = tiny
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.tracer = None  # set by the driver while a traced phase runs
        # enough ops for 10 samples beyond the tail percentile
        self.min_ops = 0 if tiny else int(round(10 / (1 - self.tail_pct / 100)))

    def inputs(self):
        raise NotImplementedError

    def digest(self) -> str:
        blob = json.dumps(self.inputs(), separators=(",", ":")).encode()
        return "sha256:" + hashlib.sha256(blob).hexdigest()

    def prepare(self) -> None:
        """Untimed work after set-up, before the loop."""

    def kind(self, k: int) -> str:
        """Which part of the fixed mix op k is, for per-kind latencies."""
        return self.name

    def op(self, k: int):
        """Run op k; return (seconds, items, payload)."""
        raise NotImplementedError

    def check(self, k: int, payload) -> list[str]:
        """Problems found in op k's outputs; empty when they are correct."""
        raise NotImplementedError

    def final_checks(self) -> list[list[str]]:
        """Extra untimed ops after the loop, one problem list each."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _GridWorkload(Workload):
    """Ops cycle through fixed grid sizes; the seed picks each op's (a, b)."""

    SIZES = ()
    TINY_SIZES = (4, 8, 16)
    POOL = 64

    def __init__(self, seed, tmp, tiny=False):
        super().__init__(seed, tmp, tiny)
        self.sizes = self.TINY_SIZES if tiny else self.SIZES
        self.cycle = len(self.sizes)
        self.problems = [_problem(self.rng) for _ in range(8 if tiny else self.POOL)]

    def inputs(self):
        return {"sizes": self.sizes, "problems": self.problems}

    def _params(self, k):
        n = self.sizes[k % len(self.sizes)]
        a, b = self.problems[k % len(self.problems)]
        return n, a, b

    def kind(self, k):
        return f"n={self.sizes[k % len(self.sizes)]}"


class RegionExport(_GridWorkload):
    """`cli.main(["region", ..., "--out", file])` in-process, CSV on disk.

    Serialisation-bound: at n = 1000 the CSV writer dominates the kernel.
    n = 1500 (1501 > 1414 columns) is the only size that takes the kernel's
    multi-chunk path, and it sets the peak RSS.
    """

    name = "region-export"
    item = "cells"
    # Three n=500 ops per cycle put the median among many short ops; p75
    # then falls among the n=1000 ops and the maximum among the n=1500 ones.
    tail_pct = 75.0
    SIZES = (500, 500, 500, 1000, 1500)
    trace_cycles = 6
    SAMPLES = 16

    def __init__(self, seed, tmp, tiny=False):
        super().__init__(seed, tmp, tiny)
        self.out = tmp / "region.csv"

    def _run(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            t0 = time.perf_counter()
            status = cli.main(argv)
            dt = time.perf_counter() - t0
        return dt, status, buf.getvalue()

    def op(self, k):
        n, a, b = self._params(k)
        argv = ["region", "--a", repr(a), "--b", repr(b), "--n", str(n),
                "--out", str(self.out), "--json"]
        dt, status, text = self._run(argv)
        return dt, (n + 1) ** 2, (status, text)

    def check(self, k, payload):
        n, a, b = self._params(k)
        status, text = payload
        rng = random.Random(f"perfbench:{self.name}:{self.seed}:cells:{k}")
        try:
            return self._check_export(n, a, b, status, text, rng)
        finally:
            self.out.unlink(missing_ok=True)

    def _check_export(self, n, a, b, status, text, rng, want_counts=None):
        problems = []
        where = f"region a={a} b={b} n={n}"
        if status != 0:
            problems.append(f"{where}: exit status {status}")
        try:
            record = json.loads(text)
            counts = record["results"]["counts"]
            if record["results"]["cells"] != (n + 1) ** 2:
                problems.append(f"{where}: summary reports {record['results']['cells']} cells")
        except (ValueError, KeyError, TypeError) as exc:
            return problems + [f"{where}: bad summary record ({exc})"]
        _check_counts(counts, n, problems, where)
        if want_counts is not None and counts != want_counts:
            problems.append(f"{where}: census {counts}, frozen {want_counts}")
        if not self.out.is_file():
            return problems + [f"{where}: no CSV written"]
        if self.tracer is not None:
            self.tracer.work["recovery.region_grid"] += (n + 1) ** 2
            self.tracer.work["cli.write_region_csv"] += self.out.stat().st_size
        cells = _cell_samples(rng, n, self.SAMPLES)
        wanted = [0] + [1 + i * (n + 1) + j for i, j in cells]
        # Counting labels takes one pass over the file per label, about as
        # long as the op itself at n = 1500, so only the frozen census does it.
        lines, label_counts, found, tail = reference.scan_csv(
            self.out, wanted, count_labels=want_counts is not None)
        if found.get(0) != b"p,q,class":
            problems.append(f"{where}: header {found.get(0)!r}")
        if lines != (n + 1) ** 2 + 1 or tail:
            problems.append(f"{where}: {lines} lines (+{len(tail)} unterminated bytes), "
                            f"want {(n + 1) ** 2 + 1}")
        if label_counts is not None and label_counts != counts:
            problems.append(f"{where}: CSV labels {label_counts}, summary {counts}")
        for (i, j), line_no in zip(cells, wanted[1:]):
            parts = found.get(line_no, b"").decode().split(",")
            p, q = _grid_value(n, i), _grid_value(n, j)
            if len(parts) != 3 or parts[:2] != [repr(p), repr(q)]:
                problems.append(f"{where}: row {line_no} reads {parts}, want p={p!r} q={q!r}")
                continue
            _check_cell(a, b, p, q, parts[2], problems, f"{where} cell ({i},{j})")
        return problems

    def final_checks(self):
        frozen = reference.FROZEN_CENSUS
        n, a, b = frozen["n"], frozen["a"], frozen["b"]
        argv = ["region", "--a", repr(a), "--b", repr(b), "--n", str(n),
                "--out", str(self.out), "--json"]
        rng = random.Random(f"perfbench:{self.name}:{self.seed}:frozen")
        try:
            _, status, text = self._run(argv)
            return [self._check_export(n, a, b, status, text, rng, frozen["counts"])]
        finally:
            self.out.unlink(missing_ok=True)


class RegionCensus(_GridWorkload):
    """`region_grid(prob, n).counts()` over many problems, no I/O.

    Kernel-bound with a cache-sized working set: the scaled-up shape of the
    acceptance census test.
    """

    name = "region-census"
    item = "cells"
    tail_pct = 99.0
    SIZES = (100, 200, 400)
    trace_cycles = 400
    POOL = 256
    SAMPLES = 4

    def op(self, k):
        n, a, b = self._params(k)
        t0 = time.perf_counter()
        grid = recovery.region_grid(recovery.RecoveryProblem(a, b), n)
        counts = grid.counts()
        dt = time.perf_counter() - t0
        return dt, (n + 1) ** 2, (grid, counts)

    def check(self, k, payload):
        n, a, b = self._params(k)
        rng = random.Random(f"perfbench:{self.name}:{self.seed}:cells:{k}")
        return self._check_grid(n, a, b, *payload, rng)

    def _check_grid(self, n, a, b, grid, counts, rng, want_counts=None):
        problems = []
        where = f"grid a={a} b={b} n={n}"
        if self.tracer is not None:
            self.tracer.work["recovery.region_grid"] += (n + 1) ** 2
        labels = {cls.value: c for cls, c in counts.items()}
        _check_counts(labels, n, problems, where)
        if want_counts is not None and labels != want_counts:
            problems.append(f"{where}: census {labels}, frozen {want_counts}")
        if grid.n != n or grid.codes.shape != (n + 1, n + 1):
            return problems + [f"{where}: grid shape {grid.codes.shape}"]
        for i, j in _cell_samples(rng, n, self.SAMPLES):
            label = grid.class_at(i, j).value
            _check_cell(a, b, _grid_value(n, i), _grid_value(n, j), label,
                        problems, f"{where} cell ({i},{j})")
        return problems

    def final_checks(self):
        frozen = reference.FROZEN_CENSUS
        n, a, b = frozen["n"], frozen["a"], frozen["b"]
        grid = recovery.region_grid(recovery.RecoveryProblem(a, b), n)
        rng = random.Random(f"perfbench:{self.name}:{self.seed}:frozen")
        return [self._check_grid(n, a, b, grid, grid.counts(), rng, frozen["counts"])]


# One batch: 40 classify_point, 30 closed-form, 10 Bell and 20 transform
# queries.  Dims 64-1024 are left out: one dim-1024 verdict would swamp the
# mix, and no planned change targets them.
_MIX = ("classify", "classify", "closed", "classify", "transform",
        "closed", "classify", "bell", "closed", "transform") * 10
_NEAR_SHARE = 0.25
_EPS = 1e-12


class PointQueries(Workload):
    """Fixed-size batches of mixed scalar queries, each built as a user would.

    Exercises spectra, majorization, nielsen and scalar recovery without
    numpy or the grid.  A quarter of the (p, q) points sit within 3 eps of a
    boundary line, where tolerance handling decides.
    """

    name = "point-queries"
    item = "queries"
    tail_pct = 99.0
    trace_cycles = 5000
    BATCHES = 20

    def __init__(self, seed, tmp, tiny=False):
        super().__init__(seed, tmp, tiny)
        rng = self.rng
        self.batches = [[self._query(rng, kind) for kind in _MIX]
                        for _ in range(2 if tiny else self.BATCHES)]
        self.expected = None

    @staticmethod
    def _point(rng, a, b):
        if rng.random() >= _NEAR_SHARE:
            return _round4(rng.uniform(0.5, 1.0)), _round4(rng.uniform(0.5, 1.0))
        off = rng.randint(-3, 3) * _EPS
        line = rng.randrange(6)
        u = rng.uniform(0.5, 1.0)
        if line == 0:      # q = p
            p, q = u, u + off
        elif line == 1:    # a p = b q
            p = rng.uniform(max(0.5, 0.5 * b / a), 1.0)
            q = a * p / b + off
        elif line == 2:    # (1-b)(1-q) = (1-a)(1-p)
            p = rng.uniform(1.0 - 0.5 * (1.0 - b) / (1.0 - a), 1.0)
            q = 1.0 - (1.0 - a) * (1.0 - p) / (1.0 - b) + off
        elif line == 3:    # p = b
            p, q = b + off, u
        elif line == 4:    # q = a
            p, q = u, a + off
        else:              # q = b
            p, q = u, b + off
        return min(1.0, max(0.5, p)), min(1.0, max(0.5, q))

    @staticmethod
    def _weights(rng, dim):
        raw = [rng.uniform(0.05, 1.0) for _ in range(dim)]
        total = sum(raw)
        return [v / total for v in raw]

    def _query(self, rng, kind):
        if kind in ("classify", "closed"):
            a, b = _problem(rng)
            return [kind, a, b, *self._point(rng, a, b)]
        if kind == "bell":
            a, b = _problem(rng)
            return [kind, a, b, _round4(rng.uniform(0.5, 1.0))]
        x = sorted(self._weights(rng, rng.randint(2, 16)), reverse=True)
        shape = rng.randrange(4)
        if shape == 0:    # independent: mostly incomparable
            y = self._weights(rng, rng.randint(2, 16))
        elif shape == 1:  # y = (1-t) x + t e1 majorizes x: forward
            t = rng.uniform(0.05, 0.5)
            y = [(1.0 - t) * v for v in x]
            y[0] += t
        elif shape == 2:  # y = (1-t) x + t u is majorized by x: backward
            t = rng.uniform(0.05, 0.5)
            y = [(1.0 - t) * v + t / len(x) for v in x]
        else:             # a permutation: equal
            y = list(x)
        rng.shuffle(x)
        rng.shuffle(y)
        return [kind, x, y]

    def inputs(self):
        return self.batches

    def prepare(self):
        self.expected = [[self._expect(q) for q in batch] for batch in self.batches]

    @staticmethod
    def _expect(query):
        kind = query[0]
        if kind == "classify":
            return reference.classify(*query[1:]), reference.closed_form(*query[1:])
        if kind == "closed":
            return reference.closed_form(*query[1:])
        if kind == "bell":
            return reference.can_concentrate(query[1], query[3])
        return reference.comparability(query[1], query[2])

    def op(self, k):
        batch = self.batches[k % len(self.batches)]
        results = []
        append = results.append
        t0 = time.perf_counter()
        for query in batch:
            kind = query[0]
            try:
                if kind == "classify":
                    prob = recovery.RecoveryProblem(query[1], query[2])
                    append(recovery.classify_point(prob, query[3], query[4]).value)
                elif kind == "closed":
                    prob = recovery.RecoveryProblem(query[1], query[2])
                    append(recovery.is_feasible_closed_form(prob, query[3], query[4]))
                elif kind == "bell":
                    prob = recovery.RecoveryProblem(query[1], query[2])
                    append((recovery.bell_bound(prob),
                            recovery.can_concentrate_bell(query[1], query[3])))
                else:
                    verdict = nielsen.transform_verdict(
                        spectra.make_spectrum(query[1]), spectra.make_spectrum(query[2]))
                    append(verdict.comparability.value)
            except Exception as exc:  # a raising query fails its batch
                append(exc)
        dt = time.perf_counter() - t0
        return dt, len(batch), results

    def check(self, k, payload):
        idx = k % len(self.batches)
        problems = []
        feasible = ("complete", "true", "trivial")
        for query, got, want in zip(self.batches[idx], payload, self.expected[idx]):
            kind = query[0]
            if isinstance(got, Exception):
                problems.append(f"{kind} {query[1:]} raised {type(got).__name__}: {got}")
                continue
            if kind == "bell":
                bound, got = got
                if not reference.bell_bound_ok(query[1], query[2], bound):
                    problems.append(f"bell_bound{query[1:3]} = {bound!r}")
            if kind == "classify":
                if got not in reference.LABELS:
                    problems.append(f"classify {query[1:]} gave {got!r}")
                want, exact_closed = want
                if want is not None and exact_closed is not None:
                    # the closed form must agree with the oracle outside the band
                    prob = recovery.RecoveryProblem(query[1], query[2])
                    closed = recovery.is_feasible_closed_form(prob, query[3], query[4])
                    if closed != (got in feasible):
                        problems.append(
                            f"closed form {closed} vs oracle {got!r} at {query[1:]}")
            if want is not None and got != want:
                problems.append(f"{kind} {query[1:]}: got {got!r}, exact {want!r}")
        if len(payload) != len(self.batches[idx]):
            problems.append(f"batch {idx}: {len(payload)} results")
        return problems


class CliCold(Workload):
    """One `python -m entrecovery.cli <cmd> --json` child at a time.

    Process start-up and imports dominate; the only workload where a lazy
    numpy import can show.  Expected outputs come from in-process cli.main
    on the same argv during set-up.
    """

    name = "cli-cold"
    item = "calls"
    tail_pct = 75.0
    cycle = 3
    trace_cycles = 16  # the whole pool once
    POOL = 48

    def __init__(self, seed, tmp, tiny=False):
        super().__init__(seed, tmp, tiny)
        rng = self.rng
        makers = (self._transform, self._classify, self._bell)
        self.argvs = [makers[i % 3](rng) for i in range(6 if tiny else self.POOL)]
        self.expected = [self._in_process(argv) for argv in self.argvs]
        self.max_rss_kb = 0
        self.spans = tmp / "spans.json"  # written by each traced child
        self.child_import_ms = []  # package import time inside traced children

    @staticmethod
    def _transform(rng):
        if rng.random() < 0.5:
            a, b = _problem(rng, b_max=1.0)
            return ["transform", "--a", repr(a), "--b", repr(b), "--json"]
        spectra_ = []
        for _ in range(2):
            dim = rng.randint(2, 6)
            cuts = sorted(rng.sample(range(1, 1000), dim - 1))
            parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [1000])]
            spectra_.append(",".join(repr(v / 1000) for v in parts))
        return ["transform", "--source", spectra_[0], "--target", spectra_[1], "--json"]

    @staticmethod
    def _classify(rng):
        a, b = _problem(rng)
        p, q = _round4(rng.uniform(0.5, 1.0)), _round4(rng.uniform(0.5, 1.0))
        return ["classify", "--a", repr(a), "--b", repr(b),
                "--p", repr(p), "--q", repr(q), "--json"]

    @staticmethod
    def _bell(rng):
        a, b = _problem(rng)
        p = _round4(rng.uniform(0.5, 1.0))
        argv = ["bell", "--a", repr(a), "--p", repr(p)]
        tail = rng.choice(([], ["--b", repr(b)], ["--b", "1.0"]))
        return argv + tail + ["--json"]

    @staticmethod
    def _in_process(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            status = cli.main(list(argv))
        if status not in (0, 1):
            raise ValueError(f"generated argv {argv} is rejected (status {status})")
        return status, json.loads(buf.getvalue())

    def inputs(self):
        return self.argvs

    def kind(self, k):
        return self.argvs[k % len(self.argvs)][0]

    def op(self, k):
        argv = self.argvs[k % len(self.argvs)]
        out, err = self.tmp / "cli.out", self.tmp / "cli.err"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "entrecovery.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracechild.py"), str(self.spans), *argv]
        status, wall, rss_kb = procs.spawn(cmd, self.tmp, out, err)
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        return wall, 1, (status, out.read_bytes(), err.read_bytes())

    def check(self, k, payload):
        argv = self.argvs[k % len(self.argvs)]
        status, stdout, stderr = payload
        want_status, want_record = self.expected[k % len(self.argvs)]
        problems = []
        if status != want_status:
            problems.append(f"{argv}: exit status {status}, want {want_status}: "
                            f"{stderr.decode(errors='replace')[-300:]}")
        try:
            record = json.loads(stdout)
        except ValueError:
            record = stdout
        if record != want_record:
            problems.append(f"{argv}: printed {stdout[:200]!r}")
        if self.tracer is not None:
            if self.spans.is_file():
                data = json.loads(self.spans.read_text())
                self.tracer.merge(data["stats"])
                self.child_import_ms.append(data["import_ms"])
                self.spans.unlink()
            else:
                problems.append(f"{argv}: traced child wrote no spans")
        return problems

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0


WORKLOADS = {cls.name: cls for cls in (RegionExport, RegionCensus, PointQueries, CliCold)}
