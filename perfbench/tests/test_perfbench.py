"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Every workload runs at a tiny size and reports every metric that
BENCHMARK.json names; every output check catches a planted fault.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from entrecovery import RecoveryProblem, classify_point, is_feasible_closed_form  # noqa: E402
from entrecovery import recovery  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
        elif m["name"].endswith(".self_ms"):
            assert got["value"] >= 0
    report = json.loads(next(line for line in proc.stdout.splitlines()
                             if line.startswith("report "))[len("report "):])
    assert report["input_digest"].startswith("sha256:")
    assert report["environment"]["nproc"] >= 1
    if not trace:
        shown = report["metrics"]
        for name in ("op_ms_p50", "op_ms_tail", "failed_ops_frac"):
            assert name in shown and f"  {name} = " in proc.stdout
        assert shown["op_ms_p50"]["value"] <= shown["op_ms_tail"]["value"]
        assert shown["failed_ops_frac"]["value"] == 0
        assert report["samples"] >= 1 and len(report["setup_s_samples"]) == 1
    else:
        # one whole cycle of ops in each phase, whatever --seconds says
        cycle = workloads.WORKLOADS[workload](3, ROOT, tiny=True).cycle
        assert report["ops"] == cycle
        by_kind = report["layers_by_kind"]
        assert by_kind and all(layers for layers in by_kind.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(5, tmp_path, tiny=True)
    assert first.digest() == cls(5, tmp_path, tiny=True).digest()
    assert first.digest() != cls(6, tmp_path, tiny=True).digest()


def _cells(name, seed, k, n, count):
    rng = random.Random(f"perfbench:{name}:{seed}:cells:{k}")
    return workloads._cell_samples(rng, n, count)


def _export(tmp_path):
    wl = workloads.RegionExport(1, tmp_path, tiny=True)
    dt, items, payload = wl.op(2)
    n = wl._params(2)[0]
    assert items == (n + 1) ** 2 and dt > 0
    return wl, n, payload


def _rewrite(path, edit):
    lines = path.read_bytes().split(b"\n")
    edit(lines)
    path.write_bytes(b"\n".join(lines))


def test_region_export_passes_when_untouched(tmp_path):
    wl, _, payload = _export(tmp_path)
    assert wl.check(2, payload) == []
    assert not wl.out.exists()


def test_region_export_catches_a_flipped_label(tmp_path):
    wl, n, payload = _export(tmp_path)
    i, j = _cells(wl.name, 1, 2, n, wl.SAMPLES)[0]
    line_no = 1 + i * (n + 1) + j

    def flip(lines):
        p, q, label = lines[line_no].split(b",")
        other = b"infeasible" if label != b"infeasible" else b"true"
        lines[line_no] = b",".join((p, q, other))

    _rewrite(wl.out, flip)
    assert any("label" in p for p in wl.check(2, payload))


@pytest.mark.parametrize("fault", ["header", "drop-row", "unterminated", "coordinate"])
def test_region_export_catches_a_damaged_file(tmp_path, fault):
    wl, n, payload = _export(tmp_path)
    i, j = _cells(wl.name, 1, 2, n, wl.SAMPLES)[0]

    def damage(lines):
        if fault == "header":
            lines[0] = b"p,q,label"
        elif fault == "drop-row":
            del lines[-2]
        elif fault == "unterminated":
            lines[-1] = b"0.5,0.5,true"
        else:
            line_no = 1 + i * (n + 1) + j
            p, q, label = lines[line_no].split(b",")
            lines[line_no] = b",".join((q + b"1", p, label))

    _rewrite(wl.out, damage)
    assert wl.check(2, payload)


def test_region_export_catches_a_bad_summary(tmp_path):
    wl, _, (status, text) = _export(tmp_path)
    record = json.loads(text)
    record["results"]["counts"]["true"] += 1
    assert any("counts sum" in p for p in wl.check(2, (status, json.dumps(record))))
    wl, _, (status, text) = _export(tmp_path)
    assert any("exit status" in p for p in wl.check(2, (1, text)))


def test_region_export_frozen_census_is_checked(tmp_path, monkeypatch):
    wl = workloads.RegionExport(1, tmp_path, tiny=True)
    assert wl.final_checks() == [[]]
    frozen = json.loads(json.dumps(reference.FROZEN_CENSUS))
    frozen["counts"]["true"] -= 1
    frozen["counts"]["trivial"] += 1
    monkeypatch.setattr(reference, "FROZEN_CENSUS", frozen)
    assert wl.final_checks()[0]


def test_region_census_catches_a_flipped_cell(tmp_path):
    wl = workloads.RegionCensus(1, tmp_path, tiny=True)
    _, _, (grid, counts) = wl.op(1)
    assert wl.check(1, (grid, counts)) == []
    n = wl._params(1)[0]
    i, j = _cells(wl.name, 1, 1, n, wl.SAMPLES)[0]
    grid.codes[i, j] = (grid.codes[i, j] + 1) % 6
    assert any("label" in p for p in wl.check(1, (grid, counts)))


def test_region_census_catches_bad_counts(tmp_path, monkeypatch):
    wl = workloads.RegionCensus(1, tmp_path, tiny=True)
    _, _, (grid, counts) = wl.op(0)
    counts = dict(counts)
    counts[recovery.RegionClass.TRUE_RECOVERY] += 1
    assert wl.check(0, (grid, counts))
    assert wl.final_checks() == [[]]
    real = recovery.RegionGrid.counts

    def shifted(self):
        out = real(self)
        out[recovery.RegionClass.TRUE_RECOVERY] -= 1
        out[recovery.RegionClass.TRIVIAL_RECOVERY] += 1
        return out

    monkeypatch.setattr(recovery.RegionGrid, "counts", shifted)
    assert wl.final_checks()[0]


@pytest.mark.parametrize("kind", ["classify", "closed", "bell", "transform", "raise"])
def test_point_queries_catch_a_wrong_answer(tmp_path, kind):
    wl = workloads.PointQueries(2, tmp_path, tiny=True)
    wl.prepare()
    _, items, results = wl.op(0)
    assert items == len(results) == len(workloads._MIX)
    assert wl.check(0, results) == []
    batch, expected = wl.batches[0], wl.expected[0]
    idx = next(i for i, q in enumerate(batch)
               if q[0] == (kind if kind != "raise" else "transform")
               and (expected[i][0] if q[0] == "classify" else expected[i]) is not None)
    bad = list(results)
    if kind == "classify":
        bad[idx] = "incomparable" if results[idx] != "incomparable" else "true"
    elif kind == "closed":
        bad[idx] = not results[idx]
    elif kind == "bell":
        bound, ok = results[idx]
        bad[idx] = (bound * (1 + 1e-9), ok)
    elif kind == "transform":
        bad[idx] = "equal" if results[idx] != "equal" else "incomparable"
    else:
        bad[idx] = AssertionError("planted")
    assert wl.check(0, bad)


def test_point_queries_include_near_boundary_points(tmp_path):
    wl = workloads.PointQueries(2, tmp_path, tiny=True)
    wl.prepare()
    undecided = sum(1 for batch in wl.expected for want in batch
                    if (want[0] if isinstance(want, tuple) else want) is None)
    assert undecided > 0


def _cli(tmp_path):
    wl = workloads.CliCold(4, tmp_path, tiny=True)
    _, items, payload = wl.op(1)
    assert items == 1
    return wl, payload


def test_cli_cold_passes_and_catches_a_wrong_status(tmp_path):
    wl, (status, stdout, stderr) = _cli(tmp_path)
    assert wl.check(1, (status, stdout, stderr)) == []
    assert any("exit status" in p for p in wl.check(1, (status ^ 1, stdout, stderr)))
    assert wl.peak_rss_mb() > 0


def test_cli_cold_catches_altered_output(tmp_path):
    wl, (status, stdout, stderr) = _cli(tmp_path)
    record = json.loads(stdout)
    record["status"] = 1 - record["status"]
    assert wl.check(1, (status, json.dumps(record).encode(), stderr))
    assert wl.check(1, (status, b"not json", stderr))


def test_exact_reference_agrees_with_the_package_outside_the_band():
    rng = random.Random(11)
    decided = 0
    for _ in range(300):
        a = rng.uniform(0.52, 0.9)
        b = rng.uniform(a + 0.02, 0.98)
        p, q = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        prob = RecoveryProblem(a, b)
        label = reference.classify(a, b, p, q)
        if label is not None:
            decided += 1
            assert label == classify_point(prob, p, q).value
        closed = reference.closed_form(a, b, p, q)
        if closed is not None:
            assert closed == is_feasible_closed_form(prob, p, q)
    assert decided > 250
    assert reference.classify(0.7, 0.8, 0.8, 0.7) == "complete"
    assert reference.classify(0.7, 0.8, 0.8, 0.7 + 1e-10) is None


def test_spans_nest_and_are_removed_afterwards(tmp_path):
    tracer = spans.Tracer()
    original = recovery.classify_point
    with tracer.installed():
        assert recovery.classify_point is not original
        recovery.classify_point(RecoveryProblem(0.7, 0.8), 0.6, 0.55)
        recovery.region_grid(RecoveryProblem(0.7, 0.8), 4).counts()
    assert recovery.classify_point is original
    stats = tracer.stats
    assert stats["recovery.classify_point"][0] == 1
    assert stats["majorization.is_majorized_by"][0] >= 1
    assert stats["recovery.product_spectra"][0] == 1
    assert stats["recovery.region_grid"][0] == 1
    assert stats["recovery.RegionGrid.counts"][0] == 1
    assert stats["recovery.RecoveryProblem"][0] == 2
    # children are covered by the parent span, so self time is never negative
    for calls, total_ns, child_ns in stats.values():
        assert 0 <= child_ns <= total_ns
    child = stats["recovery.product_spectra"][1] + stats["majorization.is_majorized_by"][1]
    assert stats["recovery.classify_point"][2] >= child
