#!/usr/bin/env python3
"""Benchmark of entrecovery: four closed-loop workloads, one client each.

Run from the root of a checkout (it imports the package from ./src):

    python3 perfbench/run.py --workload region-export --seed 7 --seconds 25 --trace 0

Workloads (see workloads.py for why each exists):
    region-export   cli.main region --out FILE at n = 500, 1000, 1500
    region-census   region_grid(prob, n).counts() at n = 100, 200, 400
    point-queries   batches of 100 mixed scalar queries
    cli-cold        one `python -m entrecovery.cli ... --json` child at a time

With --trace 0 the end-to-end metrics are measured with tracing off:
    items_per_s      cells (region-*), queries (point-queries) or CLI calls
                     (cli-cold) per second of timed op
    op_ms_p50        median latency of one op
    op_ms_tail       latency at the workload's tail percentile, chosen so that
                     at least ten samples lie beyond it (the run is extended to
                     that many ops if needed)
    peak_rss_mb      peak RSS of the process doing the work (the largest CLI
                     child for cli-cold)
    setup_s          fastest of several set-ups (import entrecovery, generate
                     the inputs, and for cli-cold compute the expected
                     outputs), each in a fresh child process, spread evenly
                     between the ops of the loop; the children run with
                     OPENBLAS_NUM_THREADS=1 (no workload uses BLAS), as the
                     pool of threads numpy's import starts otherwise competes
                     with the import on a 2-core machine and adds up to ~70 ms
                     depending on whether the other core is free
    failed_ops_frac  ops that raised or failed a check, over ops attempted
All are printed; the JSON result carries the GATED ones.  On a 2-core VM
whose CPU speed switches between two states every few seconds, the median
and tail of one run jump between the states while a mean moves smoothly, so
only the mean-based throughput, memory and set-up time are gated; set-up
time is the minimum of its samples, which the fast state sets.
With --trace 1 a fixed number of whole cycles of ops (the workload's
trace_cycles, the same on every commit, so totals do not grow with the
program's speed; --seconds does not apply) runs untraced, the same ops then
run again with spans on every layer, and the per-layer metrics
(<module>.<function>.<stat>, import probes, tracing overhead) are printed
instead.  The report line adds each layer's totals per kind of op (grid size,
CLI command).

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the lines before it give every metric with its unit, the
failed-op fraction, the input digest and the machine.  Exit status is 2 when
the checkout has no src/entrecovery.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import procs
import reference  # noqa: F401  loaded here so the timed set-up leaves it out
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("region-export", "region-census", "point-queries", "cli-cold")
SETUP_PROBES = 24       # child set-ups spread through the loop
GATED = ("items_per_s", "peak_rss_mb", "setup_s")
MAX_LOOP_S = 120.0      # hard cap on one measuring loop, whatever min_ops says


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the measuring loop (trace 0 only)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and no minimum op count (for the benchmark's tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty list."""
    vals = sorted(values)
    pos = (len(vals) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def setup(args, tmp):
    """Import the package and build the workload; return (workload, seconds)."""
    t0 = time.perf_counter()
    import entrecovery
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, tmp, args.tiny)
    elapsed = time.perf_counter() - t0
    if Path(entrecovery.__file__).resolve().parent != SRC / "entrecovery":
        raise SystemExit(f"entrecovery imported from {entrecovery.__file__}, not {SRC}")
    return wl, elapsed


def setup_probe(args, digest):
    """A function giving the set-up time of a fresh child process, which must
    build the same inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")

    def probe():
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if result["digest"] != digest:
            raise RuntimeError(f"seed {args.seed} gave different inputs in a fresh process")
        return result["setup_s"]

    return probe


def measure(wl, seconds=None, count=None, tracer=None, probe=None, probes=0):
    """Closed loop over ops 0, 1, ...: by time (seconds) or by op count.

    With a probe, probe() also runs `probes` times between ops, spread evenly
    over the seconds; its results are returned as "probed".
    """
    latencies, kinds, items, failed, attempted, problems = [], [], 0, 0, 0, []
    probed = []
    wl.tracer = tracer
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if len(probed) < probes and elapsed >= len(probed) * seconds / probes:
            probed.append(probe())
            continue
        if count is not None:
            if k >= count:
                break
        elif k % wl.cycle == 0 and (
            (elapsed >= seconds and k >= wl.min_ops) or elapsed >= MAX_LOOP_S
        ):
            break
        attempted += 1
        before = tracer.snapshot() if tracer is not None else None
        try:
            if tracer is None:
                dt, n_items, payload = wl.op(k)
            else:
                with tracer.installed():
                    dt, n_items, payload = wl.op(k)
            found = wl.check(k, payload)
        except Exception as exc:  # an op that raises is a failed op
            found = [f"op {k} raised {type(exc).__name__}: {exc}"]
        else:
            latencies.append(dt)
            kinds.append(wl.kind(k))
            items += n_items
        if found:
            failed += 1
            problems.extend(found)
        if tracer is not None:
            tracer.charge(wl.kind(k), before)
        k += 1
    wl.tracer = None
    return {"latencies": latencies, "kinds": kinds, "items": items, "attempted": attempted,
            "failed": failed, "problems": problems, "probed": probed}


def environment(tmp: Path) -> dict:
    """The machine and software a result was measured on."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fs, mount = "unknown", ""
    try:
        real = str(tmp.resolve())
        for line in Path("/proc/self/mounts").read_text().splitlines():
            fields = line.split()
            point = fields[1]
            if (real == point or real.startswith(point.rstrip("/") + "/")) \
                    and len(point) >= len(mount):
                fs, mount = fields[2], point
    except OSError:
        pass
    code = hashlib.sha256()
    for path in sorted((SRC / "entrecovery").glob("*.py")):
        code.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "tmp_filesystem": fs,
        "tmp_mount": mount,
        "code_digest": "sha256:" + code.hexdigest(),
    }


def end_to_end(wl, run, setup_s, failed_frac):
    lat_ms = [v * 1000.0 for v in run["latencies"]]
    tail = percentile(lat_ms, wl.tail_pct)
    metrics = {
        "items_per_s": (run["items"] / sum(run["latencies"]), "1/s"),
        "op_ms_p50": (percentile(lat_ms, 50.0), "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "setup_s": (min(setup_s), "s"),
        "failed_ops_frac": (failed_frac, "ratio"),
    }
    by_kind = {}
    for kind, ms in zip(run["kinds"], lat_ms):
        by_kind.setdefault(kind, []).append(ms)
    details = {
        "items": wl.item,
        "op_ms_p50_by_kind": {kind: statistics.median(v) for kind, v in by_kind.items()},
        "samples": len(lat_ms),
        "tail_pct": wl.tail_pct,
        "samples_beyond_tail": sum(1 for v in lat_ms if v > tail),
        "setup_s_samples": setup_s,
    }
    return metrics, details


def traced(wl, args, tmp):
    """A fixed number of ops untraced, then the same ops traced; per-layer metrics."""
    ops = wl.cycle * (1 if args.tiny else wl.trace_cycles)
    plain = measure(wl, count=ops)
    tracer = Tracer()
    spanned = measure(wl, count=ops, tracer=tracer)
    metrics = tracer.metrics()
    for name, value in procs.import_probes(tmp, reps=2 if args.tiny else 5).items():
        metrics[name] = (value, "ms")
    plain_s, spanned_s = sum(plain["latencies"]), sum(spanned["latencies"])
    metrics["trace.overhead_pct"] = (100.0 * (spanned_s / plain_s - 1.0), "%")
    details = {"ops": ops, "untraced_s": plain_s, "traced_s": spanned_s,
               "layers_by_kind": tracer.kind_breakdown()}
    if getattr(wl, "child_import_ms", None):
        details["child_import_entrecovery_ms_p50"] = statistics.median(wl.child_import_ms)
    runs = [plain, spanned]
    return metrics, details, runs


def negative_self_times(metrics) -> list[str]:
    return [name for name, (value, _) in metrics.items()
            if name.endswith(".self_ms") and value < 0]


def run(args, tmp):
    wl, first_setup = setup(args, tmp)
    digest = wl.digest()
    wl.prepare()
    env = environment(tmp)
    if args.trace:
        metrics, details, runs = traced(wl, args, tmp)
        bad = negative_self_times(metrics)
        if bad:
            runs.append({"attempted": 1, "failed": 1, "problems": [f"negative self time: {bad}"]})
        shown = metrics
    else:
        # set-ups spread through the loop see every state the machine passes
        # through, and the fastest of them is steady from run to run
        runs = [measure(wl, seconds=args.seconds, probe=setup_probe(args, digest),
                        probes=1 if args.tiny else SETUP_PROBES)]
        setup_s = runs[0]["probed"]
    finals = wl.final_checks()
    attempted = sum(r["attempted"] for r in runs) + len(finals)
    problems = [p for r in runs for p in r["problems"]] + [p for f in finals for p in f]
    failed = sum(r["failed"] for r in runs) + sum(1 for f in finals if f)
    if not args.trace:
        shown, details = end_to_end(wl, runs[0], setup_s, failed / attempted)
        details["setup_s_in_process"] = first_setup
        metrics = {name: shown[name] for name in GATED}

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  ops failed/attempted = {failed}/{attempted}")
    for line in problems[:20]:
        print(f"  FAILED CHECK: {line}", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input_digest": digest, "environment": env,
              "failed_ops_frac": failed / attempted,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in shown.items()},
              **details}
    print("report " + json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entrecovery" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'entrecovery'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    base = ROOT / ".perfbench_tmp"
    tmp = base / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            wl, elapsed = setup(args, tmp)
            print(json.dumps({"setup_s": elapsed, "digest": wl.digest()}))
        else:
            run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
