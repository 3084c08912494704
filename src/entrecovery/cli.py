"""Command-line front end.

Subcommands: transform (LOCC convertibility of two spectra), classify (one
point of the recovery plane), region (CSV export of the classified grid),
bell (Bell-pair concentration queries).  Every command takes --eps and
--json.

Exit codes: 0 affirmative verdict / success, 1 negative verdict, 2 usage,
domain, or I/O error.

Each command returns one plain record, a dict with the keys command,
inputs, results and status in that stable order, which _render prints as
text or JSON; numeric fields are printed with 12 significant digits.
Region CSV files use the schema `p,q,class` with floats as shortest
round-trip decimals and LF line endings, one row per grid cell in row-major
order (p outer).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import InputDomainError, require_instance, require_real_in
from .majorization import Comparability
from .nielsen import transform_verdict
from .recovery import (
    RecoveryProblem,
    RegionClass,
    RegionGrid,
    bell_bound,
    can_concentrate_bell,
    evaluate_point,
    is_feasible_closed_form,
    region_grid,
)
from .spectra import (
    DEFAULT_TOL,
    SchmidtSpectrum,
    Tolerance,
    entropy,
    make_spectrum,
    two_qubit,
)

__all__ = ["main", "entry", "write_region_csv", "parse_spectrum"]

_VERDICT_LABEL = {
    Comparability.LEFT_MAJORIZED: "forward",
    Comparability.RIGHT_MAJORIZED: "backward",
    Comparability.EQUAL: "equal",
    Comparability.INCOMPARABLE: "incomparable",
}

_REGION_LABEL = {
    RegionClass.COMPLETE_RECOVERY: "complete-recovery",
    RegionClass.TRUE_RECOVERY: "true-recovery",
    RegionClass.TRIVIAL_RECOVERY: "trivial-recovery",
    RegionClass.INCOMPARABLE: "incomparable",
    RegionClass.ENTANGLEMENT_INCREASING: "entanglement-increasing",
    RegionClass.INFEASIBLE_OTHER: "infeasible",
}

# the classes for which classify exits 0
_RECOVERY_CLASSES = (
    RegionClass.COMPLETE_RECOVERY,
    RegionClass.TRUE_RECOVERY,
    RegionClass.TRIVIAL_RECOVERY,
)


# cells per block of rows in write_region_csv: bounds its run-edge arrays
_BLOCK_CELLS = 1 << 15


class CliUsageError(Exception):
    pass


def _render(record: dict, as_json: bool) -> str:
    """The record as one JSON object, or as one `key: value` line per item."""
    if as_json:
        import json  # only --json needs it, so text-mode calls skip the import
        return json.dumps(_round12(record))
    items = [
        ("command", record["command"]),
        *record["inputs"].items(),
        *record["results"].items(),
        ("status", record["status"]),
    ]
    return "\n".join(f"{key}: {_text_value(val)}" for key, val in items)


def _round12(val):
    if isinstance(val, bool):
        return val
    if isinstance(val, float):
        return float(f"{val:.12g}")
    if isinstance(val, (list, tuple)):
        return [_round12(v) for v in val]
    if isinstance(val, dict):
        return {k: _round12(v) for k, v in val.items()}
    return val


def _text_value(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return f"{val:.12g}"
    if isinstance(val, (list, tuple)):
        return "(" + ", ".join(_text_value(v) for v in val) + ")"
    if isinstance(val, dict):
        return " ".join(f"{k}={_text_value(v)}" for k, v in val.items())
    return str(val)


def parse_spectrum(text: str, tol: Tolerance) -> SchmidtSpectrum:
    """Parse comma-separated weights and canonicalize them."""
    require_instance("spectrum", text, str)
    try:
        vals = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise CliUsageError(f"cannot parse spectrum {text!r}")
    if not vals:
        raise CliUsageError(f"cannot parse spectrum {text!r}")
    return make_spectrum(vals, tol)


def write_region_csv(grid: RegionGrid, fh) -> dict[RegionClass, int]:
    """Emit the grid as `p,q,class` rows, one write per grid row, deterministically.

    A grid row is a few runs of equal codes, and each run [s, e) of code c
    is one C-level `prefix.join(tails[c][s:e])` over a plain-list slice of
    the prebuilt `q,class` cell tails, so no Python object is built per
    cell.  The run edges come from comparing neighbouring codes, a block of
    about _BLOCK_CELLS cells at a time: its bool mask, index arrays and their
    lists are the writer's only memory beyond the six (n + 1)-string tail
    lists and one row string, even when every cell starts a run.  Returns
    grid.counts(), taken before the first write: it raises on a bad code.
    """
    if type(grid) is not RegionGrid:
        require_instance("grid", grid, RegionGrid)
    import numpy as np

    counts = grid.counts()  # before codes is read, which drops region_grid's census
    codes = grid.codes
    m = grid.n + 1
    labels = [f"{cls.value}\n" for cls in RegionClass]
    coords = [f"{grid.p_value(i)!r}," for i in range(m)]
    tails = [[c + label for c in coords] for label in labels]
    rows_per_block = max(1, _BLOCK_CELLS // m)
    fh.write("p,q,class\n")
    for top in range(0, m, rows_per_block):
        block = codes[top:top + rows_per_block]
        # edge[r, s] marks where a run of row r starts, and its end at s = m
        edge = np.empty((len(block), m + 1), dtype=bool)
        edge[:, 0] = edge[:, m] = True
        np.not_equal(block[:, 1:], block[:, :-1], out=edge[:, 1:m])
        rows, cols = np.nonzero(edge)
        firsts = np.searchsorted(rows, np.arange(len(block) + 1)).tolist()
        # the code of the run starting at each edge; the end edge's is unused
        run_codes = block[rows, np.minimum(cols, m - 1)].tolist()
        cols = cols.tolist()
        for prefix, lo, hi in zip(coords[top:top + rows_per_block], firsts, firsts[1:]):
            runs = zip(run_codes[lo:hi], cols[lo:hi], cols[lo + 1:hi])
            fh.write(prefix.join(["", *[prefix.join(tails[c][s:e]) for c, s, e in runs]]))
    return counts


def _spectrum_arg(text: str | None, coeff: float | None, tol: Tolerance):
    # weights or a two-qubit coefficient; the caller checks that one is given
    if text is not None:
        return parse_spectrum(text, tol)
    return two_qubit(coeff, tol).spectrum


def _cmd_transform(args, tol: Tolerance) -> dict:
    if (args.source is None) == (args.a is None):
        raise CliUsageError("give exactly one of --source or --a")
    if (args.target is None) == (args.b is None):
        raise CliUsageError("give exactly one of --target or --b")
    source = _spectrum_arg(args.source, args.a, tol)
    target = _spectrum_arg(args.target, args.b, tol)
    verdict = transform_verdict(source, target, tol)
    return {
        "command": "transform",
        "inputs": {"source": source.values, "target": target.values, "eps": tol.eps},
        "results": {
            "verdict": _VERDICT_LABEL[verdict.comparability],
            "forward": verdict.forward,
            "backward": verdict.backward,
            "entropy_source": verdict.entropy_source,
            "entropy_target": verdict.entropy_target,
        },
        "status": 0 if verdict.forward else 1,
    }


def _cmd_classify(args, tol: Tolerance) -> dict:
    prob = RecoveryProblem(args.a, args.b, tol)
    cls, p, q, x, y = evaluate_point(prob, args.p, args.q)
    h_a, h_b, h_p, h_q = (entropy((v, 1.0 - v)) for v in (prob.a, prob.b, p, q))
    return {
        "command": "classify",
        "inputs": {"a": prob.a, "b": prob.b, "p": p, "q": q, "eps": tol.eps},
        "results": {
            "class": _REGION_LABEL[cls],
            "joint_before": x.values,
            "joint_after": y.values,
            "entropy_source": h_a,
            "entropy_target": h_b,
            "entropy_aux_before": h_p,
            "entropy_aux_after": h_q,
            "recovered": h_q - h_p,
        },
        "status": 0 if cls in _RECOVERY_CLASSES else 1,
    }


def _cmd_region(args, tol: Tolerance) -> dict:
    prob = RecoveryProblem(args.a, args.b, tol)
    grid = region_grid(prob, args.n)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                counts = write_region_csv(grid, fh)
        except OSError as exc:
            raise CliUsageError(f"cannot write {args.out}: {exc}")
    else:
        counts = write_region_csv(grid, sys.stdout)
        sys.stdout.flush()
    return {
        "command": "region",
        "inputs": {"a": prob.a, "b": prob.b, "n": args.n, "eps": tol.eps,
                   "out": args.out if args.out is not None else "-"},
        "results": {
            "cells": (args.n + 1) * (args.n + 1),
            "counts": {cls.value: count for cls, count in counts.items()},
        },
        "status": 0,
    }


def _cmd_bell(args, tol: Tolerance) -> dict:
    if args.b is None:
        a, p = require_real_in("a", args.a, tol.eps), require_real_in("p", args.p, tol.eps)
        ok = can_concentrate_bell(a, p, tol)
        inputs = {"a": a, "p": p, "eps": tol.eps}
        results = {"concentratable": ok, "ap": a * p}
    else:
        prob = RecoveryProblem(args.a, args.b, tol)
        p = require_real_in("p", args.p, tol.eps)
        if prob.b < 1.0:
            ok = is_feasible_closed_form(prob, p, 0.5)
        else:
            # product-state target: the closed form degenerates, use the
            # concentration predicate directly
            ok = can_concentrate_bell(prob.a, p, tol)
        inputs = {"a": prob.a, "p": p, "b": prob.b, "eps": tol.eps}
        results = {"bound": bell_bound(prob), "feasible_with_residual": ok}
    return {"command": "bell", "inputs": inputs, "results": results,
            "status": 0 if ok else 1}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one, so a caller must not change it.

    Building it is most of an in-process main call; parse_args keeps no
    state between calls (each fills a fresh Namespace, and usage, errors and
    --help go to the sys.stdout/sys.stderr of the moment, formatted at the
    terminal width read then), so one parser serves the whole process.
    """
    parser = argparse.ArgumentParser(
        prog="entrecovery",
        description="LOCC convertibility and entanglement recovery regions",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--eps", type=float, default=DEFAULT_TOL.eps,
        help="absolute comparison tolerance (default 1e-12)",
    )
    common.add_argument(
        "--json", action="store_true", help="emit a JSON record instead of text"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_tr = sub.add_parser(
        "transform", parents=[common],
        help="decide deterministic LOCC convertibility of two spectra",
    )
    p_tr.add_argument("--source", help="comma-separated source spectrum")
    p_tr.add_argument("--target", help="comma-separated target spectrum")
    p_tr.add_argument("--a", type=float, help="source two-qubit coefficient")
    p_tr.add_argument("--b", type=float, help="target two-qubit coefficient")
    p_tr.set_defaults(func=_cmd_transform)

    p_cl = sub.add_parser(
        "classify", parents=[common],
        help="classify one point (p, q) of the recovery plane",
    )
    for name in ("a", "b", "p", "q"):
        p_cl.add_argument(f"--{name}", type=float, required=True)
    p_cl.set_defaults(func=_cmd_classify)

    p_re = sub.add_parser(
        "region", parents=[common],
        help="classify the whole (p, q) grid and export CSV",
    )
    p_re.add_argument("--a", type=float, required=True)
    p_re.add_argument("--b", type=float, required=True)
    p_re.add_argument("--n", type=int, required=True, help="grid resolution per axis")
    p_re.add_argument("--out", help="CSV path (default: CSV to stdout)")
    p_re.set_defaults(func=_cmd_region)

    p_be = sub.add_parser(
        "bell", parents=[common],
        help="Bell-pair concentration bound and feasibility",
    )
    p_be.add_argument("--a", type=float, required=True)
    p_be.add_argument("--p", type=float, required=True)
    p_be.add_argument("--b", type=float, help="target coefficient (omit for b = 1)")
    p_be.set_defaults(func=_cmd_bell)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if sys.stdout is None:  # started with fd 1 closed: the output would be lost
            raise CliUsageError("stdout is closed")
        tol = Tolerance(args.eps)
        record = args.func(args, tol)
        stream = sys.stdout
        if args.cmd == "region" and args.out is None:
            stream = sys.stderr  # CSV already occupies stdout
        print(_render(record, args.json), file=stream, flush=True)
    except (InputDomainError, CliUsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError) and sys.stdout is sys.__stdout__:
            # closed pipe or full disk: the exit-time flush of what is still
            # buffered would fail again, so it goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return record["status"]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
