#!/usr/bin/env python3
"""Random sweep pitting the closed-form feasibility test against the direct
four-element majorization oracle.

Samples (a, b, p, q) tuples that keep a safety margin away from every decision
boundary, so strict-versus-loose tolerance choices cannot flip a verdict, then
checks that both routes agree.  Prints any disagreements and a timing summary.
Exit status is 0 when the routes agree everywhere, 1 otherwise.
"""

import argparse
import random
import sys
import time

from entrecovery import (
    RecoveryProblem,
    is_feasible_closed_form,
    is_majorized_by,
    product_spectra,
)


def sample_tuple(rng, margin):
    """Random (a, b, p, q) at distance >= margin from every boundary line."""
    while True:
        a = rng.uniform(0.5, 1.0 - margin)
        b = rng.uniform(0.5, 1.0 - margin)
        if b < a:
            a, b = b, a
        if b - a < margin:
            continue
        p = rng.uniform(0.5, 1.0)
        q = rng.uniform(0.5, 1.0)
        if abs(p - q) < margin:
            continue
        if abs(a * p - b * q) < margin:
            continue
        if abs((1.0 - b) * (1.0 - q) - (1.0 - a) * (1.0 - p)) < margin:
            continue
        if abs(p - b) < margin or abs(q - b) < margin:
            continue
        return a, b, p, q


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=100_000,
                        help="number of random tuples to draw (default 100000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the random generator (default 0)")
    parser.add_argument("--margin", type=float, default=1e-6,
                        help="minimum distance from decision boundaries, in "
                             "(0, 0.01] (default 1e-6)")
    args = parser.parse_args()
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    # above 0.25 no tuple satisfies b - a >= margin with b <= 1 - margin
    if not 0.0 < args.margin <= 1e-2:
        parser.error("--margin must lie in (0, 0.01]")

    rng = random.Random(args.seed)
    disagreements = []
    started = time.perf_counter()
    for _ in range(args.samples):
        a, b, p, q = sample_tuple(rng, args.margin)
        prob = RecoveryProblem(a, b)
        fast = is_feasible_closed_form(prob, p, q)
        x, y = product_spectra(prob, p, q)
        slow = is_majorized_by(x, y) and q < p
        if fast is not slow:
            disagreements.append((a, b, p, q, fast, slow))
    elapsed = time.perf_counter() - started

    for a, b, p, q, fast, slow in disagreements[:20]:
        print(f"disagree: a={a!r} b={b!r} p={p!r} q={q!r} "
              f"closed_form={fast} oracle={slow}")
    if len(disagreements) > 20:
        print(f"... plus {len(disagreements) - 20} more")
    verdict = "PASS" if not disagreements else "FAIL"
    print(f"{verdict} {args.samples} samples, {len(disagreements)} disagreements, "
          f"{elapsed:.2f} s (seed {args.seed})")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
