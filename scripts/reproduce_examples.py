#!/usr/bin/env python3
"""Re-run the paper's fixed examples, and the closed form against the
majorization oracle, end to end and print one PASS/FAIL line per check.

Exit status is 0 when every check passes, 1 otherwise.
"""

import io
import random
import sys
import time
import timeit
from contextlib import redirect_stdout
from itertools import accumulate

from entrecovery import (
    Comparability,
    RecoveryProblem,
    RegionClass,
    can_concentrate_bell,
    classify_point,
    compare,
    entropy,
    is_feasible_closed_form,
    is_majorized_by,
    make_spectrum,
    product_spectra,
    region_grid,
)
from entrecovery.cli import main as cli_main

# distance of every sampled tuple from each decision boundary, so that
# strict-versus-loose tolerance choices cannot flip a verdict
MARGIN = 1e-6


def matches(values, wanted, tol=1e-12):
    return len(values) == len(wanted) and all(
        abs(g - w) <= tol for g, w in zip(values, wanted)
    )


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def sample_tuple(rng):
    """Random (a, b, p, q) at distance >= MARGIN from every boundary line."""
    while True:
        a = rng.uniform(0.5, 1.0 - MARGIN)
        b = rng.uniform(0.5, 1.0 - MARGIN)
        if b < a:
            a, b = b, a
        if b - a < MARGIN:
            continue
        p = rng.uniform(0.5, 1.0)
        q = rng.uniform(0.5, 1.0)
        if abs(p - q) < MARGIN:
            continue
        if abs(a * p - b * q) < MARGIN:
            continue
        if abs((1.0 - b) * (1.0 - q) - (1.0 - a) * (1.0 - p)) < MARGIN:
            continue
        if abs(p - b) < MARGIN or abs(q - b) < MARGIN:
            continue
        return a, b, p, q


def disagreements(rng, samples):
    """(a, b, p, q, closed form, oracle) for each of samples sample_tuple
    draws on which is_feasible_closed_form disagrees with the oracle,
    is_majorized_by(x, y) and q < p on the product spectra (x, y)."""
    found = []
    for _ in range(samples):
        a, b, p, q = sample_tuple(rng)
        prob = RecoveryProblem(a, b)
        fast = is_feasible_closed_form(prob, p, q)
        x, y = product_spectra(prob, p, q)
        slow = is_majorized_by(x, y) and q < p
        if fast is not slow:
            found.append((a, b, p, q, fast, slow))
    return found


def check_true_recovery_example():
    prob = RecoveryProblem(0.7, 0.8)
    x, y = product_spectra(prob, 0.6, 0.55)
    ok = matches(x.values, (0.42, 0.28, 0.18, 0.12))
    ok = ok and matches(y.values, (0.44, 0.36, 0.11, 0.09))
    # the three prefix sums the majorization test compares, added left to right
    ok = ok and matches(list(accumulate(x.values))[:3], (0.42, 0.70, 0.88))
    ok = ok and matches(list(accumulate(y.values))[:3], (0.44, 0.80, 0.91))
    ok = ok and is_majorized_by(x, y)
    ok = ok and classify_point(prob, 0.6, 0.55) is RegionClass.TRUE_RECOVERY
    recovered = entropy(make_spectrum([0.55, 0.45])) - entropy(make_spectrum([0.6, 0.4]))
    ok = ok and abs(recovered - 0.021823859533139654) <= 1e-12
    best = min(timeit.repeat(lambda: classify_point(prob, 0.6, 0.55), number=1, repeat=5))
    return ok and best < 1e-3


def check_concentration_example():
    prob = RecoveryProblem(0.6, 0.9)
    x, y = product_spectra(prob, 0.7, 0.5)
    ok = matches(x.values, (0.42, 0.28, 0.18, 0.12))
    ok = ok and matches(y.values, (0.45, 0.45, 0.05, 0.05))
    ok = ok and is_majorized_by(x, y)
    ok = ok and abs(0.6 * 0.7 - 0.42) <= 1e-12 and 0.42 < 0.5
    code, out = run_cli(["bell", "--a", "0.6", "--p", "0.7"])
    return ok and can_concentrate_bell(0.6, 0.7) and code == 0 and "concentratable: true" in out


def check_incomparable_pair():
    x = make_spectrum([0.63, 0.27, 0.07, 0.03])
    y = make_spectrum([0.64, 0.16, 0.16, 0.04])
    return (compare(x, y) is Comparability.INCOMPARABLE
            and compare(y, x) is Comparability.INCOMPARABLE)


def check_complete_point():
    prob = RecoveryProblem(0.7, 0.8)
    ok = classify_point(prob, 0.8, 0.7) is RegionClass.COMPLETE_RECOVERY
    x, y = product_spectra(prob, 0.8, 0.7)
    return ok and entropy(x) == entropy(y)


def check_region_counts():
    counts = region_grid(RecoveryProblem(0.7, 0.8), 50).counts()
    wanted = {
        RegionClass.COMPLETE_RECOVERY: 1,
        RegionClass.TRUE_RECOVERY: 161,
        RegionClass.TRIVIAL_RECOVERY: 54,
        RegionClass.INCOMPARABLE: 445,
        RegionClass.ENTANGLEMENT_INCREASING: 614,
        RegionClass.INFEASIBLE_OTHER: 1326,
    }
    return counts == wanted


def check_cli_bell_example():
    code, out = run_cli(["bell", "--a", "0.6", "--p", "0.7", "--b", "0.9"])
    return code == 0 and "bound: 0.75" in out and "feasible_with_residual: true" in out


def check_closed_form_matches_oracle():
    started = time.perf_counter()
    found = disagreements(random.Random(30303), 100_000)
    return not found and time.perf_counter() - started < 5.0


CHECKS = (
    ("true-recovery worked example (a=0.7 b=0.8 p=0.6 q=0.55)", check_true_recovery_example),
    ("bell concentration example (a=0.6 p=0.7)", check_concentration_example),
    ("incomparable four-element pair", check_incomparable_pair),
    ("complete recovery at the swapped point", check_complete_point),
    ("frozen region census at n=50", check_region_counts),
    ("cli bell subcommand transcript", check_cli_bell_example),
    ("closed form agrees with the majorization oracle on 100000 draws",
     check_closed_form_matches_oracle),
)


def main():
    failures = 0
    for label, fn in CHECKS:
        ok = fn()
        print(("PASS " if ok else "FAIL ") + label)
        if not ok:
            failures += 1
    print(f"{len(CHECKS) - failures} of {len(CHECKS)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
