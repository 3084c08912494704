"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package and prints a single
PASS or FAIL line (run with -s to see them on success).  Tolerances are the
ones the rest of the suite uses: 1e-12 for frozen arithmetic, 1e-9 for
accumulated entropy sums, 1e-6 sampling margins around decision boundaries.
"""

import random
import time

from entrecovery import (
    RecoveryProblem,
    RegionClass,
    can_concentrate_bell,
    can_transform,
    classify_point,
    entropy,
    is_majorized_by,
    product_spectra,
    region_grid,
    two_qubit,
)
from entrecovery.cli import main

from conftest import (
    doubly_stochastic_mix,
    equivalence_sweep,
    random_simplex,
    sample_feasible_point,
    sample_outer_point,
    sample_problem,
)


def report(label, ok):
    print(("PASS " if ok else "FAIL ") + label)
    assert ok, label


def close(got, want, tol=1e-12):
    return all(abs(g - w) <= tol for g, w in zip(got, want)) and len(got) == len(want)


def test_a1_true_recovery_worked_example():
    prob = RecoveryProblem(0.7, 0.8)
    x, y = product_spectra(prob, 0.6, 0.55)
    ok = close(x.values, (0.42, 0.28, 0.18, 0.12))
    ok = ok and close(y.values, (0.44, 0.36, 0.11, 0.09))
    ok = ok and is_majorized_by(x, y)
    run_x, run_y = 0.0, 0.0
    for vx, vy, wx, wy in zip(x.values, y.values, (0.42, 0.70, 0.88), (0.44, 0.80, 0.91)):
        run_x += vx
        run_y += vy
        ok = ok and abs(run_x - wx) <= 1e-12 and abs(run_y - wy) <= 1e-12
        ok = ok and run_x <= run_y + 1e-12
    ok = ok and classify_point(prob, 0.6, 0.55) is RegionClass.TRUE_RECOVERY
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        classify_point(prob, 0.6, 0.55)
        best = min(best, time.perf_counter() - t0)
    ok = ok and best < 1e-3
    report(f"worked example is true-recovery, classified in {best * 1e6:.1f} us", ok)


def test_a2_bell_concentration_example(capsys):
    prob = RecoveryProblem(0.6, 0.9)
    x, y = product_spectra(prob, 0.7, 0.5)
    ok = close(x.values, (0.42, 0.28, 0.18, 0.12))
    ok = ok and close(y.values, (0.45, 0.45, 0.05, 0.05))
    ok = ok and is_majorized_by(x, y)
    ok = ok and abs(0.6 * 0.7 - 0.42) <= 1e-12 and 0.42 < 0.5
    ok = ok and can_concentrate_bell(0.6, 0.7)
    code = main(["bell", "--a", "0.6", "--p", "0.7"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and "concentratable: true" in out
    with capsys.disabled():
        report("bell concentration example holds and the cli agrees", ok)


def test_a3_closed_form_matches_oracle():
    t0 = time.perf_counter()
    disagreements = len(equivalence_sweep.disagreements(random.Random(30303), 100_000))
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 5.0
    report(
        "closed form agreed with the majorization oracle on 100000 draws "
        f"({disagreements} disagreements, {elapsed:.2f} s)",
        ok,
    )


def test_a4_regions_keep_both_recovery_kinds():
    rng = random.Random(40404)
    missing = 0
    for _ in range(1000):
        counts = region_grid(sample_problem(rng), 200).counts()
        if (counts[RegionClass.TRUE_RECOVERY] < 1
                or counts[RegionClass.TRIVIAL_RECOVERY] < 1):
            missing += 1
    thin = region_grid(RecoveryProblem(0.51, 0.52), 500).counts()
    ok = (missing == 0
          and thin[RegionClass.TRUE_RECOVERY] >= 1
          and thin[RegionClass.TRIVIAL_RECOVERY] >= 1)
    report(
        "every sampled problem keeps both recovery kinds on the n=200 grid "
        f"({missing} of 1000 missing one)",
        ok,
    )


def test_a5_outer_subregions_classified():
    rng = random.Random(50505)
    wrong = 0
    errors = 0
    for region, want in (("incomparable", RegionClass.INCOMPARABLE),
                         ("increasing", RegionClass.ENTANGLEMENT_INCREASING)):
        done = 0
        while done < 5000:
            prob = sample_problem(rng)
            point = sample_outer_point(rng, prob, region)
            if point is None:
                continue
            done += 1
            try:
                if classify_point(prob, *point) is not want:
                    wrong += 1
            except Exception:
                errors += 1
    ok = wrong == 0 and errors == 0
    report(
        "10000 points beyond the target cutoff split into incomparable and "
        f"increasing as predicted ({wrong} wrong, {errors} errors)",
        ok,
    )


def test_a6_entropy_monotone_under_convertibility():
    rng = random.Random(60606)
    violations = 0
    for _ in range(100_000):
        target = random_simplex(rng, rng.randint(2, 8))
        source = doubly_stochastic_mix(rng, target)
        if not is_majorized_by(source, target):
            violations += 1
        elif entropy(source) < entropy(target) - 1e-9:
            violations += 1
    report(
        "entropy never dropped across 100000 convertible pairs, dims 2 to 8 "
        f"({violations} violations)",
        violations == 0,
    )


def test_a7_recovery_kind_capability_split():
    rng = random.Random(70707)
    bad = 0
    for want in ("true", "trivial"):
        done = 0
        while done < 10_000:
            prob = sample_problem(rng)
            point = sample_feasible_point(rng, prob, want=want)
            if point is None:
                continue
            done += 1
            p, q = point
            source = two_qubit(prob.a).spectrum
            target = two_qubit(prob.b).spectrum
            aux_before = two_qubit(p).spectrum
            aux_after = two_qubit(q).spectrum
            if want == "true":
                if can_transform(source, aux_after):
                    bad += 1
                if can_transform(aux_before, aux_after):
                    bad += 1
            else:
                if not can_transform(source, aux_after):
                    bad += 1
                if not can_transform(aux_before, target):
                    bad += 1
    report(
        "true-recovery points defeat every single-pair route and trivial ones "
        f"never do ({bad} contradictions in 20000 points)",
        bad == 0,
    )


def test_a8_complete_recovery_point():
    rng = random.Random(80808)
    bad = 0
    for _ in range(1000):
        a = rng.uniform(0.5, 0.98)
        b = min(1.0, a + rng.uniform(0.002, 0.5))
        prob = RecoveryProblem(a, b)
        if classify_point(prob, b, a) is not RegionClass.COMPLETE_RECOVERY:
            bad += 1
            continue
        x, y = product_spectra(prob, b, a)
        if abs(entropy(x) - entropy(y)) > 1e-9:
            bad += 1
    report(
        "swapping the pair weights is always complete recovery with entropy "
        f"conserved ({bad} failures in 1000 problems)",
        bad == 0,
    )


def test_a9_region_csv_determinism(tmp_path, capsys):
    blobs = []
    ok = True
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        code = main(["region", "--a", "0.7", "--b", "0.8", "--n", "200",
                     "--out", str(path)])
        capsys.readouterr()
        ok = ok and code == 0
        blobs.append(path.read_bytes())
    ok = ok and blobs[0] == blobs[1]
    ok = ok and blobs[0].startswith(b"p,q,class\n")
    ok = ok and blobs[0].count(b"\n") == 1 + 201 * 201
    with capsys.disabled():
        report("two n=200 region exports are byte-identical", ok)
