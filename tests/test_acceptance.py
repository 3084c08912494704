"""End-to-end acceptance gate over sampled properties.

Each test checks one headline guarantee of the package on seeded draws and
prints a single PASS or FAIL line (run with -s to see them on success).  The
paper's fixed examples and the closed-form/oracle sweep are checked once, by
scripts/reproduce_examples.py, which tests/test_processes.py runs.
Tolerances are the ones the rest of the suite uses: 1e-9 for accumulated
entropy sums, 1e-6 sampling margins around decision boundaries.
"""

import random

from entrecovery import (
    RecoveryProblem,
    RegionClass,
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
    random_simplex,
    sample_feasible_point,
    sample_outer_point,
    sample_problem,
)


def report(label, ok):
    print(("PASS " if ok else "FAIL ") + label)
    assert ok, label


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
