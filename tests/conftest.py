"""Shared construction helpers for the test suite."""

import importlib.util
import random
import sys
from pathlib import Path

import entrecovery
from entrecovery import RecoveryProblem, SchmidtSpectrum, make_spectrum

# the scripts, imported by name as they import each other when run as files
sys.path.append(str(Path(__file__).resolve().parent.parent / "scripts"))
import cli_equivalence
import grid_equivalence
import reproduce_examples
import scalar_equivalence
import side_by_side


def compare_with_itself(checks):
    """side_by_side.compare of this tree's package against a second import of
    the same tree, which leaves sys.modules afterwards."""
    name = "entrecovery_side_by_side"
    side = side_by_side.load_package(Path(entrecovery.__file__).resolve().parent.parent, name)
    try:
        assert side.classify_point is not entrecovery.classify_point
        assert side.region_grid is not entrecovery.region_grid
        return side_by_side.compare(entrecovery, side, checks)
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


def load_benchmark_module(stem):
    """perfbench/<stem>.py, loaded by path under the name perfbench_<stem>,
    so the benchmark's files need no package of their own."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_simplex(rng: random.Random, dim: int) -> SchmidtSpectrum:
    """Uniform-ish random probability vector of the given dimension."""
    return make_spectrum(scalar_equivalence.simplex(rng, dim))


def doubly_stochastic_mix(
    rng: random.Random, spectrum: SchmidtSpectrum, max_perms: int = 3
) -> SchmidtSpectrum:
    """Convex combination of random permutations of spectrum.

    The result is the image of spectrum under a doubly stochastic matrix,
    hence majorized by it.  Used to construct guaranteed x < y pairs without
    consulting the code under test.
    """
    vals = list(spectrum.values)
    n = len(vals)
    k = rng.randint(1, max_perms)
    weights = [rng.random() + 1e-6 for _ in range(k)]
    total = sum(weights)
    out = [0.0] * n
    for w in weights:
        share = w / total
        idx = list(range(n))
        rng.shuffle(idx)
        for i, j in enumerate(idx):
            out[i] += share * vals[j]
    return make_spectrum(out)


def sample_problem(
    rng: random.Random,
    min_gap: float = 0.01,
    a_lo: float = 0.51,
    a_hi: float = 0.95,
    b_hi: float = 0.99,
) -> RecoveryProblem:
    """Random recovery problem away from the degenerate edges."""
    a = rng.uniform(a_lo, a_hi)
    b = rng.uniform(a + min_gap, b_hi)
    return RecoveryProblem(a, b)


def sample_feasible_point(rng, prob, margin=1e-6, want=None):
    """Random (p, q) safely inside the feasible region of prob.

    want: None for anywhere, 'true' for q < a, 'trivial' for q >= a.
    Feasibility is guaranteed by construction: q sits at least margin above
    both lower boundary lines (for p <= b the line q = (a/b)p dominates the
    other) and at least margin below q = p.  Returns None when the requested
    window is empty for this problem.
    """
    a, b = prob.a, prob.b
    for _ in range(200):
        p = rng.uniform(0.5 + margin, b)
        lo = max(0.5, (a / b) * p) + margin
        hi = p - margin
        if want == "true":
            hi = min(hi, a - margin)
        elif want == "trivial":
            lo = max(lo, a + margin)
        if hi <= lo:
            continue
        return p, rng.uniform(lo, hi)
    return None


def sample_outer_point(rng, prob, region, margin=1e-6):
    """Random (p, q) with p > b, either between the slope line q = (a/b)p and
    the diagonal ('incomparable') or below the slope line ('increasing')."""
    a, b = prob.a, prob.b
    for _ in range(200):
        p = rng.uniform(b + margin, 1.0)
        cut = (a / b) * p
        if region == "incomparable":
            lo, hi = cut + margin, p - margin
        else:
            lo, hi = 0.5, cut - margin
        if hi <= lo:
            continue
        return p, rng.uniform(lo, hi)
    return None
