"""The grid families that scripts/side_by_side.py compares across revisions.

Seeded random problems, the ulp-gap family, open reverse brackets at
n = 1500/2000/3000, the open forward bracket, a lone open reverse row on a
grid with no equal-spectra cell (one fixture, and b = p_i + eps draws),
equal spectra at wide eps, the 3 x 3 block of complete cells, problems at
the edge of the range (a just below 1/2, b just above 1), and four-decimal
problems at the benchmark's resolutions.  A grid's outcome is its counts,
taken before anything reads its codes, and the sha256 of its codes bytes
and of its own write_region_csv output, so no grid and no CSV is held once
it is made.  Every grid's CSV is written to a temporary file, opened with
`region --out`'s encoding and newline, and hashed from there, so
write_region_csv takes the path it takes for such a file, which splits the
rows of a large grid between two processes.  A grid that raises has the
exception's type and message as its outcome, as a scalar call does.
"""

import hashlib
import math
import random
import tempfile

from scalar_equivalence import call

# b - a is eps and a few ulps: the reverse brackets of rows p < a stay open
OPEN_BRACKETS = (0.9440145989529203, 0.9440145989529222, 1.7488832477578608e-15)
# b + eps lies within rounding of p_8 = 0.9 at n = 10: a forward bracket stays open
OPEN_FORWARD_BRACKET = (0.6, 0.8999, 1e-4)
# b is p_4 + eps at n = 6: the reverse bracket of row 4 stays open, while no
# cell of the grid has equal spectra
OPEN_ROW_NO_EQUAL = (0.8, 0.5 + 4 / 12 + 1e-12, 1e-12)
# the swap point's eps-neighbourhood covers 3 x 3 cells at n = 600
SWAP_BLOCK = (0.7, 0.8, 9e-4)


def edge_of_range(rng, low_a: bool, high_b: bool):
    """Random (a, b, eps) with a in [1/2 - eps, 1/2) if low_a, else in
    [1/2, 0.9], and b in [1 - eps, 1 + eps] if high_b, else in
    [a + 2 eps, 1].  RecoveryProblem stores a high_b b as 1, from either side."""
    eps = 10 ** rng.uniform(-12, -3)
    if low_a:
        a = min(0.5 - rng.uniform(0.0, eps), math.nextafter(0.5, 0.0))
    else:
        a = rng.uniform(0.5, 0.9)
    if high_b:
        b = 1.0 + rng.uniform(-eps, eps)
    else:
        b = rng.uniform(a + 2 * eps, 1.0)
    return a, b, eps


def ulp_gap(rng):
    """Random (a, b, eps) with b - a equal to eps plus 0-3 ulps, or None
    when rounding leaves a >= b - eps (RecoveryProblem's own test of a < b)."""
    eps = 10 ** rng.uniform(-15, -3)
    a = rng.uniform(0.5, 1.0 - 2 * eps)
    b = a + eps
    for _ in range(rng.randint(0, 3)):
        b = math.nextafter(b, 2.0)
    return (a, b, eps) if a < b - eps else None


def row_plus_eps(rng, max_n: int = 200):
    """Random (a, b, eps, n), n <= max_n, with b equal to p_i + eps, give or
    take 2 ulps, for a row p_i of the n grid, or None when rounding leaves b
    outside (a + eps, 1 + eps].  The target's second prefix sum, flat at b,
    jitters around the row's reverse threshold p_i + eps, so that row's
    bracket can stay open on a grid with no equal-spectra cell."""
    n, eps = rng.randint(2, max_n), 10 ** rng.uniform(-12, -3)
    b = 0.5 + rng.randint(1, n) / (2 * n) + eps
    for _ in range(rng.randint(0, 2)):
        b = math.nextafter(b, rng.choice((0.0, 2.0)))
    a = rng.uniform(0.5, b - 2 * eps)
    return (a, b, eps, n) if a < b - eps and b <= 1.0 + eps else None


def wide_eps_equal(rng):
    """Random (a, b, eps) with eps in [1e-4, 1e-3), a near 1/2 and b - a of
    1.5 to 5 eps, which puts equal spectra on grid cells near the diagonal."""
    eps = rng.uniform(1e-4, 9.99e-4)
    a = rng.uniform(0.5 - eps / 2, 0.52)
    return a, a + rng.uniform(1.5, 5.0) * eps, eps


def four_decimal(rng):
    """Random (a, b) as the benchmark draws them (perfbench/workloads.py):
    a in [0.52, 0.9] and b in [a + 0.02, 0.98], each rounded to 4 decimals."""
    a = round(rng.uniform(0.52, 0.9), 4)
    return a, round(rng.uniform(a + 0.02, 0.98), 4)


def families(seed: int):
    """Yield (family, a, b, eps, n) for every grid to compare."""
    rng = random.Random(seed)
    for _ in range(200):
        a = rng.uniform(0.5, 0.97)
        b = rng.uniform(a + 0.002, 1.0)
        yield "random", a, b, 1e-12, rng.randint(1, 400)
    for _ in range(400):
        problem = ulp_gap(rng)
        if problem:
            yield "ulp-gap", *problem, rng.randint(2, 200)
    for n in (200, 1500, 2000, 3000):
        yield "open-brackets", *OPEN_BRACKETS, n
    for n in (10, 20, 100, 1000):
        yield "open-forward-bracket", *OPEN_FORWARD_BRACKET, n
    for _ in range(100):
        yield "wide-eps-equal", *wide_eps_equal(rng), rng.randint(1, 400)
    for n in (300, 600, 1200):
        yield "swap-block", *SWAP_BLOCK, n
    for _ in range(200):
        low_a, high_b = rng.choice([(True, False), (False, True), (True, True)])
        yield "edge-of-range", *edge_of_range(rng, low_a, high_b), rng.randint(1, 400)
    yield "open-row-no-equal", *OPEN_ROW_NO_EQUAL, 6
    for _ in range(200):
        problem = row_plus_eps(rng)
        if problem:
            yield "row-plus-eps", *problem
    for _ in range(64):
        problem = four_decimal(rng)
        for n in (100, 200, 400, 500, 1000, 1500):
            yield "four-decimal", *problem, 1e-12, n


def _grid(module, a, b, eps, n):
    # counts, sha256 of the codes and sha256 of the CSV of one grid; counts
    # come first, while nothing has read codes, so a grid that holds the
    # kernel's census until then is compared by that census
    grid = module.region_grid(module.RecoveryProblem(a, b, module.Tolerance(eps)), n)
    counts = {cls.value: k for cls, k in grid.counts().items()}
    csv = _csv_sha256(module.cli.write_region_csv, grid)
    return counts, hashlib.sha256(grid.codes.tobytes()).hexdigest(), csv


def _csv_sha256(write_region_csv, grid):
    # the sha256 of the grid's CSV, written to a file as `region --out` writes it
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as fh:
        write_region_csv(grid, fh)
        fh.seek(0)
        digest = hashlib.sha256()
        for chunk in iter(lambda: fh.buffer.read(1 << 20), b""):
            digest.update(chunk)
        return digest.hexdigest()


def outcomes(module, draw):
    """{family: outcome} of the grid that draw = (family, a, b, eps, n) names,
    made by package module: its (counts, sha256 of the codes, sha256 of the
    CSV) in comparable form, or the exception's type and message."""
    family, *problem = draw
    return {family: call(_grid, module, *problem)[1]}
