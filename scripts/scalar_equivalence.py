"""The seeded scalar draws that scripts/side_by_side.py compares across revisions.

Each draw goes through RecoveryProblem, classify_point,
is_feasible_closed_form, can_concentrate_bell, bell_bound, product_spectra,
make_spectrum, compare and transform_verdict, at eps 1e-15, 1e-12 and
9e-4.  A quarter of the (p, q) points sit at k*eps (k = -3..3) from a
boundary line of the region, from ap = 1/2 or from an end of the range
[1/2 - eps, 1 + eps]; some arguments are out of range or NaN, and a fifth
of the spectrum pairs are permutations of each other.  An outcome is the
result, each float compared bit for bit, or the exception's type and
message.
"""

import enum
import math
import random

EPSILONS = (1e-15, 1e-12, 9e-4)
DRAWS = 20_000


def boundary_point(rng, line, a, b, off):
    """(p, q) on one line of the region, moved by off across it and clamped
    into [1/2, 1].  The lines: 0, q = p; 1, ap = bq; 2, (1-b)(1-q) =
    (1-a)(1-p); 3, p = b; 4, q = a; 5, q = b; 6, ap = 1/2."""
    u = rng.uniform(0.5, 1.0)
    if line == 0:
        p, q = u, u + off
    elif line == 1:
        p = rng.uniform(max(0.5, 0.5 * b / a), 1.0)
        q = a * p / b + off
    elif line == 2:
        p = rng.uniform(1.0 - 0.5 * (1.0 - b) / (1.0 - a), 1.0)
        q = 1.0 - (1.0 - a) * (1.0 - p) / (1.0 - b) + off
    elif line == 3:
        p, q = b + off, u
    elif line == 4:
        p, q = u, a + off
    elif line == 5:
        p, q = u, b + off
    else:
        p, q = 0.5 / a + off, u
    return min(1.0, max(0.5, p)), min(1.0, max(0.5, q))


def range_end(rng, eps):
    """A value at k*eps (k = -3..3) from 1/2 - eps or from 1 + eps, the ends
    of the range every p, q and a is checked against."""
    return rng.choice((0.5 - eps, 1.0 + eps)) + rng.randint(-3, 3) * eps


def _problem(rng, eps):
    # (a, b): mostly valid, some at the edges of the range or out of it
    shape = rng.randrange(8)
    a = rng.uniform(0.5, 0.95)
    if shape == 0:  # b - a within a few eps of eps
        return a, a + eps + rng.randint(-2, 2) * eps / 2
    if shape == 1:  # a at an end of its range, b near 1 (the closed form's b < 1)
        return range_end(rng, eps), 1.0 + rng.randint(-3, 3) * eps
    if shape == 2:  # NaN or far out of range
        return rng.choice(((math.nan, 0.8), (0.7, math.nan), (0.3, 0.8), (0.7, 1.2)))
    return a, rng.uniform(a + 2 * eps, 1.0)


def _point(rng, a, b, eps):
    # (p, q): three quarters uniform, a quarter at k*eps from a line or an end
    # of the range, and a few NaN
    r = rng.random()
    if r < 0.75:
        return rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
    if r < 0.9 and 0.5 <= a < b < 1.0:
        return boundary_point(rng, rng.randrange(7), a, b, rng.randint(-3, 3) * eps)
    if r < 0.98:
        u = rng.uniform(0.5, 1.0)
        return (range_end(rng, eps), u) if rng.random() < 0.5 else (u, range_end(rng, eps))
    return rng.choice(((math.nan, 0.7), (0.7, math.nan)))


def simplex(rng, dim):
    """A random probability vector of dim weights, each drawn from [0.05, 1]
    before normalization; tests/conftest.py builds its spectra from it."""
    raw = [rng.uniform(0.05, 1.0) for _ in range(dim)]
    total = sum(raw)
    return [v / total for v in raw]


def _weights(rng, eps):
    # two raw weight lists: independent, y = (1-t)x + t e1, a permutation
    # (identical once sorted), or entries moved by k*eps; a few invalid
    x = simplex(rng, rng.randint(1, 16))
    shape = rng.randrange(5)
    if shape == 0:
        y = simplex(rng, rng.randint(1, 16))
    elif shape == 1:
        t = rng.choice((rng.randint(0, 3) * eps, rng.uniform(0.0, 0.5)))
        y = [(1.0 - t) * v for v in x]
        y[0] += t
    elif shape == 2:
        y = rng.sample(x, len(x))
    elif shape == 3:
        y = list(x)
        i, j = rng.randrange(len(y)), rng.randrange(len(y))
        d = rng.randint(-3, 3) * eps
        y[i] += d
        y[j] -= d
    else:
        y = x[:-1] + [rng.choice((math.nan, -2 * eps - x[-1], x[-1] + 0.01))]
    return x, y


def draws(seed: int, count: int = DRAWS):
    """Yield (eps, a, b, p, q, x_raw, y_raw) for every call to compare."""
    rng = random.Random(seed)
    for _ in range(count):
        eps = rng.choice(EPSILONS)
        a, b = _problem(rng, eps)
        yield (eps, a, b, *_point(rng, a, b, eps), *_weights(rng, eps))


def _canon(v):
    # a result in a form comparable across the two packages
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, enum.Enum):
        return type(v).__name__, v.value
    if isinstance(v, tuple):
        return tuple(_canon(u) for u in v)
    if hasattr(type(v), "__match_args__"):  # the package's value classes
        return type(v).__name__, *(_canon(getattr(v, f)) for f in type(v).__match_args__)
    return type(v).__name__, repr(v)


def call(fn, *args):
    """(result, outcome) of fn(*args): the result, or None when it raises, and
    the result in comparable form, or the exception's type and message.
    grid_equivalence takes its grid outcomes from it too."""
    try:
        result = fn(*args)
    except Exception as exc:  # the exception is the outcome
        return None, ("raises", type(exc).__name__, str(exc))
    return result, _canon(result)


def outcomes(m, draw):
    """Each entry point's outcome in package m on draw = (eps, a, b, p, q,
    x_raw, y_raw), by name."""
    eps, a, b, p, q, x_raw, y_raw = draw
    tol = m.Tolerance(eps)
    out = {"can_concentrate_bell": call(m.can_concentrate_bell, a, p, tol)[1]}
    prob, out["RecoveryProblem"] = call(m.RecoveryProblem, a, b, tol)
    (x, x_out), (y, y_out) = call(m.make_spectrum, x_raw, tol), call(m.make_spectrum, y_raw, tol)
    out["make_spectrum"] = x_out, y_out
    if prob is not None:
        for name in ("classify_point", "is_feasible_closed_form", "product_spectra"):
            out[name] = call(getattr(m, name), prob, p, q)[1]
        out["bell_bound"] = call(m.bell_bound, prob)[1]
    if x is not None and y is not None:
        out["compare"] = call(m.compare, x, y, tol)[1]
        out["transform_verdict"] = call(m.transform_verdict, x, y, tol)[1]
    return out
