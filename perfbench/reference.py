"""Reference answers that do not trust the code under test.

Exact rational arithmetic (fractions.Fraction) on the float inputs decides
recovery classes, the five closed-form inequalities, Bell concentration and
majorization.  A decider returns None when a margin it needs is nonzero but
within BAND of zero: there the package's eps-tolerant float comparisons may
legitimately land on either side, so no verdict is expected.  An exactly zero
margin is decided, because eps makes non-strict comparisons hold and strict
ones fail there.

Also here: a streaming reader for region CSV files, which counts rows and
labels and pulls out sampled lines without holding the file in memory.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)
BAND = Fraction(1, 10**9)
EPS = Fraction(1e-12)  # the package's default tolerance, exactly as stored
# Within [1/2, 1], h(q) - h(p) >= (2 / ln 2) * ((p - 1/2)^2 - (q - 1/2)^2), so
# a squared-distance gap beyond this keeps the entropy gap far above eps.
ENTROPY_GAP = Fraction(1, 10**9)

LABELS = ("complete", "true", "trivial", "incomparable", "increasing", "infeasible")
FROZEN_CENSUS = {
    "a": 0.7, "b": 0.8, "n": 50,
    "counts": {"complete": 1, "true": 161, "trivial": 54,
               "incomparable": 445, "increasing": 614, "infeasible": 1326},
}


def _holds(margin: Fraction, strict: bool):
    """Decide margin >= 0 (margin > 0 when strict); None inside the band."""
    if margin == 0:
        return not strict
    if abs(margin) <= BAND:
        return None
    return margin > 0


def _all(decisions):
    """Three-valued conjunction: any clear False wins, then any None."""
    decisions = list(decisions)
    if False in decisions:
        return False
    if None in decisions:
        return None
    return True


def _prefix_gaps(xs, ys):
    """Prefix-sum differences sum(ys[:k]) - sum(xs[:k]) for k < len - 1."""
    n = max(len(xs), len(ys))
    xs = list(xs) + [Fraction(0)] * (n - len(xs))
    ys = list(ys) + [Fraction(0)] * (n - len(ys))
    gaps, sx, sy = [], Fraction(0), Fraction(0)
    for k in range(n - 1):
        sx += xs[k]
        sy += ys[k]
        gaps.append(sy - sx)
    return xs, ys, gaps


def _products(c: Fraction, v: Fraction):
    return sorted((c * v, c * (1 - v), (1 - c) * v, (1 - c) * (1 - v)), reverse=True)


def closed_form(a: float, b: float, p: float, q: float):
    """Exact truth of 1/2 <= q < p <= 1, ap <= bq, (1-b)(1-q) <= (1-a)(1-p),
    p <= b and q < b."""
    a, b, p, q = (Fraction(v) for v in (a, b, p, q))
    return _all((
        _holds(q - HALF, False),
        _holds(1 - p, False),
        _holds(p - q, True),
        _holds(b * q - a * p, False),
        _holds((1 - a) * (1 - p) - (1 - b) * (1 - q), False),
        _holds(b - p, False),
        _holds(b - q, True),
    ))


def classify(a: float, b: float, p: float, q: float):
    """Exact class label of (p, q), following the documented precedence."""
    a, b, p, q = (Fraction(v) for v in (a, b, p, q))
    xs, ys, gaps = _prefix_gaps(_products(a, p), _products(b, q))
    fwd = _all(_holds(g, False) for g in gaps)
    rev = _all(_holds(-g, False) for g in gaps)
    # |p - b| and |q - a| are exact in floats here (Sterbenz), so no band
    if abs(p - b) <= EPS and abs(q - a) <= EPS:
        if fwd is None:
            return None
        if fwd:
            return "complete"
    if fwd is None:
        return None
    if fwd:
        q_below_p = _holds(p - q, True)
        if q_below_p is None:
            return None
        if q_below_p:
            gap = (p - HALF) ** 2 - (q - HALF) ** 2
            if abs(gap) <= ENTROPY_GAP:
                return None
            if gap > 0:
                q_below_a = _holds(a - q, True)
                if q_below_a is None:
                    return None
                return "true" if q_below_a else "trivial"
    if rev is None:
        return None
    diffs = [abs(u - v) for u, v in zip(xs, ys)]
    equal = True if max(diffs) == 0 else (False if max(diffs) > BAND else None)
    if rev and equal is None:
        return None
    if rev and not equal:
        return "increasing"
    if not fwd and not rev:
        return "incomparable"
    return "infeasible"


def comparability(xs_raw, ys_raw):
    """Exact majorization comparability of two raw weight lists, as the
    values of entrecovery's Comparability enum."""
    xs = sorted((Fraction(v) for v in xs_raw), reverse=True)
    ys = sorted((Fraction(v) for v in ys_raw), reverse=True)
    xs, ys, gaps = _prefix_gaps(xs, ys)
    diffs = [abs(u - v) for u, v in zip(xs, ys)]
    if max(diffs) == 0:
        return "equal"
    if max(diffs) <= BAND:
        return None
    fwd = _all(_holds(g, False) for g in gaps)
    rev = _all(_holds(-g, False) for g in gaps)
    if fwd is None or rev is None:
        return None
    if fwd and rev:
        return "equal"
    if fwd:
        return "left-majorized"
    if rev:
        return "right-majorized"
    return "incomparable"


def can_concentrate(a: float, p: float):
    """Exact truth of a*p < 1/2."""
    return _holds(HALF - Fraction(a) * Fraction(p), True)


def bell_bound_ok(a: float, b: float, bound: float) -> bool:
    """The float bound is b / (2a) to within a few units in the last place."""
    exact = Fraction(b) / (2 * Fraction(a))
    return abs(Fraction(bound) - exact) <= exact * Fraction(1, 2**50)


def scan_csv(path, wanted, count_labels=True, chunk_bytes=1 << 20):
    """Stream a region CSV once.

    Returns (line_count, label_counts, lines, tail) where lines maps each
    wanted 0-based line index to its bytes without the newline and tail holds
    any bytes after the last newline (an unterminated final row).  Counting
    labels is one pass per label, so it can be skipped (label_counts is then
    None).
    """
    wanted = sorted(set(wanted))
    patterns = {label: b"," + label.encode() + b"\n" for label in LABELS}
    counts = dict.fromkeys(LABELS, 0)
    found = {}
    seen = 0
    carry = b""
    w = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_bytes)
            if not chunk:
                break
            buf = carry + chunk
            cut = buf.rfind(b"\n") + 1
            body, carry = buf[:cut], buf[cut:]
            nl = body.count(b"\n")
            if w < len(wanted) and wanted[w] < seen + nl:
                parts = body.split(b"\n")
                while w < len(wanted) and wanted[w] < seen + nl:
                    found[wanted[w]] = parts[wanted[w] - seen]
                    w += 1
            if count_labels:
                for label, pat in patterns.items():
                    counts[label] += body.count(pat)
            seen += nl
    return seen, counts if count_labels else None, found, carry
