"""Entanglement recovery region for an auxiliary two-qubit pair.

Setting: a source pair with larger coefficient a must be converted into a
less entangled pair with coefficient b (a < b).  Performing the conversion
collectively with an auxiliary pair (p before, q after) can move some of the
lost entanglement into the auxiliary: the joint conversion is deterministic
exactly when the product spectrum (ap, a(1-p), (1-a)p, (1-a)(1-p)) is
majorized by (bq, b(1-q), (1-b)q, (1-b)(1-q)).

Two independent deciders are provided and must agree:

* the direct 4-element majorization oracle (ground truth), used by
  classify_point and region_grid;
* is_feasible_closed_form, the derived inequality set
  1/2 <= q < p <= 1,  ap <= bq,  (1-b)(1-q) <= (1-a)(1-p),  p <= b,  q < b.

Recovered entanglement is real (q < a) in the true-recovery subregion and
reproducible by per-pair conversions (q >= a) in the trivial one; the single
point (p, q) = (b, a) swaps the roles of the two pairs completely.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from typing import TYPE_CHECKING

from .errors import (
    InvalidTypeError,
    OutOfRangeError,
    ResolutionTooLargeError,
    require_instance,
    require_real_in,
)
from .majorization import is_majorized_by
from .spectra import (
    DEFAULT_TOL,
    FrozenValue,
    SchmidtSpectrum,
    Tolerance,
    entropy,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RecoveryProblem",
    "RegionClass",
    "RegionGrid",
    "product_spectra",
    "is_feasible_closed_form",
    "classify_point",
    "bell_bound",
    "can_concentrate_bell",
    "region_grid",
]

MAX_GRID_N = 10_000


class RecoveryProblem(FrozenValue):
    """Fixed source/target parameters 1/2 <= a < b <= 1 of a recovery scenario.

    a or b within eps outside that range is clamped onto its end.  b within
    eps of 1, from either side, is stored as exactly 1.0: b = 1 (product-state
    target, i.e. concentration) is a valid problem, but the closed-form
    region requires b < 1 (see is_feasible_closed_form), and every consumer
    tests the stored b against 1.0 alone.  Then a < b must hold strictly
    beyond eps on the stored values (equal pairs need no recovery).
    """

    __slots__ = __match_args__ = ("a", "b", "tol")

    def __init__(self, a: float, b: float, tol: Tolerance = DEFAULT_TOL):
        if type(tol) is not Tolerance:
            require_instance("tol", tol, Tolerance)
        eps = tol.eps  # tol.lt(a, b) and tol.lt(b, 1.0) inline
        if not (type(a) is float and type(b) is float
                and 0.5 <= a and a < b - eps and (b == 1.0 or b < 1.0 - eps)):
            # a value out of range (NaN and inf included) is named before b is
            # stored and the order of a and b judged on the stored values,
            # whatever their type
            a = require_real_in("a", a, eps)
            b = require_real_in("b", b, eps)
            if not tol.lt(b, 1.0):
                b = 1.0
            if not a < b - eps:
                raise OutOfRangeError(f"need a < b strictly beyond eps, got a={a}, b={b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "tol", tol)


class RegionClass(enum.Enum):
    """Classification of a point (p, q) of the auxiliary-pair plane.

    Definition order is the code order of RegionGrid.codes and CSV counts.
    """

    COMPLETE_RECOVERY = "complete"
    TRUE_RECOVERY = "true"
    TRIVIAL_RECOVERY = "trivial"
    INCOMPARABLE = "incomparable"
    ENTANGLEMENT_INCREASING = "increasing"
    INFEASIBLE_OTHER = "infeasible"


_CLASSES = tuple(RegionClass)
_CLASS_CODE = {cls: i for i, cls in enumerate(_CLASSES)}


def _ladder(
    swap: bool, gain: bool, below_a: bool, equal: bool, rev: bool, fwd: bool
) -> RegionClass:
    """The class of a point from its six predicates, in order of precedence.

    The predicates: swap, (p, q) = (b, a) within eps; gain, q < p and a
    strict entropy gain in the auxiliary; below_a, q < a; equal, the joint
    spectra agree within eps; fwd and rev, forward and reverse majorization.

    1. Forward majorization at the swap point: complete recovery (the two
       pairs simply swap roles).
    2. Forward majorization with a gain: true recovery when q < a, trivial
       recovery when q >= a.
    3. Reverse majorization with unequal spectra: the conversion would
       increase total entanglement, so it is excluded.
    4. Neither direction: incomparable.
    5. Everything else (q >= p, equal spectra, no strict gain): infeasible.
    """
    if fwd and swap:
        return RegionClass.COMPLETE_RECOVERY
    if fwd and gain:
        return RegionClass.TRUE_RECOVERY if below_a else RegionClass.TRIVIAL_RECOVERY
    if rev and not equal:
        return RegionClass.ENTANGLEMENT_INCREASING
    if not (fwd or rev):
        return RegionClass.INCOMPARABLE
    return RegionClass.INFEASIBLE_OTHER


# region_grid packs _ladder's arguments into one key per cell, the first
# argument in the highest bit, which is the order itertools.product counts in;
# bytes.translate wants 256 entries, of which the keys use the first 64
_SWAP, _GAIN, _BELOW_A, _EQUAL, _REV, _FWD = (1 << k for k in range(5, -1, -1))
_LADDER_TABLE = bytes(
    _CLASS_CODE[_ladder(*bits)] for bits in itertools.product((False, True), repeat=6)
).ljust(256, b"\xff")


def _require_int(name: str, v) -> int:
    # a plain int, so RegionGrid's axis values are plain floats; numpy's
    # TypeError for an array that is not a 0-d integer one is turned into ours
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise InvalidTypeError(f"{name} must be an integer, got {v!r}")


def _require_resolution(n) -> int:
    # a grid resolution, as region_grid and RegionGrid take it
    n = _require_int("grid resolution", n)
    if n < 1:
        raise OutOfRangeError(f"grid resolution must be >= 1, got {n}")
    return n


def _sorted_products(c: float, v: float) -> tuple[float, ...]:
    # spectrum of a c-pair joined with a v-pair, sorted non-increasing: the
    # gates leave 1/2 <= c, v <= 1, so d = 1 - c and w = 1 - v are exact and
    # c*v >= c*w, d*v >= d*w >= 0
    d, w = 1.0 - c, 1.0 - v
    cw, dv = c * w, d * v
    return (c * v, cw, dv, d * w) if cw >= dv else (c * v, dv, cw, d * w)


def _pair_entropy(v: float) -> float:
    return entropy((v, 1.0 - v))


@functools.lru_cache(maxsize=4)
def _grid_axis(n: int) -> np.ndarray:
    # read-only rows pv, 1 - pv and pair entropies, shared by the grids at n
    import numpy as np
    pv = 0.5 + np.arange(n + 1) / (2 * n)  # i / (2n) is correctly rounded either way
    axis = np.stack((pv, 1.0 - pv, [_pair_entropy(v) for v in pv.tolist()]))
    axis.flags.writeable = False
    return axis


@functools.lru_cache(maxsize=4)
def _gain_cut(n: int, eps: float) -> np.ndarray:
    # read-only gain_lo of region_grid, which depends on (n, eps) alone
    import numpy as np
    pv, _, hv = _grid_axis(n)
    cut = np.minimum(np.subtract(eps, hv).searchsorted(-hv), pv.searchsorted(pv - eps))
    cut.flags.writeable = False
    return cut


def product_spectra(
    prob: RecoveryProblem, p: float, q: float
) -> tuple[SchmidtSpectrum, SchmidtSpectrum]:
    """Joint spectra (source x auxiliary-before, target x auxiliary-after)."""
    if type(prob) is not RecoveryProblem:
        require_instance("prob", prob, RecoveryProblem)
    if not (type(p) is float and type(q) is float and 0.5 <= p <= 1.0 and 0.5 <= q <= 1.0):
        p = require_real_in("p", p, prob.tol.eps)
        q = require_real_in("q", q, prob.tol.eps)
    return (SchmidtSpectrum(_sorted_products(prob.a, p)),
            SchmidtSpectrum(_sorted_products(prob.b, q)))


def is_feasible_closed_form(prob: RecoveryProblem, p: float, q: float) -> bool:
    """Decide recovery feasibility from the derived inequalities alone.

    Parameters
    ----------
    prob : RecoveryProblem
        Problem with b < 1 (the boundary-line slopes degenerate at b = 1;
        concentration targets are handled by can_concentrate_bell).
        RecoveryProblem stores a b within eps of 1 as 1.0, which is the one
        b refused here.
    p, q : float
        Auxiliary-pair parameters, 1/2 <= p, q <= 1.

    Returns
    -------
    bool
        True iff all of: q < p (strict, so the auxiliary strictly gains
        entanglement), ap <= bq and (1-b)(1-q) <= (1-a)(1-p)
        (division-free forms of the slope bounds q >= (a/b)p and
        1-q <= ((1-a)/(1-b))(1-p)), and p <= b with q < b.  The range part
        of 1/2 <= q < p <= 1 is enforced by the range gate on p and q,
        which raises OutOfRangeError instead of returning False.

    Never consults the majorization oracle; classify_point is the
    independent ground-truth route and the two are tested for equivalence.
    """
    if type(prob) is not RecoveryProblem:
        require_instance("prob", prob, RecoveryProblem)
    a, b, eps = prob.a, prob.b, prob.tol.eps
    if b == 1.0:
        raise OutOfRangeError("closed-form region requires b < 1")
    if not (type(p) is float and type(q) is float and 0.5 <= p <= 1.0 and 0.5 <= q <= 1.0):
        p = require_real_in("p", p, eps)
        q = require_real_in("q", q, eps)
    # tol.lt, leq, leq, leq and lt, inline on eps
    return (q < p - eps
            and a * p <= b * q + eps
            and (1.0 - b) * (1.0 - q) <= (1.0 - a) * (1.0 - p) + eps
            and p <= b + eps
            and q < b - eps)


def classify_point(prob: RecoveryProblem, p: float, q: float) -> RegionClass:
    """Classify a point of the (p, q) plane using the majorization oracle.

    Evaluates the six predicates of _ladder, whose docstring gives the
    precedence among the classes, with scalar arithmetic.  The closed form
    never enters; see is_feasible_closed_form.
    """
    return evaluate_point(prob, p, q)[0]


def evaluate_point(
    prob: RecoveryProblem, p: float, q: float
) -> tuple[RegionClass, float, float, SchmidtSpectrum, SchmidtSpectrum]:
    """classify_point's one pass: its class, the gated p, q and joint spectra."""
    if type(prob) is not RecoveryProblem:
        require_instance("prob", prob, RecoveryProblem)
    a, b, eps = prob.a, prob.b, prob.tol.eps
    # gated once: product_spectra takes its fast path on the clamped floats
    if not (type(p) is float and type(q) is float and 0.5 <= p <= 1.0 and 0.5 <= q <= 1.0):
        p, q = require_real_in("p", p, eps), require_real_in("q", q, eps)
    x, y = product_spectra(prob, p, q)
    x0, x1, x2, x3 = x.values
    y0, y1, y2, y3 = y.values
    # the Tolerance expressions inline: close, lt and, for rev, leq on the
    # prefix sums, added left to right as is_majorized_by adds them
    sx1, sy1 = x0 + x1, y0 + y1
    cls = _ladder(
        abs(p - b) <= eps and abs(q - a) <= eps,  # swap
        q < p - eps and _pair_entropy(p) < _pair_entropy(q) - eps,  # gain
        q < a - eps,  # below_a
        (abs(x0 - y0) <= eps and abs(x1 - y1) <= eps  # equal
         and abs(x2 - y2) <= eps and abs(x3 - y3) <= eps),
        y0 <= x0 + eps and sy1 <= sx1 + eps and sy1 + y2 <= sx1 + x2 + eps,  # rev
        is_majorized_by(x, y, prob.tol),  # fwd
    )
    return cls, p, q, x, y


def bell_bound(prob: RecoveryProblem) -> float:
    """Largest auxiliary parameter p for which a Bell pair (q = 1/2) is reachable."""
    if type(prob) is not RecoveryProblem:
        require_instance("prob", prob, RecoveryProblem)
    return prob.b / (2.0 * prob.a)


def can_concentrate_bell(a: float, p: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff a*p < 1/2 strictly: the two pairs concentrate into a Bell pair.

    This is the b = 1 case: the first pair ends in a product state (its
    residual is discarded) and the auxiliary becomes maximally entangled.
    The bound is kept strict; at a*p = 1/2 exactly the underlying product
    spectrum (with prefix sums (ap, a, 1-(1-a)(1-p))) is still majorized by
    (1/2, 1/2, 0, 0), but only with equality in the first prefix.
    """
    if type(tol) is not Tolerance:
        require_instance("tol", tol, Tolerance)
    eps = tol.eps  # tol.lt(a * p, 0.5), inline
    if not (type(a) is float and type(p) is float and 0.5 <= a <= 1.0 and 0.5 <= p <= 1.0):
        a = require_real_in("a", a, eps)
        p = require_real_in("p", p, eps)
    return a * p < 0.5 - eps


class RegionGrid(FrozenValue):
    """Rasterized classification of the square 1/2 <= p, q <= 1 at resolution n.

    codes[i, j] stores the class of (p_i, q_j) with p_i = 1/2 + i/(2n) and
    q_j = 1/2 + j/(2n), both exact float expressions, as an index into the
    RegionClass definition order (complete, true, trivial, incomparable,
    increasing, infeasible).  A grid equals only itself.  n must be an
    integer >= 1, stored as a plain int, and codes an integer ndarray of
    shape (n + 1, n + 1), else InvalidTypeError or OutOfRangeError; a and b
    are trusted, as region_grid passes them.

    codes is a read-only property over a private slot, and the array it
    returns is the caller's to write.  A grid from region_grid also holds
    the census its kernel took, which counts() returns; every read of codes
    drops it, since a write may follow, and a grid built here has none.
    """

    __slots__ = ("a", "b", "n", "_codes", "_census")
    __match_args__ = ("a", "b", "n", "codes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, a: float, b: float, n: int, codes: np.ndarray):
        import numpy as np
        n = _require_resolution(n)
        if not (type(codes) is np.ndarray and codes.dtype.kind in "iu"
                and codes.shape == (n + 1, n + 1)):
            shown = (f"{codes.dtype} array of shape {codes.shape}"
                     if isinstance(codes, np.ndarray) else type(codes).__name__)
            raise InvalidTypeError(
                f"codes must be an integer ndarray of shape ({n + 1}, {n + 1}), got {shown}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_census", None)

    @property
    def codes(self) -> np.ndarray:
        object.__setattr__(self, "_census", None)  # the caller may write codes
        return self._codes

    def _check_index(self, k: int) -> int:
        k = _require_int("grid index", k)
        if not 0 <= k <= self.n:
            raise IndexError(f"grid index {k} outside 0..{self.n}")
        return k

    def p_value(self, i: int) -> float:
        return 0.5 + self._check_index(i) / (2 * self.n)

    q_value = p_value  # both axes take the same values

    def class_at(self, i: int, j: int) -> RegionClass:
        i, j = self._check_index(i), self._check_index(j)
        code = self._codes[i, j]
        if not 0 <= code < len(_CLASSES):  # codes is writable: a caller can store any value
            raise OutOfRangeError(
                f"grid cell ({i}, {j}) holds code {code}, which no class has")
        return _CLASSES[code]

    def counts(self) -> dict[RegionClass, int]:
        """The number of cells of each class, in RegionClass order.

        While the grid holds region_grid's census, it returns that; else it
        counts the codes, and a code no class has raises OutOfRangeError.
        """
        if self._census is not None:
            return dict(zip(_CLASSES, self._census))
        import numpy as np
        codes = self._codes
        counts = {cls: int(np.count_nonzero(codes == _CLASS_CODE[cls])) for cls in RegionClass}
        if sum(counts.values()) != codes.size:
            # class_at raises OutOfRangeError naming the first cell no class has
            bad = (codes < 0) | (codes >= len(_CLASSES))
            self.class_at(*divmod(int(np.argmax(bad)), self.n + 1))
        return counts


def region_grid(prob: RecoveryProblem, n: int) -> RegionGrid:
    """Classify every point of the (n+1) x (n+1) grid over 1/2 <= p, q <= 1.

    Internally vectorized, but cell-for-cell identical to calling
    classify_point on each (p_i, q_j): the axis values, sorted product
    spectra and prefix sums are computed in numpy with the same IEEE
    operations as the scalar code, and the pair entropies, once per n, by
    the scalar code itself; as the gates keep a and b in the range, only the
    middle two products change order, which one maximum/minimum pair ranks.
    Along a grid row every predicate is one interval of columns, cut by the
    boundary lines of the region: fwd is a suffix, rev, gain and q < a are
    prefixes.  The gain cut is one searchsorted, as grid entropies fall by
    at least 1/(2 ln 2 n^2) >= 7.2e-9 a step; only the six prefix-sum cuts,
    which rounding can make non-monotone, are bracketed, by searchsorted on
    the running maximum and minimum of their columns (one search on a rising
    column).  A cell's predicates pack into one byte, its key, which a table
    built from _ladder maps to its class.  A row is at most five runs of
    equal keys, whose codes one np.repeat writes; only rows with an
    equal-spectra cell, an open bracket or a swap cell get key bytes, and
    float comparisons on their open bracket columns, in a pass skipped when
    no row has any of them.  The grid keeps its census, the run lengths by
    code with each patched row counted by its codes, which counts() returns
    until codes is read.  Deterministic for fixed (a, b, n, eps).
    Peak extra memory, for m = n + 1: the (m x m) codes, the O(m) runs and
    thresholds, and per chunk of rows the keys of its patched rows, the
    bool masks of one bracket rectangle (at most chunk x m cells) and index
    arrays over the equal-spectra windows; no key plane and no float array
    per cell.
    """
    if type(prob) is not RecoveryProblem:
        require_instance("prob", prob, RecoveryProblem)
    import numpy as np
    n = _require_resolution(n)
    if n > MAX_GRID_N:
        raise ResolutionTooLargeError(f"grid resolution {n} exceeds {MAX_GRID_N}")
    eps = prob.tol.eps
    a, b = prob.a, prob.b
    m = n + 1
    axis = _grid_axis(n)
    pv = axis[0]
    # _sorted_products row by row, source (c = a) and target (c = b) at once,
    # with the same IEEE operations: prod[u, w] holds the products of
    # (c, 1 - c)[u] with (v, 1 - v)[w] as (2, m) rows; c*v is the top rank,
    # (1 - c)(1 - v) the bottom, and one maximum/minimum orders the middle two
    prod = np.array([a, b, 1.0 - a, 1.0 - b]).reshape(2, 1, 2, 1) * axis[:2, None]
    top, mid, bottom = prod[0, 0], (prod[0, 1], prod[1, 0]), prod[1, 1]
    ranks = (top, np.maximum(*mid), np.minimum(*mid), bottom)
    # sums[0, k] adds ranks 0..k left to right, as is_majorized_by does, and
    # sums[1] adds eps; sums[:, k, 0] is the source row, sums[:, k, 1] the target
    sums = np.empty((2, 3, 2, m))
    sums[0, 0] = top
    np.add(top, ranks[1], out=sums[0, 1])
    np.add(sums[0, 1], ranks[2], out=sums[0, 2])
    np.add(sums[0], eps, out=sums[1])
    (sx, sy), (sx_eps, sy_eps) = sums.transpose(0, 2, 1, 3)

    # Along row i each predicate is one interval of columns: fwd a suffix,
    # rev and gain prefixes.  cols[f, k] holds the test col[j] < t (f = 0,
    # side "left"; fwd is its negation) or col[j] <= t (f = 1, "right") for
    # the row's t in vals[f, k].  Rounding can make col non-monotone (sy[1] is
    # flat at b for q <= b), so each threshold is bracketed: the test holds
    # for j < lo, where the running maximum of col passes it, and fails for
    # j >= hi, where the running minimum of col[j:] fails it.  On a rising
    # col both are col itself, and one search gives lo = hi.
    cols, vals = sums[::-1, :, 1], sums[:, :, 0]
    up = np.maximum.accumulate(cols, axis=2)
    rising = np.logical_and.reduce(up == cols, axis=2)
    t = np.empty((2, 3, 2, m), dtype=np.intp)
    for f, side in enumerate(("left", "right")):
        for k in range(3):
            t[f, k, 0] = up[f, k].searchsorted(vals[f, k], side)
            t[f, k, 1] = t[f, k, 0] if rising[f, k] else np.minimum.accumulate(
                cols[f, k, ::-1])[::-1].searchsorted(vals[f, k], side)
    # fwd fails for j < fwd_lo and holds from fwd_hi on; rev holds for
    # j < rev_lo and fails from rev_hi on; the gain holds for j < gain_lo, as
    # hv - eps falls by >= 1/(2 ln 2 n^2) >= 7.2e-9 a column, far above
    # rounding, and pv is exactly monotone
    (fwd_lo, fwd_hi), (rev_lo, rev_hi) = np.maximum.reduce(t[0]), np.minimum.reduce(t[1])
    gain_lo = _gain_cut(n, eps)

    # Each row is at most five runs of equal keys, cut where a predicate
    # changes; below_a (q < a) is a column prefix.  A predicate's bit starts
    # unset on the undecided columns [lo, hi) of its bracket.
    below_a = pv.searchsorted(a - eps)
    edges = np.empty((6, m), dtype=np.intp)  # by rank, so each compare spans m columns
    edges[0], edges[1], edges[5] = 0, below_a, m
    edges[2], edges[3], edges[4] = fwd_hi, rev_lo, gain_lo
    edges.sort(axis=0)
    run_start, run_len = edges[:5], (edges[1:] - edges[:5]).T
    run_key = ((run_start < below_a).view(np.uint8) * _BELOW_A
               | (run_start >= fwd_hi).view(np.uint8) * _FWD
               | (run_start < rev_lo).view(np.uint8) * _REV
               | (run_start < gain_lo).view(np.uint8) * _GAIN).T

    # Equal spectra need |x_0 - y_0| <= eps, and y_0 = b*q_j is non-decreasing
    # in j (b > 1/2, q >= 1/2), so each row's candidates form one column
    # window.  |fl(x_0 - y_0)| <= eps implies |x_0 - y_0| < 2*eps, so by
    # monotone rounding the 4*eps window keeps every such column.
    x0, y0 = top
    jlo = y0.searchsorted(x0 - 4 * eps)
    width = y0.searchsorted(x0 + 4 * eps, side="right") - jlo
    # Every row gets its runs' codes.  Rows with an equal-spectra cell, an open
    # bracket or a swap cell get keys: rebuilt from the runs, patched, translated
    run_code = np.frombuffer(run_key.tobytes().translate(_LADDER_TABLE), dtype=np.uint8)
    lengths = run_len.ravel()
    codes = np.repeat(run_code, lengths).reshape(m, m)
    swap_row = np.abs(pv - b) <= eps
    patched = (fwd_lo < fwd_hi) | (rev_lo < rev_hi) | swap_row
    if np.count_nonzero(patched) or np.count_nonzero(width):
        chunk = max(1, min(m, 2_000_000 // m))
        for lo in range(0, m, chunk):
            hi = min(lo + chunk, m)
            start = np.cumsum(width[lo:hi]) - width[lo:hi]  # each row's first candidate
            ci = np.repeat(np.arange(lo, hi), width[lo:hi])  # candidate cells (ci, cj)
            cj = jlo[ci] + np.arange(ci.size) - start[ci - lo]
            for rank in ranks:  # one rank at a time, on the cells still equal
                equal = np.abs(rank[0, ci] - rank[1, cj]) <= eps
                ci, cj = ci[equal], cj[equal]
            patched[ci] = True
            rows = lo + np.flatnonzero(patched[lo:hi])
            if not rows.size:
                continue
            buf = bytearray(np.repeat(run_key[rows], run_len[rows].ravel()))
            keys = np.frombuffer(buf, dtype=np.uint8).reshape(-1, m)
            keys[rows.searchsorted(ci), cj] |= _EQUAL
            # classify_point's float comparison op(row value, column value) on
            # the rectangle of the chunk's open rows, masked to each row's bracket
            for bit, b_lo, b_hi, op, row_vals, col_vals in (
                    (_FWD, fwd_lo, fwd_hi, np.less_equal, sx, sy_eps),
                    (_REV, rev_lo, rev_hi, np.greater_equal, sx_eps, sy)):
                at = np.flatnonzero(b_lo[rows] < b_hi[rows])
                if at.size:
                    # closed rows between open ones have b_lo == b_hi: no column holds
                    span = slice(at[0], at[-1] + 1)
                    r = rows[span]
                    j0, j1 = b_lo[rows[at]].min(), b_hi[rows[at]].max()
                    j = np.arange(j0, j1)
                    hold = j < b_hi[r, None]
                    hold &= b_lo[r, None] <= j
                    for k in range(3):
                        hold &= op(row_vals[k, r, None], col_vals[k, j0:j1])
                    keys[span, j0:j1] |= hold.view(np.uint8) * bit
                    del hold  # a chunk x m mask: free it before the next one is built
            # the swap bit: rows with p within eps of b, columns with q within eps of a
            keys[swap_row[rows]] |= (np.abs(pv - a) <= eps).view(np.uint8) * _SWAP
            codes[rows] = np.frombuffer(buf.translate(_LADDER_TABLE),
                                        dtype=np.uint8).reshape(-1, m)
    # the census: run lengths by code, each patched row counted by its codes
    rows = np.flatnonzero(patched)
    census = np.bincount(run_code, lengths, len(_CLASSES))
    if rows.size:
        census -= np.bincount(run_code.reshape(m, 5)[rows].ravel(),
                              run_len[rows].ravel(), len(_CLASSES))
        census += np.bincount(codes[rows].ravel(), minlength=len(_CLASSES))
    grid = RegionGrid(a, b, n, codes)
    object.__setattr__(grid, "_census", tuple(map(int, census.tolist())))
    return grid
