"""Spectra of a base q > 1: window enumeration, gap statistics, and the
branch-and-bound engine for the smallest positive element.

Two value kernels back every engine:

* exact mode (monic minimal polynomial, including integer bases): the
  base's ``ZqContext``; values are canonical integer vectors in Z[q], so
  deduplication and ordering are exact, and every sign the kernel decides
  comes from the base's exact sign oracle.  The windows keep the vectors
  as tuples; the search packs each into one int (``_PackedZq``, see
  below).  Each state also carries a float, and its level has one proven
  radius R with |value - float| <= R (the bound is in ``ZqContext``'s
  docstring).  A child's sign, its window test and its comparison with
  the current best are read off [f - R, f + R]; the exact
  ``ZqContext.sign``/``compare``/``cmp_fraction`` run only when that
  enclosure straddles the threshold.  A level whose floats or radius
  overflow is decided exactly throughout.
* numeric mode (everything else): ``_FloatKernel``; values are floats
  deduplicated within a declared tolerance.  It carries no proven
  enclosure (R is infinite), so every decision falls through to its
  tolerance tests.

Either way, a level is stored as columns: its values, an ``array('d')`` of
carried floats, and ``array('i')`` columns of parent position and digit (a
sign flip in the search stores parent p as ~p).  ``seen`` is an
insertion-ordered dict of Nones, the one deduplication test.  In the exact
search, the level column, ``seen`` and the best state hold packed ints
V = sum a_i 2^(W i), decoded only for exact tests and output: a parent is
multiplied by q once, a child adds its digit, and a sign flip is -V.
Before a level whose children's entries could reach 2^(W-2), the search
re-packs the level, the best state and ``seen`` (in insertion order) at a
doubled W (the bound is in ``ZqContext``'s docstring).  Numeric mode runs
the same loop on floats.  A search rebuilds a witness's digits from the
parents only where it is output.  The X, Y and A windows all grow through
``_expand_level``: each state y spawns q*y + s for every digit s of the
window's alphabet, and each level's digit texts are built once from the
texts of the level below.  A window is kept as columns with an order, a
permutation sorted by the carried floats: the Y/A clip to [-B, B] and the
sort read [f - R, f + R] and run exact comparisons only where enclosures
overlap.  A window point displays its carried float, within R of its value
(in numeric mode the carried float is the value itself).  The searches'
display floats, their closed-state order and the gap floats come from the
kernel's ``float_value``: in exact mode the midpoint of the value's exact
enclosure on the base refined to 2^-72, correctly rounded.

Results are deterministic: levels are expanded in sorted order and every
window is canonically sorted before emission.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction

from .algebraic import (AlgebraicNumber, ZqContext, _float_enclosure,
                        _PackedZq)
from .config import DEFAULT_NUMERIC_TOL, DEFAULT_STATE_BUDGET
from .errors import PreconditionError


# ---------------------------------------------------------------------------
# value kernels


class _FloatKernel:
    """Values are floats; equality within an absolute tolerance.  Mirrors
    the part of the ``ZqContext`` interface the windows use, and the part
    of the packed interface (``_PackedZq``) the search uses."""

    zero = 0.0

    def __init__(self, q: AlgebraicNumber, tol_abs: float):
        self.qf = q.float_value()
        self.tol = tol_abs
        self._bound = self._bound_f = None   # last cmp_fraction bound

    def step(self, v, s: int):
        return self.qf * v + s

    def mul_q(self, v):
        # (q*v) + s rounds as step(v, s) does
        return self.qf * v

    def fit_step(self, level):
        """Floats need no room: nothing is ever re-keyed."""
        return None

    def sign(self, v) -> int:
        if v > self.tol:
            return 1
        if v < -self.tol:
            return -1
        return 0

    def neg(self, v):
        return -v

    def cmp_fraction(self, v, c: Fraction) -> int:
        # a window passes one bound for every child: convert it once
        if c is not self._bound:
            self._bound, self._bound_f = c, float(c)
        return self.sign(v - self._bound_f)

    def float_value(self, v) -> float:
        return v

    def float_model(self) -> tuple[float, float, float]:
        """No proven model: the infinite error makes every carried radius
        infinite, so each decision is the tolerance test above."""
        return self.qf, math.inf, math.inf


class _FloatSeen(dict):
    """Float values as keys of a dict of Nones: a value within the tolerance
    of a stored one counts as present, so the first representative wins."""

    def __init__(self, tol_abs: float):
        super().__init__()
        self.tol = tol_abs
        self._buckets: dict[int, list[float]] = {}

    def __contains__(self, v) -> bool:
        k = round(v / self.tol)
        for kk in (k - 1, k, k + 1):
            for u in self._buckets.get(kk, ()):
                if abs(u - v) <= self.tol:
                    return True
        return False

    def __setitem__(self, v, none):
        self._buckets.setdefault(round(v / self.tol), []).append(v)
        dict.__setitem__(self, v, none)


def make_kernel(q: AlgebraicNumber, tol: float | None = None,
                scale: float = 1.0):
    """The base's ZqContext, with the base refined for the float model, when
    the minimal polynomial is monic; else numeric with absolute tolerance
    tol * (1 + scale)."""
    if q.min_poly.is_monic:
        ctx = q.zq_context()
        ctx.ensure_float_resolution()
        return ctx
    tol = DEFAULT_NUMERIC_TOL if tol is None else tol
    if not (tol > 0 and math.isfinite(tol)):
        raise PreconditionError(f"tolerance must be positive and finite, "
                                f"not {tol}")
    return _FloatKernel(q, tol * (1.0 + scale))


def _new_seen(kernel) -> dict:
    return _FloatSeen(kernel.tol) if isinstance(kernel, _FloatKernel) else {}


def _vec(kernel, v):
    """Exact values (Z[q] vectors, or a column of them); None if numeric."""
    return v if isinstance(kernel, ZqContext) else None


_U = 2.0 ** -53
_TINY = 2.0 ** -1000


def _down(x: float) -> float:
    """A float no larger than the exact result that rounded to x."""
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _child_radius(model, radius: float, floats, m: int) -> float:
    """Proven radius of the children q*v + s (|s| <= m) of a level whose
    floats lie within ``radius`` of their exact values (the bound in
    ``ZqContext``'s docstring); infinite when it overflows."""
    qf, dq, qabs = model
    F = max(map(abs, floats), default=0.0)
    r = ((qabs * radius + dq * F + _U * (2 * qf * F * (1 + 2 * _U) + m))
         * (1 + 2.0 ** -48) + _TINY)
    return r if math.isfinite(r) else math.inf


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class SpectrumPoint:
    value: float
    vec: tuple[int, ...] | None
    digits: tuple[int, ...]

    def to_dict(self) -> dict:
        d: dict = {"approx": self.value, "digits": list(self.digits)}
        if self.vec is not None:
            d["vec"] = list(self.vec)
        return d


@dataclass(frozen=True)
class SpectrumWindow:
    """A window as columns, one entry per point: Z[q] vectors (None in
    numeric mode), carried floats, their proven radii and digit texts
    (ascending digits joined by commas, "0" for zero).  ``order`` lists the
    positions in increasing value.  Writers encode straight from the
    columns; ``points`` is built from them on first read."""
    base: AlgebraicNumber
    m: int
    kind: str                       # "X" | "Y" | "A"
    degree: int | None              # digit-string degree cap (None for X)
    bound: Fraction
    complete: bool
    vecs: list | None
    floats: array
    radii: array
    texts: list[str]
    order: list[int]
    covering_radius: float | None = None
    truncated: bool = False

    @cached_property
    def points(self) -> tuple[SpectrumPoint, ...]:
        vecs, floats, texts = self.vecs, self.floats, self.texts
        return tuple(
            SpectrumPoint(floats[i], None if vecs is None else vecs[i],
                          tuple(map(int, texts[i].split(","))))
            for i in self.order)

    def values(self) -> list[float]:
        return [self.floats[i] for i in self.order]

    def to_dict(self, with_points: bool = True) -> dict:
        """The window as a JSON-ready dict.  ``with_points=False`` leaves
        out the "points" key, for writers that stream the points."""
        d = {
            "base": self.base.describe(),
            "m": self.m,
            "kind": self.kind,
            "degree": self.degree,
            "bound": float(self.bound),
            "complete": self.complete,
            "truncated": self.truncated,
        }
        if with_points:
            d["points"] = [p.to_dict() for p in self.points]
        if self.covering_radius is not None:
            d["covering_radius"] = self.covering_radius
        return d


def _digits_at(links, k: int, i: int) -> tuple[int, ...]:
    """Ascending digits of state i of the level whose (parents, digits)
    columns are ``links[k]`` (``links[0]`` is the level above the root).

    State i is q*p + digits[i] for the state p at position parents[i] of
    the level below, or q*(-p) + digits[i] when that position is stored as
    ~p, a sign flip that negates every digit above it.  Top zeros are
    trimmed; zero keeps a single 0 digit.
    """
    out, sign = [], 1
    for par, dig in reversed(links[:k + 1]):
        out.append(sign * dig[i])
        i = par[i]
        if i < 0:
            i, sign = ~i, -sign
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _expand_level(kernel, model, level, alphabet, band, keep, seen: dict,
                  budget: int):
    """Children q*v + s (s in alphabet) of the states of one level.

    ``level`` is (values, floats, radius): the level's values, their carried
    floats and the proven radius of those floats.  ``band(r)`` gives float
    thresholds (in_lo, in_hi, out_lo, out_hi) for children of radius r: a
    child whose float lies in [in_lo, in_hi] is kept, one below out_lo or
    above out_hi is dropped, and ``keep(child)`` decides the rest.  A kept
    child not in ``seen`` is recorded there.  Returns (next level, links,
    within budget), where links are the next level's (parents, digits)
    columns: child j is q*values[parents[j]] + digits[j].  Expansion stops
    after the first parent whose children push ``seen`` past the budget.
    """
    values, floats, radius = level
    qf = model[0]
    r = _child_radius(model, radius, floats, max(map(abs, alphabet)))
    in_lo, in_hi, out_lo, out_hi = band(r)
    step = kernel.step
    nxt, nfl = [], array("d")
    links = par, dig = array("i"), array("i")
    for i, (v, f) in enumerate(zip(values, floats)):
        for s in alphabet:
            cf = qf * f + s
            if cf < out_lo or cf > out_hi:
                continue
            child = step(v, s)
            if not (in_lo <= cf <= in_hi or keep(child)) or child in seen:
                continue
            seen[child] = None
            nxt.append(child)
            nfl.append(cf)
            par.append(i)
            dig.append(s)
        if len(seen) > budget:
            return (nxt, nfl, r), links, False
    return (nxt, nfl, r), links, True


def _root_level(kernel):
    """The one-state level of the empty digit string; it has no links."""
    return [kernel.zero], array("d", [0.0]), 0.0


def _level_texts(texts, par, dig) -> list[str]:
    """Digit texts of a level: state j is q*p + dig[j] for p at par[j], so
    its text is dig[j] then p's text, or dig[j] alone when p's is "0"."""
    return [str(s) if t == "0" else f"{s},{t}"
            for t, s in zip(map(texts.__getitem__, par), dig)]


def _sort_order(kernel, values, floats, radii) -> list[int]:
    """Positions of the values in increasing order."""
    order = sorted(range(len(floats)), key=floats.__getitem__)
    if isinstance(kernel, ZqContext):
        # floats order almost everything: a pair whose enclosures are
        # disjoint is certified, any other is compared exactly and a
        # near-tie bubbles into its true position
        i = 0
        while i < len(order) - 1:
            a, b = order[i], order[i + 1]
            if (_up(floats[a] + radii[a]) < _down(floats[b] - radii[b])
                    or kernel.compare(values[a], values[b]) < 0):
                i += 1
            else:
                order[i], order[i + 1] = b, a
                i = max(i - 1, 0)
    return order


def _check_base(q: AlgebraicNumber):
    if not q.greater_than(1):
        raise PreconditionError("base must satisfy q > 1")


def _check_bound(B) -> Fraction:
    """B as a Fraction: a window's bound is positive and a finite float."""
    B = Fraction(B)
    if not 0 < B <= sys.float_info.max:
        raise PreconditionError("bound must be positive and a finite float")
    return B


def enumerate_X(q: AlgebraicNumber, m: int, B, *, tol: float | None = None,
                budget: int = DEFAULT_STATE_BUDGET) -> SpectrumWindow:
    """Complete window X^m(q) in [0, B]: every value of a digit string over
    {0..m} up to B, exactly once.

    Nonnegative digits make top-truncated prefixes of any admissible string
    admissible themselves, so level sets {q*x + s} pruned above B are
    exhaustive; and a value with top digit at degree n is at least q^n, so
    the recursion stops after ~log_q B levels.
    """
    _check_base(q)
    if m < 1:
        raise PreconditionError("m >= 1 required")
    B = _check_bound(B)
    kernel = make_kernel(q, tol, float(B))
    model = kernel.float_model()
    b_lo, b_hi = _float_enclosure(B)
    seen = _new_seen(kernel)
    seen[kernel.zero] = None
    # every value in seen lives in exactly one level, the root in the first
    level = _root_level(kernel)
    values, floats, radii = [kernel.zero], array("d", [0.0]), array("d", [0.0])
    texts, level_texts = ["0"], ["0"]
    complete = True
    while level[0] and complete:
        level, (par, dig), complete = _expand_level(
            kernel, model, level, range(m + 1),
            lambda r: (-math.inf, _down(b_lo - r), -math.inf, _up(b_hi + r)),
            lambda c: kernel.cmp_fraction(c, B) <= 0, seen, budget)
        level_texts = _level_texts(level_texts, par, dig)
        values += level[0]
        floats += level[1]
        radii += array("d", [level[2]]) * len(level[0])
        texts += level_texts
    return SpectrumWindow(q, m, "X", None, B, complete, _vec(kernel, values),
                          floats, radii, texts,
                          _sort_order(kernel, values, floats, radii),
                          truncated=not complete)


def _tail_max(qf: float, m: int, r: int) -> float:
    """max |sum_{i<r} s_i q^i| over |s_i| <= m, float upper estimate."""
    if r <= 0:
        return 0.0
    return m * (qf**r - 1.0) / (qf - 1.0)


def _signed_window(q: AlgebraicNumber, m: int, degree: int, B: Fraction,
                   alphabet, tol: float | None, budget: int):
    """(columns, complete) for the values of the digit strings over
    ``alphabet`` (|s| <= m) with degree+1 digits that lie in [-B, B].

    Level t keeps only values that the r = degree - t digits still to come
    can bring back into [-B, B].  The budget caps each level's states; on
    overflow the partial level is clipped and returned as incomplete.
    """
    kernel = make_kernel(q, tol, float(B))
    model = kernel.float_model()
    qf = q.float_value()
    level = _root_level(kernel)
    texts = ["0"]
    complete = True

    def band(r):
        lo, hi = _down(cap - r), _up(cap + r)
        return -lo, lo, -hi, hi

    for t in range(degree, -1, -1):
        cap = float(B) * 1.0000001 + _tail_max(qf, m, t) + 1e-9
        level, (par, dig), complete = _expand_level(
            kernel, model, level, alphabet, band,
            lambda c: abs(kernel.float_value(c)) <= cap,
            _new_seen(kernel), budget)
        texts = _level_texts(texts, par, dig)
        if not complete:
            break
    # clip to [-B, B]: floats up to keep are proven inside, those above
    # drop proven outside, and the exact tests decide the band between
    values, floats, r = level
    b_lo, b_hi = _float_enclosure(B)
    keep, drop = _down(b_lo - r), _up(b_hi + r)
    inside = []
    for i, (v, f) in enumerate(zip(values, floats)):
        a = abs(f)
        if a <= keep or (a <= drop and kernel.cmp_fraction(v, B) <= 0
                         and kernel.cmp_fraction(kernel.neg(v), B) <= 0):
            inside.append(i)
    values = [values[i] for i in inside]
    floats = array("d", [floats[i] for i in inside])
    radii = array("d", [r]) * len(inside)
    return (_vec(kernel, values), floats, radii, [texts[i] for i in inside],
            _sort_order(kernel, values, floats, radii)), complete


def enumerate_Y(q: AlgebraicNumber, m: int, degree: int, B, *,
                tol: float | None = None,
                budget: int = DEFAULT_STATE_BUDGET) -> SpectrumWindow:
    """Degree-truncated window of the spectrum Y^m(q): all values
    sum_{i<=degree} s_i q^i with |s_i| <= m lying in [-B, B].

    The window is certified complete for Y^m(q) cap [-B, B] only when the
    growth bound applies: q > m+1 and q^(degree+1) (1 - m/(q-1)) >= B.
    """
    _check_base(q)
    if m < 1 or degree < 0:
        raise PreconditionError("need m >= 1 and degree >= 0")
    B = _check_bound(B)
    columns, complete = _signed_window(q, m, degree, B, range(-m, m + 1),
                                       tol, budget)
    certified = complete and _devries_complete(q, m, degree, B)
    return SpectrumWindow(q, m, "Y", degree, B, certified, *columns,
                          truncated=not complete)


def _devries_margin(q: AlgebraicNumber, m: int
                    ) -> tuple[Fraction, Fraction] | None:
    """(lo, margin) with lo a rational lower bound of q and
    margin = 1 - m/(lo-1), so that every spectrum value with top digit at
    degree n satisfies |y| > lo^n * margin; None when lo <= m+1."""
    lo, _ = q.refine_to_width(Fraction(1, 2**24))
    if lo <= m + 1:
        return None
    return lo, 1 - Fraction(m) / (lo - 1)


def _devries_complete(q: AlgebraicNumber, m: int, degree: int, B: Fraction
                      ) -> bool:
    """True when every spectrum value with a digit beyond the degree cap
    provably exceeds B."""
    bound = _devries_margin(q, m)
    return bound is not None and bound[0] ** (degree + 1) * bound[1] >= B


def enumerate_A(q: AlgebraicNumber, degree: int, B, *,
                tol: float | None = None,
                budget: int = DEFAULT_STATE_BUDGET) -> SpectrumWindow:
    """Window of A(q) = {sum a_i q^i, a_i in {-1, 1}} for strings of degree
    exactly ``degree``, clipped to [-B, B], with its covering radius."""
    _check_base(q)
    if q.compare_to_fraction(2) > 0:
        raise PreconditionError("A(q) windows require 1 < q <= 2")
    if degree < 0:
        raise PreconditionError("degree >= 0 required")
    B = _check_bound(B)
    columns, complete = _signed_window(q, 1, degree, B, (-1, 1), tol, budget)
    w = SpectrumWindow(q, 1, "A", degree, B, complete, *columns,
                       truncated=not complete)
    return replace(w, covering_radius=_covering_radius(w.values(), float(B)))


def _covering_radius(values: list[float], B: float) -> float | None:
    """max over t in [-B, B] of the distance from t to the value set."""
    if not values:
        return None
    r = max(values[0] + B, B - values[-1], 0.0)
    for a, b in zip(values, values[1:]):
        r = max(r, (b - a) / 2)
    return r


# ---------------------------------------------------------------------------
# gaps


@dataclass(frozen=True)
class GapReport:
    window_kind: str
    bound: float
    point_count: int
    min_gap: float
    max_gap_tail: float
    tail_fraction: float
    histogram: tuple[tuple[float, int], ...]
    min_gap_vec: tuple[int, ...] | None = None

    def count_equal(self, value: float, tol: float = 1e-9) -> int:
        return sum(n for g, n in self.histogram if abs(g - value) <= tol)

    def to_dict(self) -> dict:
        return {
            "kind": self.window_kind,
            "bound": self.bound,
            "points": self.point_count,
            "min_gap": self.min_gap,
            "max_gap_tail": self.max_gap_tail,
            "tail_fraction": self.tail_fraction,
            "histogram": [[g, n] for g, n in self.histogram],
        }


def check_tail_fraction(tail_fraction: float) -> None:
    if not 0 <= tail_fraction <= 1:
        raise PreconditionError(
            f"tail fraction must lie in [0, 1], not {tail_fraction}")


def gap_report(window: SpectrumWindow, tail_fraction: float = 0.5,
               hist_tol: float = 1e-9) -> GapReport:
    """Consecutive-gap statistics of a window.

    In exact mode gaps are grouped by canonical vector, so the histogram and
    the minimum are exact, and each group's float is read off its vector on
    the refined base rather than from a difference of display floats that
    cancels; numerically gaps are clustered within hist_tol.
    """
    check_tail_fraction(tail_fraction)
    order, floats, vecs = window.order, window.floats, window.vecs
    if len(order) < 2:
        raise PreconditionError("need at least 2 points for gaps")
    exact = vecs is not None
    groups: dict = {}           # key -> [gap float, count]
    tail_from = tail_fraction * float(window.bound)
    tail = []                   # exact: keys of the tail gaps; else gaps
    for i, j in zip(order, order[1:]):
        gap = floats[j] - floats[i]
        if exact:
            key = tuple(y - x for x, y in zip(vecs[i], vecs[j]))
        else:
            key = round(gap / hist_tol)
        if key not in groups:
            groups[key] = [gap, 0]
        groups[key][1] += 1
        if floats[i] >= tail_from:
            tail.append(key if exact else gap)
    min_vec = None
    if exact:
        q = window.base
        ctx = q.zq_context()
        for k, g in groups.items():
            g[0] = ctx.float_value(k)
        tail = [groups[k][0] for k in tail]
        # certify the minimal group exactly among float near-ties
        min_vec = next(iter(groups))
        for k in groups:
            if ctx.sign(tuple(x - y for x, y in zip(k, min_vec))) < 0:
                min_vec = k
    hist = sorted((g, n) for g, n in groups.values())
    min_gap = groups[min_vec][0] if exact else hist[0][0]
    max_tail = max(tail) if tail else hist[-1][0]
    return GapReport(window.kind, float(window.bound), len(order), min_gap,
                     max_tail, tail_fraction, tuple(hist), min_vec)


# ---------------------------------------------------------------------------
# minimal positive element engine


@dataclass(frozen=True)
class BfsDepthRecord:
    depth: int
    min_value: float
    min_vec: tuple[int, ...] | None
    witness: tuple[int, ...]
    states: int
    new_states: int

    def to_dict(self) -> dict:
        finite = math.isfinite(self.min_value)
        return {"depth": self.depth,
                "min_value": self.min_value if finite else None,
                "min_vec": list(self.min_vec) if self.min_vec else None,
                "witness": list(self.witness), "states": self.states,
                "new_states": self.new_states}


@dataclass(frozen=True)
class BfsResult:
    base: AlgebraicNumber
    m: int
    trace: tuple[BfsDepthRecord, ...]
    closed: bool
    budget_exhausted: bool
    closed_states: tuple[tuple[float, tuple[int, ...] | None], ...] | None
    min_positive: float | None
    min_positive_vec: tuple[int, ...] | None
    min_witness: tuple[int, ...] | None

    def to_dict(self) -> dict:
        return {
            "base": self.base.describe(),
            "m": self.m,
            "trace": [r.to_dict() for r in self.trace],
            "closed": self.closed,
            "budget_exhausted": self.budget_exhausted,
            "closed_states": ([[v, list(vec) if vec else None]
                               for v, vec in self.closed_states]
                              if self.closed_states is not None else None),
            "min_positive": self.min_positive,
            "min_positive_vec": (list(self.min_positive_vec)
                                 if self.min_positive_vec else None),
            "min_witness": (list(self.min_witness)
                            if self.min_witness else None),
        }


def min_positive_bfs(q: AlgebraicNumber, m: int, max_depth: int = 24, *,
                     state_budget: int = DEFAULT_STATE_BUDGET,
                     tol: float | None = None) -> BfsResult:
    """Smallest positive spectrum value reachable within (0, m/(q-1)].

    States are the values of height-m digit strings lying in (0, c],
    c = m/(q-1), tracked up to sign; the expansion y -> q*y + s cannot leave
    [-c, c] for any string whose value ends there, so the search is
    exhaustive on that interval.  If a full expansion round adds no new
    state the reachable set is closed and min over it equals the true
    infimum of positive spectrum values in (0, c].
    """
    _check_base(q)
    if m < 1:
        raise PreconditionError("m >= 1 required")
    if max_depth < 1:
        raise PreconditionError("max_depth >= 1 required")
    kernel = make_kernel(q, tol, 1.0)
    model = kernel.float_model()
    qf = model[0]
    exact = isinstance(kernel, ZqContext)
    if exact:
        ctx, kernel = kernel, _PackedZq(kernel, m)

    def vec(v):
        # the output vector of a stored value; None in numeric mode
        return kernel.unpack(v) if exact else None

    def in_upper(v) -> bool:
        # v <= c  <=>  v*(q-1) - m <= 0; exact mode scales through min_poly
        if exact:
            v = kernel.unpack(v)
            w = ctx.sub(ctx.mul_q(v), v)
            return ctx.sign(ctx.add_fraction(w, -m)) <= 0
        c = m / (kernel.qf - 1.0)
        return v <= c + kernel.tol

    # float bounds of c = m/(q-1) over the base interval
    lo, hi = q.interval()
    c_lo = _float_enclosure(m / (hi - 1))[0]
    c_hi = _float_enclosure(m / (lo - 1))[1] if lo > 1 else math.inf

    def best_band(r):
        # floats below lt are proven smaller than the best, above gt larger
        _, _, bf, br = best
        return _down(_down(bf - br) - r), _up(_up(bf + br) + r)

    seen = _new_seen(kernel)
    level, floats = [], array("d")
    par, dig = array("i"), array("i")
    links = [(par, dig)]    # per depth: (parents, digits), see _digits_at
    best = None  # (value_repr, (depth - 1, position), carried float, radius)
    trace = []
    for s in range(1, m + 1):
        v = kernel.mul_q(kernel.zero) + s
        if kernel.sign(v) > 0 and in_upper(v) and v not in seen:
            seen[v] = None
            if best is None or kernel.sign(v - best[0]) < 0:
                best = (v, (0, len(level)), float(s), 0.0)
            level.append(v)
            floats.append(s)
            par.append(0)
            dig.append(s)
    radius = 0.0
    depth = 1
    closed = False
    budget_exhausted = False
    digits = range(-m, m + 1)
    trace.append(_depth_record(kernel, vec, depth, best, seen, level, links))
    while depth < max_depth:
        remap = kernel.fit_step(level)
        if remap is not None:
            # the packing width grew: re-key every stored value, seen in
            # its insertion order
            level = list(map(remap, level))
            seen = dict.fromkeys(map(remap, seen))
            if best is not None:
                best = (remap(best[0]), *best[1:])
        r = _child_radius(model, radius, floats, m)
        # floats up to up_in are proven <= c, those above up_out > c
        up_in, up_out = _down(c_lo - r), _up(c_hi + r)
        lt, gt = best_band(r) if best else (-math.inf, math.inf)
        nxt, nfl = [], array("d")
        par, dig = array("i"), array("i")
        links.append((par, dig))
        # one multiplication by q per parent; each child adds its digit
        for i, (f, qv) in enumerate(zip(floats, map(kernel.mul_q, level))):
            for s in digits:
                cf = qf * f + s
                if -r <= cf <= r:            # enclosure straddles 0
                    sign = kernel.sign(qv + s)
                    if sign == 0:
                        continue
                else:
                    sign = 1 if cf > 0 else -1
                if sign < 0:
                    cf = -cf
                if cf > up_out:
                    continue
                child = qv + s if sign > 0 else -(qv + s)
                if (cf > up_in and not in_upper(child)) or child in seen:
                    continue
                seen[child] = None
                if (best is None or cf < lt or
                        (cf <= gt and kernel.sign(child - best[0]) < 0)):
                    best = (child, (depth, len(nxt)), cf, r)
                    lt, gt = best_band(r)
                nxt.append(child)
                nfl.append(cf)
                # a flipped child -(q*v + s) is q*(-v) + (-s)
                par.append(i if sign > 0 else ~i)
                dig.append(s * sign)
            if len(seen) > state_budget:
                budget_exhausted = True
                break
        if budget_exhausted:
            break
        depth += 1
        trace.append(_depth_record(kernel, vec, depth, best, seen, nxt,
                                   links))
        if not nxt:
            closed = True
            break
        level, floats, radius = nxt, nfl, r

    closed_states = None
    if closed:
        closed_states = tuple(sorted(
            ((kernel.float_value(v), vec(v)) for v in seen),
            key=lambda state: state[0]))
    return BfsResult(
        base=q, m=m, trace=tuple(trace), closed=closed,
        budget_exhausted=budget_exhausted, closed_states=closed_states,
        min_positive=kernel.float_value(best[0]) if best else None,
        min_positive_vec=vec(best[0]) if best else None,
        min_witness=_digits_at(links, *best[1]) if best else None,
    )


def _depth_record(kernel, vec, depth, best, seen, new_level, links):
    if best is None:
        return BfsDepthRecord(depth, math.inf, None, (), len(seen),
                              len(new_level))
    return BfsDepthRecord(depth, kernel.float_value(best[0]), vec(best[0]),
                          _digits_at(links, *best[1]), len(seen),
                          len(new_level))


# ---------------------------------------------------------------------------
# liminf / limsup estimators


@dataclass(frozen=True)
class MinPositiveEstimate:
    result: BfsResult
    verdict: str        # "positive-certified" | "decreasing" | "stalled"

    def to_dict(self) -> dict:
        d = self.result.to_dict()
        d["verdict"] = self.verdict
        return d


def l_estimate(q: AlgebraicNumber, m: int, max_depth: int = 24, *,
               state_budget: int = DEFAULT_STATE_BUDGET,
               tol: float | None = None) -> MinPositiveEstimate:
    """Per-depth trace of the smallest positive element with a verdict:
    closure certifies a positive liminf proxy; otherwise the trace is
    classified by whether it kept decreasing through the later depths."""
    res = min_positive_bfs(q, m, max_depth, state_budget=state_budget,
                           tol=tol)
    if res.closed:
        return MinPositiveEstimate(res, "positive-certified")
    mins = [r.min_value for r in res.trace]
    last_drop = 0
    for i in range(1, len(mins)):
        if mins[i] < mins[i - 1]:
            last_drop = i
    verdict = "decreasing" if last_drop >= len(mins) / 2 else "stalled"
    return MinPositiveEstimate(res, verdict)


@dataclass(frozen=True)
class TailGapTable:
    base: AlgebraicNumber
    m: int
    rows: tuple[tuple[float, float], ...]   # (bound, max_gap_tail)
    verdict: str                            # "decreasing" | "constant" | "mixed"

    def to_dict(self) -> dict:
        return {"base": self.base.describe(), "m": self.m,
                "rows": [[b, g] for b, g in self.rows],
                "verdict": self.verdict}


def L_estimate(q: AlgebraicNumber, m: int, bounds, *,
               tail_fraction: float = 0.5, tol: float | None = None,
               budget: int = DEFAULT_STATE_BUDGET) -> TailGapTable:
    """Largest consecutive gap over the top of X^m windows for an increasing
    schedule of bounds; the limsup shadow."""
    bounds = [Fraction(b) for b in bounds]
    if sorted(bounds) != bounds or len(bounds) < 1:
        raise PreconditionError("bounds schedule must be increasing")
    rows = []
    for B in bounds:
        w = enumerate_X(q, m, B, tol=tol, budget=budget)
        rep = gap_report(w, tail_fraction=tail_fraction)
        rows.append((float(B), rep.max_gap_tail))
    gaps = [g for _, g in rows]
    if all(a > b for a, b in zip(gaps, gaps[1:])):
        verdict = "decreasing"
    elif all(abs(a - b) <= 1e-12 * (1 + abs(a)) for a, b in zip(gaps, gaps[1:])):
        verdict = "constant"
    else:
        verdict = "mixed"
    return TailGapTable(q, m, tuple(rows), verdict)
