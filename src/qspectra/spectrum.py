"""Spectra of a base q > 1: window enumeration, gap statistics, and the
branch-and-bound engine for the smallest positive element.

Every window, and the search on a monic base, runs on an exact
``ZqContext`` of the base: each value's integer vector over theta = a*q (a
the leading coefficient of the minimal polynomial) packed into one int by
this module's ``_PackedZq``, so deduplication and ordering are exact, and
every sign the kernel decides comes from the base's exact sign oracle.  On
a non-monic base, a rational one included, a window's context has the
scale a^D, D the highest degree it steps to, so it stores a^D times each
value (see ``_PackedZq``).  The search on a non-monic base has no depth
bound, so it runs ``_FloatKernel``: floats deduplicated within a declared
tolerance, whose radius (below) is infinite, so every decision falls
through to its tolerance tests.

One routine, ``_expand_level``, grows every engine: each state y of a level
spawns q*y + s for every digit s of the alphabet, in the X, Y and A windows
and in the search, which folds each child to its absolute value.  The float
search runs the same loop on floats.  A level is stored as columns: its
values, an ``array('d')`` of carried floats with one proven radius R,
|value - float| <= R (the bound is in ``_child_radius``), and
columns of parent position (``array('i')``; a fold stores parent p as ~p)
and digit (``array('b')`` while each digit fits in a byte).  A child's
sign, its window test and the search's comparison with its best are read
off [f - R, f + R]; the exact ``sign``/``cmp_fraction`` run only when that
enclosure straddles the threshold, and a level whose floats or radius
overflow is decided exactly throughout.  ``seen`` is an insertion-ordered
dict of Nones, the one deduplication test.  Packed values
V = sum a_i 2^(W i), W >= 16, are decoded only for exact tests and output:
a parent is multiplied by q once, a child adds its digit, and a fold is -V.
Before a level whose children's entries could reach 2^(W-2), the level and
``seen`` (an X window's holds all its levels) are re-packed at a doubled W,
and the search re-keys its best by the same map; a level whose smallest
child is proven out of the band makes no room and no child.  Digit texts
and witnesses are rebuilt from the parent columns only where they are
read.  A window's order is a permutation sorted by the carried floats: the
Y/A clip to [-B, B] and the sort run exact comparisons only where
enclosures overlap, and the gaps group by packed difference.  A window
point displays its carried float; the searches' display floats, their
closed-state order and the gap floats come from the kernel's
``float_value``: the midpoint of the value's exact enclosure on the base
refined to 2^-72, correctly rounded (in the float search, the float
itself).

Results are deterministic: levels are expanded in sorted order and every
window is canonically sorted before emission.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter, namedtuple
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, compress

from .algebraic import AlgebraicNumber, ZqContext, _devries_margin
from .config import (DEFAULT_NUMERIC_TOL, DEFAULT_STATE_BUDGET,
                     MAX_SCALE_BITS)
from .errors import PreconditionError
from .intpoly import _integer, _rational, _show
from .records import FrozenRecord


# ---------------------------------------------------------------------------
# value kernels

#: Width of the base interval under which the float model is taken.
MODEL_WIDTH = Fraction(1, 2**80)


class _PackedZq:
    """The vectors of a ``ZqContext`` packed into one int each; ``one`` is
    the packed vector of 1, and the exact methods unpack to the context's
    vectors.

    The smallest-positive search and the windows keep a context's vector
    (a_0, ..., a_{d-1}) as one int V = sum a_i 2^(W i) (signed Kronecker
    substitution: Schoenhage, 1982; Harvey, *J. Symbolic Comput.* 44,
    2009).  Packing is additive and, while every |a_i| < 2^(W-1),
    one-to-one, so equal vectors are equal ints and a sign flip is -V.  The
    context's depth is 0 on a monic base and on any other base the window's
    depth bound, the highest degree of any child it computes.  With
    theta^d = sum c_i theta^i, the top entry is
    t = (V + 2^(W(d-1)-1)) >> W(d-1) and

        theta*v = (V << W) - t*R,    R = 2^(W d) - sum c_i 2^(W i),

    once per parent; q*v is then one exact division of that int by a (each
    entry is divisible by a below the depth, and packing is linear), and a
    child q*v + s adds s*a^D.  Width bound: if a level's entries are at
    most E, its children's are at most E' = E*(1 + max|c_i|)/a + m*a^D.
    W starts at the least 16*2^k with m*a^D below 2^(W-2), and the engines
    carry E per level and keep E' below 2^(W-2), so a state, its negation
    and the difference of two states (a comparison) all have entries below
    2^(W-1) and decode exactly.  When E' would reach 2^(W-2), E restarts
    from the level's true maximum; if that does not fit either, every
    stored value of every level is re-packed at a doubled W.  Each value
    was below 2^(W-2) when it was made and W never shrinks, so the values
    of all levels stay below it (E may restart below an earlier level's
    entries), and differences across levels (a window's sort and gap keys)
    decode exactly too.
    """

    zero = 0
    exact = True

    def __init__(self, ctx: ZqContext, m: int):
        self.ctx, self.d, self.m, self.lead = ctx, ctx.d, m, ctx.lead
        self.one = ctx.one[0]
        self.growth = 1 + max((abs(c) for _, c in ctx.qd_terms), default=0)
        self.bound = m * self.one   # entries of the current level are <= it
        W = 16
        while self.bound >= 1 << (W - 2):
            W *= 2
        self._set_width(W)

    def _set_width(self, W: int):
        """Bind ``pack``, ``unpack`` and ``mul_q`` to width W."""
        d, a = self.d, self.lead
        shift = W * (d - 1)
        half, sign_bit, mask = (1 << shift) >> 1, 1 << (W - 1), (1 << W) - 1
        # theta^d = sum c_i theta^i, so theta*V = (V << W) - t*R for the
        # top entry t, and q*V = theta*V / a
        R = (1 << W * d) - sum(c << W * i for i, c in self.ctx.qd_terms)

        if a == 1:
            def mul_q(V):
                return (V << W) - ((V + half) >> shift) * R
        else:
            def mul_q(V):
                return ((V << W) - ((V + half) >> shift) * R) // a

        def pack(v):
            return sum(x << W * i for i, x in enumerate(v))

        def unpack(V):
            out = []
            for _ in range(d):
                out.append(((V + sign_bit) & mask) - sign_bit)
                V = (V + sign_bit) >> W
            return tuple(out)

        self.W, self.limit = W, 1 << (W - 2)
        self.pack, self.unpack = pack, unpack
        self.mul_q = mul_q

    def fit_step(self, level):
        """Make room for the children q*v + s (|s| <= m) of ``level``.

        Returns None when they fit at the current width.  When the carried
        bound does not, it restarts from the level's true maximum; only if
        that does not fit either does the width double until it does, and
        the returned map re-packs a value stored at the old width."""
        bound = self.bound * self.growth // self.lead + self.m * self.one
        if bound >= self.limit:
            top = max(map(abs, self.unpack_all(level)), default=0)
            bound = top * self.growth // self.lead + self.m * self.one
        self.bound = bound
        if bound < self.limit:
            return None
        old = self.unpack
        W = 2 * self.W
        while bound >= 1 << (W - 2):
            W *= 2
        self._set_width(W)
        pack = self.pack
        return lambda V: pack(old(V))

    def unpack_all(self, column):
        """The entries of the values of ``column``, d per value, flat.  Up to
        W = 64, (V + O) ^ O with O = sum 2^(W-1+W i) is V's entries as W-bit
        two's-complement words, read into an array a chunk at a time."""
        d, W = self.d, self.W
        if W > 64:
            return [a for V in column for a in self.unpack(V)]
        O, n = sum(1 << (W - 1 + W * i) for i in range(d)), W * d // 8
        out = array({16: "h", 32: "i", 64: "q"}[W])
        for k in range(0, len(column), 4096):
            out.frombytes(b"".join(((V + O) ^ O).to_bytes(n, sys.byteorder)
                                   for V in column[k:k + 4096]))
        return out

    def sign(self, V) -> int:
        return self.ctx.sign(self.unpack(V))

    def cmp_fraction(self, V, c: Fraction) -> int:
        return self.ctx.cmp_fraction(self.unpack(V), c)

    def float_value(self, V) -> float:
        return self.ctx.float_value(self.unpack(V))

    def float_model(self) -> tuple[float, float, float]:
        """(qf, dq, qabs): floats with |q - qf| <= dq over the current base
        interval and qabs >= qf + dq, rounded outward exactly."""
        lo, hi = self.ctx.q.interval()
        try:
            qf = float((lo + hi) / 2)
            x = Fraction(qf)
            dq = _float_enclosure(max(hi - x, x - lo))[1]
            return qf, dq, _float_enclosure(x + Fraction(dq))[1]
        except OverflowError:
            raise PreconditionError("base is beyond the float range") from None


class _FloatKernel:
    """Values are floats; equality within an absolute tolerance.  Mirrors
    the part of the packed interface (``_PackedZq``) the search uses."""

    zero, one = 0.0, 1
    exact = False

    def __init__(self, q: AlgebraicNumber, tol_abs: float):
        self.qf = q.float_value()
        self.tol = tol_abs

    def mul_q(self, v):
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


def make_kernel(q: AlgebraicNumber, m: int, depth: int | None = None,
                tol: float | None = None):
    """The base's packed ZqContext for digits |s| <= m, with the base
    refined for the float model, for a monic base or a window of at most
    ``depth`` steps whose scale a^depth has at most MAX_SCALE_BITS bits;
    else (a non-monic search) numeric with absolute tolerance 2 * tol."""
    if depth is not None or q.min_poly.is_monic:
        # checked before the context computes a^depth: a >= 2 passes the
        # cap by a^(MAX_SCALE_BITS + 1), so stop there
        a = q.min_poly.coeffs[-1]
        if (a ** min(depth or 0, MAX_SCALE_BITS + 1)).bit_length() \
                > MAX_SCALE_BITS:
            raise PreconditionError(
                f"an exact window of {_show(depth)} levels scales its values"
                f" by {_show(a)}^{_show(depth)}, over {MAX_SCALE_BITS} bits")
        ctx = ZqContext(q, depth) if depth else q.zq_context()
        q.refine_to_width(MODEL_WIDTH)     # dq tiny against the floats
        return _PackedZq(ctx, m)
    tol = DEFAULT_NUMERIC_TOL if tol is None else tol
    check_tolerance(tol)
    return _FloatKernel(q, 2.0 * tol)


def check_tolerance(tol: float) -> None:
    try:
        ok = 0 < tol <= sys.float_info.max  # refuses NaN and huge ints
    except TypeError:                       # not a number
        ok = False
    if not ok:
        raise PreconditionError(f"tolerance must be positive and finite, "
                                f"not {_show(tol)}")


_U = 2.0 ** -53
_TINY = 2.0 ** -1000


def _down(x: float) -> float:
    """A float no larger than the exact result that rounded to x."""
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _float_enclosure(x) -> tuple[float, float]:
    """Floats (lo, hi) with lo <= x <= hi for a rational x, each at most one
    unit in the last place from x (lo == hi when x is a float)."""
    x = Fraction(x)
    f = float(x)
    exact = Fraction(f)
    if exact == x:
        return f, f
    if exact < x:
        return f, math.nextafter(f, math.inf)
    return math.nextafter(f, -math.inf), f


def _child_radius(model, radius: float, floats, m: int) -> float:
    """Proven radius of the children q*v + s (|s| <= m) of a level whose
    floats lie within ``radius`` of their exact values; infinite when it
    overflows.

    The engines keep, beside each exact value v, a float f and one radius
    R per level with |value(v) - f| <= R, so that a sign or a comparison
    costs O(1) and the exact methods run only when [f - R, f + R]
    straddles the threshold.  The kernel's ``float_model`` gives
    (qf, dq, qabs) with |q - qf| <= dq over the base interval and
    qabs >= qf + dq.  A child q*v + s (|s| <= m) of a level whose floats
    satisfy |f| <= F gets f' = fl(fl(qf*f) + s); under the standard model
    fl(a op b) = (a op b)(1 + delta), |delta| <= u = 2^-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 2-4),

        |value(q*v + s) - f'| <= qabs*R + dq*F + u*(2*qf*F*(1 + 2u) + m).

    The bound is evaluated in floats, so it is scaled by 1 + 2^-48 (more
    than the rounding of its own few operations) and a tiny absolute term
    covers underflow.  Refining q later only shrinks the interval, so the
    model stays valid for a whole search, and the window points display
    their carried floats.
    """
    qf, dq, qabs = model
    F = max(map(abs, floats), default=0.0)
    r = ((qabs * radius + dq * F + _U * (2 * qf * F * (1 + 2 * _U) + m))
         * (1 + 2.0 ** -48) + _TINY)
    return r if math.isfinite(r) else math.inf


# ---------------------------------------------------------------------------
# windows


class SpectrumPoint(namedtuple("SpectrumPoint", "value vec digits")):
    """A window point; ``vec`` is None on a non-monic base."""
    __slots__ = ()

    def to_dict(self) -> dict:
        d: dict = {"approx": self.value, "digits": list(self.digits)}
        if self.vec is not None:
            d["vec"] = list(self.vec)
        return d


class _Texts:
    """Texts by position in one string, each ended by a newline (as given
    to ``extend``): text i is text[ends[i]:ends[i + 1] - 1]."""

    def __init__(self):
        self.text, self.ends = "", array("q", [0])

    def extend(self, texts: list[str]) -> None:
        text, self.text = self.text, ""     # grown in place: one reference
        text += "".join(texts)
        self.text = text
        self.ends.extend(accumulate(map(len, texts), initial=self.ends.pop()))

    def take(self, a: int, b: int) -> list[str]:   # texts a to b - 1
        return self.text[self.ends[a]:self.ends[b] - 1].split("\n")

    def __getitem__(self, i: int) -> str:
        return self.text[self.ends[i]:self.ends[i + 1] - 1]


class SpectrumWindow(FrozenRecord):
    """A window as columns, one entry per point: the kernel's values (packed
    ints) and carried floats, each within the proven ``radius`` of its
    value; ``links`` holds each level's (parents, digits) columns: an X
    window's points are its levels, a Y or A window's its clipped last.
    ``order`` lists the positions in increasing value.  Writers encode
    straight from the columns; ``texts``, ``vecs`` and ``points`` are built
    when read, and kept in the instance's ``__dict__``."""

    _fields = ("base", "m", "kind", "degree", "bound", "complete", "kernel",
               "keys", "floats", "radius", "links", "order", "covering_radius",
               "truncated")

    def __init__(self, base: AlgebraicNumber, m: int,
                 kind: str,                 # "X" | "Y" | "A"
                 degree: int | None,        # digit-string cap (None for X)
                 bound: Fraction, complete: bool, kernel: _PackedZq,
                 keys: list, floats: array, radius: float, links: list,
                 order: array, covering_radius: float | None = None,
                 truncated: bool = False):
        super().__init__(base, m, kind, degree, bound, complete, kernel,
                         keys, floats, radius, links, order, covering_radius,
                         truncated)

    @cached_property
    def texts(self) -> _Texts:
        """Digit texts by position: ascending digits joined by commas, "0"
        for zero.  A child q*p + s has text s, then p's unless it is "0";
        children are built 1,024 at a time from their parents' texts."""
        texts, start = _Texts(), 0      # the level below is from start on
        texts.extend(["0\n"])
        for par, dig in self.links:
            below, base = texts, start
            if self.kind == "X":        # an X window holds every level
                start = len(texts.ends) - 1
            else:
                texts = _Texts()
            for k in range(0, len(par), 1024):
                run, lo = par[k:k + 1024], par[k]
                got = below.take(base + lo, base + run[-1] + 1)
                tops = map(got.__getitem__, map(lo.__rsub__, run))
                texts.extend([f"{s}\n" if t == "0" else f"{s},{t}\n"
                              for t, s in zip(tops, dig[k:k + 1024])])
        return texts

    @cached_property
    def vecs(self) -> list | None:
        """The Z[q] vectors as tuples, by position; None on a non-monic
        base, whose packed values are scaled vectors over theta."""
        k = self.kernel
        return (list(zip(*[iter(k.unpack_all(self.keys))] * k.d))
                if k.lead == 1 else None)

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
                  budget: int, fold: bool = False):
    """Children q*v + s (s in alphabet) of the states of one level.

    ``level`` is (values, floats, radius): the level's values, their carried
    floats and the proven radius of those floats.  ``band(r)`` gives float
    thresholds (in_lo, in_hi, out_lo, out_hi) for children of radius r: a
    child whose float lies in [in_lo, in_hi] is kept, one below out_lo or
    above out_hi is dropped, and ``keep(child)`` decides the rest.  With
    ``fold`` (the search) these test |child|: a float straddling 0 is
    decided exactly, a zero child dropped, and a negative one stored as
    -(q*v + s) = q*(-v) + (-s), its parent p as ~p.  A kept child not in
    ``seen`` is recorded there.  Returns (next level, links, within budget,
    re-pack map), where links are the next level's (parents, digits)
    columns: child j is q*values[parents[j]] + digits[j].  Expansion stops
    after the first parent whose children push ``seen`` past the budget.  A
    re-pack (``fit_step``) first re-keys the level and, in place, ``seen``;
    its map (else None) re-keys what else the caller holds.  A level whose
    smallest child float lies above out_hi has no child, and neither
    re-packs nor steps.
    """
    values, floats, radius = level
    qf, top = model[0], max(map(abs, alphabet))
    r = _child_radius(model, radius, floats, top)
    in_lo, in_hi, out_lo, out_hi = band(r)
    nxt, nfl = [], array("d")
    links = par, dig = array("i"), array("b" if top < 128 else "i")
    if qf * min(floats, default=math.inf) + min(alphabet) > out_hi:
        return (nxt, nfl, r), links, True, None
    if (remap := kernel.fit_step(values)) is not None:
        values, rekeyed = list(map(remap, values)), list(map(remap, seen))
        seen.clear()
        seen.update(dict.fromkeys(rekeyed))
    # one multiplication by q per parent; each child adds its digit, scaled
    # as the kernel stores values
    steps = [(s, s * kernel.one) for s in alphabet]
    for i, (f, qv) in enumerate(zip(floats, map(kernel.mul_q, values))):
        for s, u in steps:
            cf, child, p = qf * f + s, qv + u, i
            if fold and cf <= r:
                sign = kernel.sign(child) if cf >= -r else -1
                if not sign:
                    continue
                if sign < 0:
                    cf, child, p, s = -cf, -child, ~i, -s
            if (cf < out_lo or cf > out_hi
                    or not (in_lo <= cf <= in_hi or keep(child))
                    or child in seen):
                continue
            seen[child] = None
            nxt.append(child)
            nfl.append(cf)
            par.append(p)
            dig.append(s)
        if len(seen) > budget:
            return (nxt, nfl, r), links, False, remap
    return (nxt, nfl, r), links, True, remap


def _sort_order(kernel, values, floats, radius: float) -> array:
    """Positions of the values in increasing order, each float within
    ``radius`` of its value: the float order, which they take when every
    adjacent float gap exceeds twice the radius (with margin for its
    rounding)."""
    order = array("i", sorted(range(len(floats)), key=floats.__getitem__))
    fs = array("d", map(floats.__getitem__, order))
    sep = 2 * radius * (1 + 2.0 ** -40) + _TINY
    if min(map(float.__sub__, fs[1:], fs), default=math.inf) > sep:
        return order
    # else a pair whose enclosures are disjoint is certified, any other is
    # compared exactly and a near-tie bubbles into its true position
    i = 0
    while i < len(order) - 1:
        a, b = order[i], order[i + 1]
        if (_up(floats[a] + radius) < _down(floats[b] - radius)
                or kernel.sign(values[a] - values[b]) < 0):
            i += 1
        else:
            order[i], order[i + 1] = b, a
            i = max(i - 1, 0)
    return order


def _check_inputs(q: AlgebraicNumber, budget: int) -> int:
    if not q.greater_than(1):
        raise PreconditionError("base must satisfy q > 1")
    budget = _integer(budget, "state budget")
    if budget < 1:
        raise PreconditionError("state budget must be >= 1")
    return budget


def _check_bound(B) -> Fraction:
    """B as a Fraction: a window's bound is positive and a finite float."""
    B = _rational(B)
    if not 0 < B <= sys.float_info.max:
        raise PreconditionError("bound must be positive and a finite float")
    return B


def _x_depth(q: AlgebraicNumber, B: Fraction) -> int:
    """0 on a monic base (1^D = 1), else the least n with lo^n > B, lo a
    rational lower bound of q (past MAX_SCALE_BITS, any larger count): a
    value with a digit at degree n is over B, so no child steps past n."""
    if q.min_poly.is_monic:
        return 0
    lo = q.refine_to_width(MODEL_WIDTH)[0]
    n, num, den = 0, 1, 1
    while num * B.denominator <= B.numerator * den and n <= MAX_SCALE_BITS:
        n, num, den = n + 1, num * lo.numerator, den * lo.denominator
    return n


def enumerate_X(q: AlgebraicNumber, m: int, B, *,
                budget: int = DEFAULT_STATE_BUDGET) -> SpectrumWindow:
    """Complete window X^m(q) in [0, B]: every value of a digit string over
    {0..m} up to B, exactly once.

    Nonnegative digits make top-truncated prefixes of any admissible string
    admissible themselves, so level sets {q*x + s} pruned above B are
    exhaustive; and a value with top digit at degree n is at least q^n, so
    the recursion stops after ~log_q B levels.
    """
    budget = _check_inputs(q, budget)
    m = _integer(m, "m")
    if m < 1:
        raise PreconditionError("m >= 1 required")
    B = _check_bound(B)
    kernel = make_kernel(q, m, _x_depth(q, B))
    model = kernel.float_model()
    b_lo, b_hi = _float_enclosure(B)
    seen = {kernel.zero: None}
    # seen holds the window's values by position, level after level
    level = [kernel.zero], array("d", [0.0]), 0.0     # the empty string
    floats, radius = array("d", [0.0]), 0.0
    links = []
    complete = True
    while level[0] and complete:
        level, link, complete, _ = _expand_level(
            kernel, model, level, range(m + 1),
            lambda r: (-math.inf, _down(b_lo - r), -math.inf, _up(b_hi + r)),
            lambda c: kernel.cmp_fraction(c, B) <= 0, seen, budget)
        links.append(link)
        floats += level[1]
        if level[0]:    # each level's radius exceeds the one before
            radius = level[2]
    values = list(seen)
    del seen, level     # the sort's peak holds only the columns
    return SpectrumWindow(q, m, "X", None, B, complete, kernel, values,
                          floats, radius, links,
                          _sort_order(kernel, values, floats, radius),
                          truncated=not complete)


def _signed_window(q: AlgebraicNumber, m: int, degree: int, B: Fraction,
                   alphabet, budget: int):
    """(columns, complete) for the values of the digit strings over
    ``alphabet`` (|s| <= m) with degree+1 digits that lie in [-B, B].

    With t digits to come, a state y ends as q^t*y + tail with
    |tail| <= m*(q^t - 1)/(q - 1), so a level keeps only the y with
    |y| <= cap_t = (B + m*(q^t - 1)/(q - 1))/q^t: cap_0 = B and
    cap_t = (cap_(t-1) + m)/q, rounded up with a lower bound of q.  The
    budget caps each level's states; on overflow the partial level is
    clipped and returned as incomplete.
    """
    kernel = make_kernel(q, m, degree)
    model = kernel.float_model()
    q_lo = _down(float(q.interval()[0]))    # refined by make_kernel
    caps = list(accumulate(range(degree), lambda c, _: _up(_up(c + m) / q_lo),
                           initial=float(B) * 1.0000001 + 1e-9))
    level = [kernel.zero], array("d", [0.0]), 0.0     # the empty string
    links = []
    complete = True

    def band(r):
        lo, hi = _down(cap - r), _up(cap + r)
        return -lo, lo, -hi, hi

    for cap in reversed(caps):      # cap_t, t = degree, ..., 0
        level, link, complete, _ = _expand_level(
            kernel, model, level, alphabet, band,
            lambda c: abs(kernel.float_value(c)) <= cap, {}, budget)
        links.append(link)
        if not complete:
            break
    # clip to [-B, B]: floats up to keep are proven inside, those above
    # drop proven outside, and the exact tests decide the band between
    values, floats, r = level
    b_lo, b_hi = _float_enclosure(B)
    keep, drop = _down(b_lo - r), _up(b_hi + r)
    inside = array("i")
    for i, (v, f) in enumerate(zip(values, floats)):
        a = abs(f)
        if a <= keep or (a <= drop and kernel.cmp_fraction(v, B) <= 0
                         and kernel.cmp_fraction(-v, B) <= 0):
            inside.append(i)
    values = [values[i] for i in inside]
    floats = array("d", map(floats.__getitem__, inside))
    links[-1] = tuple(array(column.typecode, map(column.__getitem__, inside))
                      for column in links[-1])
    return (kernel, values, floats, r, links,
            _sort_order(kernel, values, floats, r)), complete


def enumerate_Y(q: AlgebraicNumber, m: int, degree: int, B, *,
                budget: int = DEFAULT_STATE_BUDGET) -> SpectrumWindow:
    """Degree-truncated window of the spectrum Y^m(q): all values
    sum_{i<=degree} s_i q^i with |s_i| <= m lying in [-B, B].

    The window is certified complete for Y^m(q) cap [-B, B] only when the
    growth bound applies: q > m+1 and q^(degree+1) (1 - m/(q-1)) >= B.
    """
    budget = _check_inputs(q, budget)
    m, degree = _integer(m, "m"), _integer(degree, "degree")
    if m < 1 or degree < 0:
        raise PreconditionError("need m >= 1 and degree >= 0")
    B = _check_bound(B)
    columns, complete = _signed_window(q, m, degree, B, range(-m, m + 1),
                                       budget)
    certified = complete and _devries_complete(q, m, degree, B)
    return SpectrumWindow(q, m, "Y", degree, B, certified, *columns,
                          truncated=not complete)


def _devries_complete(q: AlgebraicNumber, m: int, degree: int, B: Fraction
                      ) -> bool:
    """True when every spectrum value with a digit beyond the degree cap
    provably exceeds B."""
    bound = _devries_margin(q, m)
    return bound is not None and bound[0] ** (degree + 1) * bound[1] >= B


def enumerate_A(q: AlgebraicNumber, degree: int, B, *,
                budget: int = DEFAULT_STATE_BUDGET) -> SpectrumWindow:
    """Window of A(q) = {sum a_i q^i, a_i in {-1, 1}} for strings of degree
    exactly ``degree``, clipped to [-B, B], with its covering radius."""
    budget = _check_inputs(q, budget)
    if q.compare_to_fraction(2) > 0:
        raise PreconditionError("A(q) windows require 1 < q <= 2")
    degree = _integer(degree, "degree")
    if degree < 0:
        raise PreconditionError("degree >= 0 required")
    B = _check_bound(B)
    (kernel, keys, floats, r, links, order), complete = _signed_window(
        q, 1, degree, B, (-1, 1), budget)
    radius = _covering_radius([floats[i] for i in order], float(B))
    return SpectrumWindow(q, 1, "A", degree, B, complete, kernel, keys, floats,
                          r, links, order, radius, not complete)


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


class GapReport(namedtuple(
        "GapReport", "window_kind bound point_count min_gap max_gap_tail "
        "tail_fraction histogram min_gap_vec")):
    """``min_gap_vec`` is the minimal gap as a vector of the window's
    ``ZqContext``, at its scale."""
    __slots__ = ()

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


def check_tail_fraction(tail_fraction: float) -> float:
    """The tail fraction in [0, 1]; a float or an int as given, any other
    rational as its float, checked exactly before it is rounded."""
    t = (tail_fraction if isinstance(tail_fraction, (int, float))
         else _rational(tail_fraction))
    if not 0 <= t <= 1:
        raise PreconditionError(
            f"tail fraction must lie in [0, 1], not {_show(t)}")
    return float(t) if isinstance(t, Fraction) else t


def gap_report(window: SpectrumWindow,
               tail_fraction: float = 0.5) -> GapReport:
    """Consecutive-gap statistics of a window.

    Gaps are grouped by packed difference, one per exact value, so the
    histogram and minimum are exact, and each group's float is read off its
    value on the refined base, not a difference of display floats that
    cancels.  ``min_gap_vec`` is the minimal gap as a vector of the
    window's ``ZqContext``; the minimum is certified by the exact sign of
    the difference of two gap vectors.
    """
    tail_fraction = check_tail_fraction(tail_fraction)
    order = window.order
    if len(order) < 2:
        raise PreconditionError("need at least 2 points for gaps")
    keys = list(map(window.keys.__getitem__, order))
    groups = Counter(map(int.__sub__, keys[1:], keys))  # in first-seen order
    # the packed gaps whose lower point lies at or above the tail's start
    tail_from = tail_fraction * float(window.bound)
    tail = set(compress(map(int.__sub__, keys[1:], keys), map(
        tail_from.__le__, map(window.floats.__getitem__, order))))
    ctx = window.kernel.ctx
    vecs = {k: window.kernel.unpack(k) for k in groups}
    gap_floats = {k: ctx.float_value(v) for k, v in vecs.items()}
    # certify the minimal group exactly among float near-ties; a difference
    # of two gaps has entries up to 2^W, past what a packed key decodes, so
    # it is signed on the unpacked vectors
    min_key = next(iter(groups))
    for k in groups:
        if ctx.sign(tuple(map(int.__sub__, vecs[k], vecs[min_key]))) < 0:
            min_key = k
    hist = sorted((gap_floats[k], n) for k, n in groups.items())
    max_tail = max(map(gap_floats.__getitem__, tail), default=hist[-1][0])
    return GapReport(window.kind, float(window.bound), len(order),
                     gap_floats[min_key], max_tail, tail_fraction,
                     tuple(hist), vecs[min_key])


# ---------------------------------------------------------------------------
# minimal positive element engine


class BfsDepthRecord(namedtuple(
        "BfsDepthRecord", "depth min_value min_vec witness states new_states")):
    __slots__ = ()

    def to_dict(self) -> dict:
        finite = math.isfinite(self.min_value)
        return {**self._asdict(),
                "min_value": self.min_value if finite else None,
                "min_vec": list(self.min_vec) if self.min_vec else None,
                "witness": list(self.witness)}


class BfsResult(namedtuple(
        "BfsResult", "base m trace closed budget_exhausted closed_states "
        "min_positive min_positive_vec min_witness")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "base": self.base.describe(),
            "trace": [r.to_dict() for r in self.trace],
            "closed_states": ([[v, list(vec) if vec else None]
                               for v, vec in self.closed_states]
                              if self.closed_states is not None else None),
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
    infimum of positive spectrum values in (0, c].  Only an exact kernel
    reports closure: the float search's dedup within its tolerance can
    empty a level without proving anything.

    Every depth, the first included, is one ``_expand_level`` call with
    ``fold`` (floats up to c_lo - r kept, above c_hi + r dropped, v <= c
    tested exactly between); depth 1 expands the empty string over 0..m.
    ``_least`` then takes the best from the new level, a partial one cut by
    the budget included, re-keyed first by the call's re-pack map.
    """
    state_budget = _check_inputs(q, state_budget)
    m, max_depth = _integer(m, "m"), _integer(max_depth, "max_depth")
    if m < 1:
        raise PreconditionError("m >= 1 required")
    if max_depth < 1:
        raise PreconditionError("max_depth >= 1 required")
    kernel = make_kernel(q, m, tol=tol)
    model = kernel.float_model()
    exact = kernel.exact

    def vec(v):
        # the output vector of a stored value; None in numeric mode
        return kernel.unpack(v) if exact else None

    def in_upper(v) -> bool:
        # v <= c = m/(q-1); exact mode scales through min_poly
        if exact:
            return kernel.ctx.cmp_tail(kernel.unpack(v), m) <= 0
        c = m / (kernel.qf - 1.0)
        return v <= c + kernel.tol

    # float bounds of c = m/(q-1) over the base interval: floats up to
    # c_lo - r are proven <= c, those above c_hi + r are > c
    lo, hi = q.interval()
    c_lo = _float_enclosure(m / (hi - 1))[0]
    c_hi = _float_enclosure(m / (lo - 1))[1] if lo > 1 else math.inf

    def band(r):
        return -math.inf, _down(c_lo - r), -math.inf, _up(c_hi + r)

    # depth 1 grows from the empty string like every later depth; its one
    # parent is expanded whole, so the budget is checked from depth 2
    seen = {} if exact else _FloatSeen(kernel.tol)
    level, link, _, _ = _expand_level(
        kernel, model, ([kernel.zero], array("d", [0.0]), 0.0),
        range(m + 1), band, in_upper, seen, state_budget, fold=True)
    links = [link]
    best = _least(kernel, None, level, 0)
    trace = [_depth_record(kernel, vec, 1, best, seen, level[0], links)]
    depth, closed, budget_exhausted = 1, False, False
    while depth < max_depth and not closed:
        level, link, within, remap = _expand_level(
            kernel, model, level, range(-m, m + 1), band, in_upper, seen,
            state_budget, fold=True)
        if remap and best:
            best = (remap(best[0]), *best[1:])
        links.append(link)
        best = _least(kernel, best, level, depth)
        budget_exhausted = not within
        if budget_exhausted:
            break
        depth += 1
        trace.append(_depth_record(kernel, vec, depth, best, seen, level[0],
                                   links))
        closed = exact and not level[0]

    return BfsResult(
        base=q, m=m, trace=tuple(trace), closed=closed,
        budget_exhausted=budget_exhausted,
        closed_states=tuple(sorted(
            ((kernel.float_value(v), vec(v)) for v in seen),
            key=lambda state: state[0])) if closed else None,
        min_positive=kernel.float_value(best[0]) if best else None,
        min_positive_vec=vec(best[0]) if best else None,
        min_witness=_digits_at(links, *best[1]) if best else None,
    )


def _beside(f: float, fr: float, r: float) -> tuple[float, float]:
    """(lt, gt): a float of radius r below lt carries a value proven below
    any value within fr of f, one above gt a value proven above."""
    return _down(_down(f - fr) - r), _up(_up(f + fr) + r)


def _least(kernel, best, level, k: int):
    """The smaller of ``best`` and the least value of ``level`` (stored at
    ``links[k]``) as (value, (k, position), float, radius).  Only floats
    within 2r of the level's smallest can carry that value; they are tested
    in order against the running best, by the float band, then the exact
    sign.  Values are distinct, so the minimum and its position are unique."""
    values, floats, r = level
    lt, gt = _beside(*best[2:], r) if best else (0.0, 0.0)
    hi = _beside(min(floats, default=0.0), r, r)[1]
    for j in compress(range(len(floats)), map(hi.__ge__, floats)):
        f = floats[j]
        if (best is None or f < lt
                or (f <= gt and kernel.sign(values[j] - best[0]) < 0)):
            best = (values[j], (k, j), f, r)
            lt, gt = _beside(f, r, r)
    return best


def _depth_record(kernel, vec, depth, best, seen, new_level, links):
    if best is None:
        return BfsDepthRecord(depth, math.inf, None, (), len(seen),
                              len(new_level))
    return BfsDepthRecord(depth, kernel.float_value(best[0]), vec(best[0]),
                          _digits_at(links, *best[1]), len(seen),
                          len(new_level))

