"""Exact univariate integer polynomials.

Coefficients are stored in ascending order (constant term first), matching
the digit-indexing convention used throughout the package and the CLI text
format "c0,c1,...,cd".  All polynomial algebra is over the integers: gcds,
squarefree parts and Sturm chains come from primitive pseudo-remainder
sequences, and known factors are divided out exactly.  Signs, Sturm counts,
isolation and bisection run on int numerators over one denominator;
Fractions appear only at their API boundary.  No floating point is used.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError
from .records import FrozenRecord


def _integer(c) -> int:
    """c as an int; int(c) alone would truncate a Fraction or a float."""
    try:
        if int(c) == c:
            return int(c)
    except (TypeError, ValueError, OverflowError):
        pass
    raise PreconditionError(f"coefficient {c!r} is not an integer")


def _strip(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPolynomial(FrozenRecord):
    """Integer polynomial c0 + c1*x + ... + cd*x^d with cd != 0 (or the
    zero polynomial, stored as an empty coefficient tuple ``coeffs``).
    Equal and hashed by ``coeffs``; its ``__dict__`` also holds the
    squarefree mark of ``squarefree_part``."""

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _strip(      # hot: no field loop
            [c if type(c) is int else _integer(c) for c in coeffs]))

    # -- construction / formatting -------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        """Parse the CLI format: comma-separated integers, ascending degree,
        e.g. "-1,-1,0,1" for x^3 - x - 1."""
        try:
            coeffs = [int(part.strip()) for part in text.split(",")]
        except ValueError as exc:
            raise PreconditionError(f"cannot parse polynomial {text!r}: {exc}") from None
        if not coeffs:
            raise PreconditionError("empty polynomial text")
        return cls(coeffs)

    def to_text(self) -> str:
        return ",".join(str(c) for c in (self.coeffs or (0,)))

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.coeffs[-1] == 1

    @property
    def height(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def __str__(self) -> str:
        return self.to_text()

    # -- evaluation ------------------------------------------------------

    def eval_fraction(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Exact sign of p(x) at a rational point, via integer arithmetic."""
        return _sign(self.coeffs, *_ratio(x))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial(k * c for c in self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def reciprocal(self) -> "IntPolynomial":
        """x^d * p(1/x): coefficients reversed.  Roots are the inverses of
        the nonzero roots of p."""
        return IntPolynomial(reversed(self.coeffs))

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; normalize the leading coefficient > 0."""
        if self.is_zero:
            return self
        g = self.content()
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(sign * c // g for c in self.coeffs)


# -- integer evaluation and division helpers (internal) ------------------


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of a rational x."""
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return x.numerator, x.denominator


def _sign(cs, num: int, den: int) -> int:
    """Sign of the polynomial with coefficients cs at num/den, den > 0: the
    sign of sum c_i num^i den^(d-i), by homogeneous Horner in integers."""
    acc, dpow = cs[-1] if cs else 0, 1
    for c in cs[-2::-1]:
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def _prem(a, b) -> list[int]:
    """|lc(b)|^(deg a - deg b + 1) * (a mod b) for integer coefficient
    sequences, b nonzero: a positive multiple of the remainder over Q,
    stripped of leading zeros (a itself when deg a < deg b)."""
    a = list(a)
    db = len(b) - 1
    lead = abs(b[-1])
    for top in range(len(a) - 1, db - 1, -1):
        f = a.pop() if b[-1] > 0 else -a.pop()
        if lead != 1:
            a = [lead * c for c in a]
        if f:
            shift = top - db
            for i in range(db):
                a[shift + i] -= f * b[i]
    while a and a[-1] == 0:
        a.pop()
    return a


def _exact_quo(a, b) -> list[int]:
    """a / b over Z for a divisor b of a whose quotient is integral (by
    Gauss's lemma, whenever b is primitive); b need not be monic."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * max(len(a) - db, 0)
    for shift in range(len(quot) - 1, -1, -1):
        f = quot[shift] = a[shift + db] // lead
        for i in range(db):
            a[shift + i] -= f * b[i]
    return quot


def _prim(cs: list[int]) -> list[int]:
    """cs divided by its content, its sign kept."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive integer gcd (positive leading coefficient) over Q, by a
    primitive pseudo-remainder sequence."""
    a, b = _prim(list(a.coeffs)), _prim(list(b.coeffs))
    while b:
        a, b = b, _prim(_prem(a, b))
    return IntPolynomial(a).primitive()


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient, marked
    so that the squarefree part of the result is the result itself."""
    if p.__dict__.get("_squarefree"):
        return p
    if p.degree < 1:
        return p.primitive()
    g = poly_gcd(p, p.derivative())
    sf = IntPolynomial(_exact_quo(p.coeffs, g.coeffs)).primitive()
    sf.__dict__["_squarefree"] = True
    return sf


def is_squarefree(p: IntPolynomial) -> bool:
    return not p.is_zero and squarefree_part(p).degree == p.degree


def deflate_root(p: IntPolynomial, root: Fraction) -> IntPolynomial:
    """Exact division of p by (x - root) for a known rational root n/d:
    d * (p / (d*x - n)), the quotient over Q, which has integer
    coefficients."""
    root = Fraction(root)
    if p.sign_at(root):
        raise PreconditionError(f"{root} is not a root")
    n, d = root.numerator, root.denominator
    return IntPolynomial(_exact_quo(p.coeffs, (-n, d))).scale(d)


def rational_roots(p: IntPolynomial) -> list[Fraction]:
    """All rational roots, ascending: the midpoints of the isolating cells
    of ``isolate_roots_exact`` that are roots."""
    return [m for lo, hi in isolate_roots_exact(p)
            if p.sign_at(m := (lo + hi) / 2) == 0]


# -- root bounds, Sturm chains, isolation ---------------------------------


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """All complex roots have modulus < this bound."""
    if p.degree < 1:
        raise PreconditionError("need degree >= 1")
    lead = abs(p.leading)
    return Fraction(lead + max(map(abs, p.coeffs[:-1])), lead)


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of the squarefree part of p."""
    return _sturm_chain_of(squarefree_part(p))


def _sturm_chain_of(f: IntPolynomial, g: IntPolynomial | None = None
                    ) -> list[IntPolynomial]:
    """Generalized Sturm sequence: f, g, then the primitive part of -prem of
    the last two, with its sign kept, until a remainder vanishes.  Its sign
    variations V(lo) - V(hi) are the Cauchy index of g/f on (lo, hi).
    Without g it is the Sturm chain of a squarefree f: f made primitive,
    then f'."""
    if g is None:
        f = f.primitive()
        g = f.derivative()
    chain = [f, g]
    a, b = f.coeffs, g.coeffs
    while len(b) > 1 and (r := _prem(a, b)):
        a, b = b, _prim([-c for c in r])
        chain.append(IntPolynomial(b))
    return chain


def _sign_variations(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_roots_in(p: IntPolynomial, lo: Fraction, hi: Fraction,
                   chain: list[IntPolynomial] | None = None) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Endpoints must not be roots of the squarefree part.
    """
    (ln, ld), (hn, hd) = _ratio(lo), _ratio(hi)
    if ln * hd >= hn * ld:
        return 0
    chain = chain or sturm_chain(p)
    va = [_sign(f.coeffs, ln, ld) for f in chain]
    vb = [_sign(f.coeffs, hn, hd) for f in chain]
    if va[0] == 0 or vb[0] == 0:
        raise PreconditionError("interval endpoint is a root")
    return _sign_variations(va) - _sign_variations(vb)


def _taylor_shift(cs, a: int) -> list[int]:
    """Coefficients of f(x + a) from those of f."""
    cs = list(cs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return cs


def _variations_at_infinity(chain, sign: int) -> int:
    """Sign variations of the chain at +infinity (sign 1) or -infinity."""
    return _sign_variations([f.leading * sign ** f.degree
                             for f in chain if not f.is_zero])


def unit_circle_counts(p: IntPolynomial) -> tuple[int, int, int]:
    """Exact numbers (n_in, n_on, n_out) of roots of squarefree p strictly
    inside, on and strictly outside the unit circle.

    The Cayley map z = (w+1)/(w-1) sends |z| < 1 to Re w < 0 and the circle
    to the imaginary axis, z = 1 to infinity.  So the roots inside are the
    roots of g(w) = (w-1)^d p((w+1)/(w-1)) = sum c_k (w+1)^k (w-1)^(d-k) in
    the left half-plane, built here as two Taylor shifts: p(1 + 2/u) u^d,
    then u = w - 1.  Write g(iy) = A(y) + i*B(y).  By Routh-Hurwitz
    (Gantmacher, *The Theory of Matrices*, vol. 2, ch. XV), the Cauchy index
    I taken on the Sturm sequence that starts with the one of A, B of higher
    degree, negated when that one is B, is the number of roots of g right
    of the axis minus those left of it.  The sequence ends in h = gcd(A, B),
    which drops out of I: its real roots are the n_axis roots of g on the
    axis, and its other roots are pairs w, -w (roots z, 1/z of p), one on
    each side.  So n_in = (deg g - n_axis - I) / 2, and n_on is n_axis plus
    the root z = 1, if any.
    """
    d = p.degree
    if d < 1:
        return (0, 0, 0)
    r = _taylor_shift(p.coeffs, 1)                    # p(1 + t)
    g = _strip(_taylor_shift([r[d - j] << (d - j) for j in range(d + 1)],
                             -1))
    a = IntPolynomial(c if j % 4 == 0 else -c if j % 4 == 2 else 0
                      for j, c in enumerate(g))
    b = IntPolynomial(c if j % 4 == 1 else -c if j % 4 == 3 else 0
                      for j, c in enumerate(g))
    sign = 1 if a.degree > b.degree else -1
    chain = _sturm_chain_of(a, b) if sign > 0 else _sturm_chain_of(b, a)
    index = sign * (_variations_at_infinity(chain, -1)
                    - _variations_at_infinity(chain, 1))
    h = chain[-1] if not chain[-1].is_zero else chain[-2]        # gcd(A, B)
    h_chain = _sturm_chain_of(h)
    n_axis = (_variations_at_infinity(h_chain, -1)
              - _variations_at_infinity(h_chain, 1))
    n_in = (len(g) - 1 - n_axis - index) // 2
    n_on = n_axis + (len(g) <= d)     # p(1) = 0: z = 1 went to infinity
    return n_in, n_on, d - n_in - n_on


def isolate_roots_exact(p: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, ascending, each containing exactly
    one real root of p; their union covers all real roots.

    One bisection of the squarefree part sf, on its Sturm chain from
    +-``cauchy_root_bound(sf)``, also decides which roots are rational.  A
    split point that is a root is bracketed there.  Every other root is
    alone in its cell, and a rational root r of the primitive sf has a
    denominator dividing L = lc(sf) (rational root theorem), so L*r is an
    integer: a copy of the cell refined to width <= 1/L holds at most one
    multiple of 1/L, and r is rational iff that multiple is a root.  A
    rational root's interval is centred on it; an irrational root keeps its
    bisection cell.  So the midpoint of an interval is a root exactly when
    the interval's root is rational.
    """
    if p.is_zero:
        raise PreconditionError("zero polynomial")
    if p.degree < 1:
        return []
    sf = squarefree_part(p)
    chain = _sturm_chain_of(sf)
    cs, lead = sf.coeffs, sf.leading
    bound = cauchy_root_bound(sf)
    cells: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound.numerator, bound.numerator, bound.denominator)]
    while stack:
        a, b, den = stack.pop()                   # the cell (a/den, b/den)
        lo, hi = Fraction(a, den), Fraction(b, den)
        n = count_roots_in(sf, lo, hi, chain)
        m, e = a + b, b - a                       # the midpoint m/(2 den)
        if n == 1:
            ra, rb = refine_root_interval(sf, lo, hi, Fraction(1, lead))
            k = ra.numerator * lead // ra.denominator + 1       # r = k/lead
            if (k * rb.denominator < rb.numerator * lead
                    and _sign(cs, k, lead) == 0):
                e = min(k * den - a * lead, b * lead - k * den)
                lo = Fraction(k * den - e, den * lead)
                hi = Fraction(k * den + e, den * lead)
            cells.append((lo, hi))
        elif n and _sign(cs, m, 2 * den) == 0:
            # bracket the root by m/den +- e/den, halving until it isolates
            a, b, m, den = 4 * a, 4 * b, 2 * m, 4 * den
            while (_sign(cs, m - e, den) == 0 or _sign(cs, m + e, den) == 0
                   or count_roots_in(sf, Fraction(m - e, den),
                                     Fraction(m + e, den), chain) != 1):
                a, b, m, den = 2 * a, 2 * b, 2 * m, 2 * den
            cells.append((Fraction(m - e, den), Fraction(m + e, den)))
            stack += [(a, m - e, den), (m + e, b, den)]
        elif n:
            stack += [(2 * a, m, 2 * den), (m, 2 * b, 2 * den)]
    return sorted(cells)


def refine_root_interval(p: IntPolynomial, lo: Fraction, hi: Fraction,
                         width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect an isolating interval of a squarefree p down to a positive
    width.  Requires p(lo), p(hi) != 0 and exactly one root inside; then the
    endpoint signs differ, and plain bisection applies, to (a, a + gap)/den."""
    wn, wd = _ratio(width)
    if wn <= 0:
        raise PreconditionError(f"width {width} is not positive")
    (a, da), (b, db) = _ratio(lo), _ratio(hi)
    den = math.lcm(da, db)
    a, gap = a * (den // da), b * (den // db) - a * (den // da)
    cs = p.coeffs
    slo, shi = _sign(cs, a, den), _sign(cs, a + gap, den)
    if slo == 0 or shi == 0:
        raise PreconditionError("endpoint is a root")
    if slo == shi:
        raise PreconditionError("interval does not bracket a sign change")
    gap_wd, wn_den = gap * wd, wn * den    # hi - lo > width: gap_wd > wn_den
    while gap_wd > wn_den:
        a, den, wn_den = 2 * a, 2 * den, 2 * wn_den
        sm = _sign(cs, a + gap, den)
        if sm == 0:
            # rational root hit exactly; return a tight bracket around it
            mid = Fraction(a + gap, den)
            w = min(Fraction(wn, wd), Fraction(2 * gap, den)) / 4
            return (mid - w, mid + w)
        if sm == slo:
            a += gap
    return (Fraction(a, den), Fraction(a + gap, den))
