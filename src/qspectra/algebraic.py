"""Certified arithmetic for real algebraic bases q > 1.

Three layers live here:

* ``AlgebraicNumber`` -- a real root of an integer polynomial pinned by a
  rational isolating interval [a/D, b/D], with monotone on-demand
  refinement and an exact sign oracle for polynomial expressions in the
  root, evaluated in integers over D^n.
* ``classify_base`` -- the Pisot label, from the exact integer counts of
  the roots of the minimal polynomial inside, on and outside the unit
  circle (``intpoly.unit_circle_counts``: Routh-Hurwitz after the Cayley
  map, the circle's roots read off the gcd that ends its Sturm sequence).
  ``conjugates`` -- all complex roots with certified error disks
  (simultaneous Weierstrass iteration, in double precision first and in
  fixed-point Gaussian integers above it; a-posteriori disks checked
  exactly in the same scaled Gaussian integers) -- is the label's
  evidence, computed only when a ``NumberClass``'s ``conjugate_set`` is
  read.
* ``ZqContext`` -- the one exact value kernel, Q[q] for any base, run in
  integers: on a monic base, tuples in the basis 1, q, ..., q^(d-1)
  (canonical integer vectors in Z[q], which the search packs into one int
  each with ``_PackedZq``); on any other base, an int vector over the
  algebraic integer theta = a*q (a the leading coefficient) with an int
  denominator.  Ring operations, exact signs and ordering (``sign``,
  ``compare``, ``cmp_fraction``) from the base's sign oracle, display
  floats read off exact enclosures, and the floating-point model
  (``float_model``) under which the spectrum engines carry proven float
  enclosures of their search states.

The Gaussian-rational helpers (``_gr_*``: (re, im) Fraction pairs) serve
the witness construction.

Minimal polynomials are free of rational roots: ``AlgebraicNumber`` divides
the rational roots of its polynomial out (``real_roots`` reads them off its
one isolation pass, the checked constructor isolates once), so a base whose
interval holds a rational root is that rational.  Irreducibility beyond
that is an input contract: an irrational factor other than the minimal
polynomial is not found, and surfaces as ``ReducibleInputError`` when a sign
refinement fails to terminate.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .config import MAX_CERTIFY_BITS
from .errors import PreconditionError, ReducibleInputError
from .intpoly import (
    IntPolynomial,
    cauchy_root_bound,
    count_roots_in,
    deflate_root,
    is_squarefree,
    isolate_roots_exact,
    rational_roots,
    refine_root_interval,
    squarefree_part,
    unit_circle_counts,
    _prem,
    _sturm_chain_of,
)

# ---------------------------------------------------------------------------
# small exact helpers


# Gaussian rationals: (re, im) Fraction pairs.
GR = tuple[Fraction, Fraction]


def _gr(re, im=0) -> GR:
    return (Fraction(re), Fraction(im))


def _gr_add(a: GR, b: GR) -> GR:
    return (a[0] + b[0], a[1] + b[1])


def _gr_sub(a: GR, b: GR) -> GR:
    return (a[0] - b[0], a[1] - b[1])


def _gr_mul(a: GR, b: GR) -> GR:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gr_scale(a: GR, c) -> GR:
    c = Fraction(c)
    return (c * a[0], c * a[1])


def _gr_abs2(a: GR) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def _gr_inv(a: GR) -> GR:
    n = _gr_abs2(a)
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return (a[0] / n, -a[1] / n)


def _gr_pow(a: GR, n: int) -> GR:
    out = _gr(1)
    while n:
        if n & 1:
            out = _gr_mul(out, a)
        a = _gr_mul(a, a)
        n >>= 1
    return out


def _gr_float(a: GR) -> complex:
    return complex(float(a[0]), float(a[1]))


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


def _whole(c):
    """The rational c as an int when it is whole, else as a Fraction."""
    c = c if isinstance(c, int) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integer_numerators(vec) -> tuple[list[int], int]:
    """(ints, L): L the lcm of the denominators of the int/Fraction entries
    of vec, and ints = L * vec."""
    scale = math.lcm(*(c.denominator for c in vec))
    return [c.numerator * (scale // c.denominator) for c in vec], scale


# ---------------------------------------------------------------------------
# AlgebraicNumber

#: Interval width at which a base's float values are read.
FLOAT_WIDTH = Fraction(1, 2**72)


class AlgebraicNumber:
    """A real root of an integer polynomial, known exactly.

    The checked constructor (``_validated`` false) takes the squarefree part
    of the polynomial, as ``real_roots`` does, requires an interval (lo, hi)
    isolating one of its roots, then divides its rational roots out of
    ``min_poly``: if the root in the interval is rational, the number is
    that rational (``exact_rational``).
    ``real_roots`` passes polynomials already free of rational roots.

    The isolating interval is refinable; refinement is monotone (the stored
    interval only ever shrinks) and idempotent, so concurrent refiners can
    race harmlessly.  All exact decisions route through
    :meth:`sign_of_int_poly`.
    """

    def __init__(self, min_poly: IntPolynomial, lo: Fraction, hi: Fraction,
                 _validated: bool = False):
        if min_poly.degree < 1:
            raise PreconditionError("minimal polynomial must have degree >= 1")
        min_poly = min_poly.primitive()
        if min_poly.degree > 1 and not _validated:
            min_poly = squarefree_part(min_poly)    # as real_roots does
            lo, hi = Fraction(lo), Fraction(hi)
            if min_poly.sign_at(lo) == 0 or min_poly.sign_at(hi) == 0:
                raise PreconditionError(
                    "interval endpoint is a root; use from_rational for "
                    "rational values")
            if count_roots_in(min_poly, lo, hi) != 1:
                raise PreconditionError(
                    f"interval ({lo}, {hi}) does not isolate exactly one root")
            # divide the rational roots out; the one in (lo, hi) is q
            for r in rational_roots(min_poly):
                if lo < r < hi:
                    min_poly = IntPolynomial([-r.numerator, r.denominator])
                    break
                min_poly = deflate_root(min_poly, r).primitive()
        self.min_poly = min_poly
        self.exact_rational: Fraction | None = None
        if min_poly.degree == 1:
            c0, c1 = min_poly.coeffs
            self.exact_rational = Fraction(-c0, c1)
            lo = hi = self.exact_rational
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)
        self._lock = threading.Lock()
        # (interval, D, numerators of the bounds of q^k over D^k)
        self._pow_state: tuple = (None, 1, [])

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "AlgebraicNumber":
        v = Fraction(value)
        return cls(IntPolynomial([-v.numerator, v.denominator]), v, v)

    @classmethod
    def real_roots(cls, p: IntPolynomial,
                   radius: Fraction | None = None) -> list["AlgebraicNumber"]:
        """All real roots of p, ascending, refined to the target radius."""
        if p.is_zero:
            raise PreconditionError("zero polynomial rejected")
        sf = squarefree_part(p)
        cells = isolate_roots_exact(sf)
        # a rational root's cell is centred on it, and no other cell's
        # midpoint is a root of sf
        mids = [(lo + hi) / 2 for lo, hi in cells]
        rats = [m for m in mids if sf.sign_at(m) == 0]
        # the irrational roots are roots of sf with its linear factors
        # divided out; an isolating interval of sf isolates them in it too
        irr = sf
        for r in rats:
            irr = deflate_root(irr, r)
        roots = [cls.from_rational(m) if m in rats
                 else cls(irr, lo, hi, _validated=True)
                 for (lo, hi), m in zip(cells, mids)]
        if radius is not None:
            for r in roots:
                r.refine_to_radius(radius)
        return roots

    @classmethod
    def base_from_poly(cls, p: IntPolynomial, root_index: int | None = None,
                       root_interval: tuple[Fraction, Fraction] | None = None
                       ) -> "AlgebraicNumber":
        """Select a base q > 1: either by interval, or by 0-based index into
        the ascending list of real roots greater than one."""
        if (root_index is None) == (root_interval is None):
            raise PreconditionError("give exactly one of root index / interval")
        if root_interval is not None:
            lo, hi = root_interval
            q = cls(p, lo, hi)
            if not q.greater_than(1):
                raise PreconditionError("selected root is not > 1")
            return q
        candidates = [r for r in cls.real_roots(p) if r.greater_than(1)]
        if not 0 <= root_index < len(candidates):
            raise PreconditionError(
                f"root index {root_index} out of range: {len(candidates)} "
                f"real roots > 1")
        return candidates[root_index]

    # -- refinement --------------------------------------------------------

    def interval(self) -> tuple[Fraction, Fraction]:
        return (self._lo, self._hi)

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def refine_to_width(self, width: Fraction) -> tuple[Fraction, Fraction]:
        lo, hi = self._lo, self._hi
        if hi - lo <= width or self.exact_rational is not None:
            return (lo, hi)
        nlo, nhi = refine_root_interval(self.min_poly, lo, hi, width)
        with self._lock:
            # keep the narrower of racing refinements
            if nhi - nlo < self._hi - self._lo:
                self._lo, self._hi = nlo, nhi
        return (self._lo, self._hi)

    def refine_to_radius(self, radius) -> tuple[Fraction, Fraction]:
        return self.refine_to_width(2 * Fraction(radius))

    def float_value(self) -> float:
        lo, hi = self.refine_to_width(FLOAT_WIDTH)
        try:
            return float((lo + hi) / 2)
        except OverflowError:
            raise PreconditionError("base is beyond the float range") from None

    # -- exact decisions ----------------------------------------------------

    def sign_of_int_poly(self, g: IntPolynomial) -> int:
        """Exact sign of g(q).  Zero is detected through divisibility by the
        minimal polynomial, so the loop terminates for irreducible input."""
        if g.is_zero:
            return 0
        if self.exact_rational is not None:
            return g.sign_at(self.exact_rational)
        if g.degree < self.min_poly.degree:
            return self._sign_of_reduced(g.coeffs)
        # a positive multiple of g mod min_poly: same sign, same refinement
        return self._sign_of_reduced(_prem(g.coeffs, self.min_poly.coeffs))

    def sign_of_fraction_vec(self, vec) -> int:
        """Exact sign of sum vec[i] * q^i for Fraction/int coefficients."""
        return self.sign_of_int_poly(IntPolynomial(_integer_numerators(vec)[0]))

    def _sign_of_reduced(self, coeffs) -> int:
        """Sign of sum coeffs[i] q^i for integer coeffs below the degree of
        q: the integer bounds over D^n of ``_int_interval`` decide it, and
        the base is refined until they share a sign."""
        if not any(coeffs):
            return 0
        budget = MAX_CERTIFY_BITS
        while True:
            lo, hi = self._lo, self._hi
            vlo, vhi, _ = self._int_interval(coeffs)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if hi - lo <= Fraction(1, 2**budget):
                raise ReducibleInputError(
                    "sign refinement stalled; input may be reducible")
            self.refine_to_width((hi - lo) / 4)

    def _int_interval(self, coeffs) -> tuple[int, int, int]:
        """(vlo, vhi, D^n) with vlo/D^n <= sum coeffs[i] q^i <= vhi/D^n for
        integer coeffs, n = len(coeffs) - 1, on the interval [a/D, b/D] of q
        (D the endpoints' common denominator).  Each bound of q^k is the min
        or max of four products, so any sign of interval is enclosed."""
        n = len(coeffs) - 1
        with self._lock:
            key = (self._lo, self._hi)
            if self._pow_state[0] != key:
                (a, b), den = _integer_numerators(key)
                self._pow_state = (key, den, [(1, 1), (a, b)])
            _, den, pows = self._pow_state
            a, b = pows[1]
            while len(pows) <= n:
                plo, phi = pows[-1]
                cands = (plo * a, plo * b, phi * a, phi * b)
                pows.append((min(cands), max(cands)))
        vlo = vhi = 0
        for c, (plo, phi) in zip(coeffs, pows):   # sum c*p_k*D^(n-k)
            vlo *= den
            vhi *= den
            if c >= 0:
                vlo += c * plo
                vhi += c * phi
            else:
                vlo += c * phi
                vhi += c * plo
        return vlo, vhi, den**n

    def value_interval_of_vec(self, vec) -> tuple[Fraction, Fraction]:
        ints, scale = _integer_numerators(vec)
        vlo, vhi, den = self._int_interval(ints)
        return Fraction(vlo, scale * den), Fraction(vhi, scale * den)

    def compare_to_fraction(self, c) -> int:
        c = Fraction(c)
        return self.sign_of_int_poly(
            IntPolynomial([-c.numerator, c.denominator]))

    def greater_than(self, c) -> bool:
        return self.compare_to_fraction(c) > 0

    def zq_context(self) -> "ZqContext":
        if not self.min_poly.is_monic:
            raise PreconditionError(
                "exact Z[q] mode requires a monic minimal polynomial")
        if getattr(self, "_zq_ctx", None) is None:
            self._zq_ctx = ZqContext(self)
        return self._zq_ctx

    def describe(self) -> dict:
        return {"poly": self.min_poly.to_text(),
                "root": self.float_value()}

    def __repr__(self):
        return f"AlgebraicNumber({self.min_poly.to_text()}, ~{self.float_value():.6f})"


# ---------------------------------------------------------------------------
# Z[q] canonical kernel


class ZqContext:
    """Exact arithmetic in Q[q] = Q[x]/(min_poly) for any algebraic base.

    Let a be the leading coefficient of the minimal polynomial f (degree d):
    theta = a*q is an algebraic integer, a root of the monic a^(d-1) f(y/a),
    and ``qd_terms`` holds theta^d = sum c_i theta^i (theta = q if a = 1).
    On a monic base an element is a tuple in the basis 1, q, ..., q^(d-1),
    integer for integer inputs (Z[q]); a rational input such as a greedy
    target 1/3 brings Fraction entries in.  On any other base it is a pair
    (V, D) of an int tuple and an int D > 0 with value sum V_i theta^i / D:
    a digit step is (theta*V + s*a*D, a*D), add and sub put two pairs over
    one D, and no Fraction arises.  ``coefficients`` reads either kind back
    in the basis 1, q, ..., q^(d-1).  A zero vector represents the real
    number zero because the minimal polynomial is irreducible (input
    contract).  Every ``sign``, and so every ``compare`` and
    ``cmp_fraction``, is exact: the base's sign oracle decides the int
    polynomial sum V_i a^i q^i (a tuple's entries times the lcm of their
    denominators), a positive multiple of the value, refining q only when
    its enclosure on the current interval contains zero; on a rational base
    (d = 1) the sign is that of V_0.  ``float_value`` is the midpoint of
    that exact enclosure on the base refined to ``FLOAT_WIDTH``, rounded
    once.

    Carried enclosures.  The search engines keep, beside each exact vector
    v, a float f and one radius R per level with |value(v) - f| <= R, so
    that a sign or a comparison costs O(1) and the exact methods here run
    only when [f - R, f + R] straddles the threshold.  ``float_model``
    returns (qf, dq, qabs) with |q - qf| <= dq over the base interval and
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

    Packed vectors.  The smallest-positive search keeps the vector
    (a_0, ..., a_{d-1}) of a monic base as one int V = sum a_i 2^(W i)
    (signed Kronecker substitution: Schoenhage, 1982; Harvey, *J. Symbolic
    Comput.* 44, 2009), built by ``_PackedZq``.  Packing is additive and,
    while every |a_i| < 2^(W-1), one-to-one, so equal vectors are equal
    ints and a sign flip is -V.  With q^d = sum c_i q^i, the top entry is
    t = (V + 2^(W(d-1)-1)) >> W(d-1) and

        q*v = (V << W) - t*R,    R = 2^(W d) - sum c_i 2^(W i),

    once per parent; a child q*v + s then adds s.  Width bound: if a
    level's entries are at most E, its children's are at most
    E' = E*(1 + max|c_i|) + m.  The search carries E per level and keeps
    E' below 2^(W-2), so a state, its negation and the difference of two
    states (a comparison) all have entries below 2^(W-1) and decode
    exactly.  When E' would reach 2^(W-2), the level, the best state and
    the seen set are re-packed at a doubled W, and E restarts from the
    level's true maximum.
    """

    def __init__(self, q: AlgebraicNumber):
        self.q = q
        *low, a = q.min_poly.coeffs
        self.d, self.lead = len(low), a
        self.qd_terms = tuple((i, -c * a ** (self.d - 1 - i))
                              for i, c in enumerate(low) if c)
        self._apow = tuple(a**i for i in range(self.d))    # q^i = theta^i/a^i

    @property
    def zero(self):
        z = (0,) * self.d
        return z if self.lead == 1 else (z, 1)

    def from_fraction(self, c):
        """The element of the rational c (an int or a Fraction)."""
        if self.lead == 1:
            return (_whole(c),) + (0,) * (self.d - 1)
        return (c.numerator,) + (0,) * (self.d - 1), c.denominator

    def coefficients(self, v) -> tuple:
        """The coefficients of v in the basis 1, q, ..., q^(d-1)."""
        if self.lead == 1:
            return v
        ints, scale = self._q_coeffs(v)
        return tuple(Fraction(x, scale) for x in ints)

    def _q_coeffs(self, v) -> tuple[list[int], int]:
        """(P, D): ints with value(v) = sum P_i q^i / D and D > 0."""
        if self.lead == 1:
            return _integer_numerators(v)
        V, D = v
        return [x * p for x, p in zip(V, self._apow)], D

    @staticmethod
    def _common(a, b):
        """(A, B, D): the int tuples of the pairs a and b over one D."""
        (A, Da), (B, Db) = a, b
        if Da == Db:
            return A, B, Da
        g = math.gcd(Da, Db)
        fa, fb = Db // g, Da // g
        return [x * fa for x in A], [x * fb for x in B], Da * fa

    def mul_q(self, v):
        return self.step(v, 0)

    def add(self, a, b):
        if self.lead == 1:
            return tuple(x + y for x, y in zip(a, b))
        A, B, D = self._common(a, b)
        return tuple(x + y for x, y in zip(A, B)), D

    def sub(self, a, b):
        if self.lead == 1:
            return tuple(x - y for x, y in zip(a, b))
        A, B, D = self._common(a, b)
        return tuple(x - y for x, y in zip(A, B)), D

    def neg(self, a):
        if self.lead == 1:
            return tuple(-x for x in a)
        return tuple(-x for x in a[0]), a[1]

    def scale(self, a, c):
        if self.lead == 1:
            c = _whole(c)
            return tuple(c * x for x in a)
        n = c.numerator
        return tuple(n * x for x in a[0]), a[1] * c.denominator

    def add_fraction(self, a, c):
        if self.lead == 1:
            return (a[0] + _whole(c),) + a[1:]
        (x0, *rest), D = a
        r = c.denominator
        return (x0 * r + c.numerator * D, *(x * r for x in rest)), D * r

    def _times_theta(self, V, c=0) -> tuple:
        """theta*V + c for a tuple V."""
        out = [c, *V[:-1]]
        top = V[-1]
        if top:
            for i, t in self.qd_terms:
                out[i] += top * t
        return tuple(out)

    def step(self, v, s: int):
        """q*v + s for an int digit s: one digit-append step."""
        if self.lead == 1:
            return self._times_theta(v, s)
        D = v[1] * self.lead
        return self._times_theta(v[0], s * D), D

    def mul(self, a, b):
        """Ring product: sum_j b_j theta^j a, over Da * Db for pairs."""
        monic = self.lead == 1
        (A, Da), (B, Db) = ((a, 1), (b, 1)) if monic else (a, b)
        acc = (0,) * self.d
        for coeff in B:
            if coeff:
                coeff = _whole(coeff)
                acc = tuple(x + coeff * y for x, y in zip(acc, A))
            A = self._times_theta(A)
        return acc if monic else (acc, Da * Db)

    def from_digits(self, digits):
        """Element of sum digits[i] * q^i (ascending digits)."""
        acc = self.zero
        for s in reversed(list(digits)):
            acc = self.step(acc, int(s))
        return acc

    def sign(self, v) -> int:
        if self.lead == 1:
            return self.q.sign_of_fraction_vec(v)
        if self.d == 1:                 # a rational base: the sign of V_0
            return (v[0][0] > 0) - (v[0][0] < 0)
        return self.q.sign_of_int_poly(IntPolynomial(self._q_coeffs(v)[0]))

    def compare(self, a, b) -> int:
        return self.sign(self.sub(a, b))

    def cmp_fraction(self, v, c: Fraction) -> int:
        """Sign of value(v) - c for a rational c."""
        if self.lead != 1:
            return self.sign(self.add_fraction(v, -c))
        scaled = [c.denominator * x for x in v]
        scaled[0] -= c.numerator
        return self.sign(tuple(scaled))

    def float_value(self, v) -> float:
        """Display float of v: the midpoint of its exact enclosure on the
        base refined to FLOAT_WIDTH, correctly rounded by one int division
        (a coarser interval's midpoint can be off in the leading digits)."""
        self.q.refine_to_width(FLOAT_WIDTH)
        ints, scale = self._q_coeffs(v)
        vlo, vhi, den = self.q._int_interval(ints)
        return (vlo + vhi) / (2 * scale * den)

    def float_model(self) -> tuple[float, float, float]:
        """(qf, dq, qabs): floats with |q - qf| <= dq over the current base
        interval and qabs >= qf + dq, rounded outward exactly."""
        lo, hi = self.q.interval()
        try:
            qf = float((lo + hi) / 2)
            x = Fraction(qf)
            dq = _float_enclosure(max(hi - x, x - lo))[1]
            return qf, dq, _float_enclosure(x + Fraction(dq))[1]
        except OverflowError:
            raise PreconditionError("base is beyond the float range") from None

    def ensure_float_resolution(self):
        """Refine the base interval to 2^-80, so that the float model's dq
        is tiny against the carried floats."""
        self.q.refine_to_width(Fraction(1, 2**80))


class _PackedZq:
    """The Z[q] vectors of a monic base packed into one int each (see
    "Packed vectors" in ``ZqContext``); the exact methods decode to tuples
    and ask the wrapped context."""

    zero = 0

    def __init__(self, ctx: ZqContext, m: int):
        self.ctx, self.d, self.m = ctx, ctx.d, m
        self.growth = 1 + max((abs(c) for _, c in ctx.qd_terms), default=0)
        self.bound = m          # entries of the current level are <= bound
        W = 32
        while m >= 1 << (W - 2):
            W *= 2
        self._set_width(W)

    def _set_width(self, W: int):
        """Bind ``pack``, ``unpack`` and ``mul_q`` to width W."""
        d = self.d
        shift = W * (d - 1)
        half, sign_bit, mask = (1 << shift) >> 1, 1 << (W - 1), (1 << W) - 1
        # q^d = sum c_i q^i, so q*V = (V << W) - t*R for the top entry t
        R = (1 << W * d) - sum(c << W * i for i, c in self.ctx.qd_terms)

        def mul_q(V):
            return (V << W) - ((V + half) >> shift) * R

        def pack(v):
            return sum(a << W * i for i, a in enumerate(v))

        def unpack(V):
            out = []
            for _ in range(d):
                out.append(((V + sign_bit) & mask) - sign_bit)
                V = (V + sign_bit) >> W
            return tuple(out)

        self.W, self.limit = W, 1 << (W - 2)
        self.mul_q, self.pack, self.unpack = mul_q, pack, unpack

    def fit_step(self, level):
        """Make room for the children q*v + s (|s| <= m) of ``level``.

        Returns None when they fit at the current width.  When the carried
        bound does not, it restarts from the level's true maximum; only if
        that does not fit either does the width double until it does, and
        the returned map re-packs a value stored at the old width."""
        bound = self.bound * self.growth + self.m
        if bound >= self.limit:
            old = self.unpack
            top = max((abs(a) for V in level for a in old(V)), default=0)
            bound = top * self.growth + self.m
        self.bound = bound
        if bound < self.limit:
            return None
        W = 2 * self.W
        while bound >= 1 << (W - 2):
            W *= 2
        self._set_width(W)
        pack = self.pack
        return lambda V: pack(old(V))

    def sign(self, V) -> int:
        return self.ctx.sign(self.unpack(V))

    def float_value(self, V) -> float:
        return self.ctx.float_value(self.unpack(V))


# ---------------------------------------------------------------------------
# conjugates with certified disks


@dataclass(frozen=True)
class ConjugateDisk:
    """One certified root disk: the true root lies within ``radius`` of
    center, and ``location`` is its certified position w.r.t. the unit
    circle ('inside' | 'outside' | 'on' | 'unresolved')."""

    re: Fraction
    im: Fraction
    radius: Fraction
    location: str

    def modulus_bounds(self) -> tuple[float, float]:
        if self.location == "on":
            return (1.0, 1.0)
        m = math.hypot(float(self.re), float(self.im))
        r = float(self.radius)
        return (max(0.0, m - r), m + r)


@dataclass(frozen=True)
class ConjugateSet:
    poly: IntPolynomial
    disks: tuple[ConjugateDisk, ...]
    resolved: bool
    precision_bits: int
    on_circle_count: int

    def count(self, location: str) -> int:
        return sum(1 for d in self.disks if d.location == location)


def _dk_iterate(coeffs: tuple[int, ...], prec_bits: int, start=None):
    """Simultaneous Weierstrass/Durand-Kerner iteration at the given
    precision.  Returns approximations only, as (Z, S): Gaussian integers
    Z_j = (X_j, Y_j) over a power of two S; certification is separate.

    At 53 bits the iteration runs in builtin ``complex`` from the seed
    points, and its binary-float centres are scaled exactly to Gaussian
    integers; it returns None when an iterate is not finite (say Horner
    overflows past 1e308).  Above 53 bits it runs in fixed point over
    S = 2^prec_bits: Horner and the Weierstrass product shift once per
    multiply, and each correction is num*conj(den) floor-divided by
    |den|^2.  The seed points scale the Cauchy bound in ints, so nothing
    overflows; ``start`` is a previous rung's (Z, S), rescaled to S.
    """
    d, lead = len(coeffs) - 1, coeffs[-1]
    bound = cauchy_root_bound(IntPolynomial(coeffs))
    steps = 60 + 12 * prec_bits // 16
    if prec_bits <= 53:
        try:
            bound = float(bound)
            seed, cur, z = complex(0.4, 0.9), complex(1), []
            for _ in range(d):
                cur = cur * seed
                z.append(cur * bound / abs(cur) * 0.7)
            tol = 2.0 ** (-(prec_bits * 3) // 4) * max(1.0, bound)
            for _ in range(steps):
                max_corr = 0.0
                for j in range(d):
                    num = 0j
                    for c in reversed(coeffs):
                        num = num * z[j] + c
                    den = complex(lead)
                    for i in range(d):
                        if i != j:
                            den *= z[j] - z[i]
                    if den == 0:
                        z[j] = z[j] + 2.0 ** (-prec_bits // 2)
                        max_corr = 1.0
                        continue
                    w = num / den
                    z[j] = z[j] - w
                    max_corr = max(max_corr, abs(w))
                if max_corr < tol:
                    break
        except OverflowError:
            return None
        if not all(map(cmath.isfinite, z)):
            return None
        S = max(x.as_integer_ratio()[1] for w in z for x in (w.real, w.imag))
        return [(int(Fraction(w.real) * S), int(Fraction(w.imag) * S))
                for w in z], S
    p, S = prec_bits, 1 << prec_bits
    B = (bound.numerator << p) // bound.denominator
    if start is None:       # the 53-bit rung's seed directions, at 0.7*bound
        t = math.atan2(0.9, 0.4)
        start = [(int(0.7 * 2**53 * math.cos(k * t)) * B,
                  int(0.7 * 2**53 * math.sin(k * t)) * B)
                 for k in range(1, d + 1)], 1 << p + 53
    z = [((x << p) // start[1], (y << p) // start[1]) for x, y in start[0]]
    tol = max(S, B) >> (3 * p // 4)
    cs = [c << p for c in coeffs]
    for _ in range(steps):
        max_corr = 0
        for j, (x, y) in enumerate(z):
            nr, ni = cs[-1], 0
            for c in reversed(cs[:-1]):
                nr, ni = ((nr * x - ni * y) >> p) + c, (nr * y + ni * x) >> p
            dr, di = cs[-1], 0
            for i, (u, v) in enumerate(z):
                if i != j:
                    u, v = x - u, y - v
                    dr, di = (dr * u - di * v) >> p, (dr * v + di * u) >> p
            n2 = dr * dr + di * di
            if n2:
                wr = ((nr * dr + ni * di) << p) // n2
                wi = ((ni * dr - nr * di) << p) // n2
            else:           # z_j meets another point: move it by 2^(-p/2)
                wr, wi = -(1 << p // 2), 0
            z[j] = (x - wr, y - wi)
            max_corr = max(max_corr, abs(wr), abs(wi))
        if max_corr < tol:
            break
    return z, S


def _certified_disks(coeffs: tuple[int, ...], Z, S: int) -> list | None:
    """Exact Weierstrass a-posteriori disks about the centres Z_j / S, or
    None when they overlap.

    For distinct approximations z_j the disks centered z_j with radius
    d*(|Re W_j| + |Im W_j|) (W_j the Weierstrass correction) jointly contain
    all roots, and pairwise disjoint disks contain exactly one root each.

    The centres are Gaussian integers Z_j over a power of two S, as every
    rung of ``_dk_iterate`` returns them.  Then p(z_j) = N_j / S^d with
    N_j = sum_k c_k Z_j^k S^(d-k), the Weierstrass denominator is
    D_j / S^(d-1) with D_j = lead * prod_{i!=j} (Z_j - Z_i), and
    W_j = N_j conj(D_j) / (S |D_j|^2).  Everything up to the one Fraction
    radius per disk, and the disjointness test, is integer arithmetic, so
    the result is a certificate, not an estimate.  Returns
    [(re, im, radius)] as Fractions.
    """
    d, lead = len(coeffs) - 1, coeffs[-1]
    scaled = [c * S ** (d - k) for k, c in enumerate(coeffs)]
    radii = []
    for j, (zr, zi) in enumerate(Z):
        nr, ni = scaled[-1], 0
        for c in reversed(scaled[:-1]):
            nr, ni = nr * zr - ni * zi + c, nr * zi + ni * zr
        dr, di = lead, 0
        for i, (wr, wi) in enumerate(Z):
            if i != j:
                er, ei = zr - wr, zi - wi
                if er == 0 and ei == 0:
                    return None
                dr, di = dr * er - di * ei, dr * ei + di * er
        radii.append(Fraction(
            d * (abs(nr * dr + ni * di) + abs(ni * dr - nr * di)),
            S * (dr * dr + di * di)))
    for i in range(d):
        zr, zi = Z[i]
        a, b = radii[i].numerator, radii[i].denominator
        for j in range(i + 1, d):
            er, ei = zr - Z[j][0], zi - Z[j][1]
            a2, b2 = radii[j].numerator, radii[j].denominator
            # |z_i - z_j| <= r_i + r_j, squared and times (S * b * b2)^2
            if ((er * er + ei * ei) * (b * b2) ** 2
                    <= (S * (a * b2 + a2 * b)) ** 2):
                return None
    return [(Fraction(x, S), Fraction(y, S), rad)
            for (x, y), rad in zip(Z, radii)]


def _locate_disk(re: Fraction, im: Fraction, radius: Fraction) -> str:
    s2 = re * re + im * im
    if radius < 1 and s2 < (1 - radius) ** 2:
        return "inside"
    return "outside" if s2 > (1 + radius) ** 2 else "straddle"


def conjugates(p: IntPolynomial, radius=Fraction(1, 10**12),
               budget_bits: int = 4096) -> ConjugateSet:
    """All complex roots of squarefree p with certified disks and exact
    unit-circle location tags.

    The precision ladder is 53, 64, 128, ... bits up to ``budget_bits``.
    The 53-bit rung iterates in builtin ``complex``; each later rung of
    ``prec`` bits iterates in Gaussian integers over 2^prec from the
    previous rung's approximations, or from the seed points when the 53-bit
    iterates overflowed.  Each rung's approximations are certified by
    ``_certified_disks`` (exact, in the same scaled Gaussian integers); the
    first rung whose disks are disjoint, within ``radius``, and straddle the
    unit circle exactly ``on_circle_count`` times wins, and
    ``precision_bits`` names it.

    Raises PreconditionError for non-squarefree input.  If the precision
    budget runs out before every off-circle root is certified inside or
    outside the unit circle, the set is returned with ``resolved=False``
    and ``precision_bits`` is the last rung run (0 if none fit the budget).
    """
    if p.is_zero or p.degree < 1:
        raise PreconditionError("need a nonconstant polynomial")
    if not is_squarefree(p):
        raise PreconditionError("polynomial is not squarefree")
    radius = Fraction(radius)

    coeffs = p.coeffs
    zero_disks = []
    if coeffs[0] == 0:
        # squarefree => simple root at the origin
        zero_disks.append(ConjugateDisk(Fraction(0), Fraction(0),
                                        Fraction(0), "inside"))
        coeffs = coeffs[1:]
    work = IntPolynomial(coeffs)
    d = work.degree
    if d == 0:
        return ConjugateSet(p, tuple(zero_disks), True, 0, 0)
    if d == 1:
        r = Fraction(-coeffs[0], coeffs[1])
        loc = "inside" if abs(r) < 1 else ("on" if abs(r) == 1 else "outside")
        disks = zero_disks + [ConjugateDisk(r, Fraction(0), Fraction(0), loc)]
        return ConjugateSet(p, tuple(sorted_disks(disks)), True, 0,
                            sum(1 for x in disks if x.location == "on"))

    on_count = unit_circle_counts(work)[1]
    prec, ran, start, best, resolved = 53, 0, None, (), False
    while prec <= budget_bits and not resolved:
        z = _dk_iterate(coeffs, prec, start)
        ran, start = prec, z
        disks = None if z is None else _certified_disks(coeffs, *z)
        if disks is not None:
            best = [(_locate_disk(*disk), *disk) for disk in disks]
            resolved = (sum(loc == "straddle" for loc, *_ in best) == on_count
                        and all(rad <= radius for *_, rad in best))
        prec = 64 if prec == 53 else 2 * prec
    straddle = "on" if resolved else "unresolved"
    out = zero_disks + [ConjugateDisk(re, im, rad,
                                      straddle if loc == "straddle" else loc)
                        for loc, re, im, rad in best]
    return ConjugateSet(p, tuple(sorted_disks(out)), resolved, ran, on_count)


def sorted_disks(disks):
    return sorted(disks, key=lambda x: (x.re, x.im))


# ---------------------------------------------------------------------------
# classification


PISOT_INTEGER = "PisotInteger"
PISOT = "Pisot"
NOT_PISOT = "NotPisot-AlgebraicInteger"
NOT_ALGEBRAIC_INTEGER = "NotAlgebraicInteger"


@dataclass(frozen=True)
class NumberClass:
    """The class of a base q > 1, with the exact numbers of conjugates of q
    (q itself among them) inside, on and outside the unit circle.

    ``conjugate_set`` holds the certified disks of ``evidence_poly`` (the
    minimal polynomial of a monic irrational base, else None).  They are
    evidence, not the label: ``conjugates`` runs at ``budget_bits`` when
    the set is first read."""

    tag: str
    detail: str
    n_in: int
    n_on: int
    n_out: int
    evidence_poly: IntPolynomial | None = None
    budget_bits: int = 4096

    @property
    def is_pisot(self) -> bool:
        return self.tag in (PISOT, PISOT_INTEGER)

    @cached_property
    def conjugate_set(self) -> ConjugateSet | None:
        if self.evidence_poly is None:
            return None
        return conjugates(self.evidence_poly, budget_bits=self.budget_bits)

    def evidence(self) -> list[dict]:
        if self.conjugate_set is None:
            return []
        return [
            {"center": [float(d.re), float(d.im)],
             "radius": float(d.radius),
             "modulus_bounds": list(d.modulus_bounds()),
             "location": d.location}
            for d in self.conjugate_set.disks
        ]


def classify_base(q: AlgebraicNumber, budget_bits: int = 4096) -> NumberClass:
    """Theorem-grade Pisot classification of a base q > 1.

    Pisot iff the minimal polynomial P is monic and every conjugate other
    than q lies strictly inside the unit circle.  The label comes from the
    exact integer counts of the roots of P inside, on and outside the unit
    circle (``unit_circle_counts``), so it needs no precision and is never
    inconclusive.  The certified disks are evidence only, computed at
    ``budget_bits`` when ``conjugate_set`` is first read; a budget too small
    for them leaves disks tagged 'unresolved' but the label exact.
    P has no rational root (``AlgebraicNumber`` divides them out); that it
    has no other factor either is an input contract.
    """
    if not q.greater_than(1):
        raise PreconditionError("base must satisfy q > 1")
    if q.exact_rational is not None:
        r = q.exact_rational
        if r.denominator == 1:
            return NumberClass(PISOT_INTEGER, f"rational integer {r}", 0, 0, 1)
        return NumberClass(NOT_ALGEBRAIC_INTEGER,
                           f"rational non-integer {r}", 0, 0, 1)
    p = q.min_poly
    n_in, n_on, n_out = unit_circle_counts(p)
    if not p.is_monic:
        return NumberClass(NOT_ALGEBRAIC_INTEGER,
                           "minimal polynomial is not monic", n_in, n_on, n_out)
    if n_on > 0 or n_out >= 2:
        tag, detail = NOT_PISOT, (f"{n_out} conjugates outside, {n_on} on "
                                  f"the unit circle")
    else:
        tag, detail = PISOT, "all other conjugates inside"
    return NumberClass(tag, detail, n_in, n_on, n_out, p, budget_bits)


# ---------------------------------------------------------------------------
# powers


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _charpoly(a) -> list[Fraction]:
    """Faddeev-LeVerrier; ascending coefficients of det(xI - A), monic."""
    n = len(a)
    coeffs_desc = [Fraction(1)]
    mk = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
          for i in range(n)]
    for k in range(1, n + 1):
        mk = _mat_mul(a, mk)
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs_desc.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return list(reversed(coeffs_desc))


def power_base(q: AlgebraicNumber, k: int) -> AlgebraicNumber:
    """q^k as a certified algebraic number.

    The defining polynomial is the squarefree part of the characteristic
    polynomial of the multiplication-by-q^k matrix, whose column j is the
    ``ZqContext`` vector of q^(k+j); it provably vanishes at q^k, and is the
    minimal polynomial of q^k when q's is irreducible.  The checked
    constructor divides its rational roots out.  ``_charpoly`` starts from a
    Fraction identity, so it divides exactly on int entries too.
    """
    if k < 1:
        raise PreconditionError("exponent must be >= 1")
    if k == 1:
        return q
    if q.exact_rational is not None:
        return AlgebraicNumber.from_rational(q.exact_rational ** k)
    ctx = ZqContext(q)
    powers = [ctx.from_fraction(1)]
    for _ in range(k + ctx.d - 1):
        powers.append(ctx.mul_q(powers[-1]))
    # rows q^k, ..., q^(k+d-1): the transpose, same characteristic polynomial
    frac_coeffs = _charpoly([ctx.coefficients(p) for p in powers[k:]])
    den = math.lcm(*(c.denominator for c in frac_coeffs))
    char_int = IntPolynomial(int(c * den) for c in frac_coeffs)
    defining = squarefree_part(char_int)
    chain = _sturm_chain_of(defining)
    while True:
        lo, hi = q.interval()
        plo, phi = lo**k, hi**k
        if (defining.sign_at(plo) != 0 and defining.sign_at(phi) != 0
                and count_roots_in(defining, plo, phi, chain) == 1):
            return AlgebraicNumber(defining, plo, phi)
        q.refine_to_width((hi - lo) / 4)
