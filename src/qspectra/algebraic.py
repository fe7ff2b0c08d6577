"""Certified arithmetic for real algebraic bases q > 1.

Three layers live here:

* ``AlgebraicNumber`` -- a real root of an integer polynomial pinned by a
  rational isolating interval [a/D, b/D], kept as the ints a, b and D, with
  monotone on-demand refinement and an exact sign oracle for polynomial
  expressions in the root, evaluated in integers over D^n.
* ``classify_base`` -- the Pisot label, from the exact integer counts of
  the roots of the minimal polynomial inside, on and outside the unit
  circle (``intpoly.unit_circle_counts``: Routh-Hurwitz after the Cayley
  map, the circle's roots read off the gcd that ends its Sturm sequence).
  ``conjugates`` -- all complex roots with certified error disks
  (simultaneous Weierstrass iteration, one fixed-point iteration in
  Gaussian integers on every rung; a-posteriori disks checked exactly in
  the same scaled Gaussian integers) -- is the label's
  evidence, computed only when a ``NumberClass``'s ``conjugate_set`` is
  read.
* ``ZqContext`` -- the one exact value kernel, Q[q] for any base, run in
  integers: every value is a pair (V, D) of an int vector V over the
  algebraic integer theta = a*q (a the leading coefficient; theta = q on a
  monic base) and an int denominator D > 0.  The search and the windows
  pack these vectors into one int each (``_PackedZq``).  Ring operations,
  exact signs and ordering (``sign``, ``compare``, ``cmp_fraction``) from
  the base's sign oracle, display floats read off exact enclosures, and
  the floating-point model (``float_model``) under which the spectrum
  engines carry proven float enclosures of their search states.

Minimal polynomials are free of rational roots: ``AlgebraicNumber`` divides
the rational roots of its polynomial out (``real_roots`` reads them off its
one isolation pass, the checked constructor isolates once), so a base whose
interval holds a rational root is that rational.  Irreducibility beyond
that is an input contract: an irrational factor other than the minimal
polynomial is not found, and surfaces as ``ReducibleInputError`` when a sign
refinement fails to terminate.
"""

from __future__ import annotations

import math
import sys
import threading
from array import array
from collections import namedtuple
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
from .records import FrozenRecord

# ---------------------------------------------------------------------------
# small exact helpers


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
    race harmlessly.  Every exact decision ends in :meth:`_sign_of_reduced`:
    through :meth:`sign_of_int_poly` (``compare_to_fraction``,
    ``greater_than``), or through ``ZqContext``'s element signs (``sign``,
    ``compare``, ``cmp_fraction``, the packed kernels, the lazy corridor).
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
        (a, b), den = _integer_numerators((Fraction(lo), Fraction(hi)))
        self._iv = (a, b, den)                # the interval [a/den, b/den]
        self._lock = threading.Lock()
        # (interval, numerators of the bounds of q^k over den^k)
        self._pow_state: tuple = (None, [])

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
        a, b, den = self._iv
        return (Fraction(a, den), Fraction(b, den))

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def refine_to_width(self, width: Fraction) -> tuple[Fraction, Fraction]:
        a, b, den = self._iv
        width = Fraction(width)
        if (self.exact_rational is None
                and (b - a) * width.denominator > width.numerator * den):
            (na, nb), nden = _integer_numerators(refine_root_interval(
                self.min_poly, *self.interval(), width))
            with self._lock:
                # keep the narrower of racing refinements
                a, b, den = self._iv
                if (nb - na) * den < (b - a) * nden:
                    self._iv = (na, nb, nden)
        return self.interval()

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

    def _sign_of_reduced(self, coeffs) -> int:
        """Sign of sum coeffs[i] q^i for integer coeffs below the degree of
        q: the integer bounds over D^n of ``_int_interval`` decide it, and
        the base is refined until they share a sign."""
        if not any(coeffs):
            return 0
        while True:
            a, b, den = self._iv
            vlo, vhi, _ = self._int_interval(coeffs)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if (b - a) << MAX_CERTIFY_BITS <= den:
                raise ReducibleInputError(
                    "sign refinement stalled; input may be reducible")
            self.refine_to_width(Fraction(b - a, 4 * den))

    def _int_interval(self, coeffs) -> tuple[int, int, int]:
        """(vlo, vhi, D^n) with vlo/D^n <= sum coeffs[i] q^i <= vhi/D^n for
        integer coeffs, n = len(coeffs) - 1, on the interval [a/D, b/D] of q
        (D the endpoints' common denominator).  Each bound of q^k is the min
        or max of four products, so any sign of interval is enclosed."""
        n = len(coeffs) - 1
        with self._lock:
            a, b, den = iv = self._iv
            if self._pow_state[0] != iv:
                self._pow_state = (iv, [(1, 1), (a, b)])
            pows = self._pow_state[1]
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

    def compare_to_fraction(self, c) -> int:
        c = Fraction(c)
        return self.sign_of_int_poly(
            IntPolynomial([-c.numerator, c.denominator]))

    def greater_than(self, c) -> bool:
        return self.compare_to_fraction(c) > 0

    def zq_context(self) -> "ZqContext":
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
    An element is a pair (V, D), an int tuple V and an int D > 0 with value
    sum V_i theta^i / D, on every base; a monic base is a = 1, where an
    integer value has D = 1.  A digit step is (theta*V + s*a*D, a*D), add
    and sub put two pairs over one D, a rational scalar (int or Fraction)
    enters by its numerator and denominator, and no Fraction arises.
    ``coefficients`` reads an element back in the basis 1, q, ...,
    q^(d-1).  A zero vector represents the real number zero because the
    minimal polynomial is irreducible (input contract).  Every ``sign``,
    and so every ``compare`` and ``cmp_fraction``, is exact: the base's
    sign oracle (``_sign_of_reduced``) decides the int polynomial
    sum V_i a^i q^i, refining q only when its enclosure on the current
    interval contains zero; on a rational base (d = 1) the sign is that of
    V_0.  ``interval`` is that exact enclosure, and ``float_value`` its
    midpoint on the base refined to ``FLOAT_WIDTH``, rounded once.  The
    polynomial is a positive multiple of the value for any D, so no sign,
    refinement of the base or display float depends on the scale.

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

    Packed vectors.  The smallest-positive search and the windows keep an
    int vector (a_0, ..., a_{d-1}) over theta as one int V = sum a_i 2^(W i)
    (signed Kronecker substitution: Schoenhage, 1982; Harvey, *J. Symbolic
    Comput.* 44, 2009), built by ``_PackedZq``.  Packing is additive and,
    while every |a_i| < 2^(W-1), one-to-one, so equal vectors are equal
    ints and a sign flip is -V.  A value v is stored as the vector of
    a^D * v: D = 0 on a monic base, where theta = q, and on any other base
    the window's depth bound, the highest degree of any child it computes.
    A value with digits up to degree n < D is a^(D-n) times an int vector
    (a^n q^i = a^(n-i) theta^i), so it is an int vector too.  With
    theta^d = sum c_i theta^i, the top entry is
    t = (V + 2^(W(d-1)-1)) >> W(d-1) and

        theta*v = (V << W) - t*R,    R = 2^(W d) - sum c_i 2^(W i),

    once per parent; q*v is then one exact division of that int by a (each
    entry is divisible by a while n < D, and packing is linear), and a
    child q*v + s adds s*a^D.  Width bound: if a level's entries are at
    most E, its children's are at most E' = E*(1 + max|c_i|)/a + m*a^D.
    The engines carry E per level and keep E' below 2^(W-2), so a state,
    its negation and the difference of two states (a comparison) all have
    entries below 2^(W-1) and decode exactly.  When E' would reach
    2^(W-2), E restarts from the level's true maximum; if that does not fit
    either, every stored value of every level is re-packed at a doubled W.
    Each value was below 2^(W-2) when it was made and W never shrinks, so
    the values of all levels stay below it (E may restart below an earlier
    level's entries), and differences across levels (a window's sort and
    gap keys) decode exactly too.  The exact methods read a packed V as
    the element (V, a^D).
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
        return (0,) * self.d, 1

    def from_fraction(self, c):
        """The element of the rational c (an int or a Fraction)."""
        return (c.numerator,) + (0,) * (self.d - 1), c.denominator

    def coefficients(self, v) -> tuple:
        """The coefficients of v in the basis 1, q, ..., q^(d-1)."""
        V, D = v
        return tuple(Fraction(x * p, D) for x, p in zip(V, self._apow))

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
        A, B, D = self._common(a, b)
        return tuple(x + y for x, y in zip(A, B)), D

    def sub(self, a, b):
        A, B, D = self._common(a, b)
        return tuple(x - y for x, y in zip(A, B)), D

    def neg(self, a):
        return tuple(-x for x in a[0]), a[1]

    def scale(self, a, c):
        """c*a for a rational c (an int or a Fraction)."""
        n = c.numerator
        return tuple(n * x for x in a[0]), a[1] * c.denominator

    def add_fraction(self, a, c):
        """a + c for a rational c (an int or a Fraction)."""
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
        D = v[1] * self.lead
        return self._times_theta(v[0], s * D), D

    def mul(self, a, b):
        """Ring product: sum_j B_j theta^j A, over Da * Db."""
        (A, Da), (B, Db) = a, b
        acc = (0,) * self.d
        for coeff in B:
            if coeff:
                acc = tuple(x + coeff * y for x, y in zip(acc, A))
            A = self._times_theta(A)
        return acc, Da * Db

    def _sign_of_vector(self, V) -> int:
        """Sign of sum V_i theta^i: that of V_0 on a rational base (d = 1),
        else the base's sign oracle on sum V_i a^i q^i."""
        if self.d == 1:
            return (V[0] > 0) - (V[0] < 0)
        return self.q._sign_of_reduced([x * p for x, p in zip(V, self._apow)])

    def at_scale(self, D: int):
        """(one, mul_q, sign, elem) for values held at one fixed scale: v is
        the int tuple V over theta of a^D * v, with no denominator while v
        has integer digits up to degree D, so sums are tuple sums.
        ``mul_q`` is theta*V and one exact division by a (none when a = 1);
        ``sign`` is the sign of every element; ``elem`` is the element
        (V, a^D)."""
        a = self.lead
        one = (a**D,) + (0,) * (self.d - 1)
        mul_q = (self._times_theta if a == 1
                 else lambda V: tuple(x // a for x in self._times_theta(V)))
        return one, mul_q, self._sign_of_vector, lambda V: (V, one[0])

    def from_digits(self, digits):
        """Element of sum digits[i] * q^i (ascending digits)."""
        acc = self.zero
        for s in reversed(list(digits)):
            acc = self.step(acc, int(s))
        return acc

    def sign(self, v) -> int:
        return self._sign_of_vector(v[0])

    def compare(self, a, b) -> int:
        return self.sign(self.sub(a, b))

    def cmp_fraction(self, v, c: Fraction) -> int:
        """Sign of value(v) - c for a rational c."""
        return self.sign(self.add_fraction(v, -c))

    def _bounds(self, v) -> tuple[int, int, int]:
        """(vlo, vhi, den): value(v) lies in [vlo/den, vhi/den] on the
        current base interval."""
        V, D = v
        vlo, vhi, den = self.q._int_interval(
            [x * p for x, p in zip(V, self._apow)])
        return vlo, vhi, D * den

    def interval(self, v) -> tuple[Fraction, Fraction]:
        """Exact rational bounds of value(v) on the current base interval."""
        vlo, vhi, den = self._bounds(v)
        return Fraction(vlo, den), Fraction(vhi, den)

    def float_value(self, v) -> float:
        """Display float of v: the midpoint of its exact enclosure on the
        base refined to FLOAT_WIDTH, correctly rounded by one int division
        (a coarser interval's midpoint can be off in the leading digits)."""
        self.q.refine_to_width(FLOAT_WIDTH)
        vlo, vhi, den = self._bounds(v)
        return (vlo + vhi) / (2 * den)

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
    """The Z[theta] vectors of a base packed into one int each (see "Packed
    vectors" in ``ZqContext``), each value x stored as the vector of
    ``one * x``, one = a^depth; the exact methods decode to elements of the
    wrapped context."""

    zero = 0
    exact = True

    def __init__(self, ctx: ZqContext, m: int, depth: int = 0):
        self.ctx, self.d, self.m, self.lead = ctx, ctx.d, m, ctx.lead
        self.one = ctx.lead ** depth
        self.float_model = ctx.float_model
        self.growth = 1 + max((abs(c) for _, c in ctx.qd_terms), default=0)
        self.bound = m * self.one   # entries of the current level are <= it
        W = 32
        while self.bound >= 1 << (W - 2):
            W *= 2
        self._set_width(W)

    def _set_width(self, W: int):
        """Bind ``pack``, ``unpack``, ``elem`` and ``mul_q`` to width W."""
        d, a, one = self.d, self.lead, self.one
        shift = W * (d - 1)
        half, sign_bit, mask = (1 << shift) >> 1, 1 << (W - 1), (1 << W) - 1
        # theta^d = sum c_i theta^i, so theta*V = (V << W) - t*R for the
        # top entry t, and q*V = theta*V / a
        R = (1 << W * d) - sum(c << W * i for i, c in self.ctx.qd_terms)

        def mul_q(V):
            return (V << W) - ((V + half) >> shift) * R

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
        self.mul_q = mul_q if a == 1 else lambda V: mul_q(V) // a
        self.elem = lambda V: (unpack(V), one)

    def fit_step(self, level):
        """Make room for the children q*v + s (|s| <= m) of ``level``.

        Returns None when they fit at the current width.  When the carried
        bound does not, it restarts from the level's true maximum; only if
        that does not fit either does the width double until it does, and
        the returned map re-packs a value stored at the old width."""
        bound = self.bound * self.growth // self.lead + self.m * self.one
        if bound >= self.limit:
            old = self.unpack
            top = max((abs(x) for V in level for x in old(V)), default=0)
            bound = top * self.growth // self.lead + self.m * self.one
        self.bound = bound
        if bound < self.limit:
            return None
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
        out = array("i" if W == 32 else "q")
        for k in range(0, len(column), 4096):
            out.frombytes(b"".join(((V + O) ^ O).to_bytes(n, sys.byteorder)
                                   for V in column[k:k + 4096]))
        return out

    def sign(self, V) -> int:
        return self.ctx.sign(self.elem(V))

    def cmp_fraction(self, V, c: Fraction) -> int:
        return self.ctx.cmp_fraction(self.elem(V), c)

    def float_value(self, V) -> float:
        return self.ctx.float_value(self.elem(V))


# ---------------------------------------------------------------------------
# conjugates with certified disks


class ConjugateDisk(namedtuple("ConjugateDisk", "re im radius location")):
    """One certified root disk: the true root lies within the Fraction
    ``radius`` of the Fraction center (re, im), and ``location`` is its
    certified position w.r.t. the unit circle ('inside' | 'outside' |
    'on' | 'unresolved')."""

    __slots__ = ()

    def modulus_bounds(self) -> tuple[float, float]:
        if self.location == "on":
            return (1.0, 1.0)
        m = math.hypot(float(self.re), float(self.im))
        r = float(self.radius)
        return (max(0.0, m - r), m + r)


class ConjugateSet(namedtuple("ConjugateSet", "poly disks resolved "
                              "precision_bits on_circle_count")):
    """``disks`` holds a ``ConjugateDisk`` per root of ``poly``."""
    __slots__ = ()

    def count(self, location: str) -> int:
        return sum(1 for d in self.disks if d.location == location)


def _dk_iterate(coeffs: tuple[int, ...], prec_bits: int, start=None):
    """Simultaneous Weierstrass/Durand-Kerner iteration at the given
    precision.  Returns approximations only, as (Z, S): Gaussian integers
    Z_j = (X_j, Y_j) over S = 2^prec_bits; certification is separate.

    One fixed-point iteration on every rung: Horner and the Weierstrass
    product shift once per multiply, and each correction is num*conj(den)
    floor-divided by |den|^2.  The seed points scale the Cauchy bound in
    ints, so nothing overflows; ``start`` is a previous rung's (Z, S),
    rescaled to S.
    """
    d = len(coeffs) - 1
    bound = cauchy_root_bound(IntPolynomial(coeffs))
    steps = 60 + 12 * prec_bits // 16
    p, S = prec_bits, 1 << prec_bits
    B = (bound.numerator << p) // bound.denominator
    if start is None:       # seed directions (0.4+0.9i)^k, at 0.7*bound
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

    The centres are Gaussian integers Z_j over S = 2^p, as ``_dk_iterate``
    returns them.  Then p(z_j) = N_j / S^d with N_j = sum_k c_k Z_j^k
    S^(d-k), the Weierstrass denominator is D_j / S^(d-1) with
    D_j = lead * prod_{i!=j} (Z_j - Z_i), and
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

    The precision ladder is 53, 64, 128, ... bits up to ``budget_bits``,
    with one fixed-point iteration on every rung: the rung of ``prec`` bits
    iterates in Gaussian integers over 2^prec, the first from the seed
    points and each later one from the previous rung's approximations.
    Each rung's approximations are certified by ``_certified_disks``
    (exact, in the same scaled Gaussian integers); the first rung whose
    disks are disjoint, within ``radius``, and straddle the unit circle
    exactly ``on_circle_count`` times wins, and ``precision_bits`` names
    it.

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
        disks = _certified_disks(coeffs, *z)
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


class NumberClass(FrozenRecord):
    """The class of a base q > 1, with the exact numbers of conjugates of q
    (q itself among them) inside, on and outside the unit circle.

    ``conjugate_set`` holds the certified disks of ``evidence_poly`` (the
    minimal polynomial of a monic irrational base, else None).  They are
    evidence, not the label: ``conjugates`` runs at ``budget_bits`` when
    the set is first read, and the result is kept in the instance's
    ``__dict__``."""

    _fields = ("tag", "detail", "n_in", "n_on", "n_out", "evidence_poly",
               "budget_bits")

    def __init__(self, tag: str, detail: str, n_in: int, n_on: int,
                 n_out: int, evidence_poly: IntPolynomial | None = None,
                 budget_bits: int = 4096):
        super().__init__(tag, detail, n_in, n_on, n_out, evidence_poly,
                         budget_bits)

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
        try:
            return [
                {"center": [float(d.re), float(d.im)],
                 "radius": float(d.radius),
                 "modulus_bounds": list(d.modulus_bounds()),
                 "location": d.location}
                for d in self.conjugate_set.disks
            ]
        except OverflowError:
            raise PreconditionError(
                "conjugate beyond the float range") from None


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
