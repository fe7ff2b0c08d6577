"""Certified arithmetic for real algebraic bases q > 1.

Three layers live here:

* ``AlgebraicNumber`` -- a real root of an integer polynomial pinned by a
  rational isolating interval [a/D, b/D], kept as the ints a, b and D, with
  monotone on-demand refinement, an exact sign oracle for polynomial
  expressions in the root, evaluated in integers over D^n, and comparisons
  with a rational read off the interval by one sign of the minimal
  polynomial, with no refinement.
* ``classify_base`` -- the Pisot label, from the exact integer counts of
  the roots of the minimal polynomial inside, on and outside the unit
  circle (``intpoly.unit_circle_counts``: Routh-Hurwitz after the Cayley
  map, the circle's roots read off the gcd that ends its Sturm sequence).
  The certified disks (``disks.conjugates``) are the label's evidence,
  computed, and ``disks`` loaded, only when a ``NumberClass``'s
  ``conjugate_set`` is read.
* ``ZqContext`` -- the one exact value kernel, Q[q] for any base, run in
  integers: a context is built at one scale, a^D times a rational target's
  denominator (a the leading coefficient, D the highest degree its values
  reach), and every value is the int vector over the algebraic integer
  theta = a*q (theta = q on a monic base) of that scale times the value.
  Digit steps, exact signs (``sign``, ``cmp_fraction``) from the base's
  sign oracle and display floats read off exact enclosures; sums are
  tuple sums (``_axpy``).  The search and the windows pack these vectors
  into one int each and carry float enclosures of them
  (``spectrum._PackedZq``).

Minimal polynomials are free of rational roots: the root selectors
(``real_roots``, ``base_from_poly``) and the checked constructor divide
them out with one routine (``intpoly._split_rational_roots``), which takes
them as the point cells of one isolation, so a base whose interval holds a
rational root is that rational.  When a screen modulo small primes proves
that there is none, ``base_from_poly`` isolates only the roots above 1 and
the checked constructor isolates nothing.  A selected root keeps its
isolation cell as it is: deciding q > 1 bisects nothing.
Irreducibility beyond that is an input contract: an irrational factor other
than the minimal polynomial is not found, and surfaces as
``ReducibleInputError`` when a sign refinement fails to terminate.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import cached_property

from .config import MAX_CERTIFY_BITS
from .errors import PreconditionError, ReducibleInputError
from .intpoly import (
    IntPolynomial,
    isolate_roots_exact,
    squarefree_part,
    sturm_chain,
    unit_circle_counts,
    _bisect,
    _integer,
    _prem,
    _rational,
    _sign,
    _split_rational_roots,
    _variations_at,
)
from .records import FrozenRecord

# ---------------------------------------------------------------------------
# AlgebraicNumber

#: Interval width at which a base's float values are read.
FLOAT_WIDTH = Fraction(1, 2**72)


def _show(x: Fraction) -> str:
    """x for a message: exact while str() can print its terms, else its
    sign and nearest power of ten (str() refuses an int past Python's
    4,300-digit limit)."""
    try:
        return str(x)
    except ValueError:
        e = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        return f"{'-' if x < 0 else ''}~1e{round(e)}"


class AlgebraicNumber:
    """A real root of an integer polynomial, known exactly.

    The constructor is checked: it takes the squarefree part of the
    polynomial and requires an interval (lo, hi) isolating one of its roots
    (a linear one's too); then, as the selectors do, it divides the part's
    rational roots out of ``min_poly`` (``intpoly._split_rational_roots``):
    if the root in the interval is rational, the number is that rational
    (``exact_rational``).  The selectors build their roots unchecked from
    isolation's cells (``_set_cell``): ``min_poly`` is primitive, and
    linear or free of rational roots.

    The isolating interval is refinable; refinement is monotone (the stored
    interval only ever shrinks) and idempotent, so concurrent refiners can
    race harmlessly: the package runs no threads, but the class is public,
    so a caller may refine one number from two threads, and a lock keeps
    the narrower result.  Every exact sign of a polynomial expression in q
    ends in :meth:`_sign_of_reduced`, which refines as it needs: from
    :meth:`sign_of_int_poly` or from ``ZqContext``'s signs (``sign`` and
    ``cmp_fraction``, under the packed kernels and the lazy corridor too).
    A comparison with a rational (``compare_to_fraction``, ``greater_than``)
    is read off the interval as it stands and refines nothing.
    """

    def __init__(self, min_poly: IntPolynomial, lo: Fraction, hi: Fraction):
        if min_poly.degree < 1:
            raise PreconditionError("minimal polynomial must have degree >= 1")
        min_poly = squarefree_part(min_poly)    # as real_roots does
        lo, hi = _rational(lo), _rational(hi)
        chain = sturm_chain(min_poly)   # V(lo) - V(hi) <= 0 if lo >= hi
        va, vb = (_variations_at(chain, x.numerator, x.denominator)
                  for x in (lo, hi))
        if va is None or vb is None:
            raise PreconditionError(
                "interval endpoint is a root; use from_rational for "
                "rational values")
        if va - vb != 1:
            raise PreconditionError(
                f"interval ({_show(lo)}, {_show(hi)}) does not isolate "
                f"exactly one root")
        # divide the rational roots out; the one in (lo, hi) is q
        rats, min_poly = _split_rational_roots(min_poly)
        for r in rats:
            if lo < r < hi:
                min_poly = IntPolynomial([-r.numerator, r.denominator])
        if min_poly.degree == 1:
            c0, c1 = min_poly.coeffs
            lo = hi = Fraction(-c0, c1)
        den = math.lcm(lo.denominator, hi.denominator)    # reduced, as _bisect
        self._set_cell(min_poly, lo.numerator * den // lo.denominator,
                       hi.numerator * den // hi.denominator, den)

    def _set_cell(self, min_poly: IntPolynomial, a: int, b: int, den: int
                  ) -> "AlgebraicNumber":
        """The root of ``min_poly`` in the cell [a/den, b/den], den > 0,
        reduced by gcd(a, b, den) (a == b for a linear ``min_poly``),
        unchecked; self.  Every constructor ends here."""
        self.min_poly = min_poly
        self.exact_rational = (Fraction(a, den) if min_poly.degree == 1
                               else None)
        self._iv = (a, b, den)
        self._lock = threading.Lock()
        # (interval, numerators of the bounds of q^k over den^k)
        self._pow_state: tuple = (None, [])
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "AlgebraicNumber":
        v = _rational(value)
        n, d = v.numerator, v.denominator
        return object.__new__(cls)._set_cell(IntPolynomial._of((-n, d)),
                                             n, n, d)

    @classmethod
    def real_roots(cls, p: IntPolynomial) -> list["AlgebraicNumber"]:
        """All real roots of p, ascending."""
        return list(cls._real_roots(p))

    @classmethod
    def _real_roots(cls, p: IntPolynomial, above: int | None = None):
        """p's real roots, ascending, lazily; only of cells past ``above``,
        the only ones isolated if the mod-p screen finds no rational root."""
        sf = squarefree_part(p)
        cells = isolate_roots_exact(sf, above)     # refuses a zero p
        # the irrational roots are roots of sf with its linear factors
        # divided out; an isolating interval of sf isolates them in it too
        irr = _split_rational_roots(sf, cells)[1]
        for a, b, den in cells:
            if above is None or b > above * den:
                yield (cls.from_rational(Fraction(a, den)) if a == b
                       else object.__new__(cls)._set_cell(irr, a, b, den))

    @classmethod
    def base_from_poly(cls, p: IntPolynomial, root_index: int | None = None,
                       root_interval: tuple[Fraction, Fraction] | None = None
                       ) -> "AlgebraicNumber":
        """Select a base q > 1: either by interval, or by 0-based index into
        the ascending real roots > 1, each tested up to the one selected.

        The base keeps the interval it was selected on, unrefined: by index
        that is its isolation cell, whose lower end may be <= 1 or even
        negative (x^3 - x^2 - x - 1 gives (-2, 2)).  A reader that needs
        more refines first: ``float_value``, ``refine_to_width`` and the
        spectrum kernels (``make_kernel``) do; ``power_base`` refines off 0."""
        if (root_index is None) == (root_interval is None):
            raise PreconditionError("give exactly one of root index / interval")
        if root_interval is not None:
            try:
                lo, hi = root_interval
            except (TypeError, ValueError):
                raise PreconditionError(
                    f"root interval {root_interval!r} is not a pair") from None
            q = cls(p, lo, hi)
            if not q.greater_than(1):
                raise PreconditionError("selected root is not > 1")
            return q
        root_index = _integer(root_index, "root index")
        found = 0
        for r in cls._real_roots(p, above=1):
            if r.greater_than(1):
                if found == root_index:
                    return r
                found += 1
        raise PreconditionError(
            f"root index {root_index} out of range: {found} real roots > 1")

    # -- refinement --------------------------------------------------------

    def interval(self) -> tuple[Fraction, Fraction]:
        a, b, den = self._iv
        return (Fraction(a, den), Fraction(b, den))

    def refine_to_width(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """The interval, bisected in ints (``intpoly._bisect``, by
        ``_refine``) until it is no wider than ``width``; a positive width."""
        width = _rational(width)
        self._refine(width.numerator, width.denominator)
        return self.interval()

    def _refine(self, wn: int, wd: int) -> None:
        """Bisect the interval in ints until it is no wider than wn/wd."""
        a, b, den = self._iv
        if self.exact_rational is None and (b - a) * wd > wn * den:
            na, nb, nden = _bisect(self.min_poly.coeffs, a, b, den, wn, wd)
            with self._lock:
                # keep the narrower of racing refinements
                a, b, den = self._iv
                if (nb - na) * den < (b - a) * nden:
                    self._iv = (na, nb, nden)

    def float_value(self) -> float:
        lo, hi = self.refine_to_width(FLOAT_WIDTH)
        try:
            return float((lo + hi) / 2)
        except OverflowError:
            raise PreconditionError("base is beyond the float range") from None

    # -- exact decisions ----------------------------------------------------

    def sign_of_int_poly(self, g: IntPolynomial) -> int:
        """Exact sign of g(q).  Zero is detected through divisibility by the
        minimal polynomial, so the loop terminates for irreducible input:
        the sign is that of a positive multiple of g mod min_poly."""
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
            self._refine(b - a, 4 * den)

    def _int_interval(self, coeffs) -> tuple[int, int, int]:
        """(vlo, vhi, D) with vlo/D^n <= sum coeffs[i] q^i <= vhi/D^n for
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
        return vlo, vhi, den

    def compare_to_fraction(self, c) -> int:
        """Sign of q - c for a rational c, read off the cell (lo, hi) as it
        stands, with no refinement: +1 if c <= lo, -1 if c >= hi, and else
        +1 iff the minimal polynomial f changes sign on (c, hi).  q is the
        only root of f in the cell, and f(c) != 0, since f has no rational
        root."""
        if type(c) is not int:          # an int is its own numerator
            c = _rational(c)
        if self.exact_rational is not None:
            return (self.exact_rational > c) - (self.exact_rational < c)
        a, b, den = self._iv
        n, d = c.numerator, c.denominator
        if n * den <= a * d:
            return 1
        if n * den >= b * d:
            return -1
        cs = self.min_poly.coeffs
        return 1 if _sign(cs, n, d) != _sign(cs, b, den) else -1

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


def _axpy(x, c, y):
    """x + c*y, entry by entry."""
    return tuple([a + c * b for a, b in zip(x, y)])


class ZqContext:
    """Exact arithmetic in Q[q] = Q[x]/(min_poly) for any algebraic base, at
    one scale fixed when the context is built.

    Let a be the leading coefficient of the minimal polynomial f (degree d):
    theta = a*q is an algebraic integer, a root of the monic a^(d-1) f(y/a),
    and ``qd_terms`` holds theta^d = sum c_i theta^i (theta = q if a = 1).
    A context of int ``depth`` D >= 0 and denominator ``den`` >= 1 has the
    scale S = a^D * den, and holds a value v as the int tuple V over theta
    of S * v; ``one`` is the tuple of the value 1.  This is exact while v's
    digits (its coefficients in 1, q, q^2, ...) reach degree <= D and are
    multiples of 1/den, since a^D q^i = a^(D-i) theta^i; each caller picks
    D and den for the values it makes.  On a monic base a^D = 1, so the
    depth does not matter.  Sums and int multiples of values are tuple
    sums (``_axpy``); ``mul_q`` is theta*V and one exact division by a
    (none when a = 1), and a digit ``step`` adds s * ``one`` to that: no
    denominator is ever aligned and no Fraction arises.  A zero vector
    represents the real number zero because the minimal polynomial is
    irreducible (input contract).  Every ``sign``, and so every
    ``cmp_fraction``, is exact: the base's sign oracle
    (``_sign_of_reduced``) decides the int polynomial sum V_i a^i q^i,
    refining q only when its enclosure on the current interval contains
    zero; on a rational base (d = 1) the sign is that of V_0.
    ``float_value`` is the midpoint of that exact enclosure on the base
    refined to ``FLOAT_WIDTH``, rounded once.  The polynomial is a positive
    multiple of the value for any scale, so no sign, refinement of the base
    or display float depends on it.  The spectrum engines pack these
    vectors into one int each and carry float enclosures beside them
    (``spectrum._PackedZq``).
    """

    def __init__(self, q: AlgebraicNumber, depth: int = 0, den: int = 1):
        depth, den = _integer(depth, "depth"), _integer(den, "denominator")
        if depth < 0 or den < 1:
            raise PreconditionError("need depth >= 0 and denominator >= 1")
        self.q = q
        *low, a = q.min_poly.coeffs
        self.d, self.lead, self.depth = len(low), a, depth
        self.qd_terms = tuple((i, -c * a ** (self.d - 1 - i))
                              for i, c in enumerate(low) if c)
        self._apow = tuple(a**i for i in range(self.d))    # q^i = theta^i/a^i
        self.one = (a**depth * den,) + (0,) * (self.d - 1)

    def mul_q(self, V):
        return self.step(V, 0)

    def step(self, V, s: int):
        """q*v + s for an int digit s: one digit-append step, for v with
        digits below the context's depth."""
        out, a = self._theta(V), self.lead
        if a != 1:
            out = [x // a for x in out]
        out[0] += s * self.one[0]
        return tuple(out)

    def _theta(self, V) -> list:
        """theta*V as a list, with no division by a."""
        out = [0, *V[:-1]]
        top = V[-1]
        if top:
            for i, t in self.qd_terms:
                out[i] += top * t
        return out

    def from_digits(self, digits):
        """The vector of sum digits[i] * q^i (ascending int digits)."""
        digits = [_integer(s, "digit") for s in digits]
        if self.lead != 1 and len(digits) > self.depth + 1:
            raise PreconditionError(
                f"{len(digits)} digits pass the context's depth {self.depth}")
        acc = (0,) * self.d
        for s in reversed(digits):
            acc = self.step(acc, s)
        return acc

    def sign(self, V) -> int:
        """Sign of v: that of V_0 on a rational base (d = 1), else the
        base's sign oracle on sum V_i a^i q^i."""
        if self.d == 1:
            return (V[0] > 0) - (V[0] < 0)
        if self.lead == 1:
            return self.q._sign_of_reduced(V)
        return self.q._sign_of_reduced([x * p for x, p in zip(V, self._apow)])

    def cmp_fraction(self, V, c) -> int:
        """Sign of v - c for a rational c (an int or a Fraction)."""
        r = c.denominator
        return self.sign((V[0] * r - c.numerator * self.one[0],
                          *(x * r for x in V[1:])))

    def cmp_tail(self, V, m: int) -> int:
        """Sign of v - m/(q-1), the value of m sum_{i>=1} q^-i, as that of
        v*(q-1) - m: exact while v's digits stay below the depth."""
        return self.sign(_axpy(_axpy(self.mul_q(V), -1, V), -m, self.one))

    def _bounds(self, V) -> tuple[int, int, int]:
        """(vlo, vhi, den): v lies in [vlo/den, vhi/den] on the current base
        interval ([V_0, V_0] over ``one``'s entry on a rational base).
        Bounds at one den share units, and stay enclosures as q refines."""
        if self.d == 1:
            return V[0], V[0], self.one[0]
        vlo, vhi, den = self.q._int_interval(
            [x * p for x, p in zip(V, self._apow)])
        return vlo, vhi, self.one[0] * den ** (self.d - 1)

    def float_value(self, V, shift: int = 0) -> float:
        """Display float of v / 2^shift: the midpoint of its exact enclosure
        on the base refined to FLOAT_WIDTH, correctly rounded by one int
        division (a coarser interval's midpoint can be off in the leading
        digits).  Away from underflow, a shift moves only the exponent."""
        self.q.refine_to_width(FLOAT_WIDTH)
        vlo, vhi, den = self._bounds(V)
        return (vlo + vhi) / (2 * den << shift)

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
    evidence, not the label: ``disks.conjugates`` runs at ``budget_bits``
    when the set is first read, on the counts ``classify_base`` left on
    ``evidence_poly``, and the set is kept in the instance's ``__dict__``."""

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
        from .disks import conjugates
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


def power_base(q: AlgebraicNumber, k: int) -> AlgebraicNumber:
    """q^k as a certified algebraic number.

    The defining polynomial is the squarefree part of the monic polynomial
    whose roots are the k-th powers of the roots of q's minimal polynomial
    f: Newton's identities give f's power sums s_1, ..., s_dk, then the
    polynomial whose power sums are s_k, s_2k, ..., s_dk, scaled to
    integers.  It vanishes at q^k, and is the minimal polynomial of q^k
    when f is irreducible.  The checked constructor divides its rational
    roots out.  q is refined until its interval misses 0 and x^k maps it
    onto an interval that isolates q^k.
    """
    k = _integer(k, "exponent")
    if k < 1:
        raise PreconditionError("exponent must be >= 1")
    if k == 1:
        return q
    if q.exact_rational is not None:
        return AlgebraicNumber.from_rational(q.exact_rational ** k)
    *low, a = q.min_poly.coeffs
    d = len(low)
    b = [Fraction(c, a) for c in low]          # f/a = x^d + sum b_i x^i
    # s_j = -(sum of b_(d-i) s_(j-i) over 0 < i < j, i <= d) - j b_(d-j),
    # the last term for j <= d only
    s = [None]
    for j in range(1, d * k + 1):
        s.append(-sum(b[d - i] * (s[j - i] if i < j else j)
                      for i in range(1, min(j, d) + 1)))
    # the power polynomial's descending coefficients: h_0 = 1 and
    # j h_j = -(sum of h_(j-i) s_(ik) over 0 < i <= j)
    h = [Fraction(1)]
    for j in range(1, d + 1):
        h.append(-sum(h[j - i] * s[i * k] for i in range(1, j + 1)) / j)
    den = math.lcm(*(c.denominator for c in h))
    defining = squarefree_part(IntPolynomial(int(c * den) for c in h[::-1]))
    while True:
        lo, hi = q.interval()
        if not lo < 0 < hi:             # x^k is monotone on (lo, hi)
            try:
                return AlgebraicNumber(defining, *sorted((lo**k, hi**k)))
            except PreconditionError:       # it does not isolate q^k yet
                pass
        q.refine_to_width((hi - lo) / 4)
