"""Exact univariate integer polynomials.

Coefficients are stored in ascending order (constant term first), matching
the digit-indexing convention used throughout the package and the CLI text
format "c0,c1,...,cd".  All arithmetic is exact (int / Fraction); nothing in
this module touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


def _strip(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial c0 + c1*x + ... + cd*x^d with cd != 0 (or the
    zero polynomial, stored as an empty coefficient tuple)."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _strip(int(c) for c in coeffs))

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
        x = Fraction(x)
        num, den = x.numerator, x.denominator
        # sum c_i num^i den^(d-i); shares the sign of p(x) since den > 0
        acc = 0
        power = 1
        dpow = den ** max(self.degree, 0)
        for c in self.coeffs:
            acc += c * power * dpow
            power *= num
            if dpow:
                dpow //= den
        return (acc > 0) - (acc < 0)

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


# -- rational-coefficient helpers (internal) ------------------------------


def _frac_divmod(num: list[Fraction], den: list[Fraction]):
    """Quotient/remainder of Fraction coefficient lists (ascending)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(num) - dd, 0)
    while len(num) - 1 >= dd and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dd:
            break
        shift = len(num) - 1 - dd
        factor = num[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def poly_divmod_exact(a: IntPolynomial, b: IntPolynomial):
    """(q, r) with a = q*b + r over Q, returned as Fraction lists."""
    if b.is_zero:
        raise PreconditionError("division by the zero polynomial")
    return _frac_divmod([Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs])


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive integer gcd (positive leading coefficient) over Q."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while any(fb):
        _, r = _frac_divmod(fa, fb)
        fa, fb = fb, r
    if not any(fa):
        return IntPolynomial(())
    den = math.lcm(*(f.denominator for f in fa))
    return IntPolynomial(int(f * den) for f in fa).primitive()


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    if p.degree < 1:
        return p.primitive()
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    quot, rem = _frac_divmod([Fraction(c) for c in p.coeffs], [Fraction(c) for c in g.coeffs])
    assert not any(rem)
    den = math.lcm(*(f.denominator for f in quot))
    return IntPolynomial(int(f * den) for f in quot).primitive()


def is_squarefree(p: IntPolynomial) -> bool:
    if p.degree < 1:
        return not p.is_zero
    return poly_gcd(p, p.derivative()).degree == 0


def deflate_root(p: IntPolynomial, root: Fraction) -> IntPolynomial:
    """Exact division of p by (x - root) for a known rational root."""
    quot, rem = _frac_divmod(
        [Fraction(c) for c in p.coeffs], [-Fraction(root), Fraction(1)]
    )
    if any(rem):
        raise PreconditionError(f"{root} is not a root")
    den = math.lcm(*(f.denominator for f in quot))
    return IntPolynomial(int(f * den) for f in quot)


def rational_roots(p: IntPolynomial) -> list[Fraction]:
    """All rational roots, ascending, via the rational root theorem."""
    if p.is_zero:
        raise PreconditionError("zero polynomial")
    roots = []
    coeffs = list(p.coeffs)
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.append(Fraction(0))
    q = IntPolynomial(coeffs)
    if q.degree >= 1:
        c0, cd = abs(q.coeffs[0]), abs(q.coeffs[-1])
        for num in _divisors(c0):
            for den in _divisors(cd):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if q.sign_at(cand) == 0 and cand not in roots:
                        roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def irreducibility_screen(p: IntPolynomial) -> str:
    """Cheap screen only: 'reducible', 'irreducible' (certain for degree<=3
    primitive polynomials with no rational root), or 'unknown'."""
    if p.degree <= 0:
        return "reducible"
    if p.degree == 1:
        return "irreducible"
    prim = p.primitive()
    if prim.content() != 1:
        return "unknown"
    if rational_roots(prim):
        return "reducible"
    if p.degree <= 3:
        return "irreducible"
    return "unknown"


# -- root bounds, Sturm chains, isolation ---------------------------------


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """All complex roots have modulus < this bound."""
    if p.degree < 1:
        raise PreconditionError("need degree >= 1")
    lead = abs(p.coeffs[-1])
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1]) if p.degree else Fraction(1)


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of the squarefree part of p."""
    f = squarefree_part(p)
    chain = [f, f.derivative()]
    while not chain[-1].is_zero and chain[-1].degree >= 0:
        _, rem = _frac_divmod(
            [Fraction(c) for c in chain[-2].coeffs],
            [Fraction(c) for c in chain[-1].coeffs],
        )
        if not any(rem):
            break
        den = math.lcm(*(f.denominator for f in rem))
        nxt = IntPolynomial(int(-f * den) for f in rem)
        # normalize magnitude to keep coefficients small; sign pattern is
        # what matters, and dividing by a positive content preserves it
        chain.append(nxt.scale(1) if nxt.is_zero else IntPolynomial(
            c // nxt.content() for c in nxt.coeffs))
        if chain[-1].degree == 0:
            break
    return chain


def _sign_variations(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_roots_in(p: IntPolynomial, lo: Fraction, hi: Fraction,
                   chain: list[IntPolynomial] | None = None) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Endpoints must not be roots of the squarefree part.
    """
    if lo >= hi:
        return 0
    chain = chain or sturm_chain(p)
    if chain[0].sign_at(lo) == 0 or chain[0].sign_at(hi) == 0:
        raise PreconditionError("interval endpoint is a root")
    va = _sign_variations([f.sign_at(lo) for f in chain])
    vb = _sign_variations([f.sign_at(hi) for f in chain])
    return va - vb


def isolate_roots_exact(p: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, ascending, each containing exactly
    one real root of p; their union covers all real roots.

    Rational roots are detected exactly; their intervals are centered on the
    root.  Every returned interval contains exactly one root of the
    squarefree part of p.
    """
    if p.is_zero:
        raise PreconditionError("zero polynomial")
    if p.degree < 1:
        return []
    sf = squarefree_part(p)
    rat = rational_roots(sf)
    g = sf
    for r in rat:
        g = deflate_root(g, r)

    # bisection cells for the irrational roots; g has no rational roots, so
    # rational bisection points are never roots of g
    g_intervals: list[tuple[Fraction, Fraction]] = []
    if g.degree >= 1:
        chain = sturm_chain(g)
        bound = cauchy_root_bound(g)
        stack = [(-bound, bound)]
        while stack:
            lo, hi = stack.pop()
            n = count_roots_in(g, lo, hi, chain)
            if n == 0:
                continue
            if n == 1:
                g_intervals.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            stack.append((lo, mid))
            stack.append((mid, hi))
        # push each cell away from any rational root of sf it still contains,
        # an endpoint included: a root on a cell edge would leave no room
        # for its own bracket below
        for i, (lo, hi) in enumerate(g_intervals):
            while any(lo <= r <= hi for r in rat):
                lo, hi = refine_root_interval(g, lo, hi, (hi - lo) / 2)
            g_intervals[i] = (lo, hi)

    intervals = list(g_intervals)
    chain_sf = sturm_chain(sf) if rat else None
    for r in rat:
        eps = Fraction(1, 2)
        while (sf.sign_at(r - eps) == 0 or sf.sign_at(r + eps) == 0
               or count_roots_in(sf, r - eps, r + eps, chain_sf) != 1
               or any(lo < r - eps < hi or lo < r + eps < hi
                      for lo, hi in g_intervals)):
            eps /= 2
        intervals.append((r - eps, r + eps))
    intervals.sort()
    # disjoint g-cells + shrunken rational brackets: overlaps only possible
    # between adjacent pairs sharing a g-cell edge; resolve by halving
    for i in range(len(intervals) - 1):
        while intervals[i][1] > intervals[i + 1][0]:
            lo, hi = intervals[i]
            intervals[i] = refine_root_interval(sf, lo, hi, (hi - lo) / 2)
            lo, hi = intervals[i + 1]
            intervals[i + 1] = refine_root_interval(sf, lo, hi, (hi - lo) / 2)
    return intervals


def refine_root_interval(p: IntPolynomial, lo: Fraction, hi: Fraction,
                         width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect an isolating interval of a squarefree p down to the given
    width.  Requires p(lo), p(hi) != 0 and exactly one root inside; then
    the endpoint signs differ, and plain bisection applies."""
    slo = p.sign_at(lo)
    shi = p.sign_at(hi)
    if slo == 0 or shi == 0:
        raise PreconditionError("endpoint is a root")
    if slo == shi:
        raise PreconditionError("interval does not bracket a sign change")
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = p.sign_at(mid)
        if sm == 0:
            # rational root hit exactly; return a tight bracket around it
            w = min(width, hi - lo) / 4
            return (mid - w, mid + w)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)
