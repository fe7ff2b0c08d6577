"""Exact univariate integer polynomials.

Coefficients are stored in ascending order (constant term first), matching
the digit-indexing convention used throughout the package and the CLI text
format "c0,c1,...,cd".  All polynomial algebra is over the integers: gcds,
squarefree parts and Sturm chains come from primitive pseudo-remainder
sequences (one per input for the squarefree part and its Sturm chain),
and known factors are divided out exactly, a rational root at the point
cell that isolation returns for it.  Signs, Sturm counts, isolation and
bisection run on int numerators over one denominator; Fractions appear
only at their API boundary.  No floating point is used.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError
from .records import FrozenRecord


def _show(x) -> str:
    """x for a message: str() of an int or a Fraction, repr() of anything
    else.  Past Python's 4,300-digit int-to-str limit, a number is its sign
    and nearest power of ten, anything else its type."""
    try:
        return str(x) if isinstance(x, (int, Fraction)) else repr(x)
    except ValueError:
        if not isinstance(x, (int, Fraction)):
            return f"<{type(x).__name__} too long to show>"
        e = math.log10(abs(x.numerator)) - math.log10(x.denominator)
        return f"{'-' if x < 0 else ''}~1e{round(e)}"


def _integer(c, name: str = "coefficient") -> int:
    """c as an int; int(c) alone would truncate a Fraction or a float.  An
    integral float or Fraction is taken, anything else is a
    PreconditionError naming c as ``name``."""
    try:
        if int(c) == c:
            return int(c)
    except (TypeError, ValueError, OverflowError):
        pass
    raise PreconditionError(f"{name} {_show(c)} is not an integer")


def _rational(x) -> Fraction:
    """x as a Fraction; an infinite or NaN float, or any other value with
    no exact rational, raises PreconditionError."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise PreconditionError(
            f"{_show(x)} is not a finite rational") from None


def _strip(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPolynomial(FrozenRecord):
    """Integer polynomial c0 + c1*x + ... + cd*x^d with cd != 0 (or the
    zero polynomial, stored as an empty coefficient tuple ``coeffs``).
    Equal and hashed by ``coeffs``; its ``__dict__`` also holds what
    ``squarefree_part`` (the Sturm chain of a squarefree result),
    ``unit_circle_counts`` and ``_may_have_rational_root`` keep."""

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _strip(      # hot: no field loop
            [c if type(c) is int else _integer(c) for c in coeffs]))

    @classmethod
    def _of(cls, coeffs: tuple[int, ...]) -> "IntPolynomial":
        """The polynomial of a tuple of ints already stripped, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    # -- construction / formatting -------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        """Parse the CLI format: comma-separated integers, ascending degree,
        e.g. "-1,-1,0,1" for x^3 - x - 1."""
        try:
            coeffs = [int(part.strip()) for part in text.split(",")]
        except ValueError as exc:
            raise PreconditionError(f"cannot parse polynomial {text!r}: {exc}") from None
        return cls(coeffs)

    def to_text(self) -> str:
        try:
            return ",".join(str(c) for c in (self.coeffs or (0,)))
        except ValueError:      # str() refuses an int over 4,300 digits
            raise PreconditionError("coefficient too long to print") from None

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

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive(self) -> "IntPolynomial":
        """Divide out the content; normalize the leading coefficient > 0.
        A polynomial already so is returned itself, with the chain it
        keeps."""
        if self.is_zero:
            return self
        g = self.content() * (1 if self.coeffs[-1] > 0 else -1)
        return self if g == 1 else IntPolynomial(c // g for c in self.coeffs)


# -- integer evaluation and division helpers (internal) ------------------


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


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p'), primitive with positive leading coefficient.

    The Sturm chain of p ends in gcd(p, p') up to a constant (Basu, Pollack
    and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).  If that is a
    constant, p is squarefree and the chain is already the squarefree
    part's; otherwise the quotient gets a chain of its own.  The result
    keeps its chain (``sturm_chain``), which also marks it squarefree."""
    if "_sturm" in p.__dict__:
        return p
    chain = _sturm_chain_of(p)
    if chain[-1].degree > 0:
        chain = _sturm_chain_of(IntPolynomial(
            _exact_quo(p.coeffs, chain[-1].primitive().coeffs)))
    chain[0].__dict__["_sturm"] = chain
    return chain[0]


def is_squarefree(p: IntPolynomial) -> bool:
    return not p.is_zero and squarefree_part(p).degree == p.degree


def _has_root_mod(cs, p: int) -> bool:
    """Whether the polynomial with int coefficients cs has a root in F_p."""
    cs = [c % p for c in reversed(cs)]
    for x in range(p):
        acc = 0
        for c in cs:
            acc = (acc * x + c) % p
        if not acc:
            return True
    return False


def _may_have_rational_root(sf: IntPolynomial) -> bool:
    """False when a prime p < 50 that does not divide lc(sf) leaves sf with
    no root in F_p, so with no rational root: a root n/d in lowest terms
    has d | lc(sf), so n/d mod p is a root (the per-prime step of Musser's
    degree sieve, J. ACM 25, 1978).  Kept on sf (``_rational``)."""
    if "_rational" not in sf.__dict__:
        cs = sf.coeffs
        sf.__dict__["_rational"] = all(cs[-1] % p == 0 or _has_root_mod(cs, p)
                                       for p in (2, 3, 5, 7, 11, 13, 17, 19,
                                                 23, 29, 31, 37, 41, 43, 47))
    return sf.__dict__["_rational"]


def _split_rational_roots(sf: IntPolynomial, cells=None
                          ) -> tuple[list[Fraction], IntPolynomial]:
    """(rational roots as Fractions, ascending; sf with them divided out)
    of a squarefree primitive sf: the point cells (n, n, d) among its
    ``cells`` of ``isolate_roots_exact``, made here unless the mod-p screen
    rules the roots out.  A root n/d, in lowest terms, is divided out by
    the primitive d*x - n, which leaves an integral, primitive quotient
    (Gauss's lemma); with none, sf."""
    if cells is None:
        if not _may_have_rational_root(sf):
            return [], sf
        cells = isolate_roots_exact(sf)
    points = [(n, d) for n, b, d in cells if n == b]
    cs = sf.coeffs
    for n, d in points:
        cs = _exact_quo(cs, (-n, d))
    return ([Fraction(n, d) for n, d in points],
            IntPolynomial(cs) if points else sf)


# -- root bounds, Sturm chains, isolation ---------------------------------


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """All complex roots have modulus < this bound."""
    if p.degree < 1:
        raise PreconditionError("need degree >= 1")
    lead = abs(p.leading)
    return Fraction(lead + max(map(abs, p.coeffs[:-1])), lead)


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of the squarefree part of p: the one that
    ``squarefree_part`` built and keeps on that part."""
    return squarefree_part(p).__dict__["_sturm"]


def _sturm_chain_of(f: IntPolynomial, g: IntPolynomial | None = None
                    ) -> list[IntPolynomial]:
    """Generalized Sturm sequence: f, g, then the primitive part of -prem of
    the last two, with its sign kept, until a remainder vanishes.  Its sign
    variations V(lo) - V(hi) are the Cauchy index of g/f on (lo, hi).
    Without g it is the Sturm chain of f: f made primitive, then f'; it
    ends in gcd(f, f') up to a constant."""
    if g is None:
        f = f.primitive()
        g = f.derivative()
    chain = [f, g]
    a, b = f.coeffs, g.coeffs
    while len(b) > 1 and (r := _prem(a, b)):
        a, b = b, tuple(_prim([-c for c in r]))
        chain.append(IntPolynomial._of(b))
    return chain


def _sign_variations(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _variations_at(chain, num: int, den: int) -> int | None:
    """Sign variations of a Sturm chain at num/den, den > 0; None when
    num/den is a root of its first member."""
    signs = [_sign(f.coeffs, num, den) for f in chain]
    return _sign_variations(signs) if signs[0] else None


def _taylor_shift(cs, a: int) -> list[int]:
    """Coefficients of f(x + a) from those of f."""
    cs = list(cs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return cs


def _variations_at_infinity(chain, sign: int) -> int:
    """Sign variations of the chain at +infinity (sign 1) or -infinity."""
    return _sign_variations([f.coeffs[-1] if sign > 0 or len(f.coeffs) % 2
                             else -f.coeffs[-1] for f in chain if f.coeffs])


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
    the root z = 1, if any.  The counts are kept on p (``_circle``), the
    way ``squarefree_part`` keeps its chain, so p is counted once.
    """
    if "_circle" in p.__dict__:
        return p.__dict__["_circle"]
    d = p.degree
    if d < 1:
        return (0, 0, 0)
    r = _taylor_shift(p.coeffs, 1)                    # p(1 + t)
    g = _strip(_taylor_shift([r[d - j] << (d - j) for j in range(d + 1)],
                             -1))
    a = IntPolynomial._of(_strip([c if j % 4 == 0 else -c if j % 4 == 2
                                  else 0 for j, c in enumerate(g)]))
    b = IntPolynomial._of(_strip([c if j % 4 == 1 else -c if j % 4 == 3
                                  else 0 for j, c in enumerate(g)]))
    sign = 1 if a.degree > b.degree else -1
    chain = _sturm_chain_of(a, b) if sign > 0 else _sturm_chain_of(b, a)
    index = sign * (_variations_at_infinity(chain, -1)
                    - _variations_at_infinity(chain, 1))
    h = chain[-1] if not chain[-1].is_zero else chain[-2]        # gcd(A, B)
    h_chain = _sturm_chain_of(h) if h.degree > 0 else []   # else n_axis = 0
    n_axis = (_variations_at_infinity(h_chain, -1)
              - _variations_at_infinity(h_chain, 1))
    n_in = (len(g) - 1 - n_axis - index) // 2
    n_on = n_axis + (len(g) <= d)     # p(1) = 0: z = 1 went to infinity
    return p.__dict__.setdefault("_circle", (n_in, n_on, d - n_in - n_on))


def isolate_roots_exact(p: IntPolynomial, above: int | None = None
                        ) -> list[tuple[int, int, int]]:
    """Disjoint int cells (a, b, den), den > 0, ascending, one per real root
    of p, each reduced by gcd(a, b, den): a rational root r as the point
    cell a == b, r = a/den in lowest terms, an irrational root as the open
    interval (a/den, b/den) isolating it, whose ends are not roots.  They
    cover the real roots past ``above`` (all of them if p may have a
    rational root).

    One bisection of the squarefree part sf on its kept Sturm chain, from
    +-``cauchy_root_bound(sf)``: no root lies beyond, so the chain varies
    there as at +-infinity.  A cell carries the sign variations at its
    ends, so a split evaluates the chain at its midpoint only, and no point
    twice.  If the mod-p screen (``_may_have_rational_root``) finds no
    rational root, a cell of one root is done and a cell with no point past
    ``above`` is dropped.  Otherwise the bisection also finds the rational
    roots.  A split point that is a root is one; the cell is split at the
    ends of a bracket isolating it.  Every other root is alone in its cell,
    and a rational root r of the primitive sf has a denominator dividing
    L = lc(sf), so L*r is an integer: a copy of the cell bisected in ints
    (``_bisect``) to width <= 1/L holds at most one multiple of 1/L, and r
    is rational iff that multiple is a root.  No Fraction is made.
    """
    if p.is_zero:
        raise PreconditionError("zero polynomial rejected")
    if p.degree < 1:
        return []
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    cs, lead = sf.coeffs, sf.leading
    rational = _may_have_rational_root(sf)
    above = None if rational else above    # every rational root is wanted
    bn, bd = cauchy_root_bound(sf).as_integer_ratio()
    cells: list[tuple[int, int, int]] = []      # descending, the right first
    stack = [(-bn, bn, bd, _variations_at_infinity(chain, -1),
              _variations_at_infinity(chain, 1))]
    while stack:
        # the cell (a/den, b/den), with the variations va, vb at its ends
        a, b, den, va, vb = stack.pop()
        n = va - vb
        if not n or above is not None and b <= above * den:
            continue
        m, e = a + b, b - a                       # the midpoint m/(2 den)
        if n == 1:
            if rational and a < b:          # a == b: a bracketed root
                ra, rb, rd = _bisect(cs, a, b, den, 1, lead)
                k = ra * lead // rd + 1                         # r = k/lead
                if k * rd < rb * lead and _sign(cs, k, lead) == 0:
                    a, b, den = k, k, lead
            g = math.gcd(a, b, den)
            cells.append((a // g, b // g, den // g))
        elif (vm := _variations_at(chain, m, 2 * den)) is None:
            # bracket the root by m/den +- e/den, halving until it isolates
            a, b, m, den = 4 * a, 4 * b, 2 * m, 4 * den
            while ((vl := _variations_at(chain, m - e, den)) is None
                   or (vr := _variations_at(chain, m + e, den)) is None
                   or vl - vr != 1):
                a, b, m, den = 2 * a, 2 * b, 2 * m, 2 * den
            # the point cell waits on the stack between its two sides
            stack += [(a, m - e, den, va, vl), (m, m, den, 1, 0),
                      (m + e, b, den, vr, vb)]
        else:
            stack += [(2 * a, m, 2 * den, va, vm), (m, 2 * b, 2 * den, vm, vb)]
    return cells[::-1]


def _bisect(cs, a: int, b: int, den: int, wn: int, wd: int
            ) -> tuple[int, int, int]:
    """Bisect (a/den, b/den), den > 0, an isolating interval of a root of
    the squarefree polynomial with coefficients cs, to width <= wn/wd > 0,
    in ints.  Its endpoint signs must be nonzero and differ.  A split point
    m that is a root gives m -+ wn/(4 wd).  Reduced by gcd(a, b, den)."""
    if wn <= 0:
        raise PreconditionError(
            f"width {_show(Fraction(wn, wd))} is not positive")
    slo, shi = _sign(cs, a, den), _sign(cs, b, den)
    if slo == 0 or shi == 0:
        raise PreconditionError("endpoint is a root")
    if slo == shi:
        raise PreconditionError("interval does not bracket a sign change")
    gap, wn_den = b - a, wn * den
    while gap * wd > wn_den:                # wider than wn/wd, at (a, a + gap)
        a, den, wn_den = 2 * a, 2 * den, 2 * wn_den
        sm = _sign(cs, a + gap, den)
        if sm == 0:
            # rational root hit exactly; return a tight bracket around it
            m, den = 4 * wd * (a + gap), 4 * wd * den
            a, b = m - wn_den, m + wn_den
            break
        if sm == slo:
            a += gap
    else:
        b = a + gap
    g = math.gcd(a, b, den)
    return a // g, b // g, den // g
