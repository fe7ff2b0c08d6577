"""Exact polynomial kernel tests.

The isolation tests check against an independent float bisection oracle
(sampling sign changes on a fine grid), never against the Sturm machinery
they exercise.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from qspectra import intpoly
from qspectra.errors import PreconditionError
from qspectra.intpoly import (
    IntPolynomial,
    _prem,
    cauchy_root_bound,
    count_roots_in,
    deflate_root,
    is_squarefree,
    isolate_roots_exact,
    poly_gcd,
    rational_roots,
    refine_root_interval,
    squarefree_part,
    sturm_chain,
)


def bisection_oracle(coeffs, lo=-64.0, hi=64.0, grid=200_000, tol=1e-12):
    """Float roots of an integer polynomial via grid scan + bisection."""

    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    roots = []
    step = (hi - lo) / grid
    x = lo
    fx = f(x)
    for _ in range(grid):
        y = x + step
        fy = f(y)
        if fx == 0.0:
            roots.append(x)
        elif fx * fy < 0:
            a, b = x, y
            for _ in range(200):
                m = 0.5 * (a + b)
                if f(a) * f(m) <= 0:
                    b = m
                else:
                    a = m
                if b - a < tol:
                    break
            roots.append(0.5 * (a + b))
        x, fx = y, fy
    return roots


def test_parse_and_format_round_trip():
    p = IntPolynomial.from_text("-1,-1,0,1")
    assert p.coeffs == (-1, -1, 0, 1)
    assert p.degree == 3
    assert p.to_text() == "-1,-1,0,1"
    assert p.is_monic


def test_parse_rejects_garbage():
    with pytest.raises(PreconditionError):
        IntPolynomial.from_text("1,phi,3")


@pytest.mark.parametrize("coeffs", [
    [Fraction(1, 2), 1], [1.5, -1.9, 1], [1, float("nan")], [float("inf")],
    ["3", 1], [None]])
def test_non_integer_coefficients_are_rejected(coeffs):
    # int() would truncate 1/2 to 0 and 1.5 to 1 without a word
    with pytest.raises(PreconditionError, match="not an integer"):
        IntPolynomial(coeffs)


def test_integral_coefficients_of_any_type_are_accepted():
    p = IntPolynomial([Fraction(-4, 2), 0.0, 3.0, True])
    assert p.coeffs == (-2, 0, 3, 1)
    assert all(type(c) is int for c in p.coeffs)


def test_sign_at_matches_fraction_eval():
    rng = random.Random(7)
    for _ in range(200):
        p = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        v = p.eval_fraction(x)
        assert p.sign_at(x) == (v > 0) - (v < 0)
    # the zero polynomial and degrees 0-12, at 0, negative, integer and huge
    # rational points (numerators and denominators above 2^200), roots too
    rng = random.Random("sign-at")
    big = 2**200 + 12345
    points = [0, -3, 7, Fraction(0), Fraction(-5), Fraction(-7, 2),
              Fraction(big), Fraction(-big), Fraction(1, big),
              Fraction(-big - 2, big + 7), Fraction(big * 3 + 1, big - 1)]
    points += [Fraction(rng.randint(-big, big), rng.randint(1, big))
               for _ in range(6)]
    polys = [IntPolynomial(())]
    for d in range(13):
        for h in (1, 9, big):
            cs = [rng.randint(-h, h) for _ in range(d)]
            polys.append(IntPolynomial(cs + [rng.choice((-h, -1, 1, h))]))
    for x in points[3:9]:                         # a factor with root x
        polys.append(polys[-1] * IntPolynomial([-x.numerator, x.denominator]))
    for p in polys:
        for x in points:
            v = p.eval_fraction(Fraction(x))
            assert p.sign_at(x) == (v > 0) - (v < 0), (p, x)


def test_gcd_and_squarefree():
    x_minus_1 = IntPolynomial([-1, 1])
    x_plus_2 = IntPolynomial([2, 1])
    p = x_minus_1 * x_minus_1 * x_plus_2
    assert not is_squarefree(p)
    assert squarefree_part(p) == x_minus_1 * x_plus_2
    assert poly_gcd(p, x_minus_1) == x_minus_1
    assert is_squarefree(IntPolynomial([-1, -1, 0, 1]))


def test_rational_roots_and_deflation():
    # (x - 2)(2x + 3)(x^2 + 1)
    p = IntPolynomial([-2, 1]) * IntPolynomial([3, 2]) * IntPolynomial([1, 0, 1])
    roots = rational_roots(p)
    assert roots == [Fraction(-3, 2), Fraction(2)]
    q = deflate_root(p, Fraction(2))
    assert q.sign_at(Fraction(-3, 2)) == 0


def test_isolate_fibonacci_poly_against_bisection_oracle():
    p = IntPolynomial([-1, -1, 1])  # x^2 - x - 1
    intervals = isolate_roots_exact(p)
    oracle = bisection_oracle(p.coeffs)
    assert len(intervals) == len(oracle) == 2
    for (lo, hi), r in zip(intervals, oracle):
        lo, hi = refine_root_interval(p, lo, hi, Fraction(1, 10**14))
        assert lo < Fraction(r).limit_denominator(10**10) < hi or abs(float(lo) - r) < 1e-12


def test_isolate_linear_exact():
    p = IntPolynomial([-2, 1])
    (lo, hi), = isolate_roots_exact(p)
    assert lo < 2 < hi


def test_isolate_plastic_poly():
    p = IntPolynomial([-1, -1, 0, 1])  # x^3 - x - 1, one real root ~1.3247
    intervals = isolate_roots_exact(p)
    assert len(intervals) == 1
    lo, hi = refine_root_interval(p, *intervals[0], Fraction(1, 10**13))
    root = bisection_oracle(p.coeffs)[0]
    assert abs((float(lo) + float(hi)) / 2 - root) < 1e-12
    assert abs(root - 1.3247) < 5e-5


@pytest.mark.parametrize("coeffs", [
    (-2, 0, 1),            # +-sqrt(2)
    (-1, 0, 0, 0, 0, 0, -1, 0, 1),  # x^8 - x^6 - 1
    (-1, 0, 0, -1, 1),     # x^4 - x^3 - 1
    (6, -5, -2, 1),        # (x-3)(x-... ) mixed rational/irrational
    (0, -1, 0, 1),         # x^3 - x = x(x-1)(x+1), all rational
])
def test_isolation_count_and_disjointness_vs_oracle(coeffs):
    p = IntPolynomial(coeffs)
    intervals = isolate_roots_exact(p)
    oracle = bisection_oracle(list(coeffs))
    assert len(intervals) == len(oracle)
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert hi1 <= lo2
    for (lo, hi), r in zip(intervals, oracle):
        assert float(lo) - 1e-9 <= r <= float(hi) + 1e-9


def test_isolation_terminates_when_a_rational_root_meets_a_cell_edge(
        deadline):
    # x^4-x^2-x+1 = (x-1)(x^3+x^2-1): bisection puts the root 1 on the edge
    # of the cell of the cubic's root, which once made isolation loop
    # forever; the sweep covers every squarefree monic quartic of height 1
    checked = 0
    with deadline(30):
        for head in itertools.product((-1, 0, 1), repeat=4):
            p = IntPolynomial(head + (1,))
            if head[0] == 0 or not is_squarefree(p):
                continue
            intervals = isolate_roots_exact(p)
            for lo, hi in intervals:
                assert p.sign_at(lo) != 0 and p.sign_at(hi) != 0
                assert count_roots_in(p, lo, hi) == 1
            bound = cauchy_root_bound(p)
            assert len(intervals) == count_roots_in(p, -bound, bound)
            checked += 1
    assert checked == 52
    assert len(isolate_roots_exact(IntPolynomial([1, -1, -1, 0, 1]))) == 2


def test_random_products_isolation_matches_oracle():
    # x puts a rational root on the first split point (0); 3/2 and 1/3 are
    # rational roots that no split point meets; the quadratic factors keep
    # irrational roots beside them
    rng = random.Random(2024)
    extra = [(), ((0, 1),), ((-3, 2), (-1, 3)), ((0, 1), (-3, 2), (-1, 3))]
    for i in range(25):
        # build squarefree-ish products of small distinct linear/quadratic factors
        p = IntPolynomial([1])
        used = set()
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(-5, 5)
            if a in used:
                continue
            used.add(a)
            p = p * IntPolynomial([-a, 1])
        p = p * IntPolynomial([rng.randint(1, 4), 0, 1])  # irreducible quadratic
        p = p * IntPolynomial([-rng.randint(2, 3), 0, 1])   # x^2 - 2, x^2 - 3
        for factor in extra[i % 4]:
            p = p * IntPolynomial(factor)
        if not is_squarefree(p):
            continue
        intervals = isolate_roots_exact(p)
        oracle = bisection_oracle(p.coeffs)
        assert len(intervals) == len(oracle)
        for (lo, hi), r in zip(intervals, oracle):
            assert lo < hi and float(lo) - 1e-9 <= r <= float(hi) + 1e-9
            assert p.sign_at(lo) != 0 and p.sign_at(hi) != 0
        assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
        want = sorted({Fraction(a) for a in used}
                      | {Fraction(-c0, c1) for c0, c1 in extra[i % 4]})
        assert rational_roots(p) == want
        assert [(lo + hi) / 2 for lo, hi in intervals
                if p.sign_at((lo + hi) / 2) == 0] == want


def test_count_roots_in_open_interval():
    p = IntPolynomial([-2, 0, 1])
    assert count_roots_in(p, Fraction(0), Fraction(2)) == 1
    assert count_roots_in(p, Fraction(-2), Fraction(2)) == 2
    assert count_roots_in(p, Fraction(3), Fraction(4)) == 0


def test_polynomials_compare_and_hash_by_their_coefficients():
    p = IntPolynomial([-1, -1, 0, 1, 0])         # the top zero is stripped
    q = IntPolynomial((-1, -1, 0, 1))
    assert p == q and p is not q and hash(p) == hash(q) == hash((q.coeffs,))
    assert {p: "plastic"}[q] == "plastic"
    assert p != IntPolynomial([-1, 1, 0, 1]) and p != (-1, -1, 0, 1)
    assert repr(p) == "IntPolynomial(coeffs=(-1, -1, 0, 1))"
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    assert p.coeffs == (-1, -1, 0, 1)


def test_reciprocal():
    p = IntPolynomial([-1, -1, 0, 1])
    assert p.reciprocal().coeffs == (1, 0, -1, -1)
    assert IntPolynomial([1, 0, 1]).reciprocal() == IntPolynomial([1, 0, 1])


# -- the integer PRS layer against the Fraction division it replaced -------


def _frac_divmod(num, den):
    """Quotient and remainder of ascending Fraction coefficient lists."""
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


def _fracs(p):
    return [Fraction(c) for c in p.coeffs]


def _cleared(fracs):
    den = math.lcm(*(f.denominator for f in fracs))
    return IntPolynomial(int(f * den) for f in fracs)


def _reference_gcd(a, b):
    fa, fb = _fracs(a), _fracs(b)
    while any(fb):
        _, r = _frac_divmod(fa, fb)
        fa, fb = fb, r
    if not any(fa):
        return IntPolynomial(())
    return _cleared(fa).primitive()


def _reference_squarefree_part(p):
    if p.degree < 1:
        return p.primitive()
    g = _reference_gcd(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    quot, rem = _frac_divmod(_fracs(p), _fracs(g))
    assert not any(rem)
    return _cleared(quot).primitive()


def _reference_sturm_chain(p):
    f = _reference_squarefree_part(p)
    chain = [f, f.derivative()]
    while not chain[-1].is_zero:
        _, rem = _frac_divmod(_fracs(chain[-2]), _fracs(chain[-1]))
        if not any(rem):
            break
        nxt = _cleared([-r for r in rem])
        chain.append(IntPolynomial(c // nxt.content() for c in nxt.coeffs))
        if chain[-1].degree == 0:
            break
    return chain


def _reference_deflate_root(p, root):
    quot, rem = _frac_divmod(_fracs(p), [-Fraction(root), Fraction(1)])
    assert not any(rem)
    return _cleared(quot)


def _prs_corpus():
    """Every monic height-1 polynomial of degree 2 to 6, 300 seeded
    non-monic ones of degree 3 to 12 and height up to 3, and hand-picked
    non-primitive and negative-leading inputs."""
    out = [IntPolynomial([*tail, 1]) for d in range(2, 7)
           for tail in itertools.product((-1, 0, 1), repeat=d)]
    rng = random.Random("prs")
    for _ in range(300):
        h = rng.randint(1, 3)
        lead = rng.choice([c for c in range(-h, h + 1) if c])
        out.append(IntPolynomial(
            [rng.randint(-h, h) for _ in range(rng.randint(3, 12))] + [lead]))
    x_minus_1 = IntPolynomial([-1, 1])
    out += [
        IntPolynomial([-6, -6, 6]),                        # 6(x^2 - x - 1)
        IntPolynomial([4, 0, -8]) * x_minus_1 * x_minus_1,   # content 4
        IntPolynomial([1, 1, 0, -1]),                      # -(x^3 - x - 1)
        IntPolynomial([3, -2, 1, 0, -5]) * IntPolynomial([1, 2, -3]),
    ]
    return out


PRS_CORPUS = _prs_corpus()


def test_prs_gcd_squarefree_and_sturm_equal_the_fraction_reference():
    for p in PRS_CORPUS:
        for other in (p.reciprocal(), p.derivative()):
            assert poly_gcd(p, other) == _reference_gcd(p, other), p
        assert squarefree_part(p) == _reference_squarefree_part(p), p
        assert sturm_chain(p) == _reference_sturm_chain(p), p


def test_deflation_equals_the_fraction_reference():
    p = IntPolynomial([1, -3, 2])                          # 2x^2 - 3x + 1
    assert deflate_root(p, Fraction(1, 2)) == IntPolynomial([-2, 2])
    assert deflate_root(p, Fraction(1)) == IntPolynomial([-1, 2])
    with pytest.raises(PreconditionError):
        deflate_root(p, Fraction(3, 7))
    for f in PRS_CORPUS:
        for r in rational_roots(f):
            assert deflate_root(f, r) == _reference_deflate_root(f, r), (f, r)


def test_gcd_of_zero_and_constant_inputs():
    zero, p = IntPolynomial(()), IntPolynomial([2, -4, 6])
    assert poly_gcd(zero, zero) == zero
    assert poly_gcd(p, zero) == poly_gcd(zero, p) == IntPolynomial([1, -2, 3])
    assert poly_gcd(p, IntPolynomial([-5])) == IntPolynomial([1])


def test_pseudo_remainder_is_a_positive_multiple_of_the_remainder():
    rng = random.Random("prem")
    for _ in range(200):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
        b[-1] = b[-1] or rng.choice((-3, -1, 2))
        a, b = IntPolynomial(a), IntPolynomial(b)
        e = max(a.degree - b.degree + 1, 0)
        _, rem = _frac_divmod(_fracs(a), _fracs(b))
        assert _prem(a.coeffs, b.coeffs) == \
            [abs(b.leading) ** e * r for r in rem], (a, b)


# -- the integer root layer against plain Fraction arithmetic -------------


def _fraction_bisection(p, lo, hi, width):
    """Plain Fraction bisection, as refine_root_interval specifies it."""
    slo = p.sign_at(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = p.eval_fraction(mid)
        if v == 0:
            w = min(width, hi - lo) / 4
            return (mid - w, mid + w)
        if (v > 0) - (v < 0) == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def test_refine_root_interval_equals_a_fraction_bisection():
    rng = random.Random("refine")
    widths = [Fraction(1), Fraction(3, 4), Fraction(1, 2**40),
              Fraction(3, 1000), Fraction(1, 3**50), 2]
    cases = [(IntPolynomial([-2, 0, 1]), Fraction(1, 3), Fraction(10, 7)),
             (IntPolynomial([-1, 0, 4]), Fraction(0), Fraction(1)),   # hits 1/2
             (IntPolynomial([-1, 0, 4]), Fraction(0), Fraction(3, 4)),
             (IntPolynomial([-10**20 - 1, 0, 1]), Fraction(0),
              Fraction(10**20 + 2))]
    for _ in range(40):
        p = squarefree_part(IntPolynomial(
            [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))] + [1]))
        cases += [(p, lo, hi) for lo, hi in isolate_roots_exact(p)
                  if p.sign_at((lo + hi) / 2) != 0]
    for p, lo, hi in cases:
        for width in widths:
            assert refine_root_interval(p, lo, hi, width) == \
                _fraction_bisection(p, lo, hi, width), (p, lo, hi, width)


def test_squarefree_part_is_computed_once(monkeypatch):
    p = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([1, 1])
    sf = squarefree_part(p)
    assert sf == IntPolynomial([-1, 0, 1])
    cells = isolate_roots_exact(p)
    gcd_calls = []
    monkeypatch.setattr(intpoly, "poly_gcd",
                        lambda *a: gcd_calls.append(a) or poly_gcd(*a))
    assert squarefree_part(sf) is sf
    assert isolate_roots_exact(sf) == cells
    assert gcd_calls == []
