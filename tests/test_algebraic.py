"""Certified algebraic arithmetic tests.

Oracles used here are independent of the code under test: the quadratic
formula for degree-2 conjugates, float bisection for real roots, and direct
floating evaluation for the Z[q] round trips.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from qspectra import algebraic, expansions, intpoly
from qspectra.algebraic import (
    FLOAT_WIDTH,
    AlgebraicNumber,
    NumberClass,
    ZqContext,
    _PackedZq,
    _certified_disks,
    _dk_iterate,
    classify_base,
    conjugates,
    power_base,
)
from qspectra.errors import PreconditionError
from qspectra.intpoly import IntPolynomial, is_squarefree

SRC = str(Path(__file__).resolve().parents[1] / "src")

PHI_POLY = IntPolynomial([-1, -1, 1])
SQRT2_POLY = IntPolynomial([-2, 0, 1])
P1_POLY = IntPolynomial([-1, -1, 0, 1])          # x^3 - x - 1
P2_POLY = IntPolynomial([-1, 0, 0, -1, 1])       # x^4 - x^3 - 1
SQRT_P2_POLY = IntPolynomial([-1, 0, 0, 0, 0, 0, -1, 0, 1])  # x^8 - x^6 - 1


def phi():
    return AlgebraicNumber.base_from_poly(PHI_POLY, root_index=0)


def sqrt2():
    return AlgebraicNumber.base_from_poly(SQRT2_POLY, root_index=0)


# -- root isolation -------------------------------------------------------


def test_isolate_golden_ratio_roots():
    roots = AlgebraicNumber.real_roots(PHI_POLY, radius=Fraction(1, 10**12))
    vals = [r.float_value() for r in roots]
    assert len(vals) == 2
    assert abs(vals[0] - (1 - math.sqrt(5)) / 2) < 1e-12
    assert abs(vals[1] - (1 + math.sqrt(5)) / 2) < 1e-12


def test_isolate_linear_is_exact():
    (r,) = AlgebraicNumber.real_roots(IntPolynomial([-2, 1]))
    assert r.exact_rational == 2


def test_isolate_plastic_number():
    (r,) = AlgebraicNumber.real_roots(P1_POLY)
    assert abs(r.float_value() - 1.3247) < 5e-5


def test_real_roots_rational_root_on_a_cell_edge(deadline):
    # x^4-x^2-x+1 = (x-1)(x^3+x^2-1); isolation used to hang here
    with deadline(30):
        roots = AlgebraicNumber.real_roots(IntPolynomial([1, -1, -1, 0, 1]))
    assert len(roots) == 2
    assert abs(roots[0].float_value() - 0.7548776662) < 1e-9
    assert roots[1].exact_rational == 1


def test_real_roots_irrational_root_of_reducible_input_gets_its_factor():
    # the rational root's factor x-1 is divided out of the minimal polynomial
    roots = AlgebraicNumber.real_roots(IntPolynomial([1, -1, -1, 0, 1]))
    assert roots[0].min_poly == IntPolynomial([-1, 0, 1, 1])   # x^3+x^2-1
    assert abs(roots[0].float_value() - 0.7548776662) < 1e-9


def test_isolate_rejects_zero_polynomial():
    with pytest.raises(PreconditionError):
        AlgebraicNumber.real_roots(IntPolynomial([]))


def test_refinement_is_monotone():
    q = phi()
    widths = []
    for bits in (10, 20, 40, 80):
        lo, hi = q.refine_to_width(Fraction(1, 2**bits))
        widths.append(hi - lo)
        # interval always brackets the root
        assert PHI_POLY.sign_at(lo) * PHI_POLY.sign_at(hi) < 0
        assert hi - lo <= Fraction(1, 2**bits)
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_non_positive_widths_are_rejected(deadline):
    # each call used to bisect forever on an irrational base
    q = phi()
    lo, hi = q.interval()
    with deadline(10):
        with pytest.raises(PreconditionError):
            q.refine_to_width(0)
        with pytest.raises(PreconditionError):
            q.refine_to_radius(-1)
        with pytest.raises(PreconditionError):
            intpoly.refine_root_interval(PHI_POLY, lo, hi, 0)
    assert q.interval() == (lo, hi)


F = Fraction

#: The refinement trajectory the recorded floats depend on: base intervals
#: from ``base_from_poly`` and after ``refine_to_width(2^-80)``, isolation
#: cells, and the Sturm counts and refinements of one ``base_from_poly``.
PINNED_BASES = [
    (SQRT_P2_POLY, (F(9, 8), F(5, 4)),
     (F(88769318478590582402507, 75557863725914323419136),
      F(1420309095657449318440113, 1208925819614629174706176)), 3, 4),
    (P2_POLY, (F(11, 8), F(3, 2)),
     (F(417163297879255274724055, 302231454903657293676544),
      F(1668653191517021098896221, 1208925819614629174706176)), 3, 4),
    (P1_POLY, (F(5, 4), F(3, 2)),
     (F(200185717777540234707697, 151115727451828646838272),
      F(1601485742220321877661577, 1208925819614629174706176)), 1, 3),
]


@pytest.mark.parametrize("poly,interval,refined,sturm,refines", PINNED_BASES)
def test_base_refinement_trajectory_is_pinned(monkeypatch, poly, interval,
                                              refined, sturm, refines):
    calls = {"count_roots_in": 0, "refine_root_interval": 0}

    def counted(name):
        fn = getattr(intpoly, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        wrapper = counted(name)
        monkeypatch.setattr(intpoly, name, wrapper)
        monkeypatch.setattr(algebraic, name, wrapper)
    q = AlgebraicNumber.base_from_poly(poly, root_index=0)
    assert calls == {"count_roots_in": sturm, "refine_root_interval": refines}
    assert q.interval() == interval
    assert q.refine_to_width(F(1, 2**80)) == refined


def test_isolation_cells_are_pinned():
    x_minus_1 = IntPolynomial([-1, 1])
    assert intpoly.isolate_roots_exact(x_minus_1 * PHI_POLY) == [
        (F(-3), F(0)), (F(1, 2), F(3, 2)), (F(3, 2), F(3))]
    big = 10**20 + 2
    assert intpoly.isolate_roots_exact(IntPolynomial([1 - big, 0, 1])) == [
        (F(-big), F(0)), (F(0), F(big))]
    # x (2x^2 - 1)(x + 1): the first midpoint, 0, is a root
    p = IntPolynomial([0, 1]) * IntPolynomial([-1, 0, 2]) * IntPolynomial([1, 1])
    assert intpoly.isolate_roots_exact(p) == [
        (F(-9, 8), F(-7, 8)), (F(-7, 8), F(-1, 2)), (F(-1, 2), F(1, 2)),
        (F(1, 2), F(2))]


# -- conjugates ------------------------------------------------------------


def test_conjugates_sqrt2_quadratic_formula_oracle():
    cs = conjugates(SQRT2_POLY)
    assert cs.resolved and len(cs.disks) == 2
    oracle = sorted((-math.sqrt(2), math.sqrt(2)))
    for disk, want in zip(cs.disks, oracle):
        assert abs(float(disk.re) - want) <= float(disk.radius) + 1e-15
        assert disk.location == "outside"


def test_conjugates_golden_second_root_inside():
    cs = conjugates(PHI_POLY)
    inner = [d for d in cs.disks if d.location == "inside"]
    assert len(inner) == 1
    assert abs(float(inner[0].re) - (1 - math.sqrt(5)) / 2) < 1e-9


def test_conjugates_x2_plus_1_on_circle_via_reciprocal_test():
    cs = conjugates(IntPolynomial([1, 0, 1]))
    assert cs.resolved
    assert [d.location for d in cs.disks] == ["on", "on"]
    assert cs.on_circle_count == 2


def test_conjugates_rejects_non_squarefree():
    with pytest.raises(PreconditionError):
        conjugates(IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]))


def test_root_count_matches_degree_corpus():
    corpus = [
        PHI_POLY, SQRT2_POLY, P1_POLY, P2_POLY, SQRT_P2_POLY,
        IntPolynomial([1, 0, 1]),
        IntPolynomial([1, -1, -1, -1, 1]),     # Salem-type degree 4
        IntPolynomial([2, 0, 0, 1]),
        IntPolynomial([-3, 1, 0, 0, 0, 0, 0, 0, 2]),
    ]
    for p in corpus:
        cs = conjugates(p)
        assert len(cs.disks) == p.degree, p.to_text()
        for a, b in zip(cs.disks, cs.disks[1:]):
            # pairwise disjoint after resolution (exact data, float display)
            da = complex(float(a.re), float(a.im))
            db = complex(float(b.re), float(b.im))
            if a.radius or b.radius:
                assert abs(da - db) > float(a.radius + b.radius) * 0.99


def test_salem_type_polynomial_has_on_circle_conjugates():
    p = IntPolynomial([1, -1, -1, -1, 1])
    assert intpoly.unit_circle_counts(p) == (1, 2, 1)
    cs = conjugates(p)
    assert cs.count("on") == 2
    assert cs.count("outside") == 1
    assert cs.count("inside") == 1


# -- classification ---------------------------------------------------------


def test_classify_first_pisot_number():
    q = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)
    assert abs(q.float_value() - 1.3247) < 5e-5
    assert classify_base(q).tag == "Pisot"


def test_classify_second_pisot_number():
    q = AlgebraicNumber.base_from_poly(P2_POLY, root_index=0)
    assert abs(q.float_value() - 1.3803) < 5e-5
    assert classify_base(q).tag == "Pisot"


def test_classify_sqrt2_not_pisot():
    assert classify_base(sqrt2()).tag == "NotPisot-AlgebraicInteger"


def test_classify_rational_integer():
    assert classify_base(AlgebraicNumber.from_rational(2)).tag == "PisotInteger"


def test_classify_rational_non_integer():
    q = AlgebraicNumber.from_rational(Fraction(9, 5))
    assert classify_base(q).tag == "NotAlgebraicInteger"


def test_classify_non_monic():
    # 2x^2 - 3: root sqrt(3/2) ~ 1.2247
    q = AlgebraicNumber.base_from_poly(IntPolynomial([-3, 0, 2]), root_index=0)
    assert classify_base(q).tag == "NotAlgebraicInteger"


def test_classification_stability_under_budget():
    # same non-Inconclusive tag at generous and very generous budgets
    for poly, idx in [(P1_POLY, 0), (P2_POLY, 0), (SQRT2_POLY, 0),
                      (SQRT_P2_POLY, 0)]:
        q = AlgebraicNumber.base_from_poly(poly, root_index=idx)
        t1 = classify_base(q, budget_bits=2048).tag
        t2 = classify_base(q, budget_bits=8192).tag
        assert t1 == t2 != "Inconclusive"


# -- powers -----------------------------------------------------------------


def test_power_sqrt2_squared_is_two():
    p = power_base(sqrt2(), 2)
    assert p.exact_rational == 2
    assert p.min_poly.to_text() == "-2,1"


def test_power_phi_squared():
    p = power_base(phi(), 2)
    assert p.min_poly == IntPolynomial([1, -3, 1])
    assert abs(p.float_value() - 2.618033988749895) < 1e-12


def test_power_sqrt_p2_squared_gives_p2():
    q = AlgebraicNumber.base_from_poly(SQRT_P2_POLY, root_index=0)
    assert abs(q.float_value() - 1.1748) < 1e-4
    q2 = power_base(q, 2)
    assert q2.min_poly == P2_POLY
    assert abs(q2.float_value() - 1.3803) < 5e-5


def test_proposition_pipeline_sqrt_p2_powers():
    # q = sqrt(P2): q not Pisot, q^2 Pisot, q^3 not Pisot
    q = AlgebraicNumber.base_from_poly(SQRT_P2_POLY, root_index=0)
    assert classify_base(q).tag == "NotPisot-AlgebraicInteger"
    assert classify_base(power_base(q, 2)).tag == "Pisot"
    assert classify_base(power_base(q, 3)).tag == "NotPisot-AlgebraicInteger"


def _reference_power_base(q, k):
    """The route that power_base replaced: the k-th power of the companion
    matrix by repeated matrix products, then the same characteristic
    polynomial and interval search."""
    p, d = q.min_poly, q.degree
    mat = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d - 1):
        mat[j + 1][j] = Fraction(1)
    for i in range(d):
        mat[i][d - 1] = Fraction(-p.coeffs[i], p.coeffs[-1])
    mk = mat
    for _ in range(k - 1):
        mk = algebraic._mat_mul(mk, mat)
    frac_coeffs = algebraic._charpoly(mk)
    den = math.lcm(*(c.denominator for c in frac_coeffs))
    defining = intpoly.squarefree_part(
        IntPolynomial(int(c * den) for c in frac_coeffs))
    if defining.degree == 1:
        return defining, None
    while True:
        lo, hi = q.interval()
        plo, phi_ = lo**k, hi**k
        if (defining.sign_at(plo) != 0 and defining.sign_at(phi_) != 0
                and intpoly.count_roots_in(defining, plo, phi_) == 1):
            return defining, (plo, phi_)
        q.refine_to_width((hi - lo) / 4)


def test_power_base_equals_the_companion_matrix_route(deadline):
    polys = [SQRT_P2_POLY, PHI_POLY, SQRT2_POLY, IntPolynomial([-1, -2, 2]),
             P1_POLY, IntPolynomial([-1, -1, 0, 0, 1]),
             IntPolynomial([-3, 0, 0, 1])]
    with deadline(30):
        for poly, k in itertools.product(polys, range(2, 7)):
            ref = _reference_power_base(
                AlgebraicNumber.base_from_poly(poly, root_index=0), k)
            got = power_base(AlgebraicNumber.base_from_poly(poly,
                                                            root_index=0), k)
            interval = None if got.exact_rational is not None \
                else got.interval()
            assert (got.min_poly, interval) == ref, (poly.coeffs, k)


def test_power_gcd_property_concrete():
    # Lemma-style check: if q^r and q^s are Pisot then so is q^gcd(r,s);
    # exercised on phi with (r, s) = (2, 3), gcd 1
    q = phi()
    assert classify_base(power_base(q, 2)).is_pisot
    assert classify_base(power_base(q, 3)).is_pisot
    assert classify_base(q).is_pisot


# -- Z[q] kernel -------------------------------------------------------------


def test_zq_zero_digits():
    assert sqrt2().zq_context().from_digits([0]) == ((0, 0), 1)


def test_zq_example_values():
    assert sqrt2().zq_context().from_digits([1, 0, 1]) == ((3, 0), 1)
    assert phi().zq_context().from_digits([1, 1]) == ((1, 1), 1)


def test_zq_compare_examples():
    ctx = sqrt2().zq_context()
    one = ctx.from_digits([1])
    assert ctx.compare(one, ctx.from_digits([1])) == 0
    # 3 - 2*sqrt2 vs 0
    assert ctx.compare(((3, -2), 1), ((0, 0), 1)) == 1
    assert phi().zq_context().compare(((-1, 1), 1), ((1, 0), 1)) == -1


def test_zq_cmp_fraction():
    ctx = sqrt2().zq_context()
    assert ctx.cmp_fraction(((0, 1), 1), Fraction(141, 100)) == 1
    assert ctx.cmp_fraction(((0, 1), 1), Fraction(142, 100)) == -1
    assert ctx.cmp_fraction(((1, 1), 1), Fraction(5, 2)) == -1  # 1+sqrt2 < 2.5
    assert ctx.cmp_fraction(((3, 0), 1), Fraction(3)) == 0


def test_zq_sign_of_coefficients_beyond_float_range():
    ctx = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0).zq_context()
    big = ((10**400, -1, 0), 1)
    assert ctx.sign(big) == 1
    assert ctx.compare(ctx.zero, big) == -1
    assert ctx.cmp_fraction(big, Fraction(10**399)) == 1


def test_zq_context_serves_a_non_monic_base():
    # the windows of a non-monic base run on its context, so it no longer
    # refuses one: here q = sqrt(3/2), a root of 2x^2 - 3
    q = AlgebraicNumber.base_from_poly(IntPolynomial([-3, 0, 2]), root_index=0)
    ctx = q.zq_context()
    assert ctx is q.zq_context() and ctx.lead == 2
    q2 = ctx.from_digits([0, 0, 1])
    assert ctx.coefficients(q2) == (Fraction(3, 2), 0)
    assert ctx.cmp_fraction(q2, Fraction(3, 2)) == 0
    assert ctx.cmp_fraction(ctx.from_digits([0, 1]), Fraction(6, 5)) == 1


def test_zq_round_trip_1000_random_strings():
    rng = random.Random(99)
    bases = [sqrt2(), phi(),
             AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)]
    for q in bases:
        qf = q.float_value()
        for _ in range(334):
            digits = [rng.randint(-3, 3) for _ in range(rng.randint(1, 10))]
            vec = q.zq_context().from_digits(digits)
            direct = 0.0
            for i, s in enumerate(digits):
                direct += s * qf**i
            lo, hi = q.zq_context().interval(vec)
            assert float(lo) - 1e-6 <= direct <= float(hi) + 1e-6


@pytest.mark.parametrize("poly", [IntPolynomial([-3, 1]), SQRT2_POLY,
                                  P1_POLY, SQRT_P2_POLY])
def test_packed_vectors_round_trip_at_the_width_bound(poly):
    """Packing is one-to-one for entries up to 2^(W-2) - 1 at each width
    the search uses, a sign flip is the negated int, and the per-parent
    multiply plus a digit is the packed ``ZqContext.step``, exactly as
    integers."""
    rng = random.Random(f"packed:{poly.coeffs}")
    ctx = AlgebraicNumber.base_from_poly(poly, root_index=0).zq_context()
    packed = _PackedZq(ctx, 1)
    assert packed.pack(ctx.zero[0]) == packed.zero == 0
    for W in (32, 64, 128):
        packed._set_width(W)
        e = (1 << (W - 2)) - 1
        vecs = [ctx.zero[0], (e,) * ctx.d, (-e,) * ctx.d,
                tuple(e if i % 2 else -e for i in range(ctx.d))]
        vecs += [tuple(rng.randint(-e, e) for _ in range(ctx.d))
                 for _ in range(20)]
        for v in vecs:
            V = packed.pack(v)
            assert packed.unpack(V) == v and packed.elem(V) == (v, 1)
            assert packed.elem(-V) == ctx.neg((v, 1))
            for s in (-2, 0, 1):
                assert (packed.mul_q(V) + s
                        == packed.pack(ctx.step((v, 1), s)[0]))


def test_packed_width_grows_and_repacks_the_stored_values():
    ctx = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0).zq_context()
    packed = _PackedZq(ctx, 2)
    vecs = [(3, -1, 2), (-2, 0, 1), ctx.zero[0]]
    level = [packed.pack(v) for v in vecs]
    assert packed.fit_step(level) is None and packed.bound == 2 * 2 + 2
    # the carried bound trips, but the level's true maximum fits: the bound
    # restarts from it and nothing is re-packed
    packed.bound = packed.limit
    assert packed.fit_step(level) is None
    assert packed.W == 32 and packed.bound == 3 * 2 + 2
    # an entry of 2^29 has children up to 2^30 + 2, past 2^(32-2)
    vecs[0] = (1 << 29, -1, 2)
    level = [packed.pack(v) for v in vecs]
    packed.bound = packed.limit
    remap = packed.fit_step(level)
    assert packed.W == 64 and packed.bound == (1 << 29) * 2 + 2
    assert [packed.unpack(remap(V)) for V in level] == vecs


def test_zq_equal_vectors_have_overlapping_intervals():
    rng = random.Random(5)
    q = phi()
    ctx = q.zq_context()
    seen = {}
    hits = 0
    for _ in range(4000):
        digits = tuple(rng.randint(-1, 1) for _ in range(rng.randint(1, 8)))
        vec = ctx.from_digits(digits)
        if vec in seen and seen[vec] != digits:
            hits += 1
            lo1, hi1 = ctx.interval(vec)
            other = ctx.from_digits(seen[vec])
            lo2, hi2 = ctx.interval(other)
            assert not (hi1 < lo2 or hi2 < lo1)
        seen.setdefault(vec, digits)
    assert hits > 10  # collisions do occur for phi


def test_sign_determination_exact():
    q = phi()
    ctx = q.zq_context()
    # phi^2 - phi - 1 = 0 exactly
    assert ctx.sign(ctx.from_digits([-1, -1, 1])) == 0
    assert ctx.sign(((-1, 1), 1)) == 1   # phi - 1 > 0
    assert ctx.sign(((2, -1), 1)) == 1   # 2 - phi > 0
    assert ctx.sign(((1, -1), 1)) == -1  # 1 - phi < 0


def test_classification_stability_at_two_radii():
    # same location tags when disks are refined to 1e-12 and 1e-24
    for poly in (P1_POLY, P2_POLY, SQRT2_POLY, SQRT_P2_POLY):
        cs12 = conjugates(poly, radius=Fraction(1, 10**12))
        cs24 = conjugates(poly, radius=Fraction(1, 10**24))
        assert cs12.resolved and cs24.resolved
        assert [d.location for d in cs12.disks] == \
            [d.location for d in cs24.disks]
        assert all(d.radius <= Fraction(1, 10**24) for d in cs24.disks)


def test_conjugates_unresolved_on_tiny_budget():
    # complex pair at modulus sqrt(1 + 1e-20): undecidable at 64 bits,
    # certified outside with a realistic budget
    n = 10**20
    p = IntPolynomial([n + 1, -2 * n, n])
    cs = conjugates(p, budget_bits=64)
    assert not cs.resolved
    assert all(d.location == "unresolved" for d in cs.disks)
    cs_full = conjugates(p, budget_bits=4096)
    assert cs_full.resolved
    assert all(d.location == "outside" for d in cs_full.disks)


def test_conjugates_precision_bits_is_the_last_rung_run():
    # no rung fits 32 bits; the 53-bit rung certifies x^3 - x - 1
    cs = conjugates(P1_POLY, budget_bits=32)
    assert not cs.resolved and cs.precision_bits == 0 and cs.disks == ()
    for budget in (53, 60, 64):
        cs = conjugates(P1_POLY, budget_bits=budget)
        assert cs.resolved and cs.precision_bits == 53
    # the near-circle pair of the test above stays unresolved on every rung
    n = 10**20
    p = IntPolynomial([n + 1, -2 * n, n])
    for budget, ran in ((53, 53), (60, 53), (64, 64), (100, 64)):
        cs = conjugates(p, budget_bits=budget)
        assert not cs.resolved and cs.precision_bits == ran


# -- the integer certificate against a Fraction reference ------------------

LEHMER_POLY = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
X20_POLY = IntPolynomial([-1, -1] + [0] * 18 + [1])      # x^20 - x - 1


def _height_one_corpus():
    """Squarefree monic height-1 polynomials with nonzero constant term:
    all of degree 3 and 4, a seeded sample of degrees 5 to 8."""
    rng = random.Random(4)
    out = []
    for d in range(3, 9):
        polys = [IntPolynomial([c0, *mid, 1]) for c0 in (-1, 1)
                 for mid in itertools.product((-1, 0, 1), repeat=d - 1)]
        polys = [p for p in polys if is_squarefree(p)]
        out += polys if d <= 4 else rng.sample(polys, 6)
    return out + [X20_POLY, LEHMER_POLY]


def _reference_disks(coeffs, Z, S):
    """The Weierstrass disks about the centres z_j = Z_j / S evaluated in
    Gaussian rationals, one Fraction operation at a time: radius
    d*(|Re W_j| + |Im W_j|), W_j = p(z_j) / (lead * prod (z_j - z_i)); None
    unless pairwise disjoint."""
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    d = len(coeffs) - 1
    zf = [(Fraction(x, S), Fraction(y, S)) for x, y in Z]
    disks = []
    for j in range(d):
        den = (Fraction(coeffs[-1]), Fraction(0))
        for i in range(d):
            if i != j:
                diff = (zf[j][0] - zf[i][0], zf[j][1] - zf[i][1])
                if diff == (0, 0):
                    return None
                den = mul(den, diff)
        num = (Fraction(0), Fraction(0))
        for c in reversed(coeffs):
            num = mul(num, zf[j])
            num = (num[0] + c, num[1])
        n2 = den[0] ** 2 + den[1] ** 2
        w = ((num[0] * den[0] + num[1] * den[1]) / n2,
             (num[1] * den[0] - num[0] * den[1]) / n2)
        disks.append((zf[j][0], zf[j][1], d * (abs(w[0]) + abs(w[1]))))
    for i in range(d):
        for j in range(i + 1, d):
            dre = disks[i][0] - disks[j][0]
            dim = disks[i][1] - disks[j][1]
            if dre * dre + dim * dim <= (disks[i][2] + disks[j][2]) ** 2:
                return None
    return disks


def test_integer_disks_equal_the_fraction_reference(deadline):
    # the corpus, then x^2 - 10^200 and x^2 - 10^200 x - 1, whose iterates
    # are beyond double range
    beyond = [IntPolynomial([-10**200, 0, 1]),
              IntPolynomial([-1, -10**200, 1])]
    checked = 0
    with deadline(120):
        for p in _height_one_corpus() + beyond:
            start = None
            for prec in (53, 64, 128):
                z = _dk_iterate(p.coeffs, prec, start)
                start = z
                want = _reference_disks(p.coeffs, *z)
                assert _certified_disks(p.coeffs, *z) == want, (p.coeffs, prec)
                checked += want is not None
    assert checked > 0


def test_integer_disks_reject_overlap_and_coincidence():
    # x^2 - 2 from two equal centers, and from centers whose disks overlap:
    # radii ~6e-4 and ~2.83 around 181/128 and 0, so the scale S = 128
    # must enter the test
    assert _certified_disks((-2, 0, 1), [(3, 0), (3, 0)], 2) is None
    for Z, S in (([(4, 0), (5, 0)], 4), ([(181, 0), (0, 0)], 128)):
        assert _reference_disks((-2, 0, 1), Z, S) is None
        assert _certified_disks((-2, 0, 1), Z, S) is None


def test_53_bit_rung_certifies_the_corpus(deadline):
    with deadline(120):
        for p in _height_one_corpus():
            cs = conjugates(p)
            assert cs.resolved and cs.precision_bits == 53, p.coeffs
            with mpmath.workdps(40):
                roots = mpmath.polyroots(list(reversed(p.coeffs)),
                                         maxsteps=200, extraprec=200)
                for disk in cs.disks:
                    center = mpmath.mpc(
                        mpmath.mpf(disk.re.numerator) / disk.re.denominator,
                        mpmath.mpf(disk.im.numerator) / disk.im.denominator)
                    gap = min(abs(r - center) for r in roots)
                    assert gap <= mpmath.mpf(disk.radius.numerator) \
                        / disk.radius.denominator + mpmath.mpf(10) ** -30
    assert conjugates(LEHMER_POLY).on_circle_count == 8


def _assert_integer_centres(coeffs, prec):
    """The rung of ``prec`` bits returns one Gaussian-integer centre per
    root over S = 2^prec: ints, so finite whatever the coefficients."""
    Z, S = _dk_iterate(coeffs, prec)
    assert S == 1 << prec and len(Z) == len(coeffs) - 1
    assert all(type(x) is int and type(y) is int for x, y in Z)


def test_coefficients_beyond_float_range_run_the_53_bit_rung_in_integers(
        deadline):
    # Horner at the seed points (modulus ~0.7e200) is beyond double range;
    # the 53-bit rung iterates in integers like every later rung.
    # The disks are pinned by what they certify, not by their centres: a
    # centre is wherever the iteration stopped, and need not be the root
    p = IntPolynomial([-10**200, 0, 1])
    _assert_integer_centres(p.coeffs, 53)
    with deadline(60):
        cs = conjugates(p)
    assert cs.resolved and cs.precision_bits > 53
    assert len(cs.disks) == 2
    for d, root in zip(cs.disks, (-10**100, 10**100)):
        assert (d.re - root) ** 2 + d.im ** 2 <= d.radius ** 2
        assert d.radius <= Fraction(1, 10**12)


def test_bound_beyond_float_range_runs_the_53_bit_rung_in_integers(deadline):
    # the Cauchy bound 1 + 10^400 itself is beyond double range; every
    # rung takes it as an int
    p = IntPolynomial([-10**400, 0, 1])
    _assert_integer_centres(p.coeffs, 53)
    with deadline(60):
        cs = conjugates(p)
    assert cs.resolved and cs.precision_bits > 53
    assert len(cs.disks) == 2
    for d, root in zip(cs.disks, (-10**200, 10**200)):
        assert abs(d.re - root) + abs(d.im) <= d.radius
        assert d.location == "outside"


def test_tight_radius_escalates_past_the_double_rung(deadline):
    with deadline(60):
        cs = conjugates(P1_POLY, radius=Fraction(1, 10**24))
    assert cs.resolved and cs.precision_bits >= 128
    assert all(d.radius <= Fraction(1, 10**24) for d in cs.disks)


# -- exact root counts against the certified disks -------------------------


def _has_monic_factor_below(p: IntPolynomial) -> bool:
    """Whether p (monic, height 1, degree <= 5) has a monic factor of degree
    1 or 2 over Z.  Its roots have modulus < 2, so such a factor is
    x -+ 1 or x^2 + a x + b with |a| <= 3 and b = +-1 (b divides p(0))."""
    factors = [(-1, 1), (1, 1)] + [(b, a, 1) for a in range(-3, 4)
                                   for b in (-1, 1)]
    return any(not intpoly._prem(p.coeffs, f) for f in factors)


def _irreducible_height_one_corpus():
    """Every irreducible monic height-1 polynomial of degree 3 to 5, then
    Lehmer's polynomial and x^20 - x - 1."""
    out = []
    for d in range(3, 6):
        for c0 in (-1, 1):
            for mid in itertools.product((-1, 0, 1), repeat=d - 1):
                p = IntPolynomial([c0, *mid, 1])
                if not _has_monic_factor_below(p):
                    out.append(p)
    return out + [LEHMER_POLY, X20_POLY]


def _reference_on_circle_count(p: IntPolynomial) -> int:
    """The count of roots on the unit circle that ``unit_circle_counts``
    replaced.  Those roots are common roots of squarefree p and its
    reciprocal; after +-1 are deflated, the self-reciprocal gcd factor g is
    turned into its trace polynomial h, g(x)/x^e = h(x + 1/x), whose real
    roots in (-2, 2) are the conjugate pairs on the circle."""
    g = intpoly.poly_gcd(p, p.reciprocal())
    count = 0
    for r in (Fraction(1), Fraction(-1)):
        if g.degree > 0 and g.sign_at(r) == 0:
            count += 1
            g = intpoly.deflate_root(g, r).primitive()
    if g.degree <= 0:
        return count
    assert g == g.reciprocal().primitive() and g.degree % 2 == 0
    e = g.degree // 2
    v_prev, v_cur = IntPolynomial([2]), IntPolynomial([0, 1])
    h = IntPolynomial([g.coeffs[e]])
    for j in range(1, e + 1):
        h = h + v_cur.scale(g.coeffs[e + j])
        v_prev, v_cur = v_cur, IntPolynomial([0, 1]) * v_cur - v_prev
    return count + 2 * intpoly.count_roots_in(
        intpoly.squarefree_part(h), Fraction(-2), Fraction(2))


def test_unit_circle_counts_equal_the_reference_on_height_one(deadline):
    # every squarefree monic height-1 polynomial of degree 1 to 7, zero
    # constant terms included
    seen = 0
    with deadline(10):
        for d in range(1, 8):
            for low in itertools.product((-1, 0, 1), repeat=d):
                p = IntPolynomial([*low, 1])
                if not is_squarefree(p):
                    continue
                seen += 1
                n_in, n_on, n_out = intpoly.unit_circle_counts(p)
                assert n_on == _reference_on_circle_count(p), p.coeffs
                assert min(n_in, n_on, n_out) >= 0, p.coeffs
                assert n_in + n_on + n_out == d, p.coeffs
                # the reciprocal's roots are the inverses of p's nonzero
                # roots
                assert intpoly.unit_circle_counts(p.reciprocal()) == (
                    n_out, n_on, n_in - (low[0] == 0)), p.coeffs
    assert seen == 2849


def test_root_counts_equal_the_certified_disks(deadline):
    corpus = _irreducible_height_one_corpus()
    assert len(corpus) > 100
    with deadline(120):
        for p in corpus:
            n_in, n_on, n_out = intpoly.unit_circle_counts(p)
            assert n_on == _reference_on_circle_count(p), p.coeffs
            # the roots outside are the reciprocal's roots inside
            assert intpoly.unit_circle_counts(p.reciprocal())[0] == n_out
            cs = conjugates(p)
            assert cs.resolved, p.coeffs
            assert (n_in, n_on, n_out) == (cs.count("inside"), cs.count("on"),
                                           cs.count("outside")), p.coeffs
            if p.sign_at(1) < 0:      # a real root above 1: classify it
                cls = classify_base(AlgebraicNumber.base_from_poly(
                    p, root_index=0))
                assert (cls.n_in, cls.n_on, cls.n_out) == (n_in, n_on, n_out)


def test_root_counts_of_a_polynomial_beyond_float_range():
    p = IntPolynomial([-10**400, 0, 1])           # roots +-10^200
    assert intpoly.unit_circle_counts(p) == (0, 0, 2)
    assert intpoly.unit_circle_counts(p.reciprocal()) == (2, 0, 0)


def test_root_counts_with_roots_at_one_and_zero():
    # (x - 1)(x + 1)(x - 2) x (2x - 1): z = 1 is the Cayley map's pole
    p = (IntPolynomial([-1, 1]) * IntPolynomial([1, 1])
         * IntPolynomial([-2, 1]) * IntPolynomial([0, 1])
         * IntPolynomial([-1, 2]))
    assert _reference_on_circle_count(p) == 2
    assert intpoly.unit_circle_counts(p) == (2, 2, 1)
    # and z = -1 alone, the Cayley map's w = 0
    assert intpoly.unit_circle_counts(IntPolynomial([1, 1])) == (0, 1, 0)


def test_labels_never_run_the_disks(monkeypatch):
    from qspectra.reproduce import run_cases
    from qspectra.witness import accumulation_verdict

    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("conjugates() ran")

    monkeypatch.setattr(algebraic, "conjugates", refuse)
    for poly, tag in ((P1_POLY, "Pisot"), (SQRT_P2_POLY, "NotPisot-"
                                           "AlgebraicInteger"),
                      (LEHMER_POLY, "NotPisot-AlgebraicInteger")):
        q = AlgebraicNumber.base_from_poly(poly, root_index=0)
        assert classify_base(q).tag == tag
    for poly in (PHI_POLY, SQRT2_POLY):
        accumulation_verdict(AlgebraicNumber.base_from_poly(poly,
                                                            root_index=0),
                             1, bfs_depth=8)
    assert all(r["passed"] for r in run_cases())
    assert calls == []


def test_labels_and_upper_rung_evidence_load_only_the_standard_library():
    # x^2 - 10^400 x - 1: a Pisot number whose disks need the rungs above
    # 53 bits (its Cauchy bound is beyond float range).  Modules loaded at
    # start-up (site's .pth hooks) are not the package's imports
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from qspectra import AlgebraicNumber, IntPolynomial, classify_base\n"
        "import qspectra.cli\n"
        "q = AlgebraicNumber.base_from_poly(\n"
        "    IntPolynomial([-1, -10**400, 1]), root_index=0)\n"
        "cls = classify_base(q)\n"
        "cs = cls.conjugate_set\n"
        "print(cls.tag, cs.resolved, cs.precision_bits, cs.count('inside'))\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    tag, resolved, bits, inside = out.stdout.splitlines()[0].split()
    assert (tag, resolved, inside) == ("Pisot", "True", "1")
    assert 53 < int(bits) <= 1024
    assert out.stdout.splitlines()[1] == "['qspectra']"


@pytest.mark.parametrize("code, unloaded", [
    ("import qspectra\n"
     "q = qspectra.AlgebraicNumber.base_from_poly(\n"
     "    qspectra.IntPolynomial([-1, -1, 0, 1]), root_index=0)\n"
     "assert qspectra.classify_base(q).tag == 'Pisot'\n",
     {"spectrum", "expansions", "witness", "reproduce", "cli"}),
    ("from qspectra import cli\n"
     "cli.main(['classify', '--poly', '-1,-1,0,1'])\n",
     {"spectrum", "expansions", "witness", "reproduce"}),
    ("from qspectra import cli\n"
     "cli.main(['expand', '--poly', '-1,-1,0,1', '--m', '1', '--target',\n"
     "          '1', '--horizon', '8'])\n",
     {"spectrum"}),
], ids=["library-classify", "cli-classify", "cli-expand"])
def test_each_path_loads_only_the_modules_it_runs(code, unloaded):
    # the census and every CLI process once loaded all eight modules
    code += ("import sys\n"
             "print(*[m for m in sys.modules if m.startswith('qspectra.')])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    loaded = {m.partition(".")[2] for m in out.stdout.splitlines()[-1].split()}
    assert {"algebraic", "intpoly"} <= loaded
    assert not loaded & unloaded


def test_no_package_module_loads_dataclasses_inspect_or_typing():
    # -S: a site-packages .pth file may import typing at start-up, and the
    # check must hold without it
    code = ("import sys\n"
            "import qspectra, qspectra.cli, qspectra.spectrum\n"
            "import qspectra.expansions, qspectra.witness, qspectra.reproduce\n"
            "print(*sorted({'dataclasses', 'inspect', 'typing'}\n"
            "              & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == "\n"


def test_number_class_compares_hashes_and_prints_by_its_fields():
    q = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)
    cls = classify_base(q)
    fields = ("Pisot", "all other conjugates inside", 2, 0, 1, P1_POLY, 4096)
    assert cls == NumberClass(*fields) and hash(cls) == hash(fields)
    assert cls != NumberClass(*fields[:6], 64) and cls != fields
    assert repr(cls) == (
        "NumberClass(tag='Pisot', detail='all other conjugates inside', "
        "n_in=2, n_on=0, n_out=1, evidence_poly=IntPolynomial(coeffs=(-1, "
        "-1, 0, 1)), budget_bits=4096)")
    disk = cls.conjugate_set.disks[0]
    assert repr(disk).startswith("ConjugateDisk(re=Fraction(")
    assert disk == type(disk)(disk.re, disk.im, disk.radius, disk.location)
    for record, name in ((cls, "tag"), (cls, "budget_bits"), (disk, "re"),
                         (cls.conjugate_set, "resolved")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert cls.conjugate_set is cls.conjugate_set and cls.tag == "Pisot"


def test_lazy_package_names_bind_on_first_use():
    code = (
        "import sys, qspectra\n"
        "assert 'qspectra.spectrum' not in sys.modules\n"
        "from qspectra import *\n"
        "assert all(name in globals() for name in qspectra.__all__)\n"
        "assert set(qspectra.__all__) <= set(dir(qspectra))\n"
        "assert qspectra.spectrum.min_positive_bfs is min_positive_bfs\n"
        "try:\n"
        "    qspectra.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == ("module 'qspectra' has no attribute "
                          "'no_such_name'\n")


def test_unresolved_disks_leave_the_label_exact():
    q = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)
    cls = classify_base(q, budget_bits=32)        # no rung fits 32 bits
    assert cls.tag == "Pisot" and (cls.n_in, cls.n_on, cls.n_out) == (2, 0, 1)
    assert not cls.conjugate_set.resolved and cls.evidence() == []
    assert cls.conjugate_set is cls.conjugate_set            # computed once


# -- the integer sign evaluator against a Fraction reference ---------------


def _reference_interval(coeffs, lo, hi):
    """The Fraction evaluator that the integer one replaced: bounds of q^k
    as the min and max of four products, then sum c * bound, one Fraction
    operation at a time."""
    pows = [(Fraction(1), Fraction(1))]
    while len(pows) < len(coeffs):
        plo, phi_ = pows[-1]
        cands = (plo * lo, plo * hi, phi_ * lo, phi_ * hi)
        pows.append((min(cands), max(cands)))
    vlo = vhi = Fraction(0)
    for c, (plo, phi_) in zip(coeffs, pows):
        c = Fraction(c)
        if c >= 0:
            vlo += c * plo
            vhi += c * phi_
        else:
            vlo += c * phi_
            vhi += c * plo
    return vlo, vhi


def _reference_sign(q, vec):
    """Sign of sum vec[i] q^i by the reference evaluator, refining q by
    quarters until it decides, as the Fraction sign loop did."""
    if not any(vec):
        return 0
    while True:
        lo, hi = q.interval()
        vlo, vhi = _reference_interval(vec, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        q.refine_to_width((hi - lo) / 4)


CUBIC_POLY = IntPolynomial([1, -3, 0, 1])   # x^3 - 3x + 1: -1.88, 0.35, 1.53

#: (name, polynomial, isolating interval or None for the root > 1): the
#: intervals are positive dyadic, negative, zero-straddling and non-dyadic
EVALUATOR_BASES = [
    ("q8", SQRT_P2_POLY, None),
    ("q3", P1_POLY, None),
    ("phi", PHI_POLY, None),
    ("cubic_negative", CUBIC_POLY, (Fraction(-2), Fraction(-3, 2))),
    ("cubic_straddle", CUBIC_POLY, (Fraction(-1, 4), Fraction(1))),
    ("cubic_non_dyadic", CUBIC_POLY, (Fraction(4, 3), Fraction(8, 5))),
]


def _evaluator_base(poly, interval):
    if interval is None:
        return AlgebraicNumber.base_from_poly(poly, root_index=0)
    return AlgebraicNumber(poly, *interval)


def _random_vectors(rng, d):
    """Seeded int and Fraction vectors of length d, the zero vector, and
    vectors whose constant term nearly cancels the rest (signs that need
    refinement)."""
    out = [(0,) * d]
    for _ in range(12):
        ints = [rng.randint(-10**6, 10**6) for _ in range(d)]
        out.append(tuple(ints))
        out.append(tuple(Fraction(c, rng.randint(1, 97)) for c in ints))
    return out


def _near_zero(vec, x):
    """vec with its constant term moved so that its value at x lies within
    about one of zero."""
    rest = sum(float(c) * x**i for i, c in enumerate(vec) if i)
    return (-round(rest),) + tuple(vec[1:])


@pytest.mark.parametrize("name,poly,interval", EVALUATOR_BASES,
                         ids=[b[0] for b in EVALUATOR_BASES])
def test_integer_evaluator_equals_the_fraction_reference(name, poly,
                                                         interval):
    rng = random.Random(f"evaluator:{name}")
    d = poly.degree
    x = _evaluator_base(poly, interval).float_value()
    for width in (None, Fraction(1, 2**10), Fraction(1, 2**40),
                  Fraction(1, 2**101)):
        q = _evaluator_base(poly, interval)
        if width is not None:
            q.refine_to_width(width)
        lo, hi = q.interval()
        vecs = _random_vectors(rng, d)
        vecs += [_near_zero(v, x) for v in vecs[1:5]]
        ctx = ZqContext(q)
        for vec in vecs:
            assert ctx.interval(_encode(ctx, vec)) == \
                _reference_interval(vec, lo, hi), (width, vec)
        for vec in vecs:
            got = _evaluator_base(poly, interval)
            want = _evaluator_base(poly, interval)
            if width is not None:
                got.refine_to_width(width)
                want.refine_to_width(width)
            ctx = ZqContext(got)
            assert ctx.sign(_encode(ctx, vec)) == \
                _reference_sign(want, vec), (width, vec)
            # the same decisions refine the base along the same trajectory
            assert got.interval() == want.interval(), (width, vec)


def _reference_remainder(g, m):
    """g mod m over Q, one Fraction operation at a time."""
    rem = [Fraction(c) for c in g]
    while len(rem) >= len(m):
        f = rem[-1] / m[-1]
        shift = len(rem) - len(m)
        for i, c in enumerate(m):
            rem[shift + i] -= f * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


#: q8 and the non-monic root (1 + sqrt 3) / 2 of 2x^2 - 2x - 1
REDUCTION_BASES = [("q8", SQRT_P2_POLY), ("nonmonic", IntPolynomial([-1, -2, 2]))]


@pytest.mark.parametrize("name,poly", REDUCTION_BASES,
                         ids=[b[0] for b in REDUCTION_BASES])
def test_sign_of_high_degree_poly_equals_the_fraction_reference(name, poly):
    """For deg g >= deg q the sign oracle reduces g by a pseudo-remainder;
    its sign and the refinement it makes equal those of the remainder over
    Q, including multiples of the minimal polynomial (sign 0)."""
    rng = random.Random(f"reduction:{name}")
    d = poly.degree
    x = AlgebraicNumber.base_from_poly(poly, root_index=0).float_value()
    for _ in range(40):
        g = [rng.randint(-10**4, 10**4) for _ in range(rng.randint(d + 1, 3 * d + 1))]
        if rng.random() < 0.3:
            # g = poly * h + (a remainder whose value nearly cancels)
            h = IntPolynomial(g[:rng.randint(1, 2 * d)])
            rest = _near_zero(tuple(rng.randint(-10**3, 10**3) for _ in range(d)), x)
            g = list((poly * h + IntPolynomial(rest if rng.random() < 0.7 else ())).coeffs)
        g = IntPolynomial(g)
        got = AlgebraicNumber.base_from_poly(poly, root_index=0)
        want = AlgebraicNumber.base_from_poly(poly, root_index=0)
        rem = _reference_remainder(g.coeffs, poly.coeffs)
        assert got.sign_of_int_poly(g) == _reference_sign(want, rem), g
        assert got.interval() == want.interval(), g


def test_rational_base_sign_of_mixed_vectors():
    ctx = ZqContext(AlgebraicNumber.from_rational(Fraction(9, 5)))
    assert ctx.sign(_encode(ctx, (-9, 5))) == 0
    assert ctx.sign(_encode(ctx, (Fraction(-9, 5), 1))) == 0
    assert ctx.sign(_encode(ctx, (Fraction(-17, 10), 1))) == 1
    assert ctx.sign(_encode(ctx, (2, Fraction(-10, 9)))) == 0
    assert ctx.interval(_encode(ctx, (1, Fraction(1, 3)))) == \
        (Fraction(8, 5), Fraction(8, 5))


# -- the one Q[q] kernel against the kernels it replaced --------------------


def _whole(c):
    """The rational c as an int when it is whole, else as a Fraction."""
    c = c if isinstance(c, int) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _fraction_vec_sign(q, vec):
    """Exact sign of sum vec[i] * q^i for int and Fraction entries: the
    entries times the lcm of their denominators, then the base's oracle."""
    scale = math.lcm(*(Fraction(c).denominator for c in vec))
    return q.sign_of_int_poly(IntPolynomial(int(c * scale) for c in vec))


class _ReferenceVecArith:
    """The Fraction-entry Q[q] kernel that ZqContext ran on every base
    before non-monic and rational bases moved to integers: vectors in the
    basis 1, q, ..., q^(d-1), whole entries as int, others as Fraction, and
    signs and display floats read off those vectors.  It has the
    ZqContext interface that the expansions use, so it can stand in for
    the kernel there."""

    def __init__(self, q):
        self.q = q
        self.d = q.min_poly.degree
        lead = q.min_poly.coeffs[-1]
        self.qd_terms = tuple((i, _whole(Fraction(-c, lead)))
                              for i, c in enumerate(q.min_poly.coeffs[:-1])
                              if c)

    @property
    def zero(self):
        return (0,) * self.d

    def from_fraction(self, c):
        return (_whole(c),) + (0,) * (self.d - 1)

    def mul_q(self, v):
        out = [0, *v[:-1]]
        top = v[-1]
        if top:
            for i, c in self.qd_terms:
                out[i] += top * c
        return tuple(out)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, a, c):
        c = _whole(c)
        return tuple(c * x for x in a)

    def add_fraction(self, a, c):
        return (a[0] + _whole(c),) + a[1:]

    def step(self, v, s):
        return self.add_fraction(self.mul_q(v), s)

    def mul(self, a, b):
        acc = (0,) * self.d
        power = a
        for coeff in b:
            if coeff:
                acc = self.add(acc, self.scale(power, coeff))
            power = self.mul_q(power)
        return acc

    def at_scale(self, D):
        """The values themselves, at scale 1, with the operations above."""
        return self.from_fraction(1), self.mul_q, self.sign, lambda v: v

    def sign(self, v):
        return _fraction_vec_sign(self.q, v)

    def float_value(self, v):
        self.q.refine_to_width(FLOAT_WIDTH)
        lo, hi = _reference_interval(v, *self.q.interval())
        return float((lo + hi) / 2)


def _reference_filtered_sign(q, v):
    """The Z[q] sign as it was: a float enclosure with heuristic slop
    (1e-12 of the bounds, 1 -+ 1e-15 per power of q) decides when it
    excludes zero, and the exact oracle decides the rest."""
    if not any(v):
        return 0
    lo_q, hi_q = q.interval()
    try:
        flo, fhi = float(lo_q), float(hi_q)
        pows = [(1.0, 1.0)]
        while len(pows) < len(v):
            plo, phi_ = pows[-1]
            pows.append((plo * flo * (1 - 1e-15), phi_ * fhi * (1 + 1e-15)))
        lo = hi = 0.0
        for c, (plo, phi_) in zip(v, pows):
            if c >= 0:
                lo += c * plo
                hi += c * phi_
            else:
                lo += c * phi_
                hi += c * plo
    except OverflowError:
        return _fraction_vec_sign(q, v)
    slop = 1e-12 * (abs(lo) + abs(hi) + 1.0) * len(v)
    if lo - slop > 0:
        return 1
    if hi + slop < 0:
        return -1
    return _fraction_vec_sign(q, v)


def _encode(ctx, vec):
    """The kernel element of the vector vec in the basis 1, q, ...,
    q^(d-1), built by the kernel (Horner's rule in mul_q and add_fraction)."""
    acc = ctx.zero
    for c in reversed(vec):
        acc = ctx.add_fraction(ctx.mul_q(acc), c)
    return acc


def _holds(ctx, got, want):
    """The kernel element got has the value of the vector want: a pair of
    an int tuple and an int D > 0 that decodes to want."""
    V, D = got
    return (all(type(x) is int for x in (*V, D)) and D > 0
            and ctx.coefficients(got) == tuple(want))


#: q8, phi, the non-monic root (1 + sqrt 3) / 2 of 2x^2 - 2x - 1, and the
#: rational base 9/5
KERNEL_BASES = [
    ("q8", lambda: AlgebraicNumber.base_from_poly(SQRT_P2_POLY, root_index=0)),
    ("phi", phi),
    ("nonmonic", lambda: AlgebraicNumber.base_from_poly(
        IntPolynomial([-1, -2, 2]), root_index=0)),
    ("rational", lambda: AlgebraicNumber.from_rational(Fraction(9, 5))),
]


def _kernel_vectors(rng, make_base):
    """Seeded int and Fraction vectors, vectors whose constant term nearly
    cancels the rest, and vectors built by digit steps and products (which
    carry Fraction entries on a non-monic base), in the basis 1, q, ...,
    q^(d-1)."""
    q = make_base()
    ref = _ReferenceVecArith(q)
    x = q.float_value()
    vecs = _random_vectors(rng, q.degree)
    vecs += [_near_zero(v, x) for v in vecs[1:9]]
    for _ in range(6):
        acc = (0,) * q.degree
        for _ in range(rng.randint(1, 12)):
            acc = ref.step(acc, rng.randint(-3, 3))
        vecs.append(acc)
        vecs.append(ref.mul(acc, vecs[rng.randrange(1, 9)]))
    return vecs


@pytest.mark.parametrize("name,make_base", KERNEL_BASES,
                         ids=[b[0] for b in KERNEL_BASES])
def test_zq_ring_operations_equal_the_fraction_kernel(name, make_base):
    rng = random.Random(f"kernel-ops:{name}")
    q = make_base()
    ctx, ref = ZqContext(q), _ReferenceVecArith(q)
    vecs = _kernel_vectors(rng, make_base)
    for v in vecs:
        e = _encode(ctx, v)
        assert _holds(ctx, e, v), v
        for s in range(-3, 4):
            assert _holds(ctx, ctx.step(e, s), ref.step(v, s)), (v, s)
        assert _holds(ctx, ctx.mul_q(e), ref.mul_q(v)), v
        for c in (0, -1, 7, Fraction(3, 7), Fraction(-10, 5)):
            assert _holds(ctx, ctx.scale(e, c), ref.scale(v, c)), (v, c)
            assert _holds(ctx, ctx.add_fraction(e, c),
                          ref.add_fraction(v, c)), (v, c)
        w = vecs[rng.randrange(len(vecs))]
        # a step first, so that the two operands' scales differ
        f = ctx.step(_encode(ctx, w), 2)
        assert _holds(ctx, ctx.add(e, f), ref.add(v, ref.step(w, 2))), (v, w)
        assert _holds(ctx, ctx.sub(e, f), ref.sub(v, ref.step(w, 2))), (v, w)
        assert _holds(ctx, ctx.mul(e, _encode(ctx, w)), ref.mul(v, w)), (v, w)


@pytest.mark.parametrize("name,make_base", KERNEL_BASES,
                         ids=[b[0] for b in KERNEL_BASES])
def test_zq_sign_and_float_equal_the_filtered_kernel(name, make_base):
    """The exact sign decides what the float filter decided, with no
    refinement, and the rest exactly as its fallback did; the display float
    is the correctly rounded midpoint of the exact enclosure."""
    rng = random.Random(f"kernel-sign:{name}")
    vecs = _kernel_vectors(rng, make_base)
    for width in (None, Fraction(1, 2**20), Fraction(1, 2**80)):
        for v in vecs:
            got, want = make_base(), make_base()
            if width is not None:
                got.refine_to_width(width)
                want.refine_to_width(width)
            ctx = ZqContext(got)
            e = _encode(ctx, v)
            assert ctx.sign(e) == _reference_filtered_sign(want, v), (width, v)
            assert got.interval() == want.interval(), (width, v)
            value = ctx.float_value(e)
            want.refine_to_width(FLOAT_WIDTH)
            lo, hi = _reference_interval(v, *want.interval())
            assert value.hex() == float((lo + hi) / 2).hex(), (width, v)


def _nonmonic_quadratic():
    return AlgebraicNumber.base_from_poly(IntPolynomial([-1, -2, 2]),
                                          root_index=0)


#: a non-monic, a rational and a monic base
SCALED_BASES = [
    ("nonmonic", _nonmonic_quadratic),
    ("rational", lambda: AlgebraicNumber.from_rational(Fraction(9, 5))),
    ("monic", lambda: AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)),
]


def _float_bits(obj):
    """obj with every float replaced by its hex text, so that == compares
    floats bit by bit."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _float_bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_float_bits(v) for v in obj]
    return obj


#: lazy runs (pattern, m, horizon): T = 1, 6 and 14, eventual in and out,
#: and a materialized unknown pattern as the witness builds; all but the
#: last cross their threshold
LAZY_RUNS = [
    ("explicit:;eventual:in;threshold:1", 1, 70),
    ("explicit:2,4;eventual:in;threshold:6", 1, 70),
    ("explicit:1,3,4;eventual:in;threshold:6", 2, 120),
    ("explicit:1,2,5,7,9,10,13;eventual:out;threshold:14", 3, 120),
    (expansions.SignPattern.from_membership(
        [i for i in range(1, 121) if i % 3], 120).to_text(), 2, 120),
]


def _expansion_runs(make_base):
    """Greedy expansions of 1/3 with their certificates against 1/3 and
    2/7, and the lazy expansions of ``LAZY_RUNS`` with their certificates
    (or the rejection of a capacity below one), each on a fresh base; with
    the base's final interval (the refinement trajectory)."""
    out = []
    for m in (1, 2):
        q = make_base()
        seq = expansions.greedy_expansion(Fraction(1, 3), q, m, 60)
        certs = [expansions.verify_expansion(seq, q, t, 60).to_dict()
                 for t in (Fraction(1, 3), Fraction(2, 7))]
        out.append((seq.preperiod, seq.to_dict(), seq.meta, certs,
                    q.interval()))
    for text, m, horizon in LAZY_RUNS:
        q = make_base()
        try:
            seq = expansions.lazy_constrained(
                q, m, expansions.SignPattern.from_text(text), horizon)
        except PreconditionError as exc:    # capacity below one
            out.append((str(exc), q.interval()))
            continue
        cert = expansions.verify_expansion(seq, q, 0, horizon).to_dict()
        out.append((seq.preperiod, seq.to_dict(), seq.meta, cert,
                    q.interval()))
    return _float_bits(out)


@pytest.mark.parametrize("make_base", [
    lambda: AlgebraicNumber.from_rational(Fraction(9, 5)),
    _nonmonic_quadratic,
    lambda: AlgebraicNumber.from_rational(Fraction(27, 20)),
    lambda: AlgebraicNumber.base_from_poly(P1_POLY, root_index=0),
], ids=["9/5", "nonmonic", "27/20", "x3-x-1"])
def test_expansions_equal_the_fraction_kernel(monkeypatch, make_base):
    """Greedy, verify and lazy runs on the integer kernel (the lazy corridor
    at its fixed scale) give the digits, the to_dict(), the meta and
    certificate floats (bit for bit) and the base refinement of the same
    runs on the Fraction reference."""
    got = _expansion_runs(make_base)
    monkeypatch.setattr(expansions, "ZqContext", _ReferenceVecArith)
    assert got == _expansion_runs(make_base)


@pytest.mark.parametrize("name,make_base", SCALED_BASES,
                         ids=[b[0] for b in SCALED_BASES])
def test_scaled_elements_stay_ints_and_create_no_fraction(monkeypatch, name,
                                                          make_base):
    """On a non-monic, a rational and a monic base every entry of an
    element, and its scale, stays an int through digit steps, products,
    sums and rational scalars; and once the base decides their signs, step,
    add, sub, scale, mul and sign create no Fraction."""
    q = make_base()
    ctx = ZqContext(q)
    rng = random.Random(f"scaled:{name}")
    elements = []
    for _ in range(8):
        acc = ctx.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(rng.randint(1, 30)):
            acc = ctx.step(acc, rng.randint(-2, 2))
        elements.append(acc)
    elements += [ctx.mul(a, b) for a, b in zip(elements, elements[1:])]
    elements += [ctx.sub(ctx.scale(a, Fraction(-5, 3)), b)
                 for a, b in zip(elements, elements[2:])]
    for V, D in elements:
        assert all(type(x) is int for x in (*V, D)) and D > 0
    signs = [ctx.sign(e) for e in elements]          # refines the base

    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for a, b in zip(elements, elements[1:]):
        c = ctx.add(ctx.step(a, -1), ctx.scale(b, 3))
        ctx.sub(ctx.mul(a, c), ctx.neg(b))
        ctx.add_fraction(c, 2)
    assert [ctx.sign(e) for e in elements] == signs
    monkeypatch.undo()
    assert created == []


def test_zq_display_float_of_a_cancelling_vector_is_accurate():
    """470832*sqrt2 - 665857 and 2744210*sqrt2 - 3880899 cancel to about
    -7.5e-7 and -1.3e-7.  Their display floats lie within half the width
    of their exact enclosures (plus half an ulp) of the value read on the
    base refined to 2^-200, so within 2^-30 relative (the midpoint of a
    float enclosure of the terms is off by 1.2e-4 and 4.2e-3)."""
    fine = sqrt2()
    fine.refine_to_width(Fraction(1, 2**200))
    for refine in (False, True):
        q = sqrt2()
        ctx = ZqContext(q)
        if refine:
            ctx.ensure_float_resolution()
        for v in (((-665857, 470832), 1), ((-3880899, 2744210), 1)):
            value = ctx.float_value(v)
            lo, hi = ctx.interval(v)
            flo, fhi = ZqContext(fine).interval(v)
            exact = (flo + fhi) / 2
            error = abs(Fraction(value) - exact)
            assert error <= (hi - lo) / 2 + Fraction(math.ulp(value)) / 2, v
            assert error <= abs(exact) / 2**30, v


def test_base_from_poly_runs_one_isolation_pass(monkeypatch):
    """Real roots read the rational roots off the cells of one isolation
    pass; selecting a root by index isolates nothing more, and selecting
    it by interval isolates once, to divide the rational roots out."""
    calls = []
    isolate = intpoly.isolate_roots_exact

    def counted(p):
        calls.append(p)
        return isolate(p)

    monkeypatch.setattr(intpoly, "isolate_roots_exact", counted)
    monkeypatch.setattr(algebraic, "isolate_roots_exact", counted)
    # (x - 2)(x^2 - 2) and 2(x - 3/2)(x - 2)(x^2 - x - 1) keep rational roots
    reducible = IntPolynomial([4, -2, -2, 1])
    mixed = (IntPolynomial([-3, 2]) * IntPolynomial([-2, 1])
             * PHI_POLY)
    for poly, want in ((PHI_POLY, []), (SQRT_P2_POLY, []),
                       (reducible, [2]), (mixed, [Fraction(3, 2), 2])):
        calls.clear()
        roots = AlgebraicNumber.real_roots(poly)
        assert len(calls) == 1, poly
        assert [r.exact_rational for r in roots
                if r.exact_rational is not None] == want, poly
        calls.clear()
        q = AlgebraicNumber.base_from_poly(poly, root_index=0)
        assert len(calls) == 1, poly
        calls.clear()
        classify_base(q)
        assert calls == [], poly
        if q.exact_rational is None:
            calls.clear()
            AlgebraicNumber(poly, *q.interval())
            assert len(calls) == 1, poly


def test_a_base_pinned_on_a_polynomial_with_a_rational_root_drops_it():
    # (x - 3)(x^2 - 2): the interval around sqrt 2 gets the minimal
    # polynomial x^2 - 2 and its label; the interval around 3 is the
    # rational 3
    poly = IntPolynomial([-3, 1]) * SQRT2_POLY
    q = AlgebraicNumber.base_from_poly(
        poly, root_interval=(Fraction(7, 5), Fraction(3, 2)))
    assert q.min_poly == SQRT2_POLY and q.exact_rational is None
    assert classify_base(q).tag == "NotPisot-AlgebraicInteger"
    three = AlgebraicNumber.base_from_poly(
        poly, root_interval=(Fraction(5, 2), Fraction(7, 2)))
    assert three.exact_rational == 3
    assert three.min_poly == IntPolynomial([-3, 1])
    assert classify_base(three).tag == "PisotInteger"


def test_huge_constant_terms_isolate_without_trial_division(deadline):
    # trial division by the divisors of 10^20 + 1 up to 10^10 never
    # finished; one isolation pass decides that the roots are irrational,
    # or that they are the rationals +-10^10 and +-10^200
    with deadline(1):
        q = AlgebraicNumber.base_from_poly(IntPolynomial([-(10**20 + 1), 0, 1]),
                                           root_index=0)
        assert q.exact_rational is None and q.degree == 2
        assert classify_base(q).tag == "NotPisot-AlgebraicInteger"
        roots = AlgebraicNumber.real_roots(IntPolynomial([-10**20, 0, 1]))
        assert [r.exact_rational for r in roots] == [-10**10, 10**10]
        q = AlgebraicNumber.base_from_poly(IntPolynomial([-10**400, 0, 1]),
                                           root_index=0)
        assert q.exact_rational == 10**200
        assert classify_base(q).tag == "PisotInteger"


def test_concurrent_refinement_stays_valid():
    import threading

    q = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)
    errors = []

    def refine(bits):
        try:
            for b in range(8, bits, 8):
                lo, hi = q.refine_to_width(Fraction(1, 2**b))
                assert P1_POLY.sign_at(lo) * P1_POLY.sign_at(hi) < 0
        except Exception as exc:  # surface in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=refine, args=(b,))
               for b in (64, 128, 96, 200)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    lo, hi = q.interval()
    assert hi - lo <= Fraction(1, 2**192)
    assert P1_POLY.sign_at(lo) * P1_POLY.sign_at(hi) < 0
