"""Certified algebraic arithmetic tests.

Oracles used here are independent of the code under test: the quadratic
formula for degree-2 conjugates, float bisection for real roots, and direct
floating evaluation for the Z[q] round trips.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from qspectra.algebraic import (
    AlgebraicNumber,
    NumberClass,
    classify_base,
    conjugates,
    power_base,
    unit_circle_root_count,
)
from qspectra.errors import PreconditionError
from qspectra.intpoly import IntPolynomial

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
    assert unit_circle_root_count(p) == 2
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


def test_power_gcd_property_concrete():
    # Lemma-style check: if q^r and q^s are Pisot then so is q^gcd(r,s);
    # exercised on phi with (r, s) = (2, 3), gcd 1
    q = phi()
    assert classify_base(power_base(q, 2)).is_pisot
    assert classify_base(power_base(q, 3)).is_pisot
    assert classify_base(q).is_pisot


# -- Z[q] kernel -------------------------------------------------------------


def test_zq_zero_digits():
    assert sqrt2().zq_context().from_digits([0]) == (0, 0)


def test_zq_example_values():
    assert sqrt2().zq_context().from_digits([1, 0, 1]) == (3, 0)
    assert phi().zq_context().from_digits([1, 1]) == (1, 1)


def test_zq_compare_examples():
    ctx = sqrt2().zq_context()
    one = ctx.from_digits([1])
    assert ctx.compare(one, ctx.from_digits([1])) == 0
    # 3 - 2*sqrt2 vs 0
    assert ctx.compare((3, -2), (0, 0)) == 1
    assert phi().zq_context().compare((-1, 1), (1, 0)) == -1   # phi-1 < 1


def test_zq_cmp_fraction():
    ctx = sqrt2().zq_context()
    assert ctx.cmp_fraction((0, 1), Fraction(141, 100)) == 1
    assert ctx.cmp_fraction((0, 1), Fraction(142, 100)) == -1
    assert ctx.cmp_fraction((1, 1), Fraction(5, 2)) == -1     # 1+sqrt2 < 2.5
    assert ctx.cmp_fraction((3, 0), Fraction(3)) == 0


def test_zq_sign_of_coefficients_beyond_float_range():
    ctx = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0).zq_context()
    big = (10**400, -1, 0)
    assert ctx.sign(big) == 1
    assert ctx.compare((0, 0, 0), big) == -1
    assert ctx.cmp_fraction(big, Fraction(10**399)) == 1


def test_zq_requires_monic():
    q = AlgebraicNumber.base_from_poly(IntPolynomial([-3, 0, 2]), root_index=0)
    with pytest.raises(PreconditionError):
        q.zq_context()


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
            lo, hi = q.value_interval_of_vec(vec)
            assert float(lo) - 1e-6 <= direct <= float(hi) + 1e-6


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
            lo1, hi1 = q.value_interval_of_vec(vec)
            other = ctx.from_digits(seen[vec])
            lo2, hi2 = q.value_interval_of_vec(other)
            assert not (hi1 < lo2 or hi2 < lo1)
        seen.setdefault(vec, digits)
    assert hits > 10  # collisions do occur for phi


def test_sign_determination_exact():
    q = phi()
    ctx = q.zq_context()
    # phi^2 - phi - 1 = 0 exactly
    assert ctx.sign(ctx.from_digits([-1, -1, 1])) == 0
    assert ctx.sign((-1, 1)) == 1   # phi - 1 > 0
    assert ctx.sign((2, -1)) == 1   # 2 - phi > 0
    assert ctx.sign((1, -1)) == -1  # 1 - phi < 0


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
    # complex pair at modulus sqrt(1 + 1e-15): undecidable at 64 bits,
    # certified outside with a realistic budget
    n = 10**15
    p = IntPolynomial([n + 1, -2 * n, n])
    cs = conjugates(p, budget_bits=64)
    assert not cs.resolved
    assert all(d.location == "unresolved" for d in cs.disks)
    cs_full = conjugates(p, budget_bits=4096)
    assert cs_full.resolved
    assert all(d.location == "outside" for d in cs_full.disks)


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
