"""Certified algebraic arithmetic tests.

Oracles used here are independent of the code under test: the quadratic
formula for degree-2 conjugates, float bisection for real roots, and direct
floating evaluation for the Z[q] round trips.
"""

from __future__ import annotations

import hashlib
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

from qspectra import algebraic, disks, expansions, intpoly, spectrum
from qspectra.algebraic import (
    FLOAT_WIDTH,
    AlgebraicNumber,
    NumberClass,
    ZqContext,
    _axpy,
    classify_base,
    power_base,
)
from qspectra.disks import _certified_disks, _dk_iterate, conjugates
from qspectra.errors import PreconditionError, ReducibleInputError
from qspectra.intpoly import IntPolynomial, is_squarefree
from qspectra.spectrum import _PackedZq

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


def _poly_sum(*polys: IntPolynomial) -> IntPolynomial:
    """The sum of the polynomials, coefficient by coefficient."""
    return IntPolynomial(map(sum, itertools.zip_longest(
        *(p.coeffs for p in polys), fillvalue=0)))


def _sign_at(p: IntPolynomial, x) -> int:
    """The exact sign of p at a rational x."""
    x = Fraction(x)
    return intpoly._sign(p.coeffs, x.numerator, x.denominator)


def _cells(p, above=None):
    """``isolate_roots_exact``'s int cells (a, b, den) as Fraction pairs
    (a/den, b/den)."""
    return [(Fraction(a, den), Fraction(b, den))
            for a, b, den in intpoly.isolate_roots_exact(p, above)]


def _unchecked(p: IntPolynomial, lo: Fraction, hi: Fraction):
    """The root of p in (lo, hi), built unchecked as the selectors build
    one: p is taken as its minimal polynomial."""
    den = math.lcm(lo.denominator, hi.denominator)
    return object.__new__(AlgebraicNumber)._set_cell(
        p, lo.numerator * den // lo.denominator,
        hi.numerator * den // hi.denominator, den)


def _open_cells(cells):
    """Isolation cells with each point cell (r, r) widened to the open
    interval between the midpoints from r to its neighbour cells (r -+ 1
    past the last ones), which isolates r."""
    out = []
    for i, (lo, hi) in enumerate(cells):
        if lo == hi:
            lo = (cells[i - 1][1] + lo) / 2 if i else lo - 1
            hi = (hi + cells[i + 1][0]) / 2 if i + 1 < len(cells) else hi + 1
        out.append((lo, hi))
    return out


# -- root isolation -------------------------------------------------------


def test_isolate_golden_ratio_roots():
    roots = AlgebraicNumber.real_roots(PHI_POLY)
    for r in roots:
        r.refine_to_width(Fraction(2, 10**12))
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
        assert _sign_at(PHI_POLY, lo) * _sign_at(PHI_POLY, hi) < 0
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
            q.refine_to_width(-2)
        with pytest.raises(PreconditionError):
            intpoly._bisect(PHI_POLY.coeffs, *q._iv, 0, 1)
    assert q.interval() == (lo, hi)


#: public entry points that take a rational, each called with ``x``
NONFINITE_ENTRY_POINTS = {
    "enumerate_X": lambda x: spectrum.enumerate_X(phi(), 1, x),
    "enumerate_Y": lambda x: spectrum.enumerate_Y(phi(), 1, 3, x),
    "enumerate_A": lambda x: spectrum.enumerate_A(phi(), 3, x),
    "greedy_expansion": lambda x: expansions.greedy_expansion(x, phi(), 1, 4),
    "verify_expansion": lambda x: expansions.verify_expansion(
        expansions.greedy_expansion(1, phi(), 1, 4), phi(), x, 4),
    "from_rational": AlgebraicNumber.from_rational,
    "greater_than": lambda x: phi().greater_than(x),
    "refine_to_width": lambda x: phi().refine_to_width(x),
    "base_from_poly": lambda x: AlgebraicNumber.base_from_poly(
        PHI_POLY, root_interval=(x, 2)),
}


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("entry", sorted(NONFINITE_ENTRY_POINTS))
def test_a_nonfinite_float_is_a_typed_error(entry, x):
    # Fraction(x) raises OverflowError or ValueError; each entry point
    # must end in PreconditionError instead
    with pytest.raises(PreconditionError, match="not a finite rational"):
        NONFINITE_ENTRY_POINTS[entry](x)


F = Fraction

#: The refinement trajectory the recorded floats depend on: base intervals
#: from ``base_from_poly`` (the isolation cells, unrefined) and after
#: ``refine_to_width(2^-80)``, and the Sturm chain evaluations and
#: refinements of one ``base_from_poly``.
PINNED_BASES = [
    (SQRT_P2_POLY, (F(0), F(2)),
     (F(88769318478590582402507, 75557863725914323419136),
      F(1420309095657449318440113, 1208925819614629174706176)), 1, 0),
    (P2_POLY, (F(0), F(2)),
     (F(417163297879255274724055, 302231454903657293676544),
      F(1668653191517021098896221, 1208925819614629174706176)), 1, 0),
    (P1_POLY, (F(-2), F(2)),
     (F(200185717777540234707697, 151115727451828646838272),
      F(1601485742220321877661577, 1208925819614629174706176)), 0, 0),
]


def _count_calls(monkeypatch, module, name, calls):
    """Count the calls of ``module.name`` in ``calls[name]``."""
    fn = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    monkeypatch.setattr(module, name, wrapper)
    return wrapper


@pytest.mark.parametrize("poly,interval,refined,evals,refines", PINNED_BASES)
def test_base_refinement_trajectory_is_pinned(monkeypatch, poly, interval,
                                              refined, evals, refines):
    calls = {"_variations_at": 0, "_bisect": 0}
    _count_calls(monkeypatch, intpoly, "_variations_at", calls)
    monkeypatch.setattr(algebraic, "_bisect", _count_calls(
        monkeypatch, intpoly, "_bisect", calls))
    q = AlgebraicNumber.base_from_poly(poly, root_index=0)
    assert calls == {"_variations_at": evals, "_bisect": refines}
    assert q.interval() == interval
    assert q.refine_to_width(F(1, 2**80)) == refined


@pytest.mark.parametrize("poly,chains", [
    (P1_POLY, 1),
    (IntPolynomial([1, -2, 1]) * PHI_POLY, 2),       # (x-1)^2 (x^2-x-1)
])
def test_one_remainder_sequence_per_squarefree_input(monkeypatch, poly,
                                                     chains):
    # the Sturm chain of a squarefree input is its squarefree part's; a
    # square factor costs one more chain, that of the quotient (the library
    # has no separate gcd to take)
    calls = {"_sturm_chain_of": 0}
    _count_calls(monkeypatch, intpoly, "_sturm_chain_of", calls)
    for kw in ({"root_index": 0}, {"root_interval": (F(5, 4), F(7, 4))}):
        calls.update(_sturm_chain_of=0)
        # a fresh copy each time: a primitive squarefree input keeps its chain
        AlgebraicNumber.base_from_poly(IntPolynomial(poly.coeffs), **kw)
        assert calls == {"_sturm_chain_of": chains}, kw


def _height_one_base_lines():
    """Two lines per monic height-1 polynomial of degree 3-5 with a real
    root > 1: its coefficients with the interval of base_from_poly's first
    root > 1, and its coefficients with that interval refined to width
    2^-80."""
    for d in (3, 4, 5):
        for head in itertools.product((-1, 0, 1), repeat=d):
            coeffs = (*head, 1)
            try:
                q = AlgebraicNumber.base_from_poly(IntPolynomial(coeffs),
                                                   root_index=0)
            except PreconditionError as exc:
                assert "out of range: 0 real roots > 1" in str(exc), coeffs
                continue
            (lo, hi), (rlo, rhi) = q.interval(), q.refine_to_width(
                F(1, 2**80))
            text = ",".join(map(str, coeffs))
            yield f"{text} {lo} {hi}\n", f"{text} {rlo} {rhi}\n"


def test_height_one_base_intervals_are_pinned():
    # the recorded benchmark floats depend on each base's refinement
    # trajectory; this pins it on every small height-1 base in tier 1: the
    # selected cells, unrefined, and the intervals at 2^-80, which are the
    # same as when selection refined each cell until it cleared 1
    cells, refined = zip(*_height_one_base_lines())
    assert len(cells) == 76
    assert hashlib.sha256("".join(cells).encode()).hexdigest() == (
        "954570d318ba6e544733772456ecbde291a5bbe67ac6e3ed974d39e131349386")
    assert hashlib.sha256("".join(refined).encode()).hexdigest() == (
        "88b300d38f518d38a14529239237fdd328f16d47db851bf3b8658181f38917ba")


def _checked_constructor_lines():
    """One line per isolating cell of p = (bx - a) f, a/b in
    {-2, 0, 1/2, 1, 3/2, 2} and f each monic height-1 quadratic and cubic
    (a rational root's point cell widened to an open one): p, then the
    checked constructor's min_poly, exact_rational and interval on that
    cell."""
    for r in (F(-2), F(0), F(1, 2), F(1), F(3, 2), F(2)):
        for d in (2, 3):
            for low in itertools.product((-1, 0, 1), repeat=d):
                p = (IntPolynomial([-r.numerator, r.denominator])
                     * IntPolynomial([*low, 1]))
                for cell in _open_cells(_cells(p)):
                    x = AlgebraicNumber(p, *cell)
                    lo, hi = x.interval()
                    yield (f"{p.to_text()} {x.min_poly.to_text()} "
                           f"{x.exact_rational} {lo} {hi}\n")


def test_checked_constructor_is_pinned():
    # the rational roots that the checked constructor divides out, and the
    # rational it becomes when its cell holds one, as recorded before it
    # shared the root selector's split
    lines = list(_checked_constructor_lines())
    assert len(lines) == 484
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "94f763ba6868cbb51dcceae147d83231d7ef21545dab3dfdab455f58a17edf25")


def _divided_out(p: IntPolynomial, r: Fraction) -> IntPolynomial:
    """p / (x - r) for a root r of p, by synthetic division in Fractions,
    cleared of denominators and made primitive."""
    acc, quot = Fraction(0), []
    for c in reversed(p.coeffs):
        acc = acc * r + c
        quot.append(acc)
    assert quot.pop() == 0                              # the remainder p(r)
    den = math.lcm(*(c.denominator for c in quot))
    return IntPolynomial(int(c * den) for c in reversed(quot)).primitive()


def _centred_cells(cells):
    """Isolation cells with each point cell (r, r) widened to an open
    interval centred on r that isolates it, as isolation once returned a
    rational root."""
    out = []
    for (lo, hi), (wlo, whi) in zip(cells, _open_cells(cells)):
        e = min(lo - wlo, whi - hi)                     # 0 on an open cell
        out.append((lo - e, hi + e))
    return out


def _reference_real_roots(p: IntPolynomial) -> list[AlgebraicNumber]:
    """``real_roots`` as it was when a rational root's cell was centred on
    it: a cell whose midpoint is a root is that rational, and the roots so
    found are divided out of the squarefree part in Fractions, for the
    minimal polynomial of the others."""
    sf = intpoly.squarefree_part(p)
    cells = _centred_cells(_cells(sf))
    rats = [m for lo, hi in cells if _sign_at(sf, m := (lo + hi) / 2) == 0]
    irr = sf
    for r in rats:
        irr = _divided_out(irr, r)
    return [AlgebraicNumber.from_rational(m) if (m := (lo + hi) / 2) in rats
            else _unchecked(irr, lo, hi) for lo, hi in cells]


def _root_record(x: AlgebraicNumber):
    return x.min_poly, x.exact_rational, x.interval()


def test_real_roots_and_the_checked_constructor_match_the_midpoint_path():
    # every monic height-1 polynomial of degree 1-6, and a constant: each
    # real root, and the checked constructor on its cell (a rational root's
    # widened), as the path that signed cell midpoints found them
    assert intpoly.isolate_roots_exact(IntPolynomial([5])) == []
    assert AlgebraicNumber.real_roots(IntPolynomial([5])) == []
    polys = roots = rationals = 0
    for d in range(1, 7):
        for low in itertools.product((-1, 0, 1), repeat=d):
            p = IntPolynomial([*low, 1])
            got = AlgebraicNumber.real_roots(p)
            want = _reference_real_roots(p)
            assert list(map(_root_record, got)) == list(
                map(_root_record, want)), low
            cells = _open_cells(_cells(p))
            for (lo, hi), x in zip(cells, want):
                assert _root_record(AlgebraicNumber(p, lo, hi)) == \
                    _root_record(x), (low, lo, hi)
            polys += 1
            roots += len(got)
            rationals += sum(x.exact_rational is not None for x in got)
    assert (polys, roots, rationals) == (1092, 1816, 756)


def _unscreened_base(monkeypatch, coeffs):
    """The first root > 1 of the polynomial of coeffs by the path that
    finds every rational root: with the mod-p screen made to fail, every
    cell is isolated and bisected to width 1/lc, the rational roots are
    split off, and the first cell whose root ``greater_than(1)`` accepts
    is taken."""
    with monkeypatch.context() as m:
        m.setattr(intpoly, "_has_root_mod", lambda cs, p: True)
        sf = intpoly.squarefree_part(IntPolynomial(coeffs))
        rats, irr = intpoly._split_rational_roots(
            sf, intpoly.isolate_roots_exact(sf))
        cells = _cells(sf)
    for lo, hi in cells:
        mid = (lo + hi) / 2
        r = (AlgebraicNumber.from_rational(mid) if mid in rats
             else _unchecked(irr, lo, hi))
        if r.greater_than(1):
            return r
    return None


def _selection_record(q):
    """What a selected base records: its polynomial, rational value,
    unrefined interval, label and interval at width 2^-80."""
    return (q.min_poly, q.exact_rational, q.interval(), classify_base(q).tag,
            q.refine_to_width(F(1, 2**80)))


def test_screened_selection_matches_the_unscreened_path(monkeypatch):
    # every monic height-1 polynomial of degree 2-6 with a root > 1,
    # reducible ones included, selects the same base either way
    compared = screened = 0
    for d in range(2, 7):
        for head in itertools.product((-1, 0, 1), repeat=d):
            coeffs = (*head, 1)
            want = _unscreened_base(monkeypatch, coeffs)
            if want is None:
                continue
            p = IntPolynomial(coeffs)
            q = AlgebraicNumber.base_from_poly(p, root_index=0)
            assert _selection_record(q) == _selection_record(want), coeffs
            compared += 1
            screened += not intpoly._may_have_rational_root(
                intpoly.squarefree_part(p))
    assert (compared, screened) == (264, 148)


def test_screen_skips_no_prime_dividing_the_leading_coefficient():
    # (2x - 1)(x^2 - x - 1) has no root mod 2, but 2 divides lc
    p = IntPolynomial([1, -1, -3, 2])
    assert not intpoly._has_root_mod(p.coeffs, 2)
    assert intpoly._may_have_rational_root(p)
    roots = AlgebraicNumber.real_roots(p)
    assert [r.exact_rational for r in roots] == [None, F(1, 2), None]
    q = AlgebraicNumber.base_from_poly(p, root_index=0)
    assert (q.min_poly, q.exact_rational) == (PHI_POLY, None)
    assert classify_base(q).tag == algebraic.PISOT


def test_screen_fails_on_a_root_mod_every_prime(monkeypatch):
    # one of 2, 3 and 6 is a square mod every prime, so the screen fails
    # on (x^2 - 2)(x^2 - 3)(x^2 - 6), which has no rational root
    coeffs = (IntPolynomial([-2, 0, 1]) * IntPolynomial([-3, 0, 1])
              * IntPolynomial([-6, 0, 1])).coeffs
    p = IntPolynomial(coeffs)
    assert intpoly._may_have_rational_root(p)
    q = AlgebraicNumber.base_from_poly(p, root_index=0)
    assert q.exact_rational is None and q.min_poly == p
    assert _selection_record(q) == _selection_record(
        _unscreened_base(monkeypatch, coeffs))


def test_screened_isolation_bisects_nothing(monkeypatch):
    # x^2 - 10^600 x - 1: its cell is never bisected to width 1/lc = 1, and
    # no rational root is divided out
    calls = {"_bisect": 0, "_exact_quo": 0}
    _count_calls(monkeypatch, intpoly, "_bisect", calls)
    _count_calls(monkeypatch, intpoly, "_exact_quo", calls)
    big = 10**600
    p = IntPolynomial([-1, -big, 1])
    q = AlgebraicNumber.base_from_poly(p, root_index=0)
    assert calls == {"_bisect": 0, "_exact_quo": 0}
    assert q.min_poly == p and q.exact_rational is None
    assert q.greater_than(big) and not q.greater_than(big + 1)


def _height_one_bases():
    """Every monic {-1, 0, 1} polynomial of degree 2-6 with a root > 1."""
    for d in range(2, 7):
        for head in itertools.product((-1, 0, 1), repeat=d):
            p = IntPolynomial((*head, 1))
            if any(r.float_value() > 1 for r in AlgebraicNumber.real_roots(p)):
                yield p


def test_selecting_a_screened_base_bisects_nothing(monkeypatch):
    # with no rational root possible, selection isolates the cells above 1
    # and decides q > 1 on the selected cell by one sign, refining nothing
    polys = [p for p in _height_one_bases()
             if not intpoly._may_have_rational_root(intpoly.squarefree_part(p))]
    calls = {"_bisect": 0}
    monkeypatch.setattr(algebraic, "_bisect", _count_calls(
        monkeypatch, intpoly, "_bisect", calls))
    for p in polys:
        q = AlgebraicNumber.base_from_poly(IntPolynomial(p.coeffs),
                                           root_index=0)
        assert calls == {"_bisect": 0}, p
        assert q.exact_rational is None, p
    assert len(polys) == 148


def _refined_compare(q, c: Fraction) -> int:
    """Sign of q - c for an irrational q as ``compare_to_fraction`` once
    decided it: a copy of q's interval bisected by quarter steps until it
    clears c (the loop of ``_sign_of_reduced`` on the enclosure of q - c)."""
    a, b, den = q._iv
    n, d = c.numerator, c.denominator
    while True:
        if d * a > n * den:
            return 1
        if d * b < n * den:
            return -1
        a, b, den = intpoly._bisect(q.min_poly.coeffs, a, b, den, b - a,
                                    4 * den)


def test_comparison_reads_the_cell_as_refinement_decided(monkeypatch):
    # every height-1 base of degree 2-6 with a root > 1 and the four
    # non-monic bases of the power_base test, against 1, 2, m and m + 1 for
    # m = 1-3, 0, the cell's ends and midpoint, and rationals beside q: the
    # same sign as refining until the cell clears c, read with no
    # refinement and with two evaluations of the minimal polynomial when c
    # lies inside the cell, none when it does not
    signs = {"_sign": 0}
    _count_calls(monkeypatch, algebraic, "_sign", signs)
    polys = list(_height_one_bases()) + [
        IntPolynomial(c) for c in ([-1, -2, 2], [-2, -3, 3], [1, -5, 0, 2],
                                   [-7, 1, 0, 3])]
    bases = inside = outside = 0
    for p in polys:
        q = AlgebraicNumber.base_from_poly(p, root_index=0)
        assert q.exact_rational is None, p
        lo, hi = cell = q.interval()
        near = AlgebraicNumber(q.min_poly, lo, hi).refine_to_width(
            F(1, 2**40))
        for c in (F(0), F(1), F(2), F(3), F(4), lo, hi, (lo + hi) / 2,
                  *near, near[0] - F(1, 2**41), near[1] + F(1, 2**41)):
            signs["_sign"] = 0
            assert q.compare_to_fraction(c) == _refined_compare(q, c), (p, c)
            assert q.greater_than(c) == (_refined_compare(q, c) > 0), (p, c)
            assert q.interval() == cell, (p, c)
            if lo < c < hi:
                assert signs["_sign"] == 4, (p, c)
                inside += 1
            else:
                assert signs["_sign"] == 0, (p, c)
                outside += 1
        bases += 1
    assert (bases, inside, outside) == (268, 1540, 1676)


def _classify_counting_chains(monkeypatch, poly):
    """(Sturm sequences built, class) of base_from_poly and classify_base
    on a fresh copy of poly, with the conjugate disks read."""
    calls = {"_sturm_chain_of": 0}
    _count_calls(monkeypatch, intpoly, "_sturm_chain_of", calls)
    q = AlgebraicNumber.base_from_poly(IntPolynomial(poly.coeffs),
                                       root_index=0)
    cls = classify_base(q)
    cls.conjugate_set
    monkeypatch.undo()
    return calls["_sturm_chain_of"], cls


def test_classification_and_its_disks_reuse_the_chain_and_counts(monkeypatch):
    # x^3 - x - 1: base_from_poly builds its one chain, which min_poly keeps;
    # classify_base counts the unit-circle roots with the sequence of A, B,
    # whose gcd is constant, so that no root lies on the axis and the gcd
    # gets no chain; reading the disks reuses the chain and the counts
    chains, cls = _classify_counting_chains(monkeypatch, P1_POLY)
    assert chains == 2
    assert (cls.tag, cls.n_in, cls.n_on, cls.n_out) == ("Pisot", 2, 0, 1)
    assert cls.conjugate_set == conjugates(IntPolynomial(P1_POLY.coeffs))


def test_a_gcd_with_roots_on_the_axis_keeps_its_chain(monkeypatch):
    # Lehmer's polynomial (Salem): gcd(A, B) holds the images of its 8
    # roots on the unit circle, and the gcd's own chain counts them
    lehmer = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    chains, cls = _classify_counting_chains(monkeypatch, lehmer)
    assert chains == 3
    assert (cls.tag, cls.n_in, cls.n_on, cls.n_out) == (
        "NotPisot-AlgebraicInteger", 1, 8, 1)
    assert cls.conjugate_set.on_circle_count == 8


def test_a_root_index_that_is_not_an_integer_is_refused():
    # root_index=0.0 once raised TypeError (a list index), and so did "0"
    for index in (0.5, "0", F(1, 2)):
        with pytest.raises(PreconditionError,
                           match="^root index .* is not an integer$"):
            AlgebraicNumber.base_from_poly(PHI_POLY, root_index=index)
    assert AlgebraicNumber.base_from_poly(
        PHI_POLY, root_index=0.0).interval() == phi().interval()
    for index in (1, -1):
        with pytest.raises(PreconditionError,
                           match="out of range: 1 real roots > 1"):
            AlgebraicNumber.base_from_poly(PHI_POLY, root_index=index)


def test_roots_below_one_are_not_built(monkeypatch):
    # x (2x^2 - 1)(x + 1)(x^2 - x - 1): of its six isolating cells two
    # reach past one, (7/16, 77/64) of 1/sqrt(2) and phi's, so two roots
    # are built and tested, and the four roots below them never are
    built = []
    set_cell = AlgebraicNumber._set_cell

    def counting_set_cell(self, *args):
        built.append(args)
        return set_cell(self, *args)
    monkeypatch.setattr(AlgebraicNumber, "_set_cell", counting_set_cell)
    p = (IntPolynomial([0, 1]) * IntPolynomial([-1, 0, 2])
         * IntPolynomial([1, 1]) * PHI_POLY)
    q = AlgebraicNumber.base_from_poly(p, root_index=0)
    assert len(built) == 2
    assert abs(q.float_value() - (1 + math.sqrt(5)) / 2) < 1e-15
    assert len(AlgebraicNumber.real_roots(p)) == 6


def test_a_linear_base_interval_is_checked():
    # the root 3 of x - 3 must lie strictly inside the interval
    x_minus_3 = IntPolynomial([-3, 1])
    for interval in [(5, 6), (math.nan, 4), (3, 4), (4, 2)]:
        with pytest.raises(PreconditionError):
            AlgebraicNumber.base_from_poly(x_minus_3, root_interval=interval)
    q = AlgebraicNumber.base_from_poly(x_minus_3, root_interval=(2, 4))
    assert q.exact_rational == 3


def test_an_interval_end_past_the_str_digit_limit_is_shown_rounded():
    # str() refuses an int of over 4,300 digits, which once turned the
    # refusal of such an interval into an untyped ValueError
    for lo, hi, shown in ((F(-10**5000), F(3), "(-~1e5000, 3)"),
                          (F(1, 10**5000), F(1), "(~1e-5000, 1)"),
                          (F(2), F(10**4400 + 1, 10**4398), "(2, ~1e2)")):
        with pytest.raises(PreconditionError) as info:
            AlgebraicNumber(PHI_POLY, lo, hi)
        assert str(info.value) == (
            f"interval {shown} does not isolate exactly one root")


def test_isolation_cells_are_pinned():
    # a rational root is its point cell, found by the bisection to width
    # 1/lc (1 and -1) or as a split point (0)
    x_minus_1 = IntPolynomial([-1, 1])
    assert _cells(x_minus_1 * PHI_POLY) == [
        (F(-3), F(0)), (F(1), F(1)), (F(3, 2), F(3))]
    big = 10**20 + 2
    assert _cells(IntPolynomial([1 - big, 0, 1])) == [
        (F(-big), F(0)), (F(0), F(big))]
    # x (2x^2 - 1)(x + 1): the first midpoint, 0, is a root
    p = IntPolynomial([0, 1]) * IntPolynomial([-1, 0, 2]) * IntPolynomial([1, 1])
    assert _cells(p) == [
        (F(-1), F(-1)), (F(-7, 8), F(-1, 2)), (F(0), F(0)), (F(1, 2), F(2))]
    # as int cells (a, b, den), each reduced by gcd(a, b, den)
    assert intpoly.isolate_roots_exact(p) == [
        (-1, -1, 1), (-7, -4, 8), (0, 0, 1), (1, 4, 2)]


def test_isolation_evaluates_the_chain_once_per_point(monkeypatch):
    # the inputs of test_isolation_cells_are_pinned: one evaluation at each
    # split point, the bracket points of the rational root 0 of the last
    # input included; the two ends of the root bound are read off the
    # leading coefficients, as no root lies beyond them
    evaluate = intpoly._variations_at
    points = []
    monkeypatch.setattr(intpoly, "_variations_at", lambda chain, num, den: (
        points.append(F(num, den)) or evaluate(chain, num, den)))
    big = 10**20 + 2
    for p, splits in [
            (IntPolynomial([-1, 1]) * PHI_POLY, [F(0), F(3, 2)]),
            (IntPolynomial([1 - big, 0, 1]), [F(0)]),
            (IntPolynomial([0, 1]) * IntPolynomial([-1, 0, 2])
             * IntPolynomial([1, 1]),
             [F(0), F(-1), F(-1, 2), F(1, 2), F(-5, 4), F(-7, 8)])]:
        points.clear()
        intpoly.isolate_roots_exact(p)
        assert points == splits, p


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


# (coefficients, non-real roots as (re, im), rung that certifies them)
LADDER_CASES = [
    ([0, 1], [], 53),                                   # x
    ([-3, 2], [], 53),                                  # 2x - 3
    ([-1, 3], [], 53),                                  # 3x - 1
    ([-1, 1], [], 53),                                  # x - 1
    ([1, 1], [], 53),                                   # x + 1
    ([0, -2, 0, 1], [], 53),                            # x(x^2 - 2)
    ([0, 1, 0, 1], [(0, 1), (0, -1)], 53),              # x(x^2 + 1)
    ([0, -1, -1, 1], [], 53),                           # x(x^2 - x - 1)
    ([0, -10**400, 1], [], 256),                        # x(x - 10^400)
]


@pytest.mark.parametrize("coeffs,nonreal,bits", LADDER_CASES)
def test_linear_and_zero_root_inputs_take_the_ladder(coeffs, nonreal, bits):
    """Each true root lies in exactly one disk, tagged with the root's own
    place against the unit circle.  Real roots are exact rationals or
    Sturm-isolated intervals; the disk holds the whole interval, and every
    distance is compared squared, in Fractions."""
    p = IntPolynomial(coeffs)
    cs = conjugates(p)
    assert cs.resolved and cs.precision_bits == bits
    assert len(cs.disks) == p.degree
    roots = []                          # (re_lo, re_hi, im), exact
    for r in AlgebraicNumber.real_roots(p):
        lo, hi = r.refine_to_width(Fraction(1, 2**120))
        roots.append((lo, hi, Fraction(0)))
    roots += [(Fraction(re), Fraction(re), Fraction(im)) for re, im in nonreal]
    assert len(roots) == p.degree
    for lo, hi, im in roots:
        held = [d for d in cs.disks
                if all((x - d.re) ** 2 + (im - d.im) ** 2 <= d.radius ** 2
                       for x in (lo, hi))]
        assert len(held) == 1, (lo, hi, im)
        mods = {x * x + im * im for x in (lo, hi)}
        where = ("on" if mods == {1} else "inside" if max(mods) < 1
                 else "outside" if min(mods) > 1 else None)
        assert held[0].location == where
    assert cs.on_circle_count == sum(d.location == "on" for d in cs.disks)


def test_unit_circle_counts_run_once_per_base(monkeypatch):
    """``classify_base`` counts the minimal polynomial and leaves the counts
    on it; the disks behind ``evidence()`` read them from there.  One count
    is two Taylor shifts."""
    q = AlgebraicNumber.base_from_poly(IntPolynomial(P1_POLY.coeffs),
                                       root_index=0)
    calls = []
    shift = intpoly._taylor_shift

    def counting(*args):
        calls.append(args)
        return shift(*args)

    monkeypatch.setattr(intpoly, "_taylor_shift", counting)
    cls = classify_base(q)
    assert cls.evidence() and cls.conjugate_set.resolved
    assert len(calls) == 2


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
    assert sorted(d.location for d in cs.disks) == [
        "inside", "on", "on", "outside"]


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


def test_power_base_first_power_is_the_base():
    q = phi()
    assert power_base(q, 1) is q


def test_power_base_of_a_rational_is_exact():
    p = power_base(AlgebraicNumber.from_rational(Fraction(3, 2)), 3)
    assert p.exact_rational == Fraction(27, 8)


def test_power_base_refines_q_until_the_power_is_isolated():
    # q = the root > 1 of 1000x^2 - x - 2000 starts at its isolation cell
    # (0, 3), and two refinements later at (21/16, 3/2), whose square still
    # holds both real roots of 10^6 x^2 - 4000001 x + 4*10^6
    q = AlgebraicNumber.base_from_poly(IntPolynomial([-2000, -1, 1000]),
                                       root_index=0)
    assert q.interval() == (Fraction(0), Fraction(3))
    widths = []
    refine = q.refine_to_width

    def counting(width):
        widths.append(width)
        return refine(width)

    q.refine_to_width = counting
    p = power_base(q, 2)
    assert widths[:2] == [Fraction(3, 4), Fraction(3, 16)]
    assert len(widths) == 6
    assert p.min_poly == IntPolynomial([4000000, -4000001, 1000000])
    assert p.interval() == (Fraction(33558849, 16777216),
                            Fraction(2099601, 1048576))
    assert abs(p.float_value() - q.float_value() ** 2) < 1e-12


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


@pytest.mark.parametrize("poly,interval,k,min_poly,value", [
    # the root 0.3028 of x^2 + 3x - 1 on an interval that holds 0 and whose
    # square held the conjugate's square 10.908
    ([-1, 3, 1], (-1, 5), 2, [1, -11, 1], (11 - 117**0.5) / 2),
    # -sqrt 2 and -phi, squares over intervals that hold 0 refined for
    # seconds, then ended in an untyped error
    ([-2, 0, 1], None, 2, [-2, 1], 2),
    ([-2, 0, 1], None, 3, [-8, 0, 1], -8**0.5),
    ([-2, 0, 1], None, 4, [-4, 1], 4),
    ([1, -1, -1], None, 2, [1, -3, 1], (3 + 5**0.5) / 2),
    ([1, -1, -1], None, 3, [-1, 4, 1], -(2 + 5**0.5)),
])
def test_power_base_of_a_root_below_one(deadline, poly, interval, k,
                                        min_poly, value):
    # without an interval, the first real root of poly, which is negative
    p = IntPolynomial(poly)
    q = (AlgebraicNumber(p, *interval) if interval
         else AlgebraicNumber.real_roots(p)[0])
    with deadline(1):
        got = power_base(q, k)
    assert got.min_poly == IntPolynomial(min_poly)
    assert abs(got.float_value() - value) < 1e-12 * max(1, abs(value))
    assert abs(got.float_value() - q.float_value() ** k) < 1e-12 * max(
        1, abs(value))


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


def _reference_power_base(q, k):
    """The companion-matrix route: the characteristic polynomial of the
    k-th power of the companion matrix of q's minimal polynomial, its
    squarefree part, the same interval search (q refined off 0 first, as x^k
    maps an interval of q > 0 onto one of q^k only there), then the checked
    constructor."""
    p, d = q.min_poly, q.min_poly.degree
    mat = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d - 1):
        mat[j + 1][j] = Fraction(1)
    for i in range(d):
        mat[i][d - 1] = Fraction(-p.coeffs[i], p.coeffs[-1])
    mk = mat
    for _ in range(k - 1):
        mk = _mat_mul(mk, mat)
    frac_coeffs = _charpoly(mk)
    den = math.lcm(*(c.denominator for c in frac_coeffs))
    defining = intpoly.squarefree_part(
        IntPolynomial(int(c * den) for c in frac_coeffs))
    while True:
        lo, hi = q.interval()
        plo, phi_ = lo**k, hi**k
        if (lo >= 0 and _sign_at(defining, plo) != 0
                and _sign_at(defining, phi_) != 0
                and _count_roots(defining, plo, phi_) == 1):
            return AlgebraicNumber(defining, plo, phi_)
        q.refine_to_width((hi - lo) / 4)


def test_power_base_equals_the_companion_matrix_route(deadline):
    # every monic height-1 polynomial of degree 2 to 5 with a root > 1,
    # reducible ones included, and four non-monic ones, each at k = 2, 3, 5;
    # then seven bases at k = 2 to 6, among them sqrt 2, cbrt 3 and a root
    # of x^8 - x^6 - 1: an irrational q with a rational q^k, whose power-sum
    # polynomial is not squarefree, and 8k power sums
    polys = [IntPolynomial([*low, 1]) for d in range(2, 6)
             for low in itertools.product((-1, 0, 1), repeat=d)]
    polys += [IntPolynomial(c) for c in ([-1, -2, 2], [-2, -3, 3],
                                         [1, -5, 0, 2], [-7, 1, 0, 3])]
    cases = [(poly, k) for poly in polys for k in (2, 3, 5)]
    cases += itertools.product(
        [SQRT_P2_POLY, PHI_POLY, SQRT2_POLY, IntPolynomial([-1, -2, 2]),
         P1_POLY, IntPolynomial([-1, -1, 0, 0, 1]),
         IntPolynomial([-3, 0, 0, 1])], range(2, 7))
    pairs, rationals = 0, {}
    with deadline(30):
        for poly, k in cases:
            try:
                AlgebraicNumber.base_from_poly(poly, root_index=0)
            except PreconditionError:
                continue                              # no root > 1
            ref = _reference_power_base(
                AlgebraicNumber.base_from_poly(poly, root_index=0), k)
            got = power_base(
                AlgebraicNumber.base_from_poly(poly, root_index=0), k)
            assert (got.min_poly, got.exact_rational, got.interval()) \
                == (ref.min_poly, ref.exact_rational, ref.interval()), \
                (poly.coeffs, k)
            if got.exact_rational is not None and poly.degree > 1:
                rationals[poly.coeffs, k] = got.exact_rational
            pairs += 1
    assert pairs == 243 + 35
    assert rationals == {((-2, 0, 1), 2): 2, ((-2, 0, 1), 4): 4,
                         ((-2, 0, 1), 6): 8, ((-3, 0, 0, 1), 3): 3,
                         ((-3, 0, 0, 1), 6): 9}


def test_power_gcd_property_concrete():
    # Lemma-style check: if q^r and q^s are Pisot then so is q^gcd(r,s);
    # exercised on phi with (r, s) = (2, 3), gcd 1
    q = phi()
    assert classify_base(power_base(q, 2)).is_pisot
    assert classify_base(power_base(q, 3)).is_pisot
    assert classify_base(q).is_pisot


# -- Z[q] kernel -------------------------------------------------------------


def _interval(ctx, V) -> tuple[Fraction, Fraction]:
    """The exact enclosure of the value of ctx's vector V on the current
    base interval."""
    lo, hi, den = ctx._bounds(V)
    return Fraction(lo, den), Fraction(hi, den)


def _coefficients(ctx, V) -> tuple:
    """The coefficients of the value of ctx's vector V in the basis 1, q,
    ..., q^(d-1); test_spectrum decodes its windows with it too."""
    return tuple(Fraction(x * p, ctx.one[0]) for x, p in zip(V, ctx._apow))


def _compare(ctx, a, b) -> int:
    """The exact comparison of two vectors of ctx."""
    return ctx.sign(_axpy(a, -1, b))


def test_rational_bounds_are_the_general_enclosure():
    """On a rational base (d = 1) ``_bounds`` returns (V_0, V_0, one[0])
    without evaluating an interval; that is what the general path, one
    ``_int_interval`` call scaled to the context's units, returns."""
    for value in (Fraction(9, 5), Fraction(27, 20), Fraction(3)):
        q = AlgebraicNumber.from_rational(value)
        for depth, den in ((0, 1), (7, 3), (40, 2520)):
            ctx = ZqContext(q, depth, den)
            for V in ((0,), (1,), (-5,), ctx.one, ctx.step(ctx.one, -2),
                      (value.denominator**depth * 10**30 + 1,)):
                vlo, vhi, iden = q._int_interval(
                    [x * p for x, p in zip(V, ctx._apow)])
                assert ctx._bounds(V) == (
                    vlo, vhi, ctx.one[0] * iden ** (ctx.d - 1)), (value, V)


def test_zq_zero_digits():
    assert sqrt2().zq_context().from_digits([0]) == (0, 0)


def test_zq_example_values():
    assert sqrt2().zq_context().from_digits([1, 0, 1]) == (3, 0)
    assert phi().zq_context().from_digits([1, 1]) == (1, 1)


def test_zq_compare_examples():
    ctx = sqrt2().zq_context()
    one = ctx.from_digits([1])
    assert one == ctx.one and _compare(ctx, one, ctx.from_digits([1])) == 0
    # 3 - 2*sqrt2 vs 0
    assert _compare(ctx, (3, -2), (0, 0)) == 1
    assert _compare(phi().zq_context(), (-1, 1), (1, 0)) == -1


def test_zq_cmp_fraction():
    ctx = sqrt2().zq_context()
    assert ctx.cmp_fraction((0, 1), Fraction(141, 100)) == 1
    assert ctx.cmp_fraction((0, 1), Fraction(142, 100)) == -1
    assert ctx.cmp_fraction((1, 1), Fraction(5, 2)) == -1  # 1+sqrt2 < 2.5
    assert ctx.cmp_fraction((3, 0), Fraction(3)) == 0


def test_zq_sign_of_coefficients_beyond_float_range():
    ctx = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0).zq_context()
    big = (10**400, -1, 0)
    assert ctx.sign(big) == 1
    assert _compare(ctx, (0, 0, 0), big) == -1
    assert ctx.cmp_fraction(big, Fraction(10**399)) == 1


def test_zq_context_serves_a_non_monic_base():
    # the windows of a non-monic base run on its contexts, so they no
    # longer refuse one: here q = sqrt(3/2), a root of 2x^2 - 3, whose
    # vectors of degree up to 2 need the scale 2^2
    q = AlgebraicNumber.base_from_poly(IntPolynomial([-3, 0, 2]), root_index=0)
    assert q.zq_context() is q.zq_context() and q.zq_context().lead == 2
    with pytest.raises(PreconditionError):
        q.zq_context().from_digits([0, 1])
    ctx = ZqContext(q, 2)
    assert ctx.one == (4, 0)
    q2 = ctx.from_digits([0, 0, 1])
    assert _coefficients(ctx, q2) == (Fraction(3, 2), 0)
    assert ctx.cmp_fraction(q2, Fraction(3, 2)) == 0
    assert ctx.cmp_fraction(ctx.from_digits([0, 1]), Fraction(6, 5)) == 1


def test_zq_context_refuses_a_depth_or_denominator_that_breaks_exactness():
    # ZqContext(q, 0, -3) once gave sign(one) = -1, ZqContext(q, 0, 0) made
    # every value 0, and a negative or fractional depth held floats
    q = AlgebraicNumber.base_from_poly(IntPolynomial([-3, 0, 2]), root_index=0)
    for depth, den in ((0, -3), (0, 0), (-1, 1)):
        with pytest.raises(PreconditionError,
                           match="need depth >= 0 and denominator >= 1"):
            ZqContext(q, depth, den)
    for depth, den, name in ((2.5, 1, "depth"), (0, 0.5, "denominator"),
                             ("2", 1, "depth")):
        with pytest.raises(PreconditionError,
                           match=f"^{name} [^ ]+ is not an integer$"):
            ZqContext(q, depth, den)
    ctx = ZqContext(q, 2.0, Fraction(3))
    assert ctx.one == (12, 0) and all(type(x) is int for x in ctx.one)
    assert ctx.depth == 2 and ctx.sign(ctx.one) == 1


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
            lo, hi = _interval(q.zq_context(), vec)
            assert float(lo) - 1e-6 <= direct <= float(hi) + 1e-6


@pytest.mark.parametrize("poly", [IntPolynomial([-3, 1]), SQRT2_POLY,
                                  P1_POLY, SQRT_P2_POLY])
def test_packed_vectors_round_trip_at_the_width_bound(poly):
    """Packing is one-to-one for entries up to 2^(W-2) - 1 at each width
    the search uses, a sign flip is the negated int, ``unpack_all`` reads
    the same entries, and the per-parent multiply plus a digit is the
    packed ``ZqContext.step``, exactly as integers."""
    rng = random.Random(f"packed:{poly.coeffs}")
    ctx = AlgebraicNumber.base_from_poly(poly, root_index=0).zq_context()
    packed = _PackedZq(ctx, 1)
    zero = (0,) * ctx.d
    assert packed.pack(zero) == packed.zero == 0
    assert packed.pack(ctx.one) == packed.one == 1
    for W in (16, 32, 64, 128):
        packed._set_width(W)
        e = (1 << (W - 2)) - 1
        vecs = [zero, (e,) * ctx.d, (-e,) * ctx.d,
                tuple(e if i % 2 else -e for i in range(ctx.d))]
        vecs += [tuple(rng.randint(-e, e) for _ in range(ctx.d))
                 for _ in range(20)]
        for v in vecs:
            V = packed.pack(v)
            assert packed.unpack(V) == v
            assert packed.unpack(-V) == tuple(-x for x in v)
            for s in (-2, 0, 1):
                assert packed.mul_q(V) + s == packed.pack(ctx.step(v, s))
        assert list(packed.unpack_all([packed.pack(v) for v in vecs])) == [
            x for v in vecs for x in v]


def test_packed_width_grows_and_repacks_the_stored_values():
    ctx = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0).zq_context()
    packed = _PackedZq(ctx, 2)
    vecs = [(3, -1, 2), (-2, 0, 1), (0, 0, 0)]
    level = [packed.pack(v) for v in vecs]
    assert packed.fit_step(level) is None
    assert packed.W == 16 and packed.bound == 2 * 2 + 2
    # the carried bound trips, but the level's true maximum fits: the bound
    # restarts from it and nothing is re-packed
    packed.bound = packed.limit
    assert packed.fit_step(level) is None
    assert packed.W == 16 and packed.bound == 3 * 2 + 2
    # an entry of 2^13 has children up to 2^14 + 2, past 2^(16-2), and one
    # of 2^29 children up to 2^30 + 2, past 2^(32-2)
    for e, W in ((1 << 13, 32), (1 << 29, 64)):
        vecs[0] = (e, -1, 2)
        level = [packed.pack(v) for v in vecs]
        packed.bound = packed.limit
        remap = packed.fit_step(level)
        assert packed.W == W and packed.bound == e * 2 + 2
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
            lo1, hi1 = _interval(ctx, vec)
            other = ctx.from_digits(seen[vec])
            lo2, hi2 = _interval(ctx, other)
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


def test_classification_stability_at_two_radii(monkeypatch):
    # same location tags when disks are refined to 1e-12 and 1e-24
    assert disks.RADIUS == Fraction(1, 10**12)
    for poly in (P1_POLY, P2_POLY, SQRT2_POLY, SQRT_P2_POLY):
        cs12 = conjugates(poly)
        with monkeypatch.context() as mp:
            mp.setattr(disks, "RADIUS", Fraction(1, 10**24))
            cs24 = conjugates(poly)
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


def test_tight_radius_escalates_past_the_double_rung(monkeypatch, deadline):
    monkeypatch.setattr(disks, "RADIUS", Fraction(1, 10**24))
    with deadline(60):
        cs = conjugates(P1_POLY)
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


def _count_roots(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in (lo, hi), lo < hi neither a root: the
    drop in sign variations of p's Sturm chain."""
    chain = intpoly.sturm_chain(p)
    va = intpoly._variations_at(chain, lo.numerator, lo.denominator)
    vb = intpoly._variations_at(chain, hi.numerator, hi.denominator)
    assert va is not None and vb is not None
    return va - vb


def _reciprocal(p: IntPolynomial) -> IntPolynomial:
    """x^d p(1/x): the coefficients reversed, whose roots are the inverses
    of p's nonzero roots."""
    return IntPolynomial(reversed(p.coeffs))


def _gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q, by a primitive pseudo-remainder sequence."""
    while not b.is_zero:
        a, b = b, IntPolynomial(intpoly._prem(a.coeffs, b.coeffs)).primitive()
    return a.primitive()


def _reference_on_circle_count(p: IntPolynomial) -> int:
    """The count of roots on the unit circle that ``unit_circle_counts``
    replaced.  Those roots are common roots of squarefree p and its
    reciprocal; after +-1 are deflated, the self-reciprocal gcd factor g is
    turned into its trace polynomial h, g(x)/x^e = h(x + 1/x), whose real
    roots in (-2, 2) are the conjugate pairs on the circle."""
    g = _gcd(p, _reciprocal(p))
    count = 0
    for r in (1, -1):
        if g.degree > 0 and _sign_at(g, r) == 0:
            count += 1
            g = IntPolynomial(intpoly._exact_quo(g.coeffs, (-r, 1))).primitive()
    if g.degree <= 0:
        return count
    assert g == _reciprocal(g).primitive() and g.degree % 2 == 0
    e = g.degree // 2
    v_prev, v_cur = IntPolynomial([2]), IntPolynomial([0, 1])
    h = IntPolynomial([g.coeffs[e]])
    for j in range(1, e + 1):
        h = _poly_sum(h, IntPolynomial([g.coeffs[e + j]]) * v_cur)
        v_prev, v_cur = v_cur, _poly_sum(IntPolynomial([0, 1]) * v_cur,
                                         IntPolynomial([-1]) * v_prev)
    return count + 2 * _count_roots(h, Fraction(-2), Fraction(2))


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
                assert intpoly.unit_circle_counts(_reciprocal(p)) == (
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
            assert intpoly.unit_circle_counts(_reciprocal(p))[0] == n_out
            cs = conjugates(p)
            assert cs.resolved, p.coeffs
            assert (n_in, n_on, n_out) == tuple(
                sum(d.location == where for d in cs.disks)
                for where in ("inside", "on", "outside")), p.coeffs
            if _sign_at(p, 1) < 0:    # a real root above 1: classify it
                cls = classify_base(AlgebraicNumber.base_from_poly(
                    p, root_index=0))
                assert (cls.n_in, cls.n_on, cls.n_out) == (n_in, n_on, n_out)


def test_root_counts_of_a_polynomial_beyond_float_range():
    p = IntPolynomial([-10**400, 0, 1])           # roots +-10^200
    assert intpoly.unit_circle_counts(p) == (0, 0, 2)
    assert intpoly.unit_circle_counts(_reciprocal(p)) == (2, 0, 0)


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

    monkeypatch.setattr(disks, "conjugates", refuse)
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
        "unread = 'qspectra.disks' in sys.modules\n"
        "cs = cls.conjugate_set\n"
        "inside = sum(d.location == 'inside' for d in cs.disks)\n"
        "print(cls.tag, cs.resolved, cs.precision_bits, inside,\n"
        "      unread, 'qspectra.disks' in sys.modules)\n"
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    tag, resolved, bits, inside, unread, read = \
        out.stdout.splitlines()[0].split()
    assert (tag, resolved, inside) == ("Pisot", "True", "1")
    # the disk engine loads when the evidence is read, not before
    assert (unread, read) == ("False", "True")
    assert 53 < int(bits) <= 1024
    assert out.stdout.splitlines()[1] == "['qspectra']"


@pytest.mark.parametrize("code, unloaded", [
    ("import qspectra\n"
     "q = qspectra.AlgebraicNumber.base_from_poly(\n"
     "    qspectra.IntPolynomial([-1, -1, 0, 1]), root_index=0)\n"
     "assert qspectra.classify_base(q).tag == 'Pisot'\n",
     {"disks", "spectrum", "expansions", "witness", "reproduce", "cli"}),
    ("from qspectra import cli\n"
     "cli.main(['classify', '--poly', '-1,-1,0,1'])\n",
     {"spectrum", "expansions", "witness", "reproduce"}),
    ("from qspectra import cli\n"
     "cli.main(['expand', '--poly', '-1,-1,0,1', '--m', '1', '--target',\n"
     "          '1', '--horizon', '8'])\n",
     {"disks", "spectrum"}),
    ("from qspectra import cli\n"
     "cli.main(['spectrum', '--poly', '-1,-1,0,1', '--m', '1', '--bound',\n"
     "          '3'])\n",
     {"disks", "expansions", "witness"}),
], ids=["library-classify", "cli-classify", "cli-expand", "cli-spectrum"])
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
        for vec in vecs:
            ctx = _context(q, vec)
            assert _interval(ctx, _encode(ctx, vec)) == \
                _reference_interval(vec, lo, hi), (width, vec)
        for vec in vecs:
            got = _evaluator_base(poly, interval)
            want = _evaluator_base(poly, interval)
            if width is not None:
                got.refine_to_width(width)
                want.refine_to_width(width)
            ctx = _context(got, vec)
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
            g = list(_poly_sum(poly * h, IntPolynomial(
                rest if rng.random() < 0.7 else ())).coeffs)
        g = IntPolynomial(g)
        got = AlgebraicNumber.base_from_poly(poly, root_index=0)
        want = AlgebraicNumber.base_from_poly(poly, root_index=0)
        rem = _reference_remainder(g.coeffs, poly.coeffs)
        assert got.sign_of_int_poly(g) == _reference_sign(want, rem), g
        assert got.interval() == want.interval(), g


@pytest.mark.parametrize("make", [
    phi, lambda: AlgebraicNumber.from_rational(Fraction(27, 20)),
    lambda: AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)],
    ids=["phi", "rational", "x3-x-1"])
def test_sign_of_the_zero_polynomial_is_zero(make):
    assert make().sign_of_int_poly(IntPolynomial(())) == 0


@pytest.mark.parametrize("coeffs,sign", [
    ((-27, 20), 0),             # 20x - 27, the minimal polynomial itself
    ((-2, 0, 1), -1),           # (27/20)^2 = 729/400 < 2
    ((-729, 0, 400), 0),        # 400x^2 - 729 = (20x - 27)(20x + 27)
])
def test_sign_on_a_rational_base(coeffs, sign):
    q = AlgebraicNumber.from_rational(Fraction(27, 20))
    assert q.sign_of_int_poly(IntPolynomial(coeffs)) == sign
    assert q.interval() == (Fraction(27, 20), Fraction(27, 20))


@pytest.mark.parametrize("coeffs", [
    (-2, 0, 1), (-7, 0, 4), (-1, -1, 1),                    # degree 2
    (-1, -1, 0, 1), (-3, -2, 0, 2), (-2, 0, 0, 1),          # degree 3
    (-1, 0, 0, 0, -1, 1), (-4, 0, 0, 0, 0, 1),              # degree 5
], ids=lambda c: f"deg{len(c) - 1}:" + ",".join(map(str, c[:2])))
def test_sign_on_x3_x_1_equals_the_fraction_reference(coeffs):
    """Below, at and above the degree of x^3 - x - 1: the sign and the
    refinement equal those of the remainder over Q.  x^3 - x - 1 and
    x^5 - x^4 - 1 = (x^2 - x + 1)(x^3 - x - 1) sign 0."""
    got = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)
    want = AlgebraicNumber.base_from_poly(P1_POLY, root_index=0)
    rem = _reference_remainder(coeffs, P1_POLY.coeffs)
    assert got.sign_of_int_poly(IntPolynomial(coeffs)) == \
        _reference_sign(want, rem)
    assert got.interval() == want.interval()


def test_a_sign_that_no_refinement_decides_raises_reducible_input(
        monkeypatch):
    """sqrt 2 taken as the first root above 1 of (x^2 - 2)(x^2 - 3): x^2 - 2
    vanishes at q but is no multiple of the quartic, so both sign paths
    refine to the cap and raise the typed error.  The cap is lowered to 256
    bits, which the run reaches in milliseconds."""
    monkeypatch.setattr(algebraic, "MAX_CERTIFY_BITS", 256)
    q = AlgebraicNumber.base_from_poly(IntPolynomial([6, 0, -5, 0, 1]),
                                       root_index=0)
    with pytest.raises(ReducibleInputError, match="input may be reducible"):
        q.zq_context().sign((-2, 0, 1, 0))
    with pytest.raises(ReducibleInputError, match="input may be reducible"):
        q.sign_of_int_poly(SQRT2_POLY)
    lo, hi = q.interval()
    assert lo * lo < 2 < hi * hi and (hi - lo) * 2**256 <= 1


def test_rational_base_sign_of_mixed_vectors():
    q = AlgebraicNumber.from_rational(Fraction(9, 5))
    for vec, sign in [((-9, 5), 0), ((Fraction(-9, 5), 1), 0),
                      ((Fraction(-17, 10), 1), 1), ((2, Fraction(-10, 9)), 0)]:
        ctx = _context(q, vec)
        assert ctx.sign(_encode(ctx, vec)) == sign, vec
    ctx = _context(q, (1, Fraction(1, 3)))
    assert _interval(ctx, _encode(ctx, (1, Fraction(1, 3)))) == \
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
    ZqContext interface that the expansions use: a context of any depth
    and denominator ``den`` holds v as the vector of den * v, so it can
    stand in for the kernel there.  Its basis is that of theta = q, so
    ``lead`` is 1 and verify_expansion's division-free Horner walk over
    theta is the Fraction walk over q (``_theta`` is ``mul_q``)."""

    lead = 1

    def __init__(self, q, depth=0, den=1):
        self.q = q
        self.d = q.min_poly.degree
        lead = q.min_poly.coeffs[-1]
        self.qd_terms = tuple((i, _whole(Fraction(-c, lead)))
                              for i, c in enumerate(q.min_poly.coeffs[:-1])
                              if c)
        self.one = (den,) + (0,) * (self.d - 1)

    def mul_q(self, v):
        out = [0, *v[:-1]]
        top = v[-1]
        if top:
            for i, c in self.qd_terms:
                out[i] += top * c
        return tuple(out)

    def _theta(self, v):
        return list(self.mul_q(v))

    def step(self, v, s):
        out = self.mul_q(v)
        return (out[0] + s * self.one[0],) + out[1:]

    def mul(self, a, b):
        acc = (0,) * self.d
        power = a
        for coeff in b:
            if coeff:
                acc = _axpy(acc, _whole(coeff), power)
            power = self.mul_q(power)
        return acc

    def sign(self, v):
        return _fraction_vec_sign(self.q, v)

    def cmp_tail(self, v, m):
        return self.sign(_axpy(_axpy(self.mul_q(v), -1, v), -m, self.one))

    def _bounds(self, v):
        """An enclosure of the value over ``one``'s entry, by the reference
        evaluator on the base's current interval: the units never change,
        so a walk keeps the bounds it read across refinements of q."""
        lo, hi = _reference_interval(v, *self.q.interval())
        return lo, hi, self.one[0]

    def float_value(self, v, shift=0):
        self.q.refine_to_width(FLOAT_WIDTH)
        lo, hi = _reference_interval(v, *self.q.interval())
        return float((lo + hi) / (2 * self.one[0] << shift))


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


def _context(q, *vecs):
    """A context that holds the vectors vecs in the basis 1, q, ...,
    q^(d-1) and one q-step of each: depth d, over the lcm of their entries'
    denominators."""
    return ZqContext(q, q.min_poly.degree, math.lcm(
        *(Fraction(c).denominator for vec in vecs for c in vec)))


def _encode(ctx, vec):
    """ctx's vector of the vector vec in the basis 1, q, ..., q^(d-1),
    built by the kernel: Horner's rule in mul_q, each entry c added as
    c * ``one`` (an int multiple of it: ``_context``)."""
    acc = (0,) * ctx.d
    for c in reversed(vec):
        c = Fraction(c) * ctx.one[0]
        assert c.denominator == 1
        acc = _axpy(ctx.mul_q(acc), c.numerator, (1,) + (0,) * (ctx.d - 1))
    return acc


def _holds(ctx, got, want):
    """ctx's vector got has the value of the vector want: an int tuple that
    decodes to want."""
    return (all(type(x) is int for x in got)
            and _coefficients(ctx, got) == tuple(want))


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
    vecs = _random_vectors(rng, q.min_poly.degree)
    vecs += [_near_zero(v, x) for v in vecs[1:9]]
    for _ in range(6):
        acc = (0,) * q.min_poly.degree
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
    ref = _ReferenceVecArith(q)
    vecs = _kernel_vectors(rng, make_base)
    # one context holds every vector, a q-step of each and the sevenths
    ctx = _context(q, *vecs, (Fraction(1, 7),))
    zero = (0,) * ctx.d
    for v in vecs:
        e = _encode(ctx, v)
        assert _holds(ctx, e, v), v
        for s in range(-3, 4):
            assert _holds(ctx, ctx.step(e, s), ref.step(v, s)), (v, s)
        assert _holds(ctx, ctx.mul_q(e), ref.mul_q(v)), v
        for c in (0, -1, 7, Fraction(3, 7), Fraction(-10, 5)):
            c = Fraction(c)
            # c*v: c's numerator times e, read at a scale c's denominator
            # times finer
            d = q.min_poly.degree
            finer = ZqContext(q, d, ctx.one[0] // ctx.lead ** d
                              * c.denominator)
            assert _holds(finer, _axpy(zero, c.numerator, e),
                          tuple(_whole(c) * x for x in v)), (v, c)
            assert _holds(ctx, _axpy(e, 1, _encode(ctx, (c,))),
                          (v[0] + _whole(c),) + v[1:]), (v, c)
        w = vecs[rng.randrange(len(vecs))]
        f = ctx.step(_encode(ctx, w), 2)
        assert _holds(ctx, _axpy(e, 1, f), _axpy(v, 1, ref.step(w, 2))), (v, w)
        assert _holds(ctx, _axpy(e, -1, f),
                      _axpy(v, -1, ref.step(w, 2))), (v, w)


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
            ctx = _context(got, v)
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
    runs on the Fraction reference, whose ``_bounds`` the walks' digit
    tests read too."""
    got = _expansion_runs(make_base)
    monkeypatch.setattr(expansions, "ZqContext", _ReferenceVecArith)
    assert got == _expansion_runs(make_base)


@pytest.mark.parametrize("name,make_base", SCALED_BASES,
                         ids=[b[0] for b in SCALED_BASES])
def test_scaled_elements_stay_ints_and_create_no_fraction(monkeypatch, name,
                                                          make_base):
    """On a non-monic, a rational and a monic base every entry of a vector
    stays an int through digit steps, sums and rational constants (held at
    the context's scale: depth 32 covers 30 steps and one more, and the
    denominator 2520 the constants' 1..9); and once the base decides
    their signs, step, tuple sums and sign create no Fraction."""
    q = make_base()
    ctx = ZqContext(q, 32, 2520)
    rng = random.Random(f"scaled:{name}")
    elements = []
    for _ in range(8):
        acc = _encode(ctx, (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),))
        for _ in range(rng.randint(1, 30)):
            acc = ctx.step(acc, rng.randint(-2, 2))
        elements.append(acc)
    zero = (0,) * ctx.d
    elements += [_axpy(_axpy(zero, -5, a), -3, b)    # 3 (-5/3 a - b)
                 for a, b in zip(elements, elements[2:])]
    for V in elements:
        assert all(type(x) is int for x in V)
    signs = [ctx.sign(e) for e in elements]          # refines the base

    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for a, b in zip(elements, elements[1:]):
        c = _axpy(ctx.step(a, -1), 3, b)
        _axpy(c, -1, tuple(-x for x in b))
        _axpy(c, 2, ctx.one)
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
            q.refine_to_width(spectrum.MODEL_WIDTH)
        for v in ((-665857, 470832), (-3880899, 2744210)):
            value = ctx.float_value(v)
            lo, hi = _interval(ctx, v)
            flo, fhi = _interval(ZqContext(fine), v)
            exact = (flo + fhi) / 2
            error = abs(Fraction(value) - exact)
            assert error <= (hi - lo) / 2 + Fraction(math.ulp(value)) / 2, v
            assert error <= abs(exact) / 2**30, v


def test_base_from_poly_runs_one_isolation_pass(monkeypatch):
    """Real roots read the rational roots off the cells of one isolation
    pass; selecting a root by index isolates nothing more, and selecting
    it by interval isolates once, to divide the rational roots out, or not
    at all when the mod-p screen rules them out."""
    calls = []
    isolate = intpoly.isolate_roots_exact

    def counted(p, above=None):
        calls.append(p)
        return isolate(p, above)

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
            assert len(calls) == intpoly._may_have_rational_root(
                intpoly.squarefree_part(poly)), poly


def test_checked_constructor_isolates_only_when_the_screen_fails(
        monkeypatch):
    # x^2 - x - 1 has no root mod 2, so no rational root to look for;
    # (x - 3)(x^2 - 2) has one, found by one isolation
    calls = {"isolate_roots_exact": 0}
    _count_calls(monkeypatch, intpoly, "isolate_roots_exact", calls)
    q = AlgebraicNumber(IntPolynomial([-1, -1, 1]), 1, 2)
    assert calls == {"isolate_roots_exact": 0}
    assert q.min_poly == PHI_POLY and q.exact_rational is None
    three = AlgebraicNumber(IntPolynomial([-3, 1]) * SQRT2_POLY,
                            Fraction(5, 2), Fraction(7, 2))
    assert calls == {"isolate_roots_exact": 1}
    assert three.exact_rational == 3
    assert three.min_poly == IntPolynomial([-3, 1])


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
        assert q.exact_rational is None and q.min_poly.degree == 2
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
                assert _sign_at(P1_POLY, lo) * _sign_at(P1_POLY, hi) < 0
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
    assert _sign_at(P1_POLY, lo) * _sign_at(P1_POLY, hi) < 0
