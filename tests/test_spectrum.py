"""Spectrum window and BFS engine tests.

The completeness oracle is an independent brute-force loop over all digit
strings up to a degree cap; engine output must match it exactly (set
equality of canonical vectors in exact mode).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest

from qspectra import cli, spectrum
from qspectra.algebraic import AlgebraicNumber, _axpy
from qspectra.errors import PreconditionError
from qspectra.intpoly import IntPolynomial
from qspectra.serialize import (JsonArray, canonical_json,
                                window_point_texts, write_json)
from qspectra.spectrum import (
    _PackedZq,
    _sort_order,
    enumerate_A,
    enumerate_X,
    enumerate_Y,
    gap_report,
    make_kernel,
    min_positive_bfs,
)
from test_algebraic import _coefficients

PHI_POLY = IntPolynomial([-1, -1, 1])
SQRT2_POLY = IntPolynomial([-2, 0, 1])


def phi():
    return AlgebraicNumber.base_from_poly(PHI_POLY, root_index=0)


def sqrt2():
    return AlgebraicNumber.base_from_poly(SQRT2_POLY, root_index=0)


def brute_force_values(q: AlgebraicNumber, alphabet, max_degree: int):
    """The ``ZqContext`` vectors of every digit string over the alphabet
    with degree <= max_degree, on a monic base (whose vectors need no
    scale)."""
    ctx = q.zq_context()
    out = set()
    for n in range(max_degree + 1):
        for digits in itertools.product(alphabet, repeat=n + 1):
            out.add(ctx.from_digits(digits))
    return out


# -- X windows ---------------------------------------------------------------


def test_X_base2_binary():
    q = AlgebraicNumber.from_rational(2)
    w = enumerate_X(q, 1, 7)
    assert w.values() == [0, 1, 2, 3, 4, 5, 6, 7]
    assert w.complete


def test_X_base3_digits_0_to_2():
    q = AlgebraicNumber.from_rational(3)
    w = enumerate_X(q, 2, 8)
    assert w.values() == list(range(9))


def test_X_phi_small_window():
    w = enumerate_X(phi(), 1, 2)
    assert len(w.points) == 3
    assert w.values()[0] == 0
    assert abs(w.values()[1] - 1) < 1e-12
    assert abs(w.values()[2] - 1.6180339887) < 1e-9


def test_X_first_point_is_zero_with_witness():
    w = enumerate_X(sqrt2(), 1, 5)
    assert w.points[0].value == 0
    assert w.points[0].digits == (0,)


def test_X_window_is_strictly_increasing_and_deduplicated():
    w = enumerate_X(sqrt2(), 1, 12)
    vals = w.values()
    assert all(a < b for a, b in zip(vals, vals[1:]))
    vecs = [p.vec for p in w.points]
    assert len(set(vecs)) == len(vecs)


def test_X_matches_brute_force_oracle():
    q = phi()
    ctx = q.zq_context()
    B = Fraction(6)
    w = enumerate_X(q, 1, B)
    # oracle: degree <= log_phi 6 < 4; enumerate all strings of degree <= 5
    oracle = set()
    for vec in brute_force_values(q, (0, 1), 5):
        if ctx.cmp_fraction(vec, B) <= 0 and ctx.sign(vec) >= 0:
            oracle.add(vec)
    assert {p.vec for p in w.points} == oracle


def test_X_nesting_in_m():
    q = sqrt2()
    w1 = enumerate_X(q, 1, 9)
    w2 = enumerate_X(q, 2, 9)
    assert {p.vec for p in w1.points} <= {p.vec for p in w2.points}


def test_X_budget_flags_incomplete():
    w = enumerate_X(sqrt2(), 1, 50, budget=10)
    assert not w.complete


# -- Y windows ----------------------------------------------------------------


def test_Y_sqrt2_minimal_positive_element():
    w = enumerate_Y(sqrt2(), 1, 3, 1)
    positives = [p for p in w.points if p.value > 1e-12]
    assert positives
    least = positives[0]
    assert abs(least.value - (3 - 2 * math.sqrt(2))) < 1e-12
    assert least.vec == (3, -2)
    assert least.digits == (1, 0, 1, -1)


def test_Y_balanced_ternary_complete():
    q = AlgebraicNumber.from_rational(3)
    w = enumerate_Y(q, 1, 2, 13)
    assert w.values() == list(range(-13, 14))
    assert w.complete  # de Vries bound applies: 3 > 1+1 and 3^3*(1/2) > 13


def test_Y_symmetry_and_zero():
    for q in (sqrt2(), phi()):
        w = enumerate_Y(q, 1, 3, 2)
        vals = w.values()
        assert any(abs(v) < 1e-12 for v in vals)
        for v in vals:
            assert any(abs(v + u) < 1e-9 for u in vals)


def test_Y_matches_brute_force_oracle():
    q = sqrt2()
    n, B = 4, Fraction(3)
    w = enumerate_Y(q, 1, n, B)
    ctx = q.zq_context()
    oracle = set()
    for digits in itertools.product((-1, 0, 1), repeat=n + 1):
        vec = ctx.from_digits(digits)
        lo, hi, den = ctx._bounds(vec)      # exact enclosure, over den
        lo, hi = Fraction(lo, den), Fraction(hi, den)
        if -B <= lo <= B or -B <= hi <= B or (lo < -B and hi > B):
            # exact in-range test
            if (ctx.cmp_fraction(vec, B) <= 0
                    and ctx.cmp_fraction(vec, -B) >= 0):
                oracle.add(vec)
    assert {p.vec for p in w.points} == oracle


def test_Y_nesting_in_degree():
    q = phi()
    w3 = enumerate_Y(q, 1, 3, 4)
    w4 = enumerate_Y(q, 1, 4, 4)
    assert {p.vec for p in w3.points} <= {p.vec for p in w4.points}


def test_Y_shift_closure_property():
    q = sqrt2()
    m, n, B = 1, 3, 2
    wn = enumerate_Y(q, m, n, B)
    wn1 = enumerate_Y(q, m, n + 1, B)
    ctx = q.zq_context()
    bigger = {p.vec for p in wn1.points}
    for p in wn.points:
        for s in range(-m, m + 1):
            child = ctx.step(p.vec, s)
            # clipped to the bound: only check when |child| <= B
            if (ctx.cmp_fraction(child, B) <= 0
                    and ctx.cmp_fraction(child, -B) >= 0):
                assert child in bigger


def test_Y_incomplete_without_devries():
    w = enumerate_Y(sqrt2(), 1, 6, 1)
    assert not w.complete  # sqrt2 < m+1: no completeness certificate


# -- A windows -----------------------------------------------------------------


def test_A_base2_odd_integers():
    q = AlgebraicNumber.from_rational(2)
    w = enumerate_A(q, 2, 7)
    assert w.values() == [-7, -5, -3, -1, 1, 3, 5, 7]
    assert abs(w.covering_radius - 1.0) < 1e-12


def test_A_degree_zero():
    w = enumerate_A(AlgebraicNumber.from_rational(Fraction(3, 2)), 0, 2)
    assert w.values() == [-1, 1]


def test_A_rejects_large_base():
    with pytest.raises(PreconditionError):
        enumerate_A(AlgebraicNumber.from_rational(3), 2, 5)


def test_A_covering_radius_decreases_for_1_35():
    q = AlgebraicNumber.from_rational(Fraction(135, 100))
    radii = []
    for n in range(7, 15):
        w = enumerate_A(q, n, 2)
        radii.append(w.covering_radius)
    assert all(a > b for a, b in zip(radii, radii[1:]))


@pytest.mark.parametrize("make_q", [phi, sqrt2])
def test_A_matches_brute_force_oracle(make_q):
    q = make_q()
    ctx = q.zq_context()
    n, B = 7, 2
    w = enumerate_A(q, n, B)
    oracle = set()
    for digits in itertools.product((-1, 1), repeat=n + 1):
        vec = ctx.from_digits(digits)
        if (ctx.cmp_fraction(vec, B) <= 0
                and ctx.cmp_fraction(vec, -B) >= 0):
            oracle.add(vec)
    assert len(w.points) == len(oracle)
    assert {p.vec for p in w.points} == oracle
    for p in w.points:
        assert len(p.digits) == n + 1
        assert all(s in (-1, 1) for s in p.digits)
        assert ctx.from_digits(p.digits) == p.vec


@pytest.mark.parametrize("make_window", [
    lambda: enumerate_X(AlgebraicNumber.base_from_poly(
        IntPolynomial([-1, -1, 0, 0, 1]), root_index=0), 1, 20),
    lambda: enumerate_Y(AlgebraicNumber.base_from_poly(
        IntPolynomial([-1, 0, 0, 0, 0, 0, -1, 0, 1]), root_index=0),
        1, 6, 2),
    lambda: enumerate_A(AlgebraicNumber.base_from_poly(
        IntPolynomial([-1, -1, 0, 1]), root_index=0), 10, 2),
], ids=["X", "Y", "A"])
def test_window_digits_evaluate_to_each_point(make_window):
    w = make_window()
    ctx = w.base.zq_context()
    assert len(w.points) > 5
    for p in w.points:
        assert ctx.from_digits(p.digits) == p.vec
        # canonical: no top zero, except the lone digit of zero
        assert p.digits[-1] != 0 or p.digits == (0,)
        assert max(map(abs, p.digits)) <= w.m
        if w.degree is not None:
            assert len(p.digits) <= w.degree + 1
    if w.kind == "X":
        rep = gap_report(w)
        assert rep.point_count == len(w.points)
        diffs = {_axpy(ctx.from_digits(b.digits), -1,
                       ctx.from_digits(a.digits))
                 for a, b in zip(w.points, w.points[1:])}
        assert rep.min_gap_vec in diffs


def test_digit_columns_are_bytes_while_every_digit_fits_in_one():
    """A level's digit column is an array('b') when every digit of the
    alphabet fits in a byte, else an array('i'); the Y window's clip keeps
    the typecode, and at m = 200 each point's digits still give its
    vector."""
    q = phi()
    ctx = q.zq_context()
    for m, code in ((1, "b"), (200, "i")):
        for w in (enumerate_X(q, m, 10), enumerate_Y(q, m, 1, 10)):
            assert {dig.typecode for _, dig in w.links} == {code}
            assert {par.typecode for par, _ in w.links} == {"i"}
            assert len(w.points) > 5
            for p in w.points:
                assert ctx.from_digits(p.digits) == p.vec
    assert max(abs(s) for p in w.points for s in p.digits) > 127


def test_Y_and_A_budget_flags_truncated():
    q = sqrt2()
    for w in (enumerate_Y(q, 1, 8, 3, budget=5),
              enumerate_A(q, 8, 3, budget=5)):
        assert w.truncated
        assert not w.complete


def test_A_symmetric():
    q = AlgebraicNumber.from_rational(Fraction(27, 20))
    w = enumerate_A(q, 6, 2)
    vals = w.values()
    for v in vals:
        assert any(abs(v + u) < 1e-9 for u in vals)


# -- gaps ------------------------------------------------------------------------


def test_gaps_base2():
    q = AlgebraicNumber.from_rational(2)
    rep = gap_report(enumerate_X(q, 1, 7))
    assert rep.min_gap == 1 == rep.max_gap_tail
    assert sum(n for g, n in rep.histogram if g == 1) == 7


def test_gaps_base3_m2():
    q = AlgebraicNumber.from_rational(3)
    rep = gap_report(enumerate_X(q, 2, 20))
    assert rep.min_gap == 1
    assert rep.max_gap_tail == 1


def test_gaps_phi_two_gap_values():
    # oracle (brute force over digit strings): golden-ratio X windows have
    # exactly the gaps {phi-1, 1}; the liminf proxy is phi-1
    rep = gap_report(enumerate_X(phi(), 1, 20))
    gap_values = sorted(g for g, _ in rep.histogram)
    assert len(gap_values) == 2
    assert abs(gap_values[0] - (1.6180339887498949 - 1)) < 1e-9
    assert abs(gap_values[1] - 1.0) < 1e-9
    assert abs(rep.min_gap - 0.6180339887498949) < 1e-9
    assert rep.min_gap_vec == (-1, 1)


def test_gaps_histogram_mass():
    w = enumerate_X(sqrt2(), 1, 10)
    rep = gap_report(w)
    assert sum(n for _, n in rep.histogram) == len(w.points) - 1


def test_gaps_single_point_rejected():
    w = enumerate_X(phi(), 1, Fraction(1, 2))
    with pytest.raises(PreconditionError):
        gap_report(w)


# -- packed windows against a tuple brute force -------------------------------

WINDOW_POLYS = {
    "phi": [-1, -1, 1],
    "cubic": [-1, -1, 0, 1],
    "quartic": [-1, -1, 0, 0, 1],
    # q ~ 2^40: the vectors' entries grow by 2^40 a level, so the packing
    # widens from 32 to 64 to 128 bits in the middle of a window
    "wide": [-1, -2**40, 1],
}

# (base, kind, m, degree, bound) and the SHA-256 of the window's point texts
# and of its gap report, both recorded before the windows were packed
PACKED_WINDOW_CASES = [
    ("phi", "X", 2, None, 30,
     "abcfed6fc9901b77c890669121a76bf1569c468ec03416930a711480b8895e0a",
     "856be0d526c0cc93cf9b212d9cf77801df8d927e6ae9b9433219a359fb3a04f1"),
    ("cubic", "X", 1, None, 30,
     "a0a8255b15f23c62e17ffed02bee6b526af9baf81e1785a15a332b77e3a15954",
     "0ec3272928de1f5c2e08259b0544fcd856303f00c71d20f73ac47b72fd38911e"),
    ("quartic", "X", 1, None, 20,
     "c0d5c1b6414cb582455f56463471aa9c8446a588ba17a66b9d3e1fe4269847f7",
     "bf2336bce867dd4a4254438cd4a2282b6a06172d70471c7cfbd5f96aed15744e"),
    ("wide", "X", 1, None, 2**162,
     "68e137daab4a769a280c98c93da23a3b8588fe6cfed748660ad0bd2c9e877342",
     "a0d4d1872be44c48808e932781e65650f973656fa8479a4dabc952e8bfc098d4"),
    ("phi", "Y", 2, 6, 3,
     "939ad7e44a47615dad50e790ef429189c97ba4e926ee34ecd8d3fa8921070274",
     "adfae3b0d32a2ae551e3666646862248787c882c38170e55e6c7da07ff60b7c1"),
    ("cubic", "Y", 1, 7, 2,
     "e48dd93a9590cc220db07a49aaf05a62b7216b619d14c6735e3276fe87afcb2e",
     "53965cf695fba09030fb8c1e43abf5150cf308f273edab636c8d1697aa2f3af2"),
    ("quartic", "Y", 1, 7, 2,
     "c8de24b73900f432b8c527d4d1ae61c37c728e9ba3f5b4cf3727a4eb42563e51",
     "4552c9f88ab4dfcdd9bb09928453c57564a59d77bdbae2f1a2e833c268a634af"),
    ("wide", "Y", 1, 4, 2**162,
     "7ff762ba89ae9491b841c54607a101a8130a87b79342a79bb76651d05dd12963",
     "1b5895b103997149fecf6cb700dcc2f2cb83371e948028ea8a95f4d2a7c87016"),
    ("phi", "A", 1, 10, 3,
     "7857cb2ea64871d2ec819c095b4013513b3faf8cd1caacc6286e00a95ab1aaf3",
     "4dc31d6fff8eef62424cc59f4ae83e3b9e7556eb04e1e0b0d2aca5e09328e932"),
    ("cubic", "A", 1, 9, 2,
     "f59f3f7e080f80cca1125d0c90f75c9e7d451f8d9f96dca07c6aabe7dbacf53f",
     "63619eae9fe1d262318d4553e9cec0993c74eebc0a55b8c0cb724cb524a3cc3b"),
    ("quartic", "A", 1, 10, 2,
     "76eea366652f5aa7deb17214e4c329d3d2b24233cf003ffac7f9064449e1a304",
     "5ec838c02fed4fb53a2e4ae610f457683911cb54b7d5866b9bdcfe0186c49453"),
]

PACKED_WINDOW_IDS = [f"{case[0]}-{case[1]}" for case in PACKED_WINDOW_CASES]


def _window_of(name, kind, m, degree, B):
    q = AlgebraicNumber.base_from_poly(IntPolynomial(WINDOW_POLYS[name]),
                                       root_index=0)
    if kind == "X":
        return enumerate_X(q, m, B)
    if kind == "Y":
        return enumerate_Y(q, m, degree, B)
    return enumerate_A(q, degree, B)


def _tuple_step(c, v, s):
    """q*v + s for a vector v over 1, q, ..., q^(d-1), where the monic
    minimal polynomial has coefficients c, so q^d = -sum c_i q^i."""
    top = v[-1]
    return tuple([s - top * c[0]]
                 + [a - top * ci for a, ci in zip(v, c[1:-1])])


def brute_force_window(q, c, kind, m, degree, B):
    """The window's vectors in exact increasing order, in plain tuples.

    Y and A: every distinct value of the digit strings with degree+1 digits,
    clipped exactly to [-B, B].  X: level after level over digits 0..m; a
    value above B only has larger extensions, so a float test with a wide
    margin drops it (every entry is >= 0 for these bases, so the float sum
    does not cancel), and the exact test filters at the end."""
    ctx = q.zq_context()
    qf, B = q.float_value(), Fraction(B)
    alphabet = {"X": range(m + 1), "Y": range(-m, m + 1), "A": (-1, 1)}[kind]
    level = found = {(0,) * (len(c) - 1)}
    if kind == "X":
        while level:
            level = {_tuple_step(c, v, s) for v in level for s in alphabet}
            level = {v for v in level - found
                     if sum(a * qf**i for i, a in enumerate(v)) <= 2 * B + 1}
            found = found | level
        vecs = [v for v in found if ctx.cmp_fraction(v, B) <= 0]
    else:
        for _ in range(degree + 1):
            level = {_tuple_step(c, v, s) for v in level for s in alphabet}
        vecs = [v for v in level if ctx.cmp_fraction(v, B) <= 0
                and ctx.cmp_fraction(v, -B) >= 0]
    return sorted(vecs, key=cmp_to_key(
        lambda a, b: ctx.sign(_axpy(a, -1, b))))


@pytest.mark.parametrize("name,kind,m,degree,B,points_sha,gaps_sha",
                         PACKED_WINDOW_CASES, ids=PACKED_WINDOW_IDS)
def test_packed_windows_match_a_tuple_brute_force(name, kind, m, degree, B,
                                                  points_sha, gaps_sha):
    w = _window_of(name, kind, m, degree, B)
    q, ctx = w.base, w.base.zq_context()
    want = brute_force_window(q, WINDOW_POLYS[name], kind, m, degree, B)
    # the vector set and its exact order
    assert [w.vecs[i] for i in w.order] == want
    # the gap histogram, grouped by difference vector, and its minimum
    diffs = Counter(tuple(y - x for x, y in zip(a, b))
                    for a, b in zip(want, want[1:]))
    rep = gap_report(w)
    assert rep.histogram == tuple(sorted(
        (ctx.float_value(k), n) for k, n in diffs.items()))
    assert rep.min_gap_vec == min(diffs, key=cmp_to_key(
        lambda a, b: ctx.sign(_axpy(a, -1, b))))
    if name == "wide":
        assert w.kernel.W >= 128
    # one point a line: the writer's runs are flat JSON objects, comma-joined
    text = ",".join(window_point_texts(w)).replace("},{", "}\n{")
    assert hashlib.sha256(text.encode()).hexdigest() == points_sha
    text = canonical_json([rep.to_dict(), list(rep.min_gap_vec)])
    assert hashlib.sha256(text.encode()).hexdigest() == gaps_sha


@pytest.mark.parametrize("name,kind,m,degree,B",
                         [case[:5] for case in PACKED_WINDOW_CASES],
                         ids=PACKED_WINDOW_IDS)
def test_exact_sort_gives_the_certified_permutation(name, kind, m, degree, B):
    """With the float-gap test defeated, the exact bubble loop must give
    the window's order: first with every radius widened past the window
    (each adjacent pair is compared exactly), then with every float tied
    at 0 (the loop sorts from position order by exact compares alone).
    Both are valid enclosures of the same values."""
    w = _window_of(name, kind, m, degree, B)
    n, wide = len(w.floats), 2.0 * float(B)
    assert _sort_order(w.kernel, w.keys, w.floats, wide) == w.order
    if n <= 64:
        tied = array("d", [0.0]) * n
        assert _sort_order(w.kernel, w.keys, tied, wide) == w.order


# -- exact windows on rational and non-monic bases ---------------------------

NON_MONIC = {   # ascending coefficients of the minimal polynomial
    "27/20": [-27, 20],
    "9/5": [-9, 5],
    "2x^2-2x-1": [-1, -2, 2],   # q = (1 + sqrt 3)/2 ~ 1.366
}


def _non_monic(name) -> AlgebraicNumber:
    c = NON_MONIC[name]
    if len(c) == 2:
        return AlgebraicNumber.from_rational(Fraction(-c[0], c[1]))
    return AlgebraicNumber.base_from_poly(IntPolynomial(c), root_index=0)


def _exact_values(w) -> list[tuple]:
    """The window's values by position, as Fraction coefficients in the
    basis 1, q, ..., q^(d-1)."""
    k = w.kernel
    return [_coefficients(k.ctx, k.unpack(V)) for V in w.keys]


def _times_theta(ctx, V):
    """theta*V in tuple arithmetic, before any division by a."""
    out = [0, *V[:-1]]
    for i, t in ctx.qd_terms:
        out[i] += V[-1] * t
    return tuple(out)


def _fraction_step(c, v, s):
    """q*v + s over 1, q, ..., q^(d-1) in Fractions, with
    q^d = -sum_{i<d} c_i q^i / c_d."""
    top = v[-1]
    return tuple(x - top * Fraction(ci, c[-1])
                 for x, ci in zip((s,) + v[:-1], c))


def _fraction_sign(c, v) -> int:
    """Exact sign of a value, without the library's sign oracle: a Fraction
    on a rational base; on 2x^2-2x-1, v0 + v1*(1 + sqrt 3)/2 is u + w*sqrt 3
    with u = v0 + v1/2 and w = v1/2."""
    if len(v) == 1:
        return (v[0] > 0) - (v[0] < 0)
    assert c == [-1, -2, 2]
    u, w = v[0] + v[1] / 2, v[1] / 2
    su, sw = (u > 0) - (u < 0), (w > 0) - (w < 0)
    if su == sw or sw == 0:
        return su
    if su == 0:
        return sw
    return su if u * u > 3 * w * w else sw


def fraction_window(name, kind, m, degree, B):
    """(values, digit texts) of a window in exact increasing order, by a
    brute force in Fractions that expands levels as the engine does:
    parents in level order, digits ascending, the first representative of a
    value kept.  X: one seen set over all levels, children above B dropped.
    Y and A: one seen set per level, no pruning, the last level clipped."""
    c = NON_MONIC[name]
    d, B = len(c) - 1, Fraction(B)
    alphabet = {"X": range(m + 1), "Y": range(-m, m + 1), "A": (-1, 1)}[kind]
    zero = (Fraction(0),) * d

    def above(v, bound):
        return _fraction_sign(c, (v[0] - bound,) + v[1:]) > 0

    level, found = [(zero, "0")], {zero: "0"}
    for _ in range(degree + 1 if kind != "X" else 10**6):
        seen = found if kind == "X" else {}
        nxt = []
        for v, text in level:
            for s in alphabet:
                child = _fraction_step(c, v, s)
                if child in seen or (kind == "X" and above(child, B)):
                    continue
                seen[child] = str(s) if text == "0" else f"{s},{text}"
                nxt.append((child, seen[child]))
        level = nxt
        if not level:
            break
    if kind != "X":
        found = {v: t for v, t in level if not above(v, B)
                 and not above(tuple(-x for x in v), B)}
    order = sorted(found, key=cmp_to_key(
        lambda a, b: _fraction_sign(c, tuple(x - y for x, y in zip(a, b)))))
    return order, [found[v] for v in order]


NON_MONIC_WINDOWS = [   # (base, kind, m, degree, bound)
    ("27/20", "X", 1, None, 12), ("27/20", "Y", 1, 6, 2),
    ("27/20", "A", 1, 10, 2),
    ("9/5", "X", 2, None, 30), ("9/5", "Y", 2, 4, 3), ("9/5", "A", 1, 9, 8),
    ("2x^2-2x-1", "X", 1, None, 15), ("2x^2-2x-1", "Y", 1, 6, 2),
    ("2x^2-2x-1", "A", 1, 9, 2),
]


def _non_monic_window(name, kind, m, degree, B):
    q = _non_monic(name)
    if kind == "X":
        return enumerate_X(q, m, B)
    if kind == "Y":
        return enumerate_Y(q, m, degree, B)
    return enumerate_A(q, degree, B)


@pytest.mark.parametrize("name,kind,m,degree,B", NON_MONIC_WINDOWS,
                         ids=[f"{c[0]}-{c[1]}" for c in NON_MONIC_WINDOWS])
def test_non_monic_windows_match_a_fraction_brute_force(name, kind, m,
                                                        degree, B):
    w = _non_monic_window(name, kind, m, degree, B)
    want_values, want_texts = fraction_window(name, kind, m, degree, B)
    values = _exact_values(w)
    # the value set, its exact order and the first digit text of each
    assert [values[i] for i in w.order] == want_values
    assert [w.texts[i] for i in w.order] == want_texts
    assert len(want_values) > 20
    assert w.vecs is None and all(p.vec is None for p in w.points)


@pytest.mark.parametrize("name,kind,m,degree,B", [
    ("27/20", "X", 1, None, 200), ("2x^2-2x-1", "Y", 1, 9, 3),
    # B just below q^18: the children of the last level all lie above B,
    # but their floats do not prove it, so they are stepped, at degree 18
    ("27/20", "X", 1, None, Fraction(27, 20) ** 18 - Fraction(1, 2**60)),
    ("27/20", "Y", 1, 9, 3), ("27/20", "A", 1, 16, 2)])
def test_every_scaled_step_divides_exactly(monkeypatch, name, kind, m,
                                           degree, B):
    """Each q*V of a non-monic window is theta*V divided by a: every entry
    of theta*V (in tuple arithmetic) is divisible by a, and the packed
    quotient decodes to the entries divided by a.  On 27/20, whose
    denominators grow by a at every level, a depth bound one level short
    (D = n - 1 for X, degree - 1 for Y and A) fails this."""
    steps = []
    set_width = _PackedZq._set_width

    def spy(self, W):
        set_width(self, W)
        a, mul_q, unpack, ctx = self.lead, self.mul_q, self.unpack, self.ctx

        def checked(V):
            theta_v = _times_theta(ctx, unpack(V))
            assert all(x % a == 0 for x in theta_v)
            out = mul_q(V)
            assert unpack(out) == tuple(x // a for x in theta_v)
            steps.append(V)
            return out

        self.mul_q = checked

    monkeypatch.setattr(_PackedZq, "_set_width", spy)
    w = _non_monic_window(name, kind, m, degree, B)
    assert w.kernel.lead > 1 and len(steps) > 1000


# -- the Y/A reach cap against every digit string ----------------------------


def _every_string(c, alphabet, degree) -> dict:
    """Value -> digits (top first) of every digit string over the alphabet
    with degree+1 digits, over 1, q, ..., q^(d-1) in Fractions.  Each value
    keeps its lexicographically least string, the representative that a
    level-order expansion, parents in order and digits ascending, keeps."""
    first = {}
    for digits in itertools.product(alphabet, repeat=degree + 1):
        v = (Fraction(0),) * (len(c) - 1)
        for s in digits:
            v = _fraction_step(c, v, s)
        first.setdefault(v, digits)
    return first


@pytest.mark.parametrize("kind", ["Y", "A"])
@pytest.mark.parametrize("name", ["phi", "cubic", "27/20", "2x^2-2x-1"])
def test_the_reach_cap_keeps_every_string_that_comes_back(name, kind):
    """Y (m = 1, degree 6) and A (degree 9) windows equal every digit
    string's value in [-B, B], with its least string as digits, for B at a
    point (where the point is rational), within a float of one and 2^-40
    either side: the cap prunes only states that cannot come back."""
    if name in NON_MONIC:
        q, c = _non_monic(name), NON_MONIC[name]
        sign = functools.partial(_fraction_sign, c)
    else:
        c = WINDOW_POLYS[name]
        q = AlgebraicNumber.base_from_poly(IntPolynomial(c), root_index=0)
        ctx = q.zq_context()

        def sign(v):     # of a vector of Fractions, scaled to integers
            den = math.lcm(*(x.denominator for x in v))
            return ctx.sign(tuple(int(x * den) for x in v))

    degree, alphabet = (6, (-1, 0, 1)) if kind == "Y" else (9, (-1, 1))
    first = _every_string(c, alphabet, degree)
    qf = q.float_value()
    # the point nearest 2 and, on 27/20, the rational point nearest 1.5
    near = min(first, key=lambda v: abs(sum(
        float(x) * qf**i for i, x in enumerate(v)) - 2))
    f = Fraction(sum(float(x) * qf**i for i, x in enumerate(near)))
    bounds = [f, f - Fraction(1, 2**40), f + Fraction(1, 2**40)]
    if len(c) == 2:
        bounds.append(min((v[0] for v in first if v[0] > 0),
                          key=lambda x: abs(x - Fraction(3, 2))))
    for B in bounds:
        want = [v for v in first if sign((v[0] - B,) + v[1:]) <= 0
                and sign((-v[0] - B,) + tuple(-x for x in v[1:])) <= 0]
        want.sort(key=cmp_to_key(
            lambda a, b: sign(tuple(x - y for x, y in zip(a, b)))))
        texts = []
        for v in want:
            up = list(reversed(first[v]))
            while len(up) > 1 and up[-1] == 0:
                up.pop()
            texts.append(",".join(map(str, up)))
        w = (enumerate_Y(q, 1, degree, B) if kind == "Y"
             else enumerate_A(q, degree, B))
        values = _exact_values(w)
        assert [values[i] for i in w.order] == want
        assert [w.texts[i] for i in w.order] == texts
        assert len(want) >= 2


def test_no_window_builds_the_float_kernel(monkeypatch):
    built = []
    float_kernel = spectrum._FloatKernel

    def spy(*args):
        built.append(args)
        return float_kernel(*args)

    monkeypatch.setattr(spectrum, "_FloatKernel", spy)
    for name in NON_MONIC:
        q = _non_monic(name)
        w = enumerate_X(q, 1, 20)
        gap_report(w)
        enumerate_Y(q, 1, 5, 2)
        enumerate_A(q, 8, 2)
        _tail_gaps(q, 1, [5, 10])
    assert built == []
    # only the search of a non-monic base runs on floats
    min_positive_bfs(_non_monic("27/20"), 1, 6)
    assert len(built) == 1


def test_a_window_too_deep_for_its_scale_is_refused(deadline):
    # 1.000001 = 1000001/10^6: the X window to B = 2 would take about
    # 700,000 levels of 20 bits each, so it exits at once with a typed
    # error, before any scale (10^6)^depth is computed
    q = AlgebraicNumber.from_rational(Fraction("1.000001"))
    with deadline(10):
        with pytest.raises(PreconditionError, match="levels"):
            enumerate_X(q, 1, 2)
        with pytest.raises(PreconditionError, match="levels"):
            enumerate_Y(q, 1, 10**9, 2)


def test_the_scale_cap_counts_the_bits_of_a_to_the_depth(deadline):
    # 3^646 has 1,024 bits and 3^647 has 1,026: the cap reads the real
    # scale, not one bit per level of floor(log2 3) = 1
    q = AlgebraicNumber.from_rational(Fraction(4, 3))
    with deadline(10):
        assert make_kernel(q, 1, 646).one.bit_length() == 1024
        with pytest.raises(PreconditionError, match="3\\^647"):
            make_kernel(q, 1, 647)
        with pytest.raises(PreconditionError, match="over 1024 bits"):
            enumerate_Y(q, 1, 647, 2)
        # a monic base scales by 1 at any depth, so an X window counts none
        two = AlgebraicNumber.from_rational(2)
        assert spectrum._x_depth(two, Fraction(10**9)) == 0


def test_x_window_skips_the_repack_of_a_level_with_no_child(monkeypatch):
    """On x^2 - 2^40 x - 1 with B = 2^162 the last level's children all lie
    above B: the window widens 16 -> 64 -> 128 for the levels it keeps, and
    not to 256 for the one it drops."""
    widths = []
    set_width = _PackedZq._set_width

    def spy(self, W):
        widths.append(W)
        set_width(self, W)

    monkeypatch.setattr(_PackedZq, "_set_width", spy)
    w = _window_of("wide", "X", 1, None, 2**162)
    assert widths == [16, 64, 128] and w.kernel.W == 128
    assert len(w.order) > 10


# -- windows keep links; digit texts are built when read ---------------------


@pytest.mark.parametrize("name", ["quartic", "27/20", "2x^2-2x-1"])
def test_lazy_texts_equal_the_texts_walked_from_the_links(name):
    """Each window text, built a level at a time, is the digit string that
    walking the parent links from its state gives (``_digits_at``, as the
    search rebuilds a witness): X positions run level after level, and a Y
    or A window's positions are its clipped last level."""
    q = (_non_monic(name) if name in NON_MONIC else
         AlgebraicNumber.base_from_poly(IntPolynomial(WINDOW_POLYS[name]),
                                        root_index=0))
    for w in (enumerate_X(q, 1, 12), enumerate_Y(q, 1, 7, 2),
              enumerate_A(q, 10, 2)):
        assert "texts" not in vars(w)
        if w.kind == "X":
            where = [(-1, 0)] + [(k, i) for k, (par, _) in enumerate(w.links)
                                 for i in range(len(par))]
        else:
            where = [(len(w.links) - 1, i) for i in range(len(w.links[-1][0]))]
        walked = ["0" if k < 0 else ",".join(map(str, spectrum._digits_at(
            w.links, k, i))) for k, i in where]
        assert len(where) == len(w.keys) == len(w.texts.ends) - 1 > 20
        assert [w.texts[i] for i in range(len(walked))] == walked


def test_gaps_never_build_the_digit_texts(monkeypatch, tmp_path):
    def unbuilt(window):
        raise AssertionError("digit texts built")

    monkeypatch.setattr(spectrum.SpectrumWindow, "texts",
                        property(unbuilt))
    code = cli.main(["gaps", "--poly", "-1,-1,0,0,1", "--m", "1", "--bound",
                     "60", "--out", str(tmp_path / "gaps.json")])
    assert code == 0
    gaps = _tail_gaps(phi(), 1, [10, 20])
    assert gaps[0] == gaps[1]
    with pytest.raises(AssertionError, match="texts built"):
        enumerate_X(phi(), 1, 10).points


def test_x_window_build_and_write_bytes_per_point():
    """tracemalloc peak of enumerating the 60,504-point X window of x^4-x-1
    at B = 300 and writing it: 134 B a point (142 with a radius column of
    one float a point, 153 with a 32-bit width floor and 'i' digits, 290
    when every state kept its digit text and the sort ran beside the seen
    dict)."""
    q = AlgebraicNumber.base_from_poly(IntPolynomial([-1, -1, 0, 0, 1]),
                                       root_index=0)
    enumerate_X(q, 1, 10)       # refine the base untraced
    tracemalloc.start()
    try:
        w = enumerate_X(q, 1, 300)
        with open(os.devnull, "w") as fh:
            write_json(fh, {"points": JsonArray(window_point_texts(w))})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w.order) == 60504
    assert peak / len(w.order) <= 138


# -- min positive BFS ---------------------------------------------------------


def test_bfs_lemma21_base3_m2():
    res = min_positive_bfs(AlgebraicNumber.from_rational(3), 2)
    assert res.closed
    assert res.min_positive == 1
    assert [v for v, _ in res.closed_states] == [1]


def test_bfs_phi_closure():
    res = min_positive_bfs(phi(), 1)
    assert res.closed
    states = [vec for _, vec in res.closed_states]
    assert states == [(-1, 1), (1, 0), (0, 1)]  # phi-1 < 1 < phi
    assert res.min_positive_vec == (-1, 1)
    assert abs(res.min_positive - 0.6180339887498949) < 1e-12


def test_bfs_sqrt2_pell_trace():
    res = min_positive_bfs(sqrt2(), 1, max_depth=14)
    assert not res.closed
    mins = {r.min_vec for r in res.trace}
    # Pell convergents: sqrt2-1, 3-2sqrt2, 5sqrt2-7, 17-12sqrt2, 29sqrt2-41
    for vec in [(-1, 1), (3, -2), (-7, 5), (17, -12), (-41, 29)]:
        assert vec in mins
    values = [r.min_value for r in res.trace]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_bfs_soundness_every_state_is_a_digit_string_value():
    # these bases flip the sign of many states, so most witnesses carry
    # digits negated above a flip
    for coeffs, m, depth in [([-2, 0, 1], 1, 8), ([-2, 0, 1], 2, 24),
                             ([-1, 0, 0, -1, 1], 3, 10),  # x^4 - x^3 - 1
                             ([-1, 0, 0, 0, 0, 0, -1, 0, 1], 1, 12)]:
        q = AlgebraicNumber.base_from_poly(IntPolynomial(coeffs),
                                           root_index=0)
        ctx = q.zq_context()
        res = min_positive_bfs(q, m, max_depth=depth)
        assert len(res.trace) == depth
        for rec in res.trace:
            assert rec.min_vec is not None
            # witness digits evaluate to the reported state, not its
            # negation
            assert ctx.from_digits(rec.witness) == rec.min_vec
            assert max(map(abs, rec.witness)) <= m
            assert rec.witness[-1] != 0
        assert ctx.from_digits(res.min_witness) == res.min_positive_vec


def test_bfs_matches_brute_force_minimum():
    q = sqrt2()
    ctx = q.zq_context()
    m, depth = 1, 6
    res = min_positive_bfs(q, m, max_depth=depth)
    # brute force: min over all strings of degree <= depth-1 within (0, c]
    best = None
    for vec in brute_force_values(q, (-1, 0, 1), depth - 1):
        if ctx.sign(vec) <= 0:
            continue
        w = _axpy(ctx.mul_q(vec), -1, vec)
        if ctx.sign(_axpy(w, -m, ctx.one)) > 0:
            continue
        if best is None or ctx.sign(_axpy(vec, -1, best)) < 0:
            best = vec
    assert best == res.trace[depth - 1].min_vec


def test_bfs_budget_exhaustion_returns_partial():
    res = min_positive_bfs(sqrt2(), 1, max_depth=30, state_budget=20)
    assert res.budget_exhausted and not res.closed
    assert len(res.trace) >= 1


def test_bfs_peak_memory_per_state():
    # a state holds its packed vector (one int), its carried float and its
    # parent links, not a witness path; x^8 - x^6 - 1 holds 23,313 states
    # at depth 12
    q = AlgebraicNumber.base_from_poly(
        IntPolynomial([-1, 0, 0, 0, 0, 0, -1, 0, 1]), root_index=0)
    min_positive_bfs(q, 1, max_depth=2)     # refine the base untraced
    tracemalloc.start()
    try:
        res = min_positive_bfs(q, 1, max_depth=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = res.trace[-1].states
    assert states == 23313
    assert peak / states <= 145


def test_bfs_empty_region_closes():
    # q = 4 > m+1 = 3: c = 2/3 < 1, no seeds, closes immediately
    res = min_positive_bfs(AlgebraicNumber.from_rational(4), 2)
    assert res.closed
    assert res.min_positive is None
    assert res.closed_states == ()


# -- estimators -----------------------------------------------------------------


def test_l_estimate_verdicts():
    # the search result is the evidence: Pisot and integer bases close
    assert min_positive_bfs(phi(), 1).closed
    assert min_positive_bfs(AlgebraicNumber.from_rational(3), 2).closed
    assert not min_positive_bfs(sqrt2(), 1, max_depth=12).closed


def test_float_search_never_claims_closure():
    # tolerance 0.6 (absolute 1.2) dedups the digit 1 away at depth 1: an
    # emptied float level proves nothing, so the search stays open
    q = AlgebraicNumber.from_rational(Fraction("1.8"))
    res = min_positive_bfs(q, 1, 8, tol=0.6)
    assert not res.closed and res.closed_states is None
    assert res.min_positive is None and len(res.trace) == 8


def _tail_gaps(q, m, bounds):
    """The largest gap over the top half of each window X^m(q) in [0, B]:
    a window estimate of L^m(q), the largest gap of X^m(q)."""
    return [gap_report(enumerate_X(q, m, B)).max_gap_tail for B in bounds]


def test_L_estimate_phi_constant():
    # oracle: unit gaps persist through every golden-ratio window tail
    gaps = _tail_gaps(phi(), 1, [10, 20, 40])
    assert len(set(gaps)) == 1
    assert all(abs(g - 1.0) < 1e-9 for g in gaps)


def test_L_estimate_cbrt2_decreasing():
    q = AlgebraicNumber.base_from_poly(IntPolynomial([-2, 0, 0, 1]),
                                       root_index=0)
    gaps = _tail_gaps(q, 1, [10, 30])
    assert gaps[0] > gaps[1]


def test_L_estimate_base3_constant_one():
    gaps = _tail_gaps(AlgebraicNumber.from_rational(3), 2, [10, 20, 40])
    assert all(g == 1 for g in gaps)


def test_no_tail_gap_table_is_exported():
    # the rows above come from gap_report; no table type wraps them
    import qspectra
    for module, name in ((qspectra, "L_estimate"), (spectrum, "L_estimate"),
                         (spectrum, "TailGapTable")):
        with pytest.raises(AttributeError):
            getattr(module, name)


# -- determinism -----------------------------------------------------------------


def test_windows_deterministic_across_runs():
    q = sqrt2()
    w1 = enumerate_Y(q, 1, 5, 3)
    w2 = enumerate_Y(q, 1, 5, 3)
    assert [p.to_dict() for p in w1.points] == [p.to_dict() for p in w2.points]


def test_numeric_mode_dedup():
    # a rational base dedups exactly: 9/5 stores 5^D times each value, and
    # the window's values are distinct and in exact increasing order
    q = AlgebraicNumber.from_rational(Fraction(9, 5))
    w = enumerate_X(q, 1, 8)
    assert isinstance(w.kernel, _PackedZq) and w.kernel.one == 5 ** 4
    exact = [_exact_values(w)[i] for i in w.order]
    assert all(a < b for a, b in zip(exact, exact[1:]))
    assert exact[:2] == [(0,), (1,)] and w.values()[:2] == [0.0, 1.0]
    assert len(exact) == 11 and w.vecs is None


def test_gap_bound_shadow_below_digit_range():
    # for q <= m+1 every consecutive gap in a nonnegative-digit window
    # is at most 1 (+ numeric slack)
    cases = [(phi(), 1, 25), (sqrt2(), 1, 12),
             (AlgebraicNumber.from_rational(2), 1, 16),
             (AlgebraicNumber.from_rational(Fraction("1.8")), 1, 12)]
    for q, m, B in cases:
        w = enumerate_X(q, m, B)
        vals = w.values()
        assert all(b - a <= 1 + 1e-9 for a, b in zip(vals, vals[1:]))


def test_closed_state_set_reproduces_itself():
    # closure flag means one more expansion round adds nothing new
    q = phi()
    ctx = q.zq_context()
    res = min_positive_bfs(q, 1)
    assert res.closed
    closed = {vec for _, vec in res.closed_states}
    m, c_test = 1, None
    for vec in closed:
        for s in (-1, 0, 1):
            child = ctx.step(vec, s)
            sign = ctx.sign(child)
            if sign == 0:
                continue
            if sign < 0:
                child = tuple(-x for x in child)
            w = _axpy(ctx.mul_q(child), -1, child)
            if ctx.sign(_axpy(w, -m, ctx.one)) > 0:
                continue
            assert child in closed
