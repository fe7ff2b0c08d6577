"""Expansion algorithm tests.

Oracles: direct float implementations of the greedy/lazy rules, geometric
series closed forms for capacities, and the tail-bound arithmetic checked
numerically at high precision.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

from qspectra import expansions
from qspectra.algebraic import (AlgebraicNumber, ZqContext, classify_base,
                                power_base)
from qspectra.disks import conjugates
from qspectra.errors import PreconditionError
from qspectra.intpoly import IntPolynomial
from qspectra.expansions import (
    DigitSequence,
    SignPattern,
    greedy_expansion,
    lazy_constrained,
    periodic_completion,
    verify_expansion,
)
from qspectra.spectrum import (enumerate_A, enumerate_X, enumerate_Y,
                               gap_report, min_positive_bfs)
from qspectra.witness import (accumulation_verdict, build_P_and_k,
                              build_witness, choose_w)

PHI_POLY = IntPolynomial([-1, -1, 1])


def phi():
    return AlgebraicNumber.base_from_poly(PHI_POLY, root_index=0)


def rational(x) -> AlgebraicNumber:
    return AlgebraicNumber.from_rational(Fraction(x))


# -- sign patterns -----------------------------------------------------------


def test_pattern_parse_round_trip():
    p = SignPattern.from_text("explicit:2,4;eventual:in;threshold:6")
    assert p.explicit == frozenset({2, 4})
    assert p.eventual == "in"
    assert p.threshold == 6
    assert SignPattern.from_text(p.to_text()) == p


def test_pattern_threshold_defaults_past_the_last_explicit_index():
    p = SignPattern.from_text("explicit:2,4")
    assert p.threshold == 5
    assert p.eventual == "out"


def test_pattern_membership():
    p = SignPattern(frozenset({2, 4}), 6, "in")
    assert [p.contains(i) for i in range(1, 9)] == [
        False, True, False, True, False, True, True, True]
    q = SignPattern(frozenset({1}), 3, "out")
    assert [q.contains(i) for i in range(1, 6)] == [
        True, False, False, False, False]


def test_pattern_unknown_blocks_beyond_horizon():
    p = SignPattern.from_membership([1, 3], horizon=5)
    assert p.contains(3) and not p.contains(4)
    with pytest.raises(PreconditionError):
        p.contains(6)


def test_pattern_rejects_bad_explicit():
    with pytest.raises(PreconditionError):
        SignPattern(frozenset({7}), 3, "in")


@pytest.mark.parametrize("explicit, threshold, eventual", [
    ({0}, 3, "out"), (set(), 0, "in"), (set(), 3, "maybe")])
def test_pattern_rejects_other_bad_fields_at_construction(explicit, threshold,
                                                          eventual):
    with pytest.raises(PreconditionError):
        SignPattern(frozenset(explicit), threshold, eventual)


def test_pattern_replace_checks_the_new_fields():
    p = SignPattern(frozenset({1}), 4)
    assert p._replace(eventual="in") == SignPattern(frozenset({1}), 4, "in")
    for bad in ({"explicit": frozenset({4})}, {"threshold": 0},
                {"eventual": "maybe"}):
        with pytest.raises(PreconditionError):
            p._replace(**bad)


def test_pattern_and_sequence_fields_are_read_only():
    p = SignPattern(frozenset({2}), 3)
    assert repr(p) == ("SignPattern(explicit=frozenset({2}), threshold=3, "
                       "eventual='out')")
    assert p == SignPattern(frozenset({2}), 3, "out") and hash(p) == hash(
        (frozenset({2}), 3, "out"))
    seq = DigitSequence((1, 0, 1), 1)
    for record, name in ((p, "threshold"), (seq, "height"), (seq, "meta")):
        with pytest.raises(AttributeError):
            setattr(record, name, 2)
    assert p.threshold == 3 and seq.height == 1 and seq.meta == {}


def test_sequence_equality_hash_and_repr_leave_meta_out():
    a = DigitSequence((1, 0, 1), 1, meta={"zero_from": 2})
    b = DigitSequence(preperiod=(1, 0, 1), height=1)
    assert a == b and hash(a) == hash(b) and {a: "x"}[b] == "x"
    assert a.meta == {"zero_from": 2} and b.meta == {}
    assert DigitSequence((0,), 1).meta is not DigitSequence((0,), 1).meta
    assert repr(a) == repr(b) == (
        "DigitSequence(preperiod=(1, 0, 1), height=1, period=None, "
        "first_index=0, exact_zero_tail=False)")
    assert hash(a) == hash(((1, 0, 1), 1, None, 0, False))
    assert a != DigitSequence((1, 0, 1), 1, first_index=1)
    assert a != DigitSequence((1, 0, 1), 1, period=(1,))


def test_digits_through_reads_every_index_from_zero():
    """Entry i of digits_through(n) is s_i: the preperiod, then the period
    (or zeros), with zeros below first_index and the indices below zero
    left out; verify_expansion reads its digits so."""
    for first in (-2, 0, 1, 3):
        for period in (None, (1, -1)):
            seq = DigitSequence((1, 0, -1), 1, period=period,
                                first_index=first)
            for n in range(-1, 12):
                assert seq.digits_through(n) == [
                    seq.digit(i) if i >= first else 0
                    for i in range(n + 1)], (first, period, n)
    padded = DigitSequence((0, 0, 0, 1, 0, -1), 1)
    shifted = DigitSequence((1, 0, -1), 1, first_index=3)
    assert verify_expansion(shifted, phi(), 0, 9) == verify_expansion(
        padded, phi(), 0, 9)


# -- greedy ------------------------------------------------------------------


def test_greedy_one_at_phi_terminates_exactly():
    seq = greedy_expansion(1, phi(), 1, 12)
    assert seq.preperiod == (1, 1) + (0,) * 10
    assert seq.exact_zero_tail
    assert seq.meta["zero_from"] == 2


def test_greedy_zero():
    seq = greedy_expansion(0, rational(Fraction(3, 2)), 1, 8)
    assert seq.preperiod == (0,) * 8
    assert seq.exact_zero_tail


def test_greedy_remainder_invariant_numeric():
    # digits from the exact path must reproduce x with the documented
    # remainder bound; independent float check
    q = rational(Fraction("1.9"))
    seq = greedy_expansion(1, q, 1, 40)
    qf = 1.9
    partial = sum(c * qf ** -(i + 1) for i, c in enumerate(seq.preperiod))
    assert 0 <= 1 - partial <= qf ** -40 * (1 / 0.9) + 1e-15


def test_greedy_matches_float_oracle_random():
    rng = random.Random(11)
    for _ in range(25):
        qf = Fraction(rng.randint(11, 29), 10)
        m = rng.randint(int(qf), 4)           # m >= q-1 so range is decent
        x = Fraction(rng.randint(0, 100), 100) * m / (qf - 1)
        q = rational(qf)
        seq = greedy_expansion(x, q, m, 18)
        # float oracle of the greedy rule
        r = float(x)
        want = []
        for k in range(1, 19):
            c = min(m, int(r * float(qf) ** k + 1e-9))
            want.append(c)
            r -= c * float(qf) ** -k
        assert list(seq.preperiod) == want


def test_greedy_range_check():
    with pytest.raises(PreconditionError):
        greedy_expansion(3, rational(Fraction(3, 2)), 1, 5)  # 3 > m/(q-1)=2
    with pytest.raises(PreconditionError):
        greedy_expansion(-1, rational(2), 1, 5)


# -- verify ------------------------------------------------------------------


def test_verify_greedy_phi_residual_zero():
    q = phi()
    seq = greedy_expansion(1, q, 1, 12)
    cert = verify_expansion(seq, q, 1, 12)
    assert cert.exact_zero
    assert cert.passed
    assert cert.residual == 0


def test_verify_single_negative_digit():
    # s_0 = -1 truncated at N=0 against target 0: residual 1, tail m/(q-1)
    seq = DigitSequence(preperiod=(-1,), height=1, first_index=0)
    q = rational(Fraction(3, 2))
    cert = verify_expansion(seq, q, 0, 0)
    assert abs(cert.residual - 1.0) < 1e-12
    assert abs(cert.tail_bound - 2.0) < 1e-12
    assert cert.passed  # m/(q-1) = 2 >= 1
    q2 = rational(Fraction(5, 2))   # m/(q-1) = 2/3 < 1
    cert2 = verify_expansion(seq, q2, 0, 0)
    assert not cert2.passed


# -- lazy constrained ---------------------------------------------------------


def test_lazy_all_indices_q15():
    q = rational(Fraction(3, 2))
    seq = lazy_constrained(q, 1, SignPattern.all_indices(), 40)
    assert seq.preperiod[0] == -1
    assert all(s in (0, 1) for s in seq.preperiod[1:])
    cert = verify_expansion(seq, q, 0, 40)
    assert cert.passed
    # residual <= 1.5^-40 * 2
    assert cert.residual <= 1.5 ** -40 * 2 + 1e-18


def test_lazy_even_indices_q12():
    # P = even indices materialized below threshold 44, eventually out;
    # capacity m/(q^2-1) ~ 2.27 certified via the truncated sum
    q = rational(Fraction(6, 5))
    pattern = SignPattern(frozenset(range(2, 44, 2)), 44, "out")
    seq = lazy_constrained(q, 1, pattern, 40)
    for i, s in enumerate(seq.preperiod):
        if i == 0:
            assert s == -1
        elif pattern.contains(i):
            assert 0 <= s <= 1
        else:
            assert -1 <= s <= 0
    assert verify_expansion(seq, q, 0, 40).passed


def test_lazy_capacity_display_on_a_fresh_base():
    # x^8-x^6-1, q ~ 1.1748: all-in capacity m/(q-1); the fresh base's
    # isolating interval is far too coarse to read a float from
    poly = IntPolynomial([-1, 0, 0, 0, 0, 0, -1, 0, 1])
    q = AlgebraicNumber.base_from_poly(poly, root_index=0)
    seq = lazy_constrained(q, 1, SignPattern.all_indices(), 20)
    want = 1 / (AlgebraicNumber.base_from_poly(poly, root_index=0)
                .float_value() - 1)
    lo, hi = seq.meta["capacity"]
    assert abs(lo - want) < 1e-9 and abs(hi - want) < 1e-9
    assert abs(want - 5.7191) < 1e-4


def test_lazy_capacity_rejection():
    # q=1.9, m=1, P={1}: capacity 1/1.9 < 1
    q = rational(Fraction(19, 10))
    with pytest.raises(PreconditionError) as err:
        lazy_constrained(q, 1, SignPattern(frozenset({1}), 2, "out"), 20)
    assert "capacity" in str(err.value)


def test_lazy_requires_digit_surplus():
    with pytest.raises(PreconditionError):
        lazy_constrained(rational(Fraction(5, 2)), 1,
                         SignPattern.all_indices(), 10)


def test_lazy_agrees_with_classical_lazy_oracle():
    # P = all indices, target 1: the corridor rule with minimal digits is
    # the classical lazy expansion; float oracle of the classical rule
    for qf in (Fraction(3, 2), Fraction(17, 10), Fraction(13, 10)):
        q = rational(qf)
        seq = lazy_constrained(q, 1, SignPattern.all_indices(), 30)
        got = list(seq.preperiod[1:])
        x = 1.0
        qq = float(qf)
        cap = 1 / (qq - 1)
        want = []
        for k in range(1, 31):
            # lazy: smallest digit leaving the rest reachable
            c = 0 if x <= cap * qq ** -k else 1
            x -= c * qq ** -k
            want.append(c)
        assert got == want, qf


def test_lazy_exact_boundary_at_phi():
    # capacity for P = {1, 2} at the golden ratio is exactly one:
    # phi^-1 + phi^-2 = 1; the exact kernel must accept, not dither
    q = phi()
    pattern = SignPattern(frozenset({1, 2}), 3, "out")
    seq = lazy_constrained(q, 1, pattern, 12)
    assert seq.preperiod[0] == -1
    assert seq.preperiod[1] == 1 and seq.preperiod[2] == 1
    assert seq.exact_zero_tail
    assert verify_expansion(seq, q, 0, 12).exact_zero


def test_lazy_property_suite_random_patterns():
    rng = random.Random(42)
    accepted = 0
    for _ in range(50):
        qf = Fraction(rng.randint(105, 195), 100)
        m = rng.randint(1, 3)
        if qf >= m + 1:
            continue
        kind = rng.choice(["in", "out"])
        explicit = frozenset(i for i in range(1, 12) if rng.random() < 0.5)
        threshold = 12
        pattern = SignPattern(explicit, threshold, kind)
        q = rational(qf)
        try:
            seq = lazy_constrained(q, m, pattern, 200)
        except PreconditionError:
            # rejection must coincide with certified capacity < 1
            cap = sum(float(qf) ** -i for i in explicit)
            if kind == "in":
                cap += float(qf) ** -threshold * float(qf) / (float(qf) - 1)
            assert m * cap < 1 + 1e-9
            continue
        accepted += 1
        for i, s in enumerate(seq.preperiod):
            if i == 0:
                assert s == -1
            elif pattern.contains(i):
                assert 0 <= s <= m
            else:
                assert -m <= s <= 0
        assert verify_expansion(seq, q, 0, 80).passed
    assert accepted >= 20


# -- periodic completion -------------------------------------------------------


def test_periodic_completion_phi():
    # (-1, 1, 1): -1 + phi^-1 + phi^-2 = 0
    q = phi()
    seq = periodic_completion([-1, 1, 1], q, 1)
    assert seq.period == (-1, 1, 1)
    assert seq.period_digit_sum() == 1
    assert seq.digit(0) == -1 and seq.digit(3) == -1 and seq.digit(4) == 1


def test_periodic_completion_zero_string():
    seq = periodic_completion([0, 0], rational(2), 1)
    assert seq.is_finitely_supported


def test_periodic_completion_rejects_nonzero():
    with pytest.raises(PreconditionError):
        periodic_completion([-1, 1], rational(Fraction(3, 2)), 1)


# -- corridor invariant property ------------------------------------------------


def test_corridor_invariant_holds_along_run():
    # after each step the remaining target must sit between the tail
    # capacities; checked numerically from the emitted digits
    qf = Fraction(14, 10)
    q = rational(qf)
    pattern = SignPattern(frozenset({1, 2, 3, 5, 8, 13}), 21, "in")
    seq = lazy_constrained(q, 2, pattern, 60)
    qq = float(qf)
    t = 1.0
    for k in range(1, 41):
        t -= seq.digit(k) * qq ** -k
        up = sum(2 * qq ** -i for i in range(k + 1, 61) if pattern.contains(i))
        up += 2 * qq ** -61 / (qq - 1)
        dn = -sum(2 * qq ** -i for i in range(k + 1, 61)
                  if not pattern.contains(i))
        dn -= 2 * qq ** -61 / (qq - 1)
        assert dn - 1e-9 <= t <= up + 1e-9


def test_greedy_remainder_bound_random():
    # r_k <= q^-k m/(q-1) along the whole run (float recomputation)
    rng = random.Random(3)
    for _ in range(15):
        qf = Fraction(rng.randint(110, 190), 100)
        m = 1
        x = Fraction(rng.randint(0, 50), 50) * m / (qf - 1)
        seq = greedy_expansion(x, rational(qf), m, 25)
        q = float(qf)
        r = float(x)
        for k, c in enumerate(seq.preperiod, start=1):
            r -= c * q**-k
            assert -1e-12 <= r <= q**-k * m / (q - 1) + 1e-12


# -- pinned refinement trajectory and a non-monic base -----------------------

Q8_POLY = IntPolynomial([-1, 0, 0, 0, 0, 0, -1, 0, 1])      # x^8 - x^6 - 1


def _digest(digits) -> str:
    return hashlib.sha256(str(tuple(digits)).encode()).hexdigest()


def test_q8_refinement_trajectory_is_pinned():
    # The exact signs refine the base only as far as they need, and the
    # certificates' residual floats are midpoints of enclosures that cancel,
    # so they depend on that trajectory (x^8 - x^6 - 1 ends at width 2^-101).
    # Values recorded before the sign evaluator moved from Fractions to
    # integers; any change to which signs refine, or how far, moves them.
    q8 = AlgebraicNumber.base_from_poly(Q8_POLY, root_index=0)
    lazy = lazy_constrained(q8, 1, SignPattern.all_indices(), 400)
    lazy_cert = verify_expansion(lazy, q8, 0, 400)
    greedy = greedy_expansion(1, q8, 1, 400)
    greedy_cert = verify_expansion(greedy, q8, 1, 400)
    assert q8.interval() == (
        Fraction(1489302030288105576532659745811, 2**100),
        Fraction(2978604060576211153065319491623, 2**101))
    assert _digest(lazy.preperiod) == (
        "cc3b315338f7c6af7b0e6df18f8b47826b94499d2cc1a1490738df6c73a45150")
    assert _digest(greedy.preperiod) == (
        "f6b44c5c76fb6377fb8322ac027862d70d06ac60e8894a9650f795e8cd164047")
    assert lazy_cert.to_dict() == {
        "residual": 5.390159581822795e-28, "tail_bound": 5.808218757832447e-28,
        "passed": True, "exact_zero": False}
    assert greedy_cert.to_dict() == {
        "residual": 1.5692427530115349e-29,
        "tail_bound": 5.808218757832447e-28,
        "passed": True, "exact_zero": False}


def test_each_digit_signs_each_vector_once(monkeypatch):
    """The exact signs and interval evaluations of greedy and lazy runs on
    x^8 - x^6 - 1 to N = 400, counted at the base's sign oracle and at
    ``_int_interval``.  Each digit reads one enclosure of its carried
    vector, and a candidate test is signed only when that enclosure does
    not settle it: greedy makes 38 exact signs and 489 evaluations (777
    and 826 while every tried candidate was signed), lazy 42 and 660
    (1,169 and 1,221 while both tests of each candidate were).  The base
    starts at its isolation cell, unrefined.  No run
    signs a vector twice in a row: the corridor's capacity bounds, which a
    known tail makes one vector, are signed once."""
    signed, evaluated = [], []
    sign_of_reduced = AlgebraicNumber._sign_of_reduced
    int_interval = AlgebraicNumber._int_interval

    def spy(self, coeffs):
        signed.append(tuple(coeffs))
        return sign_of_reduced(self, coeffs)

    def count(self, coeffs):
        evaluated.append(None)
        return int_interval(self, coeffs)

    monkeypatch.setattr(AlgebraicNumber, "_sign_of_reduced", spy)
    monkeypatch.setattr(AlgebraicNumber, "_int_interval", count)
    runs = [("greedy", lambda q: greedy_expansion(1, q, 1, 400)),
            ("lazy", lambda q: lazy_constrained(
                q, 1, SignPattern.all_indices(), 400))]
    counts = {}
    for name, run in runs:
        q = AlgebraicNumber.base_from_poly(Q8_POLY, root_index=0)
        signed.clear()
        evaluated.clear()
        run(q)
        counts[name] = (len(signed), len(evaluated))
        assert all(a != b for a, b in zip(signed, signed[1:])), name
    assert counts == {"greedy": (38, 489), "lazy": (42, 660)}


def _non_monic_base():
    # root > 1 of 2x^2 - 2x - 1, q = (1 + sqrt 3)/2 ~ 1.3660: q^2 = q + 1/2,
    # so Q[q] elements carry Fraction entries beside int ones
    return AlgebraicNumber.base_from_poly(IntPolynomial([-1, -2, 2]),
                                          root_index=0)


def test_greedy_on_a_non_monic_base_is_pinned():
    q = _non_monic_base()
    seq = greedy_expansion(1, q, 1, 40)
    assert seq.preperiod == (1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0,
                             0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
                             0, 1, 0, 0, 0, 0, 0, 1, 0, 0)
    assert not seq.exact_zero_tail
    assert verify_expansion(seq, q, 1, 40).passed
    third = greedy_expansion(Fraction(1, 3), q, 1, 40)
    assert third.preperiod == (0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0,
                               0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1,
                               0, 0, 0, 0, 1, 0, 0, 0, 0, 0)
    assert not third.exact_zero_tail
    # 2 = 2/q + 1/q^2 exactly
    two = greedy_expansion(2, q, 2, 20)
    assert two.preperiod == (2, 1) + (0,) * 18
    assert two.exact_zero_tail and two.meta["zero_from"] == 2
    cert = verify_expansion(two, q, 2, 20)
    assert cert.exact_zero and cert.passed and cert.residual == 0


def test_lazy_on_a_non_monic_base_is_pinned():
    q = _non_monic_base()
    seq = lazy_constrained(q, 1, SignPattern.all_indices(), 40)
    assert seq.preperiod == (-1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1,
                             0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 1,
                             1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1)
    assert not seq.exact_zero_tail
    assert verify_expansion(seq, q, 0, 40).passed
    out = lazy_constrained(q, 1, SignPattern.from_text(
        "explicit:1,3;eventual:out;threshold:5"), 40)
    assert out.preperiod == (-1, 1, 0, 1, 0, 0, 0, 0, 0, 0, -1, 0, -1, -1,
                             -1, -1, 0, -1, -1, -1, -1, 0, -1, -1, -1, -1,
                             -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                             0, -1, -1)
    assert not out.exact_zero_tail
    assert verify_expansion(out, q, 0, 40).passed


def _times_theta(ctx, V):
    """theta*V in tuple arithmetic, before any division by a."""
    out = [0, *V[:-1]]
    for i, t in ctx.qd_terms:
        out[i] += V[-1] * t
    return tuple(out)


@pytest.mark.parametrize("make_base", [
    lambda: rational(Fraction(27, 20)),
    lambda: _non_monic_base(),
], ids=["27/20", "nonmonic"])
@pytest.mark.parametrize("pattern", [
    SignPattern.from_text("explicit:1,3,4;eventual:in;threshold:6"),
    SignPattern.from_membership(range(1, 121, 2), 120),
], ids=["crossing", "materialized"])
def test_the_corridor_holds_one_scale(monkeypatch, make_base, pattern):
    """Once the corridor is built, choosing its digits calls no math.gcd
    and creates no Fraction: every value sits at the one scale a^D of the
    corridor's context.  Each q-step of a value there, theta*V / a,
    divides exactly: a^D covers the highest degree of any value,
    w_0 = q^T (q-1) and the last z_N = u_N (q-1) included (a scale one
    level short rounds them by less than a float can show).  A first run
    refines the base, so that no sign of the counted run refines it."""
    q = make_base()
    want = lazy_constrained(q, 2, pattern, 120).preperiod
    calls, stepped = [], []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    def step(self, V, s, real=ZqContext.step):
        stepped.append((self, _times_theta(self, V)))
        return real(self, V, s)

    monkeypatch.setattr(ZqContext, "step", step)
    corridor = expansions._Corridor(q, 2, pattern, 120)
    monkeypatch.setattr(math, "gcd", spy("gcd", math.gcd))
    monkeypatch.setattr(Fraction, "__new__",
                        spy("Fraction", Fraction.__new__))
    # the spies see a Fraction reduced to lowest terms
    Fraction(2, 6)
    seen, calls[:] = sorted(set(calls)), []
    digits = [corridor.choose(k) for k in range(1, 121)]
    monkeypatch.undo()
    assert seen == ["Fraction", "gcd"]
    assert calls == []
    assert (-1, *digits) == want
    assert len(stepped) > 120
    assert all(e % ctx.lead == 0 for ctx, V in stepped for e in V)


# -- counts, digits and horizons ------------------------------------------


def _greedy_third():
    return greedy_expansion(Fraction(1, 3), phi(), 1, 10)


#: (call, name): each passes a count or a digit that is not an integer,
#: which once truncated silently or ended in an untyped error
NON_INTEGER_PROBES = [
    (lambda: greedy_expansion(Fraction(1, 3), phi(), 1.5, 10), "m"),
    (lambda: greedy_expansion(Fraction(1, 3), phi(), 1, 10.5), "N"),
    (lambda: verify_expansion(_greedy_third(), phi(), 0, 2.5), "N"),
    (lambda: power_base(phi(), 2.5), "exponent"),
    (lambda: enumerate_X(phi(), 1.5, 5), "m"),
    (lambda: enumerate_Y(phi(), 1, 2.5, 2), "degree"),
    (lambda: enumerate_A(phi(), 2.5, 2), "degree"),
    (lambda: min_positive_bfs(phi(), 1.5), "m"),
    (lambda: min_positive_bfs(phi(), 1, max_depth=2.5), "max_depth"),
    (lambda: lazy_constrained(phi(), 1.5, SignPattern.all_indices(), 10),
     "m"),
    (lambda: lazy_constrained(phi(), 1, SignPattern.all_indices(), 10.5),
     "horizon"),
    (lambda: build_witness(rational("1.8"), 1.5, (2, 0)), "m"),
    (lambda: build_witness(rational("1.8"), 1, (2, 0), 120.5), "horizon"),
    (lambda: accumulation_verdict(phi(), 1.5), "m"),
    (lambda: periodic_completion([1.5, -1, -1], phi(), 2), "digit"),
    (lambda: ZqContext(phi()).from_digits([1.5]), "digit"),
    (lambda: periodic_completion([1, -1, -1], phi(), 2.5), "m"),
    (lambda: enumerate_X(phi(), 1, 5, budget="5"), "state budget"),
    (lambda: enumerate_X(phi(), 1, 5, budget=2.5), "state budget"),
    (lambda: min_positive_bfs(phi(), 1, state_budget="5"), "state budget"),
    (lambda: accumulation_verdict(phi(), 1, state_budget="x"),
     "state budget"),
    (lambda: conjugates(PHI_POLY, budget_bits="x"), "budget bits"),
    (lambda: classify_base(phi(), budget_bits="x").conjugate_set,
     "budget bits"),
    (lambda: choose_w("-1.2", 1, horizon=2.5), "horizon"),
    (lambda: build_P_and_k(rational("1.8"), 1, "-1.2",
                           (Fraction(1), Fraction(0)), 2.5), "horizon"),
    (lambda: SignPattern(frozenset(), "3"), "threshold"),
    (lambda: SignPattern(frozenset(), 2.5), "threshold"),
    (lambda: SignPattern({1.5}, 3), "explicit index"),
]


@pytest.mark.parametrize("call,name", NON_INTEGER_PROBES,
                         ids=[f"{i}-{name}" for i, (_, name)
                              in enumerate(NON_INTEGER_PROBES)])
def test_a_count_or_digit_that_is_not_an_integer_is_refused(call, name):
    with pytest.raises(PreconditionError,
                       match=f"^{name} [^ ]+ is not an integer$"):
        call()


#: calls with a malformed argument that is not a count, each with the
#: start of its PreconditionError
MALFORMED_ARGUMENT_PROBES = [
    (lambda: gap_report(enumerate_X(phi(), 1, 5), tail_fraction="x"),
     "'x' is not a finite rational"),
    (lambda: lazy_constrained(phi(), 1, "explicit:1", 10),
     "pattern 'explicit:1' is not a SignPattern"),
    # a list of digits once ended in an untyped AttributeError
    (lambda: verify_expansion([1, 0, 1], phi(), 1, 3),
     "sequence [1, 0, 1] is not a DigitSequence"),
    (lambda: AlgebraicNumber.base_from_poly(PHI_POLY,
                                            root_interval=(1, 2, 3)),
     "root interval (1, 2, 3) is not a pair"),
    (lambda: AlgebraicNumber.base_from_poly(PHI_POLY, root_interval=2),
     "root interval 2 is not a pair"),
]


@pytest.mark.parametrize("call,message", MALFORMED_ARGUMENT_PROBES,
                         ids=range(len(MALFORMED_ARGUMENT_PROBES)))
def test_a_malformed_argument_is_refused(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value).startswith(message)


def test_integral_floats_and_fractions_count_as_their_ints():
    want = greedy_expansion(Fraction(1, 3), phi(), 1, 10)
    assert greedy_expansion(Fraction(1, 3), phi(), 1.0, Fraction(10)) == want
    assert periodic_completion([1.0, Fraction(-1), -1], phi(), 2).period \
        == (1, -1, -1)
    window = enumerate_X(phi(), 1, 5)
    assert enumerate_X(phi(), 1, 5, budget=1000.0).to_dict() == \
        window.to_dict()
    assert SignPattern({2.0, Fraction(3)}, 4.0) == SignPattern(
        frozenset({2, 3}), 4)
    # a tail fraction given as another rational is its float; an int stays
    assert gap_report(window, tail_fraction=Fraction(1, 2)) == gap_report(
        window, tail_fraction=0.5)
    assert type(gap_report(window, tail_fraction=1).tail_fraction) is int


def test_periodic_completion_needs_a_height_of_at_least_one():
    # a height of 2.5 once came back as the sequence's height
    for m in (0, -1):
        with pytest.raises(PreconditionError, match="need m >= 1"):
            periodic_completion([1, -1, -1], phi(), m)
    height = periodic_completion([1, -1, -1], phi(), 2.0).height
    assert height == 2 and type(height) is int


def test_verify_rejects_a_negative_horizon():
    # N = -1 once passed: it tested the N = 0 residual, reported it scaled
    # by q, against the N = -1 bound
    seq = lazy_constrained(phi(), 1, SignPattern.all_indices(), 10)
    with pytest.raises(PreconditionError, match="N >= 0"):
        verify_expansion(seq, phi(), 0, -1)
    assert verify_expansion(seq, phi(), 0, 0).passed


def test_capacity_floats_beyond_the_float_range_are_finite():
    """w_0 = q^T (q-1) is beyond the float range at T = 1600 on phi; the
    capacity is read with w_0 at one shared power-of-two scale."""
    corridor = expansions._Corridor(
        phi(), 1, SignPattern.from_text(
            "explicit:1;eventual:in;threshold:1600"), 10)
    lower, upper = corridor.capacity_floats()
    assert lower == upper == pytest.approx(1 / 1.6180339887498949)
    with pytest.raises(PreconditionError, match="0.618034 < 1"):
        lazy_constrained(phi(), 1, SignPattern.from_text(
            "explicit:1;eventual:in;threshold:1600"), 10)


def test_capacity_floats_at_a_shifted_scale_are_the_unshifted_quotient():
    # T = 1430 on phi: q^T ~ 2^993 passes 2^960, so the floats are read
    # shifted, yet w_0 is finite, and the quotient is bit for bit the one
    # of the unshifted display floats
    corridor = expansions._Corridor(
        phi(), 1, SignPattern.from_text(
            "explicit:1,3,1429;eventual:out;threshold:1430"), 10)
    ar, w0 = corridor.ar, corridor.rows[0][0]
    got = corridor.capacity_floats()
    want = tuple(ar.float_value(cap) / ar.float_value(w0)
                 for cap in (corridor.cap_lower, corridor.cap_upper))
    assert [x.hex() for x in got] == [x.hex() for x in want]


# -- digit tests decided by integer bounds -------------------------------------


class _Undecided(ZqContext):
    """A context whose enclosures decide no digit test: each is widened
    about its midpoint past +-2^64 in value units, so every greedy
    candidate and corridor test goes to the exact sign, and the display
    floats, read off the midpoint, are the same."""

    def _bounds(self, V):
        lo, hi, den = super()._bounds(V)
        wide = abs(lo) + abs(hi) + (den << 64)
        return lo - wide, hi + wide, den


#: two rational bases, a non-monic one, phi, x^3 - x - 1 and x^8 - x^6 - 1
DIFFERENTIAL_BASES = [
    ("27/20", lambda: rational(Fraction(27, 20))),
    ("9/5", lambda: rational(Fraction(9, 5))),
    ("nonmonic", lambda: _non_monic_base()),
    ("phi", phi),
    ("x3-x-1", lambda: AlgebraicNumber.base_from_poly(
        IntPolynomial([-1, -1, 0, 1]), root_index=0)),
    ("q8", lambda: AlgebraicNumber.base_from_poly(Q8_POLY, root_index=0)),
]

#: lazy patterns: every index, eventual out, explicit indices with an "in"
#: tail, the "in" tail from index 2 (capacity exactly 1 at m = 1 on phi),
#: and materialized unknown ones (phi's odd indices among them)
DIFFERENTIAL_PATTERNS = [
    SignPattern.all_indices(),
    SignPattern.from_text("explicit:1,2,5,7,9,10,13;eventual:out;threshold:14"),
    SignPattern.from_text("explicit:2,4;eventual:in;threshold:6"),
    SignPattern.from_text("explicit:;eventual:in;threshold:2"),
    SignPattern.from_membership([i for i in range(1, 201) if i % 3], 200),
    SignPattern.from_membership(range(1, 201, 2), 200),
]


def _walks(make_base, m: int):
    """Greedy expansions of 1 and 1/3 to N = 200 with their certificates,
    the lazy expansions of ``DIFFERENTIAL_PATTERNS`` to 200 with theirs (or
    the rejection of a capacity below one) and, at m = 1, witnesses at
    p = 3, 1, -1.2 and 2i to 120; each run on a fresh base, with the base's
    final interval."""
    out = []
    for target in (1, Fraction(1, 3)):
        q = make_base()
        seq = greedy_expansion(target, q, m, 200)
        cert = verify_expansion(seq, q, target, 200)
        out.append((seq.to_dict(), seq.meta, cert.to_dict(), q.interval()))
    for pattern in DIFFERENTIAL_PATTERNS:
        q = make_base()
        try:
            seq = lazy_constrained(q, m, pattern, 200)
        except PreconditionError as exc:        # capacity below one
            out.append((str(exc), q.interval()))
            continue
        cert = verify_expansion(seq, q, 0, 200)
        out.append((seq.to_dict(), seq.meta, cert.to_dict(), q.interval()))
    for p in ("3", "1", "-1.2", "0,2") if m == 1 else ():
        q = make_base()
        out.append((build_witness(q, m, p, horizon=120).to_dict(),
                    q.interval()))
    # repr keeps every float's bits, and nan equal to nan
    return repr(out)


@pytest.mark.parametrize("name,make_base", DIFFERENTIAL_BASES,
                         ids=[b[0] for b in DIFFERENTIAL_BASES])
def test_bounds_decide_digit_tests_as_the_exact_signs(monkeypatch, name,
                                                      make_base):
    """Each walk (greedy, lazy and the witness) run as shipped and with
    enclosures that decide no digit test gives the same digits,
    certificates, capacity floats and base refinement, at m = 1, 2 and 3:
    a test the bounds settle is one the exact sign settles without
    refining q, and a tie, such as greedy's zero remainder of 1 on phi,
    still goes to the sign.  The shipped walks sign fewer vectors."""
    signed = []
    sign_of_reduced = AlgebraicNumber._sign_of_reduced

    def spy(self, coeffs):
        signed.append(None)
        return sign_of_reduced(self, coeffs)

    monkeypatch.setattr(AlgebraicNumber, "_sign_of_reduced", spy)
    for m in (1, 2, 3):
        signed.clear()
        got = _walks(make_base, m)
        shipped = len(signed)
        with monkeypatch.context() as patch:
            patch.setattr(expansions, "ZqContext", _Undecided)
            signed.clear()
            assert _walks(make_base, m) == got, m
        if name not in ("27/20", "9/5"):    # rational signs skip the oracle
            assert shipped < len(signed), m
