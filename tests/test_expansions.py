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
from qspectra.algebraic import AlgebraicNumber, ZqContext
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
            seq = lazy_constrained(q, m, pattern, 80)
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
    assert seq.meta["digit_sum"] == 1
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


@pytest.mark.parametrize("make_base", [
    lambda: rational(Fraction(27, 20)),
    lambda: _non_monic_base(),
], ids=["27/20", "nonmonic"])
@pytest.mark.parametrize("pattern", [
    SignPattern.from_text("explicit:1,3,4;eventual:in;threshold:6"),
    SignPattern.from_membership(range(1, 121, 2), 120),
], ids=["crossing", "materialized"])
def test_the_corridor_holds_one_scale(monkeypatch, make_base, pattern):
    """Once the corridor is built, choosing its digits calls neither
    math.gcd nor ZqContext._common and creates no Fraction: every value
    sits at the one scale a^D fixed at construction.  Each q-step of a
    value there, theta*V / a, divides exactly: a^D covers the highest
    degree of any value, w_0 = q^T (q-1) and the last z_N = u_N (q-1)
    included (a scale one level short rounds them by less than a float
    can show).  A first run refines the base, so that no sign of the
    counted run refines it."""
    q = make_base()
    want = lazy_constrained(q, 2, pattern, 120).preperiod
    ctx = ZqContext(q)
    x = ctx.from_fraction(Fraction(1, 3))
    calls, stepped = [], []

    def spy(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    def times_theta(self, V, c=0, real=ZqContext._times_theta):
        stepped.append(real(self, V, c))
        return stepped[-1]

    monkeypatch.setattr(ZqContext, "_times_theta", times_theta)
    corridor = expansions._Corridor(q, 2, pattern, 120)
    monkeypatch.setattr(math, "gcd", spy("gcd", math.gcd))
    monkeypatch.setattr(ZqContext, "_common",
                        staticmethod(spy("_common", ZqContext._common)))
    monkeypatch.setattr(Fraction, "__new__",
                        spy("Fraction", Fraction.__new__))
    # the spies see an aligning sum of two scales
    ctx.sub(ctx.step(x, 0), x)
    seen, calls[:], stepped[:] = sorted(set(calls)), [], stepped[:-1]
    digits = [corridor.choose(k) for k in range(1, 121)]
    monkeypatch.undo()
    assert seen == ["_common", "gcd"]
    assert calls == []
    assert (-1, *digits) == want
    assert len(stepped) > 120
    assert all(e % ctx.lead == 0 for V in stepped for e in V)
