"""Conjugate-witness construction and the discreteness verdict.

Given m < q < m+1 and a companion point p != q, build a digit sequence
whose value at q vanishes (up to a certified tail bound at the horizon)
while its partial sums at p are certified to stay away from zero, diverge,
or run through many distinct moduli, depending on where p sits relative to
the unit circle.  The direction w is 1 - p, whose partial sums telescope
to Re(p^-k) - 1, at every companion point but the shift case (|p| > 1 with
Re p >= 1).

The forced prefix {1..k} is decided by one exact capacity walk
(``_least_k``), each capacity scaled by q^H (q^t - 1) at the horizon H.
When p is real or a root of unity the membership pattern repeats with
period t and each capacity is one exact sign, a capacity of exactly one
included; otherwise t = 1, and the capacity lies between no index past H
and all of them.  ``_report`` builds every report.

The companion point enters as an exact Gaussian rational (decimal input is
rational), so p^-1 = G/M for a Gaussian integer G and an int M > 0, and
p^-i = G^i / M^i: one ``_Powers`` stream per witness yields the Gaussian
integers G^i, one product each.  Every sign decision in the construction is
invariant under positive real scaling of the direction w, so w is scaled
once to a Gaussian integer W over an int e.  A sign is then the sign of an
int, a partial sum an int over e M^i, and a display float one correctly
rounded int / int, the same float as that of the exact rational.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .algebraic import AlgebraicNumber, ZqContext, _axpy, classify_base
from .errors import (
    PreconditionError,
    PrecisionExhaustedError,
    QSpectraError,
)
from .expansions import (
    DigitSequence,
    SignPattern,
    greedy_expansion,
    lazy_constrained,
    periodic_completion,
    verify_expansion,
)
from .intpoly import _integer

# Gaussian rationals at the public boundary: (re, im) Fraction pairs.
GR = tuple[Fraction, Fraction]


def _complex(z: GR) -> complex:
    return complex(float(z[0]), float(z[1]))


def _over_int(z: GR) -> tuple[tuple[int, int], int]:
    """(W, e) with z = W / e: a Gaussian integer over an int e > 0."""
    e = math.lcm(z[0].denominator, z[1].denominator)
    return (z[0].numerator * (e // z[0].denominator),
            z[1].numerator * (e // z[1].denominator)), e


def _gmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gpow(a, n: int):
    out = (1, 0)
    while n:
        if n & 1:
            out = _gmul(out, a)
        a = _gmul(a, a)
        n >>= 1
    return out


class _Powers:
    """The Gaussian integers X_i = G^i with p^-i = X_i / M^i, for a nonzero
    Gaussian rational p (p^-1 = G/M, M the least common denominator).
    X_0..X_keep are tabled; past them ``at`` goes on from the index it
    returned last, so an increasing walk costs one product per index (a
    jump, one power) and stores nothing."""

    def __init__(self, p: GR, keep: int):
        n = p[0] * p[0] + p[1] * p[1]
        self.G, self.M = _over_int((p[0] / n, -p[1] / n))
        self._table = [(1, 0)]
        for _ in range(keep):
            self._table.append(_gmul(self._table[-1], self.G))
        self._last = (keep, self._table[-1])

    def at(self, i: int) -> tuple[int, int]:
        if i < len(self._table):
            return self._table[i]
        j, x = self._last
        if j > i:
            j, x = len(self._table) - 1, self._table[-1]
        if i > j:
            x = _gmul(x, self.G if i == j + 1 else _gpow(self.G, i - j))
            self._last = (i, x)
        return x


def _re_sums(pw: _Powers, W, stop: int, start: int = 1):
    """(i, X_i, R, M^i) for i = start..stop, where sum_{j=start}^{i}
    Re(W p^-j) = R / M^i."""
    (wr, wi), M = W, pw.M
    R, Mi = 0, M ** start
    for i in range(start, stop + 1):
        x = pw.at(i)
        R += wr * x[0] - wi * x[1]
        yield i, x, R, Mi
        R, Mi = R * M, Mi * M


def parse_complex(text: str) -> GR:
    """Exact companion point from "re,im" (or a bare real) decimal text."""
    parts = [t.strip() for t in text.split(",")]
    try:
        if len(parts) == 1:
            return Fraction(parts[0]), Fraction(0)
        if len(parts) == 2:
            return Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"cannot parse complex point {text!r}: {exc}")
    raise PreconditionError(f"cannot parse complex point {text!r}")


def as_gaussian(p) -> GR:
    """Exact companion point from a pair (a tuple or a list of two), a
    complex, text or a real.  Anything else, and a point beyond the float
    range (its display floats overflow), is rejected."""
    try:
        if isinstance(p, str):
            z = parse_complex(p)
        elif isinstance(p, complex):
            z = Fraction(p.real), Fraction(p.imag)
        elif isinstance(p, (tuple, list)):
            re, im = p                  # ValueError unless exactly two
            z = Fraction(re), Fraction(im)
        else:
            z = Fraction(p), Fraction(0)
        _complex(z)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError):
        raise PreconditionError(f"companion point {p!r} is not a finite "
                                "point within the float range") from None
    return z


# ---------------------------------------------------------------------------
# direction vector


class Direction(namedtuple("Direction", "w0 case shift_n period",
                           defaults=(None, None))):
    """Scaled direction w0 (positive multiple of the unit w): Re w0 > 0 and
    the case-specific partial-sum inequalities hold exactly.  ``case`` is
    "a" | "a-shift" | "b-rational" | "b-irrational"."""

    __slots__ = ()

    def w_unit(self) -> complex:
        z = _complex(self.w0)
        return z / abs(z)

    def to_dict(self) -> dict:
        u = self.w_unit()
        # "perturb_log2" is always null; the recorded expand digests keep it
        return {"w": [u.real, u.imag], "case": self.case,
                "shift_n": self.shift_n, "period": self.period,
                "perturb_log2": None}


def _root_of_unity_order(p: GR) -> int | None:
    """Order of p when it is a root of unity; Gaussian rationals on the unit
    circle are roots of unity exactly for p in {1, -1, i, -i}."""
    table = {(Fraction(1), Fraction(0)): 1, (Fraction(-1), Fraction(0)): 2,
             (Fraction(0), Fraction(1)): 4, (Fraction(0), Fraction(-1)): 4}
    return table.get(p)


def choose_w(p, m: int, horizon: int = 200,
             powers: _Powers | None = None) -> Direction:
    """Direction vector with Re w > 0 whose partial sums sum_{i=1}^k
    Re(w p^-i) stay nonpositive (case a) or strictly below Re w / m
    (case b), exactly as the geometric-series construction prescribes.

    Every direction but the shift case (|p| > 1, Re p >= 1) is w = 1 - p,
    whose partial sums telescope to Re(p^-k) - 1.  Accepts |p| >= 1 with p
    neither 1 nor a positive real; positive real companions are handled by
    the greedy/periodic steps of build_witness.
    """
    p, horizon = as_gaussian(p), _integer(horizon, "horizon")
    a2 = p[0] * p[0] + p[1] * p[1]
    if a2 < 1:
        raise PreconditionError("need |p| >= 1")
    if p[1] == 0 and p[0] > 0:
        raise PreconditionError("positive real p handled by the expansion "
                                "steps, not the direction construction")
    pw = powers or _Powers(p, horizon)
    if a2 > 1 and p[0] >= 1:
        # shift construction from the seed z = (1 - p^-1) i
        # = (G_im + (M - G_re) i) / M, turned to Re z > 0
        G, M = pw.G, pw.M
        Z = (G[1], M - G[0]) if G[1] > 0 else (-G[1], G[0] - M)
        n = _first_maximal_partial_sum(Z, pw)
        W = _gmul(Z, pw.at(n))              # w0 = z p^-n = W / M^(n+1)
        if W[0] <= 0:
            raise QSpectraError("shifted direction lost positivity")
        for _, _, R, _ in _re_sums(pw, W, 4 * n + 64):
            if R > 0:
                raise QSpectraError("shifted partial sums went positive")
        e = M ** (n + 1)
        return Direction((Fraction(W[0], e), Fraction(W[1], e)), "a-shift",
                         shift_n=n)

    w0 = (1 - p[0], -p[1])                  # Re w0 = 1 - Re p > 0
    W, e = _over_int(w0)
    order = _root_of_unity_order(p)
    if a2 > 1:                              # nonpositive sums, case a
        direction, stop = Direction(w0, "a"), min(horizon, 64)
    elif order is None:
        direction, stop = Direction(w0, "b-irrational"), horizon
    else:                                   # one period, no zero term
        direction, stop = Direction(w0, "b-rational", period=order), order
        if any(W[0] * x[0] == W[1] * x[1] for x in map(pw.at, range(order))):
            raise QSpectraError("a period term of Re(w p^-i) is zero")
    for _, x, R, Mk in _re_sums(pw, W, stop):
        if R != e * (x[0] - Mk):
            raise QSpectraError("geometric telescope identity failed")
        if (R > 0) if a2 > 1 else (m * R >= W[0] * Mk):
            raise QSpectraError(f"case {direction.case} partial sums "
                                "broke their bound")
    return direction


def _first_maximal_partial_sum(Z, pw: _Powers) -> int:
    """Index of the first maximal partial sum of sum_{i>=0} Re(z p^-i), z a
    positive multiple of Z; exists because the total is zero and the first
    term is positive.  Past index n the sums stay within |z| r^(n+1)/(1-r)
    <= 2 |z| r^(n+1)/(1-r^2) of the n-th (r = |p^-1| < 1); the squared test
    is exact in integers.  The search gives up at index 100,000."""
    G, M = pw.G, pw.M
    gap = M * M - G[0] * G[0] - G[1] * G[1]     # M^2 (1 - r^2) > 0: |p| > 1
    scale = 4 * (Z[0] * Z[0] + Z[1] * Z[1]) * (M * M - gap) * M * M
    best, top = 0, Z[0]                  # top = R_best M^(i - best)
    for i, x, R, _ in _re_sums(pw, Z, 100_000, start=0):
        if R > top:
            best, top = i, R
        if i and i % 32 == 0 and \
                ((top - R) * gap) ** 2 >= scale * (x[0] * x[0] + x[1] * x[1]):
            return best
        top *= M
    raise PrecisionExhaustedError("first maximal partial sum not located")


# ---------------------------------------------------------------------------
# pattern and forced prefix


def build_P_and_k(q: AlgebraicNumber, m: int, p, w0: GR, horizon: int,
                  powers: _Powers | None = None
                  ) -> tuple[SignPattern, int, list[int]]:
    """Membership set P' = {i : Re(w p^-i) <= 0} materialized to the
    horizon, and the least k making the capacity of the forced pattern
    P' u {1..k}, m sum_{i in it} q^-i, at least one, decided by one exact
    capacity walk (``_least_k``): its period t is that of the membership
    when p is real or a root of unity, else 1.
    """
    p, horizon = as_gaussian(p), _integer(horizon, "horizon")
    if not (q.compare_to_fraction(m) > 0 and q.compare_to_fraction(m + 1) < 0):
        raise PreconditionError("need m < q < m+1")
    pw = powers or _Powers(p, horizon)
    (wr, wi), _ = _over_int(w0)
    # re_signs[i-1] has the sign of Re(w p^-i)
    re_signs = [wr * x[0] - wi * x[1]
                for x in map(pw.at, range(1, horizon + 1))]
    members = [i for i, re in enumerate(re_signs, 1) if re <= 0]
    member_set = set(members)
    period = 2 if p[1] == 0 else _root_of_unity_order(p)
    k = _least_k(q, m, member_set, period or 1, horizon)
    if k > 0 and re_signs[k - 1] <= 0:
        raise QSpectraError("construction invariant failed: Re(w p^-k) <= 0")
    pattern = SignPattern.from_membership(member_set | set(range(1, k + 1)),
                                          horizon)
    return pattern, k, members


def _least_k(q: AlgebraicNumber, m: int, member_set: set[int], t: int,
             horizon: int) -> int:
    """Least k whose pattern P' u {1..k} has capacity at least one, that of
    k - 1 certified below one; an undecided bound is an extension signal.

    Each capacity minus one is scaled by q^H (q^t - 1) > 0 (H the horizon)
    in one context of depth H + t: index i <= H weighs q^(H-i) (q^t - 1),
    the indices past H in residue class r weigh q^(t-1-((r-H-1) mod t))
    together, and k adds m q^(H-k) (q^t - 1) unless k is in P'.  A periodic
    P' (period t > 1) keeps its own classes past H, so its lower and upper
    bounds are one vector and one exact sign, a capacity of exactly one
    included.  t = 1 stands for an aperiodic P': its capacity lies between
    no index past H and all of them, which weigh 1 together."""
    ar = ZqContext(q, horizon + t)
    qpow = [ar.one]
    for _ in range(t):
        qpow.append(ar.mul_q(qpow[-1]))
    wts = [_axpy(qpow[t], -1, ar.one)]          # wts[j] = q^j (q^t - 1)
    for _ in range(horizon):
        wts.append(ar.mul_q(wts[-1]))
    gap = tuple(-x for x in wts[horizon])     # k = 0: capacity minus 1
    for i in member_set:
        gap = _axpy(gap, m, wts[horizon - i])
    if t > 1:
        for r in {i % t for i in member_set}:
            gap = _axpy(gap, m, qpow[t - 1 - (r - horizon - 1) % t])
    below = True                            # k = 0 has no predecessor
    for k in range(0, horizon + 1):
        if k and k not in member_set:
            gap = _axpy(gap, m, wts[horizon - k])
        if ar.sign(gap) >= 0:
            if below:
                return k
            raise PrecisionExhaustedError(
                "minimality of k undecidable at this horizon; extend it")
        below = t > 1 or ar.sign(_axpy(gap, m, ar.one)) < 0
    raise PrecisionExhaustedError(
        "capacity never reached 1 within the horizon; extend it")


# ---------------------------------------------------------------------------
# witness reports


class WitnessReport(namedtuple(
        "WitnessReport", "step verdict base m p horizon sequence direction k "
        "members q_residual q_certificate p_re_trace p_abs_trace "
        "distinct_moduli certified")):
    """A witness at one companion point p; ``step`` is 1, 2, 3 or 4."""
    __slots__ = ()

    def digits(self) -> list[int]:
        return self.sequence.digits_through(self.horizon)

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "verdict": self.verdict,
            "base": self.base.describe(),
            "m": self.m,
            "p": [float(self.p[0]), float(self.p[1])],
            "horizon": self.horizon,
            "digits": self.digits(),
            "sequence": self.sequence.to_dict(),
            "direction": self.direction.to_dict() if self.direction else None,
            "k": self.k,
            "p_prime_members": list(self.members) if self.members else None,
            "q_residual_trace": self.q_residual,
            "q_certificate": self.q_certificate,
            "p_re_trace": self.p_re_trace,
            "p_abs_trace": self.p_abs_trace,
            "distinct_moduli": self.distinct_moduli,
            "certified": self.certified,
        }


def _report(step: int, verdict: str, q: AlgebraicNumber, m: int, p: GR,
            horizon: int, seq: DigitSequence, p_re_trace, p_abs_trace,
            certified: dict, direction: Direction | None = None,
            k: int | None = None, members=None,
            distinct_moduli: int | None = None) -> WitnessReport:
    """The report of a witness whose p side is done.  Its q side is the
    residual certificate, then the residual trace: both refine the base,
    and the display floats read it, so they run in this order and last."""
    cert = verify_expansion(seq, q, 0, horizon)
    return WitnessReport(
        step, verdict, q, m, p, horizon, seq, direction, k,
        None if members is None else tuple(members),
        _q_residual_trace(seq, q, horizon), cert.to_dict(), p_re_trace,
        p_abs_trace, distinct_moduli, certified)


def _q_residual_trace(seq: DigitSequence, q: AlgebraicNumber, N: int
                      ) -> list[float]:
    qf = q.float_value()
    acc = 0.0
    out = []
    for i, s in enumerate(seq.digits_through(N)):
        acc += s * qf ** (-i)
        out.append(abs(acc))
    return out


def _p_traces(seq: DigitSequence, w, pw: _Powers, N: int,
              moduli: bool = False):
    """Partial sums S_i = sum_{j<=i} s_j w p^-j (w = W / e) for i <= N: the
    floats of Re S_i and |S_i| divided by |w|, the signs of Re S_i, the last
    sum as ints (Re, denominator), and with ``moduli`` the set of distinct
    |S_i|^2 as reduced int pairs.  S is (t_re + t_im i) / D with D = e M^L,
    L the last nonzero digit; the powers between two are only streamed."""
    (wr, wi), e = w
    M, scale = pw.M, 1.0 / abs(complex(wr / e, wi / e))
    tr = ti = L = 0
    D = e
    res, abss, signs, seen = [], [], [], set()
    for i, s in enumerate(seq.digits_through(N)):
        if s or not i:
            xr, xi = pw.at(i)
            lift = M ** (i - L)
            tr = tr * lift + s * (wr * xr - wi * xi)
            ti = ti * lift + s * (wr * xi + wi * xr)
            D, L = D * lift, i
            a2, d2 = tr * tr + ti * ti, D * D
            re, ab, sign = tr / D * scale, math.sqrt(a2 / d2) * scale, \
                (tr > 0) - (tr < 0)
            if moduli:
                g = math.gcd(a2, d2)
                seen.add((a2 // g, d2 // g))
        res.append(re)
        abss.append(ab)
        signs.append(sign)
    return res, abss, signs, (tr, D), seen


def build_witness(q: AlgebraicNumber, m: int, p, horizon: int = 120
                  ) -> WitnessReport:
    """Digit sequence vanishing at q whose partial sums at the companion
    point p certify non-transfer: nonzero limit (real p > 1), divergence
    (p = 1, and unit-circle p with finitely supported digits), certified
    negative real part (|p| > 1 off the positive axis), or many distinct
    moduli (|p| = 1 with infinite support)."""
    m, horizon = _integer(m, "m"), _integer(horizon, "horizon")
    p = as_gaussian(p)
    if not (q.compare_to_fraction(m) > 0 and q.compare_to_fraction(m + 1) < 0):
        raise PreconditionError("need m < q < m+1 (diminish m if needed)")
    if horizon < 8:
        raise PreconditionError("horizon too short")
    if p[1] == 0 and q.compare_to_fraction(p[0]) == 0:
        raise PreconditionError("companion point must differ from q")

    if p[1] == 0 and p[0] > 0:
        if p[0] == 1:
            return _witness_step2(q, m, horizon)
        if p[0] > 1:
            return _witness_step1(q, m, p, horizon)
        raise PreconditionError("need |p| >= 1")
    if p[0] * p[0] + p[1] * p[1] < 1:
        raise PreconditionError("need |p| >= 1")
    return _witness_steps34(q, m, p, horizon)


def _step1_sequence(q: AlgebraicNumber, m: int, horizon: int) -> DigitSequence:
    greedy = greedy_expansion(1, q, m, horizon)
    return DigitSequence(preperiod=(-1,) + greedy.preperiod, height=m,
                         first_index=0,
                         exact_zero_tail=greedy.exact_zero_tail,
                         meta=dict(greedy.meta))


def _witness_step1(q: AlgebraicNumber, m: int, p: GR,
                   horizon: int) -> WitnessReport:
    seq = _step1_sequence(q, m, horizon)
    pw = _Powers(p, horizon)
    g, M = pw.G[0], pw.M                     # p^-1 = g / M, 0 < g < M
    # -1 + sum_{i<=h} s_i p^-i = t / D; the tail m p^-h / (p-1) is
    # m g^(h+1) / (M^h (M - g))
    res, abss, _, (t, D), _ = _p_traces(seq, ((1, 0), 1), pw, horizon)
    tail_num, tail_den = m * g ** (horizon + 1), M ** horizon * (M - g)
    return _report(1, "nonvanishing-by-monotonicity", q, m, p, horizon, seq,
                   res, abss, {
                       "p_sum_minus_target": t / D,
                       "p_tail_bound": tail_num / tail_den,
                       "nonzero": abs(t) * tail_den > tail_num * D,
                       "monotone_evaluation": True,
                   })


def _witness_step2(q: AlgebraicNumber, m: int, horizon: int) -> WitnessReport:
    seq = _step1_sequence(q, m, horizon)
    if seq.exact_zero_tail:
        block = tuple(seq.preperiod[: seq.meta["zero_from"] + 1])
        seq = periodic_completion(block, q, m)
    # at p = 1 (w = 1) the partial sums are the digit sums
    one = (Fraction(1), Fraction(0))
    sums, abss, _, _, _ = _p_traces(seq, ((1, 0), 1), _Powers(one, 0),
                                    horizon)
    return _report(2, "divergent-real-part", q, m, one, horizon, seq,
                   sums, abss, {
                       "digit_sum_per_period": seq.period_digit_sum(),
                       "divergent": (seq.period_digit_sum() or 0) > 0
                       or not seq.is_finitely_supported,
                   })


def _witness_steps34(q: AlgebraicNumber, m: int, p: GR,
                     horizon: int) -> WitnessReport:
    on_circle = p[0] * p[0] + p[1] * p[1] == 1
    pw = _Powers(p, horizon)
    direction = choose_w(p, m, horizon, pw)
    w0 = direction.w0
    pattern, k, members = build_P_and_k(q, m, p, w0, horizon, pw)
    seq = lazy_constrained(q, m, pattern, horizon)
    _assert_witness_structure(seq, pattern, k, m)

    w = _over_int(w0)
    if on_circle and seq.is_finitely_supported:
        return _witness_step4_finite(q, m, p, pw, w, direction, seq, k,
                                     members, horizon)

    res, abss, signs, _, moduli = _p_traces(seq, w, pw, horizon, on_circle)
    chain, chain_negative = _chain_bound(w, pw, m, k)
    certified = {
        "re_negative_from_k": all(s < 0 for s in signs[k:]),
        "chain_bound": chain / abs(_complex(w0)),
        "chain_bound_negative": chain_negative,
    }
    if not on_circle:
        return _report(3, "negative-real-part-certified", q, m, p, horizon,
                       seq, res, abss, certified, direction, k, members)
    certified["moduli_exact"] = True
    return _report(4, "distinct-moduli", q, m, p, horizon, seq, res, abss,
                   certified, direction, k, members, len(moduli))


def _chain_bound(w, pw: _Powers, m: int, k: int) -> tuple[float, bool]:
    """-Re w + m sum_{i=1}^k Re(w p^-i), the certified upper bound for
    every Re(w S_N) with N >= k: its float, and whether it is negative."""
    (W, e), R, Mk = w, 0, 1
    for _, _, R, Mk in _re_sums(pw, W, k):
        pass
    num = m * R - W[0] * Mk
    return num / (e * Mk), num < 0


def _assert_witness_structure(seq: DigitSequence, pattern: SignPattern,
                              k: int, m: int):
    for i in range(1, len(seq.preperiod)):
        s = seq.digit(i)
        if pattern.contains(i):
            if not 0 <= s <= m:
                raise QSpectraError(f"digit {s} at {i} violates the pattern")
        elif not -m <= s <= 0:
            raise QSpectraError(f"digit {s} at {i} violates the pattern")
    for j in range(1, k):
        if seq.digit(j) != m:
            raise QSpectraError("forced prefix digit below m")
    if k > 0 and not 1 <= seq.digit(k) <= m:
        raise QSpectraError("digit at k outside [1, m]")


def _witness_step4_finite(q, m, p, pw, w, direction, seq, k, members,
                          horizon) -> WitnessReport:
    """Finitely supported digits at a unit-circle p: replicate the block at
    shifts r_j with p^{-r_j} close enough to 1 that each copy contributes at
    most half the (negative) block sum; real parts then diverge to -inf."""
    (wr, wi), e = w
    M = pw.M
    digits = seq.digits_through(horizon)
    n = max(i for i, s in enumerate(digits) if s != 0)
    block = digits[: n + 1]
    # B = sum_j s_j X_j M^(n-j): a copy at shift r sums to
    # Re(w B p^-r) / M^n, the block sum c = cn / (e M^n) at r = 0
    br = bi = 0
    for s, (xr, xi) in zip(block, map(pw.at, range(n + 1))):
        br, bi = br * M + s * xr, bi * M + s * xi
    cn = wr * br - wi * bi
    if cn >= 0:
        raise QSpectraError("block sum not negative")
    # shift schedule: eps_j halves, r_{j+1} - r_j > n, |p^-r - 1| < eps_j,
    # eps_0 = -c / (2 (n+1) m); eps_j^2 = u / v, and as |p| = 1,
    # |p^-r - 1|^2 = 2 - 2 Re p^-r < u / v  <=>  (2v - u) M^r < 2v Re X_r.
    # A float z_r ~ p^-r, |z_r - p^-r| <= r 2^-50, skips the exact test
    # where |z_r - 1| clears eps_j by more than its error.
    u, v = cn * cn, (2 * (n + 1) * m * e * M ** n) ** 2
    z1, z, eps = complex(pw.G[0] / M, pw.G[1] / M), 1 + 0j, math.sqrt(u / v)
    shifts = [0]
    blocks_wanted = max(3, horizon // max(n + 1, 1))
    block_sums_ok = True
    for r in range(1, 100_001):
        if len(shifts) >= blocks_wanted:
            break
        z *= z1
        if r - shifts[-1] <= n or \
                abs(z - 1) > eps * (1 + 2**-40) + (r + 1) * 2**-48:
            continue
        xr, xi = pw.at(r)
        Mr = M ** r
        if (2 * v - u) * Mr < 2 * v * xr:
            shifts.append(r)
            v *= 4
            eps = math.sqrt(u / v)
            # the copy at r sums to at most half the block sum c
            br_r, bi_r = _gmul((br, bi), (xr, xi))
            block_sums_ok &= 2 * (wr * br_r - wi * bi_r) <= cn * Mr
    # the search stops at r = 100,000; a report short of its shifts says so
    reached = {"shifts": len(shifts), "wanted": blocks_wanted}
    truncated = ({"schedule_truncated": reached}
                 if len(shifts) < blocks_wanted else {})
    rep_digits = {}
    for r in shifts:
        for i, s in enumerate(block):
            rep_digits[r + i] = s
    out_h = shifts[-1] + n
    rep = DigitSequence(
        preperiod=tuple(rep_digits.get(i, 0) for i in range(out_h + 1)),
        height=m, first_index=0, exact_zero_tail=True)
    res, abss, _, _, _ = _p_traces(rep, w, pw, out_h)
    return _report(4, "divergent-real-part", q, m, p, out_h, rep, res, abss, {
        "block_sum": cn / (e * M ** n) / abs(_complex(direction.w0)),
        "shifts": shifts,
        "block_sums_below_half": block_sums_ok,
        "re_trace_final": res[-1],
        **truncated,
    }, direction, k, members)


# ---------------------------------------------------------------------------
# Discrete / Accumulates verdict


class AccumulationVerdict(namedtuple(
        "AccumulationVerdict", "verdict reason classification base m "
        "cross_check")):
    """``verdict`` is "Discrete" | "Accumulates", ``reason`` "Pisot" |
    "q>=m+1" | None."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "base": self.base.describe()}


def accumulation_verdict(q: AlgebraicNumber, m: int, *,
                         bfs_depth: int = 16,
                         state_budget: int = 200_000,
                         tol: float | None = None) -> AccumulationVerdict:
    """Decision rule for accumulation points of the m-spectrum: none exist
    exactly when q is Pisot or q >= m+1.  Attaches one minimal-positive
    search, to depth 8 when q >= m+1 and to ``bfs_depth`` otherwise, as
    ``cross_check["bfs"]``: whether it closed, its minimum, its state count
    and its per-depth minima (None where no positive state was reached);
    when q >= m+1 also the growth-bound certificate.  The cross-checks are
    evidence, never the proof."""
    from .spectrum import min_positive_bfs   # build_witness never loads it
    m = _integer(m, "m")
    if m < 1:
        raise PreconditionError("m >= 1 required")
    if not q.greater_than(1):
        raise PreconditionError("base must satisfy q > 1")
    cls = classify_base(q)
    large = q.compare_to_fraction(m + 1) >= 0
    cross = {"devries": _devries_certificate(q, m)} if large else {}
    res = min_positive_bfs(q, m, 8 if large else bfs_depth,
                           state_budget=state_budget, tol=tol)
    cross["bfs"] = {"closed": res.closed, "min_positive": res.min_positive,
                    "states": res.trace[-1].states,
                    "trace": [r.min_value if math.isfinite(r.min_value)
                              else None for r in res.trace]}
    if large:
        return AccumulationVerdict("Discrete", "q>=m+1", cls.tag, q, m, cross)
    if cls.is_pisot:
        return AccumulationVerdict("Discrete", "Pisot", cls.tag, q, m, cross)
    return AccumulationVerdict("Accumulates", None, cls.tag, q, m, cross)


def _devries_certificate(q: AlgebraicNumber, m: int) -> dict:
    """Degree cap beyond which every spectrum value exceeds the sample
    bound 10, from |y| > q^n (1 - m/(q-1)); empty at q = m+1 exactly,
    where the unit gap bound takes over."""
    from .spectrum import _devries_margin
    bound = _devries_margin(q, m)
    if bound is None:
        return {"applies": False}
    lo, margin = bound
    n = 0
    while lo ** (n + 1) * margin < 10 and n < 10_000:
        n += 1
    return {"applies": True, "bound": 10.0, "degree_cap": n,
            "margin": float(margin)}
