"""Conjugate-witness construction and the discreteness verdict.

Given m < q < m+1 and a companion point p != q, build a digit sequence
whose value at q vanishes (up to a certified tail bound at the horizon)
while its partial sums at p are certified to stay away from zero, diverge,
or run through many distinct moduli, depending on where p sits relative to
the unit circle.

The companion point enters as an exact Gaussian rational (decimal input is
rational), and every sign decision in the construction is invariant under
positive real scaling of the direction vector w, so the whole construction
runs in exact rational complex arithmetic; floating output is display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebraic import (
    GR,
    AlgebraicNumber,
    ZqContext,
    _gr,
    _gr_abs2,
    _gr_add,
    _gr_float,
    _gr_inv,
    _gr_mul,
    _gr_pow,
    _gr_scale,
    _gr_sub,
    classify_base,
)
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
from .spectrum import _devries_margin, l_estimate


def _sqrt_upper(x: Fraction, steps: int = 40) -> Fraction:
    """Rational upper bound on sqrt(x); Newton from above with rounding-up
    to keep denominators bounded."""
    if x < 0:
        raise PreconditionError("negative radicand")
    if x == 0:
        return Fraction(0)
    u = x if x >= 1 else Fraction(1)
    grid = 1 << 80
    for _ in range(steps):
        u = (u + x / u) / 2
        u = Fraction(math.ceil(u * grid), grid)
        if u * u <= x:  # rounding dipped below: bump back up
            u += Fraction(2, grid)
    return u


def parse_complex(text: str) -> GR:
    """Exact companion point from "re,im" (or a bare real) decimal text."""
    parts = [t.strip() for t in text.split(",")]
    try:
        if len(parts) == 1:
            return _gr(Fraction(parts[0]))
        if len(parts) == 2:
            return _gr(Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"cannot parse complex point {text!r}: {exc}")
    raise PreconditionError(f"cannot parse complex point {text!r}")


def as_gaussian(p) -> GR:
    if isinstance(p, tuple):
        return _gr(Fraction(p[0]), Fraction(p[1]))
    if isinstance(p, complex):
        return _gr(Fraction(p.real), Fraction(p.imag))
    if isinstance(p, str):
        return parse_complex(p)
    return _gr(Fraction(p))


# ---------------------------------------------------------------------------
# direction vector


@dataclass(frozen=True)
class Direction:
    """Scaled direction w0 (positive multiple of the unit w): Re w0 > 0 and
    the case-specific partial-sum inequalities hold exactly."""

    w0: GR
    case: str                  # "a" | "a-shift" | "b-rational" | "b-irrational"
    shift_n: int | None = None
    period: int | None = None
    perturb_log2: int | None = None

    def w_unit(self) -> complex:
        z = _gr_float(self.w0)
        return z / abs(z)

    def to_dict(self) -> dict:
        u = self.w_unit()
        return {"w": [u.real, u.imag], "case": self.case,
                "shift_n": self.shift_n, "period": self.period,
                "perturb_log2": self.perturb_log2}


def _root_of_unity_order(p: GR) -> int | None:
    """Order of p when it is a root of unity; Gaussian rationals on the unit
    circle are roots of unity exactly for p in {1, -1, i, -i}."""
    table = {(Fraction(1), Fraction(0)): 1, (Fraction(-1), Fraction(0)): 2,
             (Fraction(0), Fraction(1)): 4, (Fraction(0), Fraction(-1)): 4}
    return table.get(p)


def choose_w(p, m: int, horizon: int = 200) -> Direction:
    """Direction vector with Re w > 0 whose partial sums sum_{i=1}^k
    Re(w p^-i) stay nonpositive (case a) or strictly below Re w / m
    (case b), exactly as the geometric-series construction prescribes.

    Accepts |p| >= 1 with p neither 1 nor a positive real; positive real
    companions are handled by the greedy/periodic steps of build_witness.
    """
    p = as_gaussian(p)
    a2 = _gr_abs2(p)
    if a2 < 1:
        raise PreconditionError("need |p| >= 1")
    if p[1] == 0 and p[0] > 0:
        raise PreconditionError("positive real p handled by the expansion "
                                "steps, not the direction construction")
    pinv = _gr_inv(p)

    if a2 == 1:
        order = _root_of_unity_order(p)
        if order is not None:
            return _choose_w_rational_angle(p, pinv, m, order)
        w0 = _gr_sub(_gr(1), p)
        _assert_case_b_inequalities(w0, pinv, m, horizon)
        return Direction(w0, "b-irrational")

    if p[0] < 1:
        w0 = _gr_sub(_gr(1), p)   # 1 - p; Re w0 = 1 - Re p > 0
        _assert_case_a_identity(w0, p, pinv, horizon)
        return Direction(w0, "a")

    # |p| > 1, Re p >= 1, nonreal: shift construction
    if p[1] == 0:
        raise PreconditionError("real p >= 1 has no direction vector")
    z = _gr_mul(_gr_sub(_gr(1), pinv), _gr(0, 1))
    if z[0] <= 0:
        z = _gr_scale(z, -1)
    if z[0] <= 0:
        raise QSpectraError("degenerate direction seed")
    n = _first_maximal_partial_sum(z, p, pinv)
    w0 = z
    for _ in range(n):
        w0 = _gr_mul(w0, pinv)
    if w0[0] <= 0:
        raise QSpectraError("shifted direction lost positivity")
    _assert_nonpositive_partials(w0, pinv, 4 * n + 64)
    return Direction(w0, "a-shift", shift_n=n)


def _assert_case_a_identity(w0: GR, p: GR, pinv: GR, horizon: int):
    # sum_{i=1}^k Re((1-p) p^-i) telescopes to Re(p^-k) - 1 <= 0
    acc = _gr(0)
    power = _gr(1)
    for k in range(1, min(horizon, 64) + 1):
        power = _gr_mul(power, pinv)
        acc = _gr_add(acc, _gr_mul(w0, power))
        if acc[0] != power[0] - 1:
            raise QSpectraError("geometric telescope identity failed")
        if acc[0] > 0:
            raise QSpectraError("case (a) partial sum went positive")


def _assert_nonpositive_partials(w0: GR, pinv: GR, upto: int):
    acc = Fraction(0)
    power = _gr(1)
    for _ in range(upto):
        power = _gr_mul(power, pinv)
        acc += _gr_mul(w0, power)[0]
        if acc > 0:
            raise QSpectraError("shifted partial sums went positive")


def _assert_case_b_inequalities(w0: GR, pinv: GR, m: int, horizon: int):
    acc = Fraction(0)
    power = _gr(1)
    for _ in range(horizon):
        power = _gr_mul(power, pinv)
        acc += _gr_mul(w0, power)[0]
        if m * acc >= w0[0]:
            raise QSpectraError("case (b) strict inequality failed")


def _choose_w_rational_angle(p: GR, pinv: GR, m: int, order: int) -> Direction:
    """p a root of unity (order 2 or 4): perturb w = 1-p on the power-of-two
    schedule until Re(w p^-i) != 0 through a full period and the strict
    period inequalities hold; everything exact, so the first working scale
    is certified."""
    base = _gr_sub(_gr(1), p)
    for j in (None, *range(1, 64)):
        w0 = base if j is None else _gr_mul(base, _gr(1, Fraction(1, 2**j)))
        if w0[0] <= 0:
            continue
        powers = []
        power = _gr(1)
        ok = True
        for _ in range(order):
            if _gr_mul(w0, power)[0] == 0:
                ok = False
                break
            powers.append(power)
            power = _gr_mul(power, pinv)
        if not ok:
            continue
        acc = Fraction(0)
        power = _gr(1)
        for _ in range(1, order + 1):
            power = _gr_mul(power, pinv)
            acc += _gr_mul(w0, power)[0]
            if m * acc >= w0[0]:
                ok = False
                break
        if ok:
            return Direction(w0, "b-rational", period=order,
                             perturb_log2=None if j is None else -j)
    raise PrecisionExhaustedError("no perturbation scale worked")


def _first_maximal_partial_sum(z: GR, p: GR, pinv: GR,
                               cap: int = 100_000) -> int:
    """Index of the first maximal partial sum of sum Re(z p^-i); exists
    because the total is zero and the first term is positive."""
    pinv_abs_up = _sqrt_upper(_gr_abs2(pinv))
    z_abs_up = _sqrt_upper(_gr_abs2(z))
    if pinv_abs_up >= 1:
        raise PreconditionError("need |p| > 1 for the shift construction")
    sums = [z[0]]
    power = _gr(1)
    best = 0
    n0 = 0
    while n0 < cap:
        for _ in range(32):
            power = _gr_mul(power, pinv)
            sums.append(sums[-1] + _gr_mul(z, power)[0])
            n0 += 1
        best = max(range(len(sums)), key=lambda i: (sums[i], -i))
        tail = z_abs_up * pinv_abs_up ** (n0 + 1) / (1 - pinv_abs_up)
        if sums[n0] + tail <= sums[best]:
            return best
    raise PrecisionExhaustedError("first maximal partial sum not located")


# ---------------------------------------------------------------------------
# pattern and forced prefix


def build_P_and_k(q: AlgebraicNumber, m: int, p, w0: GR, horizon: int
                  ) -> tuple[SignPattern, int, list[int]]:
    """Membership set P' = {i : Re(w p^-i) <= 0} materialized to the
    horizon, and the least k making the forced-prefix capacity at least one:
    sum_{i<=k} m q^-i + sum_{i>k, i in P'} m q^-i >= 1, decided exactly
    (truncation lower bound, full-tail upper bound).
    """
    p = as_gaussian(p)
    if not (q.compare_to_fraction(m) > 0 and q.compare_to_fraction(m + 1) < 0):
        raise PreconditionError("need m < q < m+1")
    pinv = _gr_inv(p)
    members = []
    re_signs = []
    power = _gr(1)
    for i in range(1, horizon + 1):
        power = _gr_mul(power, pinv)
        re = _gr_mul(w0, power)[0]
        re_signs.append(re)
        if re <= 0:
            members.append(i)
    member_set = set(members)
    ar = ZqContext(q)

    period = _membership_period(p)
    if period is not None:
        k = _least_k_periodic(ar, q, m, member_set, period, horizon)
    else:
        k = _least_k_truncated(ar, m, member_set, horizon)
    if k > 0 and re_signs[k - 1] <= 0:
        raise QSpectraError("construction invariant failed: Re(w p^-k) <= 0")
    pattern = SignPattern.from_membership(member_set | set(range(1, k + 1)),
                                          horizon)
    return pattern, k, members


def _membership_period(p: GR) -> int | None:
    """Exact period of i -> sign(Re(w p^-i)) when p is real (alternating)
    or a root of unity; None when the sign pattern is aperiodic."""
    if p[1] == 0:
        return 2
    order = _root_of_unity_order(p)
    return order


def _least_k_periodic(ar: ZqContext, q: AlgebraicNumber, m: int,
                      member_set: set[int], period: int, horizon: int) -> int:
    """Least k with sum_{i<=k} m q^-i + sum_{i>k, i in P'} m q^-i >= 1,
    decided exactly through the geometric closed form of the periodic
    membership classes (handles boundary equalities like capacity == 1)."""
    residues = {i % period for i in range(1, horizon + 1) if i in member_set}
    # D = q^period - 1 > 0
    qpow = [ar.from_fraction(1)]
    for _ in range(period):
        qpow.append(ar.mul_q(qpow[-1]))
    D = ar.add_fraction(qpow[period], -1)
    for k in range(0, horizon + 1):
        # capacity(k)*q^k*D - q^k*D >= 0 ?
        prefix = ar.from_fraction(0)
        cur = ar.from_fraction(1)           # q^j
        for _ in range(k):                   # sum_{j=0}^{k-1} q^j
            prefix = ar.add(prefix, cur)
            cur = ar.mul_q(cur)
        qk = cur                             # q^k
        acc = ar.mul(prefix, D)
        for r in residues:
            e = (period - 1) - ((r - k - 1) % period)
            acc = ar.add(acc, qpow[e])
        lhs = ar.scale(acc, m)
        if ar.sign(ar.sub(lhs, ar.mul(qk, D))) >= 0:
            return k
    raise PrecisionExhaustedError(
        "capacity never reached 1 within the horizon; extend it")


def _least_k_truncated(ar: ZqContext, m: int, member_set: set[int],
                       horizon: int) -> int:
    """Truncation/tail-bound decision of the least k for aperiodic
    membership; exact-equality capacities surface as an extension signal."""
    one = ar.from_fraction(1)
    qm1 = ar.sub(ar.mul_q(one), one)
    h = horizon
    pw = [None] * (h + 1)   # pw[i] = q^{h-i} (q-1)
    cur = qm1
    for i in range(h, 0, -1):
        pw[i] = cur
        cur = ar.mul_q(cur)
    w_h = cur               # q^h (q-1)

    def capacity_lower_scaled(k: int):
        acc = ar.zero
        for i in range(1, h + 1):
            if i <= k or i in member_set:
                acc = ar.add(acc, pw[i])
        return ar.scale(acc, m)

    k = None
    for cand in range(0, h + 1):
        lower = capacity_lower_scaled(cand)
        if ar.sign(ar.sub(lower, w_h)) >= 0:
            k = cand
            break
    if k is None:
        raise PrecisionExhaustedError(
            "capacity never reached 1 within the horizon; extend it")
    if k > 0:
        upper_prev = ar.add_fraction(capacity_lower_scaled(k - 1), m)
        if ar.sign(ar.sub(upper_prev, w_h)) >= 0:
            raise PrecisionExhaustedError(
                "minimality of k undecidable at this horizon; extend it")
    return k


# ---------------------------------------------------------------------------
# witness reports


@dataclass(frozen=True)
class WitnessReport:
    step: int                       # 1, 2, 3 or 4
    verdict: str
    base: AlgebraicNumber
    m: int
    p: GR
    horizon: int
    sequence: DigitSequence
    direction: Direction | None
    k: int | None
    members: tuple[int, ...] | None
    q_residual: list[float]
    q_certificate: dict
    p_re_trace: list[float]
    p_abs_trace: list[float]
    distinct_moduli: int | None
    certified: dict = field(default_factory=dict)

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


def _q_residual_trace(seq: DigitSequence, q: AlgebraicNumber, N: int
                      ) -> list[float]:
    qf = q.float_value()
    acc = 0.0
    out = []
    for i in range(0, N + 1):
        s = seq.digit(i) if i >= seq.first_index else 0
        acc += s * qf ** (-i)
        out.append(abs(acc))
    return out


def _p_traces(seq: DigitSequence, w0: GR, p: GR, N: int):
    """Partial sums S_N = sum_{i<=N} s_i w p^-i, scaled by |w0|: exact real
    parts (signs certified) and squared moduli; floats normalized for
    display."""
    pinv = _gr_inv(p)
    scale = 1.0 / abs(_gr_float(w0))
    acc = _gr(0)
    power = _gr(1)
    res, abss, re_exact, abs2_exact = [], [], [], []
    for i in range(0, N + 1):
        s = seq.digit(i) if i >= seq.first_index else 0
        if s:
            acc = _gr_add(acc, _gr_scale(_gr_mul(w0, power), s))
        res.append(float(acc[0]) * scale)
        a2 = _gr_abs2(acc)
        abss.append(math.sqrt(float(a2)) * scale)
        re_exact.append(acc[0])
        abs2_exact.append(a2)
        power = _gr_mul(power, pinv)
    return res, abss, re_exact, abs2_exact


def build_witness(q: AlgebraicNumber, m: int, p, horizon: int = 120
                  ) -> WitnessReport:
    """Digit sequence vanishing at q whose partial sums at the companion
    point p certify non-transfer: nonzero limit (real p > 1), divergence
    (p = 1, and unit-circle p with finitely supported digits), certified
    negative real part (|p| > 1 off the positive axis), or many distinct
    moduli (|p| = 1 with infinite support)."""
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
    if _gr_abs2(p) < 1:
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
    cert = verify_expansion(seq, q, 0, horizon)
    pf = Fraction(p[0])
    partial = Fraction(-1)
    power = Fraction(1)
    for i in range(1, horizon + 1):
        power /= pf
        partial += seq.digit(i) * power
    tail = m * power / (pf - 1)
    certified_nonzero = abs(partial) > tail
    res, abss, _, _ = _p_traces(seq, _gr(1), p, horizon)
    return WitnessReport(
        step=1, verdict="nonvanishing-by-monotonicity", base=q, m=m, p=p,
        horizon=horizon, sequence=seq, direction=None, k=None, members=None,
        q_residual=_q_residual_trace(seq, q, horizon),
        q_certificate=cert.to_dict(),
        p_re_trace=res, p_abs_trace=abss, distinct_moduli=None,
        certified={
            "p_sum_minus_target": float(partial),
            "p_tail_bound": float(tail),
            "nonzero": bool(certified_nonzero),
            "monotone_evaluation": True,
        })


def _witness_step2(q: AlgebraicNumber, m: int, horizon: int) -> WitnessReport:
    seq = _step1_sequence(q, m, horizon)
    if seq.exact_zero_tail:
        zero_from = seq.meta.get("zero_from") or horizon
        block = tuple(seq.preperiod[: zero_from + 1])
        per = periodic_completion(block, q, m)
        seq = per
    # at p = 1 the partial sums are the digit sums
    sums = []
    acc = 0
    for i in range(0, horizon + 1):
        acc += seq.digit(i)
        sums.append(float(acc))
    cert = verify_expansion(seq, q, 0, horizon)
    return WitnessReport(
        step=2, verdict="divergent-real-part", base=q, m=m, p=_gr(1),
        horizon=horizon, sequence=seq, direction=None, k=None, members=None,
        q_residual=_q_residual_trace(seq, q, horizon),
        q_certificate=cert.to_dict(),
        p_re_trace=sums, p_abs_trace=[abs(s) for s in sums],
        distinct_moduli=None,
        certified={
            "digit_sum_per_period": seq.period_digit_sum(),
            "divergent": (seq.period_digit_sum() or 0) > 0
            or not seq.is_finitely_supported,
        })


def _witness_steps34(q: AlgebraicNumber, m: int, p: GR,
                     horizon: int) -> WitnessReport:
    on_circle = _gr_abs2(p) == 1
    direction = choose_w(p, m, horizon)
    w0 = direction.w0
    pattern, k, members = build_P_and_k(q, m, p, w0, horizon)
    seq = lazy_constrained(q, m, pattern, horizon)
    _assert_witness_structure(seq, pattern, k, m)
    cert = verify_expansion(seq, q, 0, horizon)

    if on_circle and seq.is_finitely_supported:
        return _witness_step4_finite(q, m, p, direction, seq, k, members,
                                     horizon, cert)

    res, abss, re_exact, abs2_exact = _p_traces(seq, w0, p, horizon)
    neg_from_k = all(x < 0 for x in re_exact[k:])
    chain = _chain_bound(w0, p, m, k)
    certified = {
        "re_negative_from_k": bool(neg_from_k),
        "chain_bound": float(chain) / abs(_gr_float(w0)),
        "chain_bound_negative": chain < 0,
    }
    if not on_circle:
        return WitnessReport(
            step=3, verdict="negative-real-part-certified", base=q, m=m,
            p=p, horizon=horizon, sequence=seq, direction=direction, k=k,
            members=tuple(members),
            q_residual=_q_residual_trace(seq, q, horizon),
            q_certificate=cert.to_dict(), p_re_trace=res, p_abs_trace=abss,
            distinct_moduli=None, certified=certified)
    distinct = len(set(abs2_exact))
    certified["moduli_exact"] = True
    return WitnessReport(
        step=4, verdict="distinct-moduli", base=q, m=m, p=p,
        horizon=horizon, sequence=seq, direction=direction, k=k,
        members=tuple(members),
        q_residual=_q_residual_trace(seq, q, horizon),
        q_certificate=cert.to_dict(), p_re_trace=res, p_abs_trace=abss,
        distinct_moduli=distinct, certified=certified)


def _chain_bound(w0: GR, p: GR, m: int, k: int) -> Fraction:
    """-Re w + m sum_{i=1}^k Re(w p^-i): the certified upper bound for every
    Re(w S_N) with N >= k."""
    pinv = _gr_inv(p)
    acc = -w0[0]
    power = _gr(1)
    for _ in range(k):
        power = _gr_mul(power, pinv)
        acc += m * _gr_mul(w0, power)[0]
    return acc


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


def _witness_step4_finite(q, m, p, direction, seq, k, members, horizon,
                          cert) -> WitnessReport:
    """Finitely supported digits at a unit-circle p: replicate the block at
    shifts r_j with p^{-r_j} close enough to 1 that each copy contributes at
    most half the (negative) block sum; real parts then diverge to -inf."""
    w0 = direction.w0
    pinv = _gr_inv(p)
    digits = seq.digits_through(horizon)
    n = max(i for i, s in enumerate(digits) if s != 0)
    block = digits[: n + 1]
    c = Fraction(0)
    power = _gr(1)
    for s in block:
        c += s * _gr_mul(w0, power)[0]
        power = _gr_mul(power, pinv)
    if c >= 0:
        raise QSpectraError("block sum not negative")
    # shift schedule: eps_j halves, r_{j+1} - r_j > n, |p^-r - 1| < eps_j
    shifts = [0]
    eps = -c / (2 * (n + 1) * m)
    blocks_wanted = max(3, horizon // max(n + 1, 1))
    r = 0
    eps_j = eps
    while len(shifts) < blocks_wanted and r < 100_000:
        r += 1
        if r - shifts[-1] <= n:
            continue
        pr = _gr_pow(pinv, r)
        if _gr_abs2(_gr_sub(pr, _gr(1))) < eps_j * eps_j:
            shifts.append(r)
            eps_j /= 2
    rep_digits = {}
    for r in shifts:
        for i, s in enumerate(block):
            rep_digits[r + i] = s
    out_h = shifts[-1] + n
    rep = DigitSequence(
        preperiod=tuple(rep_digits.get(i, 0) for i in range(out_h + 1)),
        height=m, first_index=0, exact_zero_tail=True,
        meta={"shifts": shifts, "block_length": n + 1})
    res, abss, re_exact, _ = _p_traces(rep, w0, p, out_h)
    block_sums_ok = True
    for r in shifts[1:]:
        pr = _gr_pow(pinv, r)
        bs = Fraction(0)
        power = pr
        for s in block:
            bs += s * _gr_mul(w0, power)[0]
            power = _gr_mul(power, pinv)
        if bs > c / 2:
            block_sums_ok = False
    cert_rep = verify_expansion(rep, q, 0, out_h)
    return WitnessReport(
        step=4, verdict="divergent-real-part", base=q, m=m, p=p,
        horizon=out_h, sequence=rep, direction=direction, k=k,
        members=tuple(members), q_residual=_q_residual_trace(rep, q, out_h),
        q_certificate=cert_rep.to_dict(), p_re_trace=res, p_abs_trace=abss,
        distinct_moduli=None,
        certified={
            "block_sum": float(c) / abs(_gr_float(w0)),
            "shifts": shifts,
            "block_sums_below_half": block_sums_ok,
            "re_trace_final": res[-1],
        })


# ---------------------------------------------------------------------------
# Discrete / Accumulates verdict


@dataclass(frozen=True)
class AccumulationVerdict:
    verdict: str                    # "Discrete" | "Accumulates"
    reason: str | None              # "Pisot" | "q>=m+1" | None
    classification: str
    base: AlgebraicNumber
    m: int
    cross_check: dict

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason,
                "classification": self.classification,
                "base": self.base.describe(), "m": self.m,
                "cross_check": self.cross_check}


def accumulation_verdict(q: AlgebraicNumber, m: int, *,
                         bfs_depth: int = 16,
                         state_budget: int = 200_000,
                         tol: float | None = None) -> AccumulationVerdict:
    """Decision rule for accumulation points of the m-spectrum: none exist
    exactly when q is Pisot or q >= m+1.  Attaches the matching finite
    cross-check: a growth-bound certificate or BFS closure for the discrete
    verdicts, the decreasing minimal-positive trace for the accumulating
    one.  The cross-checks are evidence, never the proof."""
    if m < 1:
        raise PreconditionError("m >= 1 required")
    if not q.greater_than(1):
        raise PreconditionError("base must satisfy q > 1")
    cls = classify_base(q)
    if q.compare_to_fraction(m + 1) >= 0:
        cross: dict = {"devries": _devries_certificate(q, m)}
        est = l_estimate(q, m, 8, state_budget=state_budget, tol=tol)
        cross["bfs"] = {"verdict": est.verdict,
                        "min_positive": est.result.min_positive,
                        "closed": est.result.closed}
        return AccumulationVerdict("Discrete", "q>=m+1", cls.tag, q, m, cross)
    if cls.is_pisot:
        est = l_estimate(q, m, bfs_depth, state_budget=state_budget, tol=tol)
        cross = {"bfs": {"verdict": est.verdict,
                         "min_positive": est.result.min_positive,
                         "closed": est.result.closed,
                         "states": est.result.trace[-1].states}}
        return AccumulationVerdict("Discrete", "Pisot", cls.tag, q, m, cross)
    est = l_estimate(q, m, bfs_depth, state_budget=state_budget, tol=tol)
    cross = {"bfs": {"verdict": est.verdict,
                     "closed": est.result.closed,
                     "trace": [r.min_value for r in est.result.trace]}}
    return AccumulationVerdict("Accumulates", None, cls.tag, q, m, cross)


def _devries_certificate(q: AlgebraicNumber, m: int,
                         sample_bound: Fraction = Fraction(10)) -> dict:
    """Degree cap beyond which every spectrum value exceeds the sample
    bound, from |y| > q^n (1 - m/(q-1)); empty at q = m+1 exactly, where
    the unit gap bound takes over."""
    bound = _devries_margin(q, m)
    if bound is None:
        return {"applies": False}
    lo, margin = bound
    n = 0
    while lo ** (n + 1) * margin < sample_bound and n < 10_000:
        n += 1
    return {"applies": True, "bound": float(sample_bound), "degree_cap": n,
            "margin": float(margin)}
