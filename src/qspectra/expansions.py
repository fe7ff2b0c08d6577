"""Digit expansions at a base q: greedy expansions over {0..m}, the lazy
constrained expansion with a prescribed sign-pattern set, and periodic
completion of finite zero strings.

All digit decisions are exact: remainders and corridor capacities are
tracked as elements of Q[q] and compared through the base's certified sign
oracle, so boundary ties (remainder exactly zero, capacity exactly one)
are decided correctly instead of dithering at floating precision.
Each routine holds its values in one ``ZqContext``, as int vectors at one
scale fixed up front (a^D for the highest degree D a value reaches, times
a rational target's denominator), so no step, test or sign aligns a
denominator or does Fraction arithmetic.  The lazy corridor carries
z_k = u_k w_k, so a digit forms no ring product (``_Corridor``).  A digit
test reads integer enclosures on the base's interval (``ZqContext._bounds``)
and signs only when they overlap: a test they settle is one the sign
settles without refining q, so the digits, refinement and display floats
are those of signing every test.
``verify_expansion`` walks its residual over theta = a*q with no division.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, cycle, islice, repeat

from .algebraic import AlgebraicNumber, ZqContext, _axpy
from .errors import PreconditionError, QSpectraError
from .intpoly import _integer, _rational
from .records import FrozenRecord


# ---------------------------------------------------------------------------
# sign patterns


class SignPattern(namedtuple("SignPattern", "explicit threshold eventual")):
    """Set P of positive indices in finite-plus-eventual form.

    ``explicit``, a frozenset, lists the members below ``threshold``; beyond
    it membership is uniform: ``eventual`` is "in", "out", or "unknown"
    (materialized-to-horizon patterns produced by the witness
    construction).  Capacities over such a set are finitely certifiable.
    """

    __slots__ = ()

    def __new__(cls, explicit: frozenset[int], threshold: int,
                eventual: str = "out"):
        if eventual not in ("in", "out", "unknown"):
            raise PreconditionError(f"bad eventual flag {eventual!r}")
        threshold = _integer(threshold, "threshold")
        explicit = frozenset(_integer(i, "explicit index") for i in explicit)
        if threshold < 1:
            raise PreconditionError("threshold must be >= 1")
        bad = [i for i in explicit if i < 1 or i >= threshold]
        if bad:
            raise PreconditionError(
                f"explicit indices {bad} outside [1, threshold)")
        return super().__new__(cls, explicit, threshold, eventual)

    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace too

    @classmethod
    def all_indices(cls) -> "SignPattern":
        return cls(frozenset(), 1, "in")

    @classmethod
    def from_membership(cls, members, horizon: int) -> "SignPattern":
        """Materialized pattern: membership known for 1..horizon only."""
        return cls(frozenset(i for i in members if 1 <= i <= horizon),
                   horizon + 1, "unknown")

    def contains(self, i: int) -> bool:
        if i < 1:
            raise PreconditionError("pattern indices start at 1")
        if i < self.threshold:
            return i in self.explicit
        if self.eventual == "unknown":
            raise PreconditionError(
                f"membership of {i} beyond the materialized horizon")
        return self.eventual == "in"

    @classmethod
    def from_text(cls, text: str) -> "SignPattern":
        """Parse "explicit:2,4;eventual:in;threshold:6"."""
        explicit: frozenset[int] = frozenset()
        eventual = "out"
        threshold = None
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition(":")
            key = key.strip().lower()
            if key not in ("explicit", "eventual", "threshold"):
                raise PreconditionError(f"unknown pattern field {key!r}")
            try:
                if key == "explicit":
                    explicit = frozenset(int(v) for v in val.split(",")
                                         if v.strip())
                elif key == "eventual":
                    eventual = val.strip().lower()
                else:
                    threshold = int(val)
            except ValueError:
                raise PreconditionError(
                    f"pattern field {key!r} needs integers, not "
                    f"{val.strip()!r}") from None
        if threshold is None:
            threshold = max(explicit, default=0) + 1
        return cls(explicit, threshold, eventual)

    def to_text(self) -> str:
        exp = ",".join(str(i) for i in sorted(self.explicit))
        return f"explicit:{exp};eventual:{self.eventual};threshold:{self.threshold}"


# ---------------------------------------------------------------------------
# digit sequences


class DigitSequence(FrozenRecord):
    """Digit stream s_i (coefficient of q^{-i}), i starting at first_index.

    ``period`` repeats forever after the preperiod; ``exact_zero_tail``
    asserts the remaining digits are all zero with zero residual (certified
    exactly).  ``meta``, a dict of how the digits were found, stays out of
    equality, hash and repr.
    """

    _fields = ("preperiod", "height", "period", "first_index",
               "exact_zero_tail")

    def __init__(self, preperiod: tuple[int, ...], height: int,
                 period: tuple[int, ...] | None = None, first_index: int = 0,
                 exact_zero_tail: bool = False, meta: dict | None = None):
        super().__init__(preperiod, height, period, first_index,
                         exact_zero_tail)
        object.__setattr__(self, "meta", {} if meta is None else meta)

    def digit(self, i: int) -> int:
        if i < self.first_index:
            raise PreconditionError(f"sequence starts at {self.first_index}")
        j = i - self.first_index
        if j < len(self.preperiod):
            return self.preperiod[j]
        if self.period:
            return self.period[(j - len(self.preperiod)) % len(self.period)]
        return 0

    def digits_through(self, last_index: int) -> list[int]:
        """[s_0, ..., s_last], zero below ``first_index``: entry i is s_i."""
        f, start = self.first_index, max(0, -self.first_index)
        tail = cycle(self.period) if self.period else repeat(0)
        return list(islice(chain(repeat(0, max(0, f)), self.preperiod, tail),
                           start, start + max(0, last_index + 1)))

    @property
    def is_finitely_supported(self) -> bool:
        return self.period is None and self.exact_zero_tail

    def period_digit_sum(self) -> int | None:
        return sum(self.period) if self.period else None

    def to_dict(self) -> dict:
        return {
            "preperiod": list(self.preperiod),
            "period": list(self.period) if self.period else None,
            "height": self.height,
            "first_index": self.first_index,
            "exact_zero_tail": self.exact_zero_tail,
        }


# ---------------------------------------------------------------------------
# greedy expansion


def greedy_expansion(x, q: AlgebraicNumber, m: int, N: int) -> DigitSequence:
    """Greedy digits c_1..c_N over {0..m} for x = sum c_i q^{-i}.

    At each step the largest digit keeping the remainder nonnegative is
    taken; remainders are exact, so a terminating expansion is detected as
    a certified all-zero tail.  x must be rational (exactly representable).
    The remainders q^k x - sum_{i<=k} c_i q^(k-i) reach degree N, so they
    sit at the scale a^N times x's denominator.
    """
    m, N = _integer(m, "m"), _integer(N, "N")
    if m < 1 or N < 1:
        raise PreconditionError("need m >= 1 and N >= 1")
    if not q.greater_than(1):
        raise PreconditionError("base must satisfy q > 1")
    x = _rational(x)
    ar = ZqContext(q, N, x.denominator)
    one = ar.one
    # range check: 0 <= x <= m/(q-1)
    if x < 0:
        raise PreconditionError("x must be >= 0")
    rem = (x.numerator * one[0] // x.denominator, *one[1:])
    if ar.cmp_tail(rem, m) > 0:
        raise PreconditionError("x exceeds m/(q-1): not representable")
    digits = []
    for k in range(1, N + 1):
        t = ar.mul_q(rem)
        lo, hi, den = ar._bounds(t)     # den (t-c) in [lo-c den, hi-c den]
        for c in range(m, -1, -1):      # keeps the accepted rem and its sign
            if hi < c * den:            # t >= 0, so c = 0 is never skipped
                continue
            rem = _axpy(t, -c, one)
            if (sgn := 1 if lo > c * den else ar.sign(rem)) >= 0:
                break
        digits.append(c)
        if sgn == 0:                    # an exact expansion: zeros from k on
            break
    return DigitSequence(
        preperiod=tuple(digits) + (0,) * (N - k), height=m, first_index=1,
        exact_zero_tail=sgn == 0, meta={"zero_from": k if sgn == 0 else None})


class ResidualCertificate(namedtuple(
        "ResidualCertificate", "residual tail_bound passed exact_zero")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def verify_expansion(seq: DigitSequence, q: AlgebraicNumber, target,
                     N: int) -> ResidualCertificate:
    """Certificate that |sum_{i<=N} s_i q^{-i} - target| <= m q^{-N}/(q-1).

    The comparison is exact (scaled through q^N); the reported magnitudes
    are floats for display.  The scaled residual
    q^N (sum_{i<=N} s_i q^{-i} - target) reaches degree N and the test
    multiplies it by q once, so the values sit at the scale
    S = a^(N+1) den, den the target's denominator.  Horner's rule over
    theta = a*q walks it with no division: S q^(N-i) = a^(i+1) den
    theta^(N-i), so digit i adds s_i a^(i+1) den.
    """
    if not isinstance(seq, DigitSequence):
        raise PreconditionError(f"sequence {seq!r} is not a DigitSequence")
    N = _integer(N, "N")
    if N < 0:
        raise PreconditionError("need N >= 0")
    target = _rational(target)
    ar = ZqContext(q, N + 1, target.denominator)
    one, a, digits = ar.one, ar.lead, seq.digits_through(N)
    c = a * target.denominator    # a^(i+1) den at i = 0
    scaled = [digits[0] * c - target.numerator * a, *one[1:]]
    for s in digits[1:]:
        c *= a
        scaled = ar._theta(scaled)
        scaled[0] += s * c
    scaled = tuple(scaled)
    sgn = ar.sign(scaled)
    abs_scaled = scaled if sgn >= 0 else tuple(-x for x in scaled)
    passed = ar.cmp_tail(abs_scaled, seq.height) <= 0     # <= m/(q-1)
    qf = q.float_value()
    residual = abs(ar.float_value(scaled)) * qf ** (-N)
    tail_bound = seq.height * qf ** (-N) / (qf - 1.0)
    return ResidualCertificate(residual, tail_bound, passed, sgn == 0)


# ---------------------------------------------------------------------------
# lazy constrained expansion


class _Corridor:
    """Exact feasibility tests for the constrained expansion.

    Scaled state u_k = q^k (1 - sum_{i<=k} s_i q^{-i}); the invariant is
    L_k <= u_k q^{-k} <= U_k with U_k (resp. L_k) the largest (most
    negative) value the remaining tail can contribute.  Each test is
    multiplied through by w_k = q^{T-k} (q-1) > 0 (w_k = q-1 from T on),
    which makes it the sign of z - up_k or z + dn_k for the carried
    z_k = u_k w_k: below T, w_{k-1} = q w_k, so z_k = z_{k-1} - s_k w_k;
    above T, z_k = q z_{k-1} - s_k (q-1).  Patterns with unknown eventual
    behaviour get the outer corridor: optimistic upper tail, pessimistic
    lower tail, which yields exactly the advertised residual bound at the
    horizon.

    Every value here (w, up, dn, z) has integer digits up to degree
    D = max(horizon, T) + 1, so all sit in the context of depth D: int
    tuples over theta = a*q (theta = q on a monic base) at the scale a^D.
    A digit then costs tuple sums and, above T, the q-step of z: no ring
    product is formed.  Below T each candidate is two signs.  From T on a
    test compares the integer bounds of z with those of a kept threshold,
    read anew when their den changes, and signs the difference only when
    the two overlap (strictly: a tie goes to the sign).
    """

    def __init__(self, q: AlgebraicNumber, m: int, pattern: SignPattern,
                 horizon: int):
        if pattern.threshold > max(horizon + 1, 4096):
            raise PreconditionError(
                "pattern threshold too far beyond the horizon for the "
                "scaled corridor")
        self.m, self.pattern = m, pattern
        self.T = T = pattern.threshold
        self.ar = ar = ZqContext(q, max(horizon, T) + 1)
        self.mul_q, self.sign, one = ar.mul_q, ar.sign, ar.one
        zero, qvec = (0,) * ar.d, self.mul_q(one)
        # rows[k] = (w_k, up_k, dn_k): w_k = q^{T-k} (q-1) and the RHS sums
        # for k < T; from T on, w = q-1 and the tails are m or 0
        w, tail = _axpy(qvec, -1, one), m * (pattern.eventual == "in")
        up, dn = _axpy(zero, tail, one), _axpy(zero, m - tail, one)
        self.rows = [(w, up, dn)]
        # row T serves every index from T on, so its tests v <= up and
        # v >= -dn of v = z - s w are kept as z <= up + s w and z >= s w - dn
        self.kept = [(s, _axpy(up, s, w), _axpy(_axpy(zero, s, w), -1, dn))
                     for s in self.feasible_digits(T)] if horizon >= T else []
        self.den = None                 # the den of the kept bounds
        up = _axpy(zero, m * (pattern.eventual in ("in", "unknown")), qvec)
        dn = _axpy(zero, m * (pattern.eventual in ("out", "unknown")), qvec)
        for k in range(T - 1, -1, -1):
            if k + 1 in pattern.explicit:
                up = _axpy(up, m, w)
            elif k + 1 < T:
                dn = _axpy(dn, m, w)
            w = self.mul_q(w)
            self.rows.append((w, up, dn))
        self.rows.reverse()
        self.z = w                      # z_0 = u_0 w_0 with u_0 = 1
        # the Eq-style capacity m sum_{i in P} q^{-i}, scaled by w_0, with
        # the pessimistic/optimistic tails of an unknown pattern
        self.cap_upper = up
        self.cap_lower = (_axpy(up, -m, qvec)
                          if pattern.eventual == "unknown" else up)

    def capacity_bounds(self) -> tuple[bool, bool]:
        """(certified_ge_1, certified_lt_1) for the capacity.  A known tail
        makes the two bounds one vector, signed once."""
        w0 = self.rows[0][0]
        lo = self.sign(_axpy(self.cap_lower, -1, w0))
        hi = (lo if self.cap_upper is self.cap_lower
              else self.sign(_axpy(self.cap_upper, -1, w0)))
        return lo >= 0, hi < 0

    def capacity_floats(self) -> tuple[float, float]:
        """Display bounds (lower, upper) of the capacity: each bound's
        display float over that of w_0 = q^T (q-1).  All three are read at
        one power-of-two scale 2^-e, so that w_0 stays in the float range:
        e = 0 while q^T < 2^960 (q read at its interval's upper end), and a
        shared shift leaves the quotient unchanged."""
        ar, hi = self.ar, self.ar.q.interval()[1]
        e = max(0, int(self.T * (math.log2(hi.numerator)
                                 - math.log2(hi.denominator))) - 960)
        w0 = ar.float_value(self.rows[0][0], e)
        return (ar.float_value(self.cap_lower, e) / w0,
                ar.float_value(self.cap_upper, e) / w0)

    def feasible_digits(self, k: int):
        """Candidate digits at index k in minimal-|s| order."""
        if self.pattern.contains(k):
            return range(0, self.m + 1)
        return range(0, -self.m - 1, -1)

    def choose(self, k: int) -> int:
        """Pick the minimal-|s| digit keeping the corridor invariant, the
        upper test first.  Below T the tests are on the candidate
        v = z - s w_k (v = z for s = 0); from T on they are on z, against
        row T's kept thresholds."""
        sign = self.sign
        if k < self.T:
            w, up, dn = self.rows[k]
            for s in self.feasible_digits(k):
                v = _axpy(self.z, -s, w) if s else self.z
                if sign(_axpy(v, -1, up)) <= 0 and sign(_axpy(v, 1, dn)) >= 0:
                    self.z = v
                    return s
        else:
            z = self.mul_q(self.z) if k > self.T else self.z
            zb = self.ar._bounds(z)
            if zb[2] != self.den:       # other units: read the kept bounds
                self.den, self.bounds = zb[2], [
                    (self.ar._bounds(hi), self.ar._bounds(lo))
                    for _, hi, lo in self.kept]
            for (s, hi, lo), (hb, lb) in zip(self.kept, self.bounds):
                if (self._cmp(z, zb, hi, hb) <= 0
                        and self._cmp(z, zb, lo, lb) >= 0):
                    self.z = _axpy(z, -s, self.rows[-1][0]) if s else z
                    return s
        raise QSpectraError(
            f"no feasible digit at index {k}: corridor invariant violated")

    def _cmp(self, z, zb, t, tb) -> int:
        """Sign of z - t: from their bounds zb and tb if apart at one den,
        else exact.  Within one thread ``choose`` re-reads the kept bounds
        at z's den, so the den test guards only against a refinement of q
        made by another thread between the reads."""
        if zb[2] == tb[2]:
            if zb[1] < tb[0]:
                return -1
            if zb[0] > tb[1]:
                return 1
        return self.sign(_axpy(z, -1, t))

    def residual_is_zero(self) -> bool:
        return self.sign(self.z) == 0           # z = u w with w > 0


def lazy_constrained(q: AlgebraicNumber, m: int, pattern: SignPattern,
                     horizon: int) -> DigitSequence:
    """Digit sequence with s_0 = -1, digits in {0..m} on pattern indices and
    {0,-1..-m} off them, whose value at q is zero up to the tail bound
    m q^{-N}/(q-1) at the horizon.

    Requires m > q-1 and certified capacity m sum_{i in P} q^{-i} >= 1;
    rejected when the certified capacity upper bound is below one.
    """
    m, horizon = _integer(m, "m"), _integer(horizon, "horizon")
    if m < 1 or horizon < 1:
        raise PreconditionError("need m >= 1 and horizon >= 1")
    if not isinstance(pattern, SignPattern):
        raise PreconditionError(f"pattern {pattern!r} is not a SignPattern")
    if not q.greater_than(1):
        raise PreconditionError("base must satisfy q > 1")
    # m > q - 1  <=>  q < m + 1
    if q.compare_to_fraction(m + 1) >= 0:
        raise PreconditionError("need m > q-1 (digit surplus) for the lazy "
                                "algorithm")
    if pattern.eventual == "unknown" and horizon >= pattern.threshold:
        raise PreconditionError("horizon exceeds the materialized pattern")
    corr = _Corridor(q, m, pattern, horizon)
    ge1, lt1 = corr.capacity_bounds()
    if lt1:
        raise PreconditionError(
            f"capacity condition violated: m*sum q^-i = "
            f"{corr.capacity_floats()[1]:.6f} < 1")
    # when only the upper bound clears 1 (materialized pattern with unknown
    # tail), the run still meets the horizon residual bound via the outer
    # corridor; certified extendability is recorded in the metadata
    digits = [-1]
    for k in range(1, horizon + 1):
        digits.append(corr.choose(k))
    return DigitSequence(
        preperiod=tuple(digits), height=m, first_index=0,
        exact_zero_tail=corr.residual_is_zero(),
        # read after the digits: refining the base for display first would
        # change how far the sign tests refine it, and so later displays
        meta={"capacity": corr.capacity_floats(),
              "capacity_certified": ge1})


# ---------------------------------------------------------------------------
# periodic completion


def periodic_completion(digits, q: AlgebraicNumber, m: int) -> DigitSequence:
    """Infinite repetition (s_0...s_n)^infinity of a finite string whose
    value sum s_i q^{-i} is exactly zero; the q-value of the periodic
    sequence is then zero as well.  Reports the digit sum per period."""
    digits, m = tuple(_integer(s, "digit") for s in digits), _integer(m, "m")
    if m < 1:
        raise PreconditionError("need m >= 1")
    if not digits:
        raise PreconditionError("empty digit string")
    if any(abs(s) > m for s in digits):
        raise PreconditionError("digit exceeds height bound")
    ar = ZqContext(q, len(digits) - 1)
    acc = ar.from_digits(digits[::-1])      # sum s_i q^(n-i), from s_0
    if ar.sign(acc) != 0:
        raise PreconditionError(
            f"value of the digit string at q is nonzero "
            f"(~{ar.float_value(acc) * q.float_value() ** (-(len(digits) - 1)):.3g})")
    if all(s == 0 for s in digits):
        return DigitSequence(preperiod=(0,), height=m, period=None,
                             first_index=0, exact_zero_tail=True)
    return DigitSequence(preperiod=(), height=m, period=digits, first_index=0)
