"""Digit expansions at a base q: greedy expansions over {0..m}, the lazy
constrained expansion with a prescribed sign-pattern set, and periodic
completion of finite zero strings.

All digit decisions are exact: remainders and corridor capacities are
tracked as elements of Q[q] and compared through the base's certified sign
oracle, so boundary ties (remainder exactly zero, capacity exactly one)
are decided correctly instead of dithering at floating precision.
``ZqContext`` holds them in integers on every base, so no step, test or
sign does Fraction arithmetic; the lazy corridor holds its values at one
scale a^D fixed at construction and carries z_k = u_k w_k, so a digit
aligns no denominator and forms no ring product (``_Corridor``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebraic import AlgebraicNumber, ZqContext
from .errors import PreconditionError, QSpectraError
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
        return [self.digit(i) for i in range(self.first_index, last_index + 1)]

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
    """
    if m < 1 or N < 1:
        raise PreconditionError("need m >= 1 and N >= 1")
    if not q.greater_than(1):
        raise PreconditionError("base must satisfy q > 1")
    x = Fraction(x)
    ar = ZqContext(q)
    # range check: 0 <= x <= m/(q-1)  <=>  x*(q-1) - m <= 0
    if x < 0:
        raise PreconditionError("x must be >= 0")
    xv = ar.from_fraction(x)
    top = ar.add_fraction(ar.sub(ar.mul_q(xv), xv), -m)
    if ar.sign(top) > 0:
        raise PreconditionError("x exceeds m/(q-1): not representable")
    digits = []
    rem = xv
    zero_from = None
    for k in range(1, N + 1):
        if zero_from is not None:
            digits.append(0)
            continue
        t = ar.mul_q(rem)
        c = 0
        for cand in range(m, -1, -1):
            if ar.sign(ar.add_fraction(t, -cand)) >= 0:
                c = cand
                break
        digits.append(c)
        rem = ar.add_fraction(t, -c)
        if ar.sign(rem) == 0:
            zero_from = k
    return DigitSequence(
        preperiod=tuple(digits), height=m, first_index=1,
        exact_zero_tail=zero_from is not None,
        meta={"zero_from": zero_from})


def _residual_scaled(seq: DigitSequence, ar: ZqContext, target, N: int):
    """q^N * (sum_{i<=N} s_i q^{-i} - target) as an exact element."""

    def digit(i: int) -> int:
        return seq.digit(i) if i >= seq.first_index else 0

    acc = ar.add_fraction(ar.from_fraction(-Fraction(target)), digit(0))
    for i in range(1, N + 1):
        acc = ar.step(acc, digit(i))
    return acc


class ResidualCertificate(namedtuple(
        "ResidualCertificate", "residual tail_bound passed exact_zero")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def verify_expansion(seq: DigitSequence, q: AlgebraicNumber, target,
                     N: int) -> ResidualCertificate:
    """Certificate that |sum_{i<=N} s_i q^{-i} - target| <= m q^{-N}/(q-1).

    The comparison is exact (scaled through q^N); the reported magnitudes
    are floats for display.
    """
    ar = ZqContext(q)
    scaled = _residual_scaled(seq, ar, Fraction(target), N)
    sgn = ar.sign(scaled)
    abs_scaled = scaled if sgn >= 0 else ar.scale(scaled, -1)
    # |scaled| <= m/(q-1)  <=>  |scaled|*(q-1) - m <= 0
    test = ar.add_fraction(ar.sub(ar.mul_q(abs_scaled), abs_scaled),
                           -seq.height)
    passed = ar.sign(test) <= 0
    qf = q.float_value()
    residual = abs(ar.float_value(scaled)) * qf ** (-N)
    tail_bound = seq.height * qf ** (-N) / (qf - 1.0)
    return ResidualCertificate(residual, tail_bound, passed, sgn == 0)


# ---------------------------------------------------------------------------
# lazy constrained expansion


def _axpy(x, c, y):
    """x + c*y, entry by entry."""
    return tuple(a + c * b for a, b in zip(x, y))


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

    Every value here (w, up, dn, u, z) has integer digits up to degree
    D = max(horizon, T) + 1, so all sit at the one scale a^D fixed at
    construction (``ZqContext.at_scale``): int tuples over theta = a*q
    (theta = q on a monic base).  A digit then costs tuple sums,
    the q-steps of u and (above T) of z, and two signs: no denominator is
    aligned and no ring product is formed.  Each sign is taken of a
    positive multiple of the polynomial an unscaled test would give the
    base's sign oracle, so the digits, the refinement of the base and
    every display float are those of any other scale.
    """

    def __init__(self, q: AlgebraicNumber, m: int, pattern: SignPattern,
                 horizon: int):
        if pattern.threshold > max(horizon + 1, 4096):
            raise PreconditionError(
                "pattern threshold too far beyond the horizon for the "
                "scaled corridor")
        self.ar, self.m, self.pattern = ZqContext(q), m, pattern
        self.T = T = pattern.threshold
        one, self.mul_q, self.sign, self.elem = self.ar.at_scale(
            max(horizon, T) + 1)
        zero, qvec = _axpy(one, -1, one), self.mul_q(one)
        # rows[k] = (w_k, up_k, dn_k): w_k = q^{T-k} (q-1) and the RHS sums
        # for k < T; from T on, w = q-1 and the tails are m or 0
        w, tail = _axpy(qvec, -1, one), m * (pattern.eventual == "in")
        self.rows = [(w, _axpy(zero, tail, one), _axpy(zero, m - tail, one))]
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
        self.one = self.u = one         # u_0 = 1
        self.z = w                      # z_0 = u_0 w_0
        self.k = 0
        # the Eq-style capacity m sum_{i in P} q^{-i}, scaled by w_0, with
        # the pessimistic/optimistic tails of an unknown pattern
        self.cap_upper = up
        self.cap_lower = (_axpy(up, -m, qvec)
                          if pattern.eventual == "unknown" else up)

    def capacity_bounds(self) -> tuple[bool, bool]:
        """(certified_ge_1, certified_lt_1) for the capacity."""
        w0 = self.rows[0][0]
        return (self.sign(_axpy(self.cap_lower, -1, w0)) >= 0,
                self.sign(_axpy(self.cap_upper, -1, w0)) < 0)

    def capacity_floats(self) -> tuple[float, float]:
        """Display bounds (lower, upper) of the capacity."""
        ar, elem = self.ar, self.elem
        w0 = ar.float_value(elem(self.rows[0][0]))
        return (ar.float_value(elem(self.cap_lower)) / w0,
                ar.float_value(elem(self.cap_upper)) / w0)

    def feasible_digits(self, k: int):
        """Candidate digits at index k in minimal-|s| order."""
        in_p = (k in self.pattern.explicit if k < self.T
                else self.pattern.eventual == "in")
        if k >= self.T and self.pattern.eventual == "unknown":
            raise PreconditionError("horizon exceeds materialized pattern")
        return range(0, self.m + 1) if in_p else range(0, -self.m - 1, -1)

    def choose(self, k: int) -> int:
        """Pick the minimal-|s| digit keeping the corridor invariant."""
        wk, up, dn = self.rows[min(k, self.T)]
        z = self.mul_q(self.z) if k > self.T else self.z
        for s in self.feasible_digits(k):
            v = _axpy(z, -s, wk)
            if (self.sign(_axpy(v, -1, up)) <= 0
                    and self.sign(_axpy(v, 1, dn)) >= 0):
                self.z = v
                self.u = _axpy(self.mul_q(self.u), -s, self.one)
                self.k = k
                return s
        raise QSpectraError(
            f"no feasible digit at index {k}: corridor invariant violated")

    def residual_is_zero(self) -> bool:
        return self.sign(self.u) == 0

    def residual_float(self) -> float:
        qf = self.ar.q.float_value()
        return self.ar.float_value(self.elem(self.u)) * qf ** (-self.k)


def lazy_constrained(q: AlgebraicNumber, m: int, pattern: SignPattern,
                     horizon: int) -> DigitSequence:
    """Digit sequence with s_0 = -1, digits in {0..m} on pattern indices and
    {0,-1..-m} off them, whose value at q is zero up to the tail bound
    m q^{-N}/(q-1) at the horizon.

    Requires m > q-1 and certified capacity m sum_{i in P} q^{-i} >= 1;
    rejected when the certified capacity upper bound is below one.
    """
    if m < 1 or horizon < 1:
        raise PreconditionError("need m >= 1 and horizon >= 1")
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
              "capacity_certified": ge1,
              "residual_scaled_float": corr.residual_float()})


# ---------------------------------------------------------------------------
# periodic completion


def periodic_completion(digits, q: AlgebraicNumber, m: int) -> DigitSequence:
    """Infinite repetition (s_0...s_n)^infinity of a finite string whose
    value sum s_i q^{-i} is exactly zero; the q-value of the periodic
    sequence is then zero as well.  Reports the digit sum per period."""
    digits = tuple(int(s) for s in digits)
    if not digits:
        raise PreconditionError("empty digit string")
    if any(abs(s) > m for s in digits):
        raise PreconditionError("digit exceeds height bound")
    ar = ZqContext(q)
    acc = ar.zero
    for s in digits:
        acc = ar.step(acc, s)
    if ar.sign(acc) != 0:
        raise PreconditionError(
            f"value of the digit string at q is nonzero "
            f"(~{ar.float_value(acc) * q.float_value() ** (-(len(digits) - 1)):.3g})")
    if all(s == 0 for s in digits):
        return DigitSequence(preperiod=(0,), height=m, period=None,
                             first_index=0, exact_zero_tail=True,
                             meta={"digit_sum": 0})
    return DigitSequence(
        preperiod=(), height=m, period=digits, first_index=0,
        meta={"digit_sum": sum(digits)})
