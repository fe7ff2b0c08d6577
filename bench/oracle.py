"""Independent census oracle: the minimal polynomial of the smallest real
root q > 1 of a monic integer polynomial, and whether q is Pisot.

It shares no code with ``qspectra``. Roots come from ``mpmath.polyroots``;
rational roots are found and divided out exactly in integers, so a rational
root such as 1 is never reported as an irrational root "> 1". The minimal
polynomial of q is the smallest root subset containing q whose product has
integer coefficients and divides the input exactly (a trace-test factor
search). Its other roots then decide the label. An irreducible polynomial
has a root on the unit circle other than +-1 only if it is self-reciprocal,
so that case is decided exactly and the numerical moduli only have to
separate roots that are not on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

PISOT = "Pisot"
PISOT_INTEGER = "PisotInteger"
NOT_PISOT = "NotPisot-AlgebraicInteger"

_DPS = 30                 # working decimal digits for the roots
_CIRCLE_TOL = 1e-12       # |r| within this of 1 counts as on the unit circle
_PRUNE_TOL = 1e-7         # float tolerance of the subset prefilter


@dataclass(frozen=True)
class OracleAnswer:
    q: float                     # the selected root, smallest real root > 1
    min_poly: tuple[int, ...]    # ascending coefficients, monic
    label: str                   # PISOT | PISOT_INTEGER | NOT_PISOT
    on_circle: int               # conjugates of q on the unit circle
    reducible: bool              # input is not the minimal polynomial of q


def _eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _divmod_monic(p, f):
    """Exact quotient and remainder of integer p by monic integer f."""
    rem = list(p)
    quot = [0] * max(len(p) - len(f) + 1, 0)
    for i in range(len(p) - len(f), -1, -1):
        c = rem[i + len(f) - 1]
        quot[i] = c
        if c:
            for j, fc in enumerate(f):
                rem[i + j] -= c * fc
    return quot, rem[:len(f) - 1]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _frac_rem(a, b):
    a = list(a)
    while len(a) >= len(b) and any(a):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, bc in enumerate(b):
            a[shift + j] -= c * bc
        a = _trim(a)
    return a


def _squarefree(p):
    """Squarefree part of monic integer p, as a monic integer list."""
    dp = [i * c for i, c in enumerate(p)][1:]
    a, b = [Fraction(c) for c in p], [Fraction(c) for c in dp]
    while b:
        a, b = b, _frac_rem(a, b)
    if len(a) <= 1:
        return list(p)
    g = [c / a[-1] for c in a]
    # p / g over Q; monic p and monic g give a monic integer quotient
    quot, rem = _divmod_monic([Fraction(c) for c in p], g)
    if any(rem):
        raise ArithmeticError("gcd does not divide the polynomial")
    return [int(c) for c in quot]


def _divisors(n):
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def _strip_rational_roots(p):
    """Remove the factor x and every integer root, exactly."""
    while p[0] == 0:
        p = p[1:]
    changed = True
    while changed and len(p) > 1:
        changed = False
        for d in _divisors(p[0]):
            for r in (d, -d):
                if _eval(p, r) == 0:
                    p, _ = _divmod_monic(p, [-r, 1])
                    changed = True
    return p


def _product_coeffs(roots):
    """Ascending coefficients of prod (x - r), rounded to integers, or None
    when some coefficient is not within the tolerance of an integer."""
    poly = [mpmath.mpc(1)]
    for r in roots:
        nxt = [mpmath.mpc(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += c
            nxt[i] -= c * r
        poly = nxt
    out = []
    tol = mpmath.mpf(10) ** (-_DPS // 3)
    for c in poly:
        k = int(mpmath.nint(c.real))
        if abs(c.real - k) > tol or abs(c.imag) > tol:
            return None
        out.append(k)
    return out


def _min_poly(p, roots, j):
    """Smallest-degree integer factor of p vanishing at roots[j]."""
    n = len(roots)
    others = [i for i in range(n) if i != j]
    fr = [complex(roots[i]) for i in others]
    logs = [math.log(abs(z)) for z in fr]
    q = complex(roots[j])
    targets = [math.log(d) for d in _divisors(p[0])]
    cands = []
    re, im, lg = q.real, q.imag, math.log(abs(q))
    mask = 0
    for step in range(1 << len(others)):
        if step:
            bit = (step & -step).bit_length() - 1
            sign = -1 if mask >> bit & 1 else 1
            mask ^= 1 << bit
            re += sign * fr[bit].real
            im += sign * fr[bit].imag
            lg += sign * logs[bit]
        if (abs(im) < _PRUNE_TOL and abs(re - round(re)) < _PRUNE_TOL
                and min(abs(lg - t) for t in targets) < _PRUNE_TOL):
            cands.append(mask)
    cands.sort(key=lambda m: (bin(m).count("1"), m))
    for m in cands:
        members = [j] + [others[i] for i in range(len(others)) if m >> i & 1]
        f = _product_coeffs([roots[i] for i in members])
        if f is None:
            continue
        _, rem = _divmod_monic(p, f)
        if not any(rem):
            return f, members
    raise ArithmeticError("no integer factor found for the selected root")


def oracle(coeffs) -> OracleAnswer | None:
    """Answer for the smallest real root > 1 of the monic integer
    polynomial with ascending ``coeffs``; None when it has no such root."""
    p = _trim(int(c) for c in coeffs)
    if len(p) < 2 or p[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    core = _squarefree(_strip_rational_roots(p))
    low = next(c for c in p if c)          # constant term once x^k is out
    integer_roots = [r for r in _divisors(low) if r >= 2 and _eval(p, r) == 0]
    if len(core) < 2 and not integer_roots:
        return None
    best = None
    roots = []
    if len(core) >= 2:
        with mpmath.workdps(_DPS):
            roots = mpmath.polyroots(list(reversed(core)), maxsteps=400,
                                     extraprec=4 * _DPS)
            real_big = [(r.real, i) for i, r in enumerate(roots)
                        if abs(r.imag) < mpmath.mpf(10) ** (-_DPS // 2)
                        and r.real > 1]
        if real_big:
            best = min(real_big)
    if integer_roots and (best is None or integer_roots[0] < best[0]):
        r = integer_roots[0]
        return OracleAnswer(float(r), (-r, 1), PISOT_INTEGER, 0,
                            len(p) != 2)
    if best is None:
        return None
    j = best[1]
    with mpmath.workdps(_DPS):
        f, members = _min_poly(core, roots, j)
        mods = [abs(roots[i]) for i in members if i != j]
        on = sum(1 for r in mods if abs(r - 1) < _CIRCLE_TOL)
        q = float(best[0])
        if f in (f[::-1], [-c for c in f[::-1]]):
            # self-reciprocal: 1/q is a conjugate; Pisot only when it is the
            # sole other one
            inside = len(f) == 3
        else:
            on = 0
            inside = all(r < 1 for r in mods)
    label = PISOT if inside else NOT_PISOT
    return OracleAnswer(q, tuple(f), label, on, tuple(f) != tuple(p))


#: Fixed census anchors: (name, ascending coefficients, expected label,
#: expected unit-circle conjugates).
ANCHORS = (
    ("siegel_x3-x-1", (-1, -1, 0, 1), PISOT, 0),
    ("siegel_x4-x3-1", (-1, 0, 0, -1, 1), PISOT, 0),
    ("lehmer_deg10", (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), NOT_PISOT, 8),
    ("x20-x-1", (-1, -1) + (0,) * 18 + (1,), NOT_PISOT, 0),
)


def self_check() -> None:
    """Raise AssertionError unless every anchor gets its known label."""
    for name, coeffs, label, on in ANCHORS:
        ans = oracle(coeffs)
        if ans is None or ans.label != label or ans.on_circle != on \
                or ans.reducible:
            raise AssertionError(f"oracle fails anchor {name}: {ans}")
