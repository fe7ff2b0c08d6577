"""Certified complex root disks, the evidence behind a Pisot label, loaded
only when a disk is computed (``NumberClass.conjugate_set``, or
``conjugates`` called).  ``conjugates`` runs the precision ladder: on each
rung ``_dk_iterate`` runs simultaneous Weierstrass (Durand-Kerner)
iteration in Gaussian integers, ``_certified_disks`` checks its
a-posteriori disks exactly, and ``_locate_disk`` places each against the
unit circle.  There is no special case (a linear polynomial or the root 0
takes the ladder too), and the counts are read off the polynomial.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import PreconditionError
from .intpoly import (IntPolynomial, cauchy_root_bound, is_squarefree,
                      unit_circle_counts, _integer)

#: The largest disk radius a certified rung may have.
RADIUS = Fraction(1, 10**12)


class ConjugateDisk(namedtuple("ConjugateDisk", "re im radius location")):
    """One certified root disk: the true root lies within the Fraction
    ``radius`` of the Fraction center (re, im), and ``location`` is its
    certified position w.r.t. the unit circle ('inside' | 'outside' |
    'on' | 'unresolved')."""

    __slots__ = ()

    def modulus_bounds(self) -> tuple[float, float]:
        if self.location == "on":
            return (1.0, 1.0)
        m = math.hypot(float(self.re), float(self.im))
        r = float(self.radius)
        return (max(0.0, m - r), m + r)


class ConjugateSet(namedtuple("ConjugateSet", "poly disks resolved "
                              "precision_bits on_circle_count")):
    """``disks`` holds a ``ConjugateDisk`` per root of ``poly`` from the last
    certified rung, and is empty when no rung in the budget certified one."""
    __slots__ = ()


def _dk_iterate(coeffs: tuple[int, ...], prec_bits: int, start=None):
    """Simultaneous Weierstrass/Durand-Kerner iteration at the given
    precision.  Returns approximations only, as (Z, S): Gaussian integers
    Z_j = (X_j, Y_j) over S = 2^prec_bits; certification is separate.

    One fixed-point iteration on every rung: Horner and the Weierstrass
    product shift once per multiply, and each correction is num*conj(den)
    floor-divided by |den|^2.  The seed points scale the Cauchy bound in
    ints, so nothing overflows; ``start`` is a previous rung's (Z, S),
    rescaled to S.
    """
    d = len(coeffs) - 1
    bound = cauchy_root_bound(IntPolynomial(coeffs))
    steps = 60 + 12 * prec_bits // 16
    p, S = prec_bits, 1 << prec_bits
    B = (bound.numerator << p) // bound.denominator
    if start is None:       # seed directions (0.4+0.9i)^k, at 0.7*bound
        t = math.atan2(0.9, 0.4)
        start = [(int(0.7 * 2**53 * math.cos(k * t)) * B,
                  int(0.7 * 2**53 * math.sin(k * t)) * B)
                 for k in range(1, d + 1)], 1 << p + 53
    z = [((x << p) // start[1], (y << p) // start[1]) for x, y in start[0]]
    tol = max(S, B) >> (3 * p // 4)
    cs = [c << p for c in coeffs]
    for _ in range(steps):
        max_corr = 0
        for j, (x, y) in enumerate(z):
            nr, ni = cs[-1], 0
            for c in reversed(cs[:-1]):
                nr, ni = ((nr * x - ni * y) >> p) + c, (nr * y + ni * x) >> p
            dr, di = cs[-1], 0
            for i, (u, v) in enumerate(z):
                if i != j:
                    u, v = x - u, y - v
                    dr, di = (dr * u - di * v) >> p, (dr * v + di * u) >> p
            n2 = dr * dr + di * di
            if n2:
                wr = ((nr * dr + ni * di) << p) // n2
                wi = ((ni * dr - nr * di) << p) // n2
            else:           # z_j meets another point: move it by 2^(-p/2)
                wr, wi = -(1 << p // 2), 0
            z[j] = (x - wr, y - wi)
            max_corr = max(max_corr, abs(wr), abs(wi))
        if max_corr < tol:
            break
    return z, S


def _certified_disks(coeffs: tuple[int, ...], Z, S: int) -> list | None:
    """Exact Weierstrass a-posteriori disks about the centres Z_j / S, or
    None when they overlap.

    For distinct approximations z_j the disks centered z_j with radius
    d*(|Re W_j| + |Im W_j|) (W_j the Weierstrass correction) jointly contain
    all roots, and pairwise disjoint disks contain exactly one root each.

    The centres are Gaussian integers Z_j over S = 2^p, as ``_dk_iterate``
    returns them.  Then p(z_j) = N_j / S^d with N_j = sum_k c_k Z_j^k
    S^(d-k), the Weierstrass denominator is D_j / S^(d-1) with
    D_j = lead * prod_{i!=j} (Z_j - Z_i), and
    W_j = N_j conj(D_j) / (S |D_j|^2).  Everything up to the one Fraction
    radius per disk, and the disjointness test, is integer arithmetic, so
    the result is a certificate, not an estimate.  Returns
    [(re, im, radius)] as Fractions.
    """
    d, lead = len(coeffs) - 1, coeffs[-1]
    scaled = [c * S ** (d - k) for k, c in enumerate(coeffs)]
    radii = []
    for j, (zr, zi) in enumerate(Z):
        nr, ni = scaled[-1], 0
        for c in reversed(scaled[:-1]):
            nr, ni = nr * zr - ni * zi + c, nr * zi + ni * zr
        dr, di = lead, 0
        for i, (wr, wi) in enumerate(Z):
            if i != j:
                er, ei = zr - wr, zi - wi
                if er == 0 and ei == 0:
                    return None
                dr, di = dr * er - di * ei, dr * ei + di * er
        radii.append(Fraction(
            d * (abs(nr * dr + ni * di) + abs(ni * dr - nr * di)),
            S * (dr * dr + di * di)))
    for i in range(d):
        zr, zi = Z[i]
        a, b = radii[i].numerator, radii[i].denominator
        for j in range(i + 1, d):
            er, ei = zr - Z[j][0], zi - Z[j][1]
            a2, b2 = radii[j].numerator, radii[j].denominator
            # |z_i - z_j| <= r_i + r_j, squared and times (S * b * b2)^2
            if ((er * er + ei * ei) * (b * b2) ** 2
                    <= (S * (a * b2 + a2 * b)) ** 2):
                return None
    return [(Fraction(x, S), Fraction(y, S), rad)
            for (x, y), rad in zip(Z, radii)]


def _locate_disk(re: Fraction, im: Fraction, radius: Fraction) -> str:
    s2 = re * re + im * im
    if radius < 1 and s2 < (1 - radius) ** 2:
        return "inside"
    return "outside" if s2 > (1 + radius) ** 2 else "straddle"


def conjugates(p: IntPolynomial, budget_bits: int = 4096) -> ConjugateSet:
    """All complex roots of squarefree p with certified disks and exact
    unit-circle location tags.

    The precision ladder is 53, 64, 128, ... bits up to ``budget_bits``,
    with one fixed-point iteration on every rung: the rung of ``prec`` bits
    iterates in Gaussian integers over 2^prec, the first from the seed
    points and each later one from the previous rung's approximations.
    Each rung's approximations are certified by ``_certified_disks``
    (exact, in the same scaled Gaussian integers); the first rung whose
    disks are disjoint, within ``RADIUS``, and straddle the unit circle
    exactly ``on_circle_count`` times wins, and ``precision_bits`` names
    it.  Every squarefree p takes the ladder, with no special case, and
    ``on_circle_count`` is read off p, where ``unit_circle_counts`` keeps
    it (``classify_base`` has counted a base's minimal polynomial).

    Raises PreconditionError for non-squarefree input.  If the precision
    budget runs out before every off-circle root is certified inside or
    outside the unit circle, the set is returned with ``resolved=False``
    and ``precision_bits`` is the last rung run (0 if none fit the budget).
    """
    if p.is_zero or p.degree < 1:
        raise PreconditionError("need a nonconstant polynomial")
    if not is_squarefree(p):
        raise PreconditionError("polynomial is not squarefree")
    budget_bits = _integer(budget_bits, "budget bits")

    coeffs, on_count = p.coeffs, unit_circle_counts(p)[1]
    prec, ran, start, best, resolved = 53, 0, None, (), False
    while prec <= budget_bits and not resolved:
        z = _dk_iterate(coeffs, prec, start)
        ran, start = prec, z
        disks = _certified_disks(coeffs, *z)
        if disks is not None:
            best = [(_locate_disk(*disk), *disk) for disk in disks]
            resolved = (sum(loc == "straddle" for loc, *_ in best) == on_count
                        and all(rad <= RADIUS for *_, rad in best))
        prec = 64 if prec == 53 else 2 * prec
    straddle = "on" if resolved else "unresolved"
    out = sorted((ConjugateDisk(re, im, rad,
                                straddle if loc == "straddle" else loc)
                  for loc, re, im, rad in best), key=lambda x: (x.re, x.im))
    return ConjugateSet(p, tuple(out), resolved, ran, on_count)
