"""Registered desk-scale reproduction cases.

Each case checks one headline claim about spectra at concrete bases, with
its own measured values and pass criterion; ``qspectra reproduce`` runs them
from the command line and the acceptance test suite asserts them one by one.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import namedtuple
from fractions import Fraction

from .algebraic import AlgebraicNumber, _axpy, classify_base, power_base
from .errors import PreconditionError
from .expansions import SignPattern, lazy_constrained, verify_expansion
from .intpoly import IntPolynomial
from .spectrum import (
    enumerate_A,
    enumerate_X,
    enumerate_Y,
    gap_report,
    min_positive_bfs,
)
from .witness import accumulation_verdict, build_witness

PHI_POLY = IntPolynomial([-1, -1, 1])
SQRT2_POLY = IntPolynomial([-2, 0, 1])
P1_POLY = IntPolynomial([-1, -1, 0, 1])
P2_POLY = IntPolynomial([-1, 0, 0, -1, 1])
SQRT_P2_POLY = IntPolynomial([-1, 0, 0, 0, 0, 0, -1, 0, 1])
CBRT2_POLY = IntPolynomial([-2, 0, 0, 1])
QUARTIC_POLY = IntPolynomial([-1, -1, 0, 0, 1])    # q^4 = q + 1


def _base(poly: IntPolynomial) -> AlgebraicNumber:
    return AlgebraicNumber.base_from_poly(poly, root_index=0)


def case_base3_unit_gap() -> dict:
    """Integer bases beyond the digit range have unit minimal gap: the
    search over (0, m/(q-1)] closes immediately with exactly {1}."""
    res = min_positive_bfs(AlgebraicNumber.from_rational(3), 2)
    passed = (res.closed and res.min_positive == 1
              and [v for v, _ in res.closed_states] == [1])
    return {"passed": passed,
            "measured": {"closed": res.closed,
                         "min_positive": res.min_positive,
                         "states": [v for v, _ in res.closed_states or ()]}}


def case_golden_closure() -> dict:
    """Golden-ratio search closes on {phi-1, 1, phi} with exact minimum
    phi - 1 (canonical vector (-1, 1))."""
    res = min_positive_bfs(_base(PHI_POLY), 1)
    vecs = [vec for _, vec in res.closed_states or ()]
    passed = (res.closed and vecs == [(-1, 1), (1, 0), (0, 1)]
              and res.min_positive_vec == (-1, 1)
              and abs(res.min_positive - 0.6180339887498949) < 1e-12)
    return {"passed": passed,
            "measured": {"closed": res.closed, "states": vecs,
                         "min_positive": res.min_positive}}


def _pell_oracle(count: int) -> list[tuple[tuple[int, int], float]]:
    """Convergent pairs p/q of sqrt(2) and the values |p - q sqrt(2)|,
    generated independently of the search engine."""
    out = []
    p, q = 1, 1
    s = math.sqrt(2)
    for _ in range(count):
        out.append(((p, q), abs(p - q * s)))
        p, q = p + 2 * q, p + q
    return out


def case_sqrt2_descent() -> dict:
    """sqrt(2) minimal positive values descend through the Pell convergent
    values sqrt2-1, 3-2sqrt2, 5sqrt2-7, 17-12sqrt2, 29sqrt2-41."""
    res = min_positive_bfs(_base(SQRT2_POLY), 1, max_depth=14)
    # expected exact vectors (a, b) for a + b sqrt2, alternating signs
    oracle = _pell_oracle(5)
    want_vecs = []
    for (p, q), _ in oracle:
        want_vecs.append((-p, q) if (p - q * math.sqrt(2)) < 0 else (p, -q))
    seen = {}
    for rec in res.trace:
        if rec.min_vec is not None and rec.min_vec not in seen:
            seen[rec.min_vec] = (rec.depth, rec.min_value)
    passed = not res.closed
    depths = []
    value_errors = []
    for vec, ((_, _), val) in zip(want_vecs, oracle):
        if vec not in seen:
            passed = False
            continue
        depth, got = seen[vec]
        depths.append(depth)
        value_errors.append(abs(got - val))
        if abs(got - val) > 1e-9:
            passed = False
    if depths != sorted(depths):
        passed = False
    return {"passed": passed,
            "measured": {"depths": depths, "value_errors": value_errors,
                         "vectors": [list(v) for v in want_vecs]}}


def case_classification_suite() -> dict:
    """Smallest Pisot numbers classify as Pisot; sqrt(2), cbrt(2) do not;
    the eighth-degree root ~1.1748 is not Pisot while its square is."""
    checks = []
    checks.append(classify_base(_base(P1_POLY)).tag == "Pisot")
    checks.append(classify_base(_base(P2_POLY)).tag == "Pisot")
    checks.append(classify_base(_base(SQRT2_POLY)).tag
                  == "NotPisot-AlgebraicInteger")
    checks.append(classify_base(_base(CBRT2_POLY)).tag
                  == "NotPisot-AlgebraicInteger")
    q8 = _base(SQRT_P2_POLY)
    checks.append(classify_base(q8).tag == "NotPisot-AlgebraicInteger")
    q8sq = power_base(q8, 2)
    checks.append(q8sq.min_poly == P2_POLY)
    checks.append(classify_base(q8sq).tag == "Pisot")
    checks.append(classify_base(power_base(q8, 3)).tag
                  == "NotPisot-AlgebraicInteger")
    return {"passed": all(checks), "measured": {"checks": checks}}


def case_verdict_corpus() -> dict:
    """Discreteness rule across the corpus; every accumulating base shows a
    minimal-positive trace dropping by a factor >= 5 from depth 4 on."""
    discrete = [(_base(PHI_POLY), 1), (_base(P1_POLY), 1),
                (_base(P2_POLY), 1),
                (AlgebraicNumber.from_rational(2), 1),
                (AlgebraicNumber.from_rational(3), 2)]
    accumulating = [(_base(SQRT2_POLY), 1), (_base(CBRT2_POLY), 1),
                    (_base(SQRT_P2_POLY), 1),
                    (AlgebraicNumber.from_rational(Fraction("1.8")), 1)]
    measured = {}
    passed = True
    for q, m in discrete:
        v = accumulation_verdict(q, m, bfs_depth=10, state_budget=100_000)
        measured[f"{q.min_poly.to_text()}|m={m}"] = v.verdict
        passed &= v.verdict == "Discrete"
    for q, m in accumulating:
        v = accumulation_verdict(q, m, bfs_depth=12, state_budget=100_000)
        key = f"{q.min_poly.to_text()}|m={m}"
        measured[key] = v.verdict
        passed &= v.verdict == "Accumulates"
        trace = v.cross_check["bfs"]["trace"]
        ratio = trace[3] / trace[-1] if trace[-1] > 0 else math.inf
        measured[key + "|drop"] = ratio
        passed &= ratio >= 5
    return {"passed": passed, "measured": measured}


def case_witness_certificates() -> dict:
    """Witness runs at q = 1.8: certified vanishing at q with certified
    non-transfer at p = -1.2, 2i and i."""
    q = AlgebraicNumber.from_rational(Fraction("1.8"))
    measured = {}
    passed = True

    rep = build_witness(q, 1, "-1.2", horizon=60)
    ok = (rep.digits()[0] == -1 and rep.q_certificate["passed"]
          and rep.q_residual[-1] <= 1.8 ** -60 / 0.8 * (1 + 1e-9)
          and rep.certified["re_negative_from_k"])
    member_set = set(rep.members) | set(range(1, rep.k + 1))
    for i in range(1, 61):
        s = rep.digits()[i]
        ok &= (0 <= s <= 1) if i in member_set else (-1 <= s <= 0)
    measured["p=-1.2"] = {"k": rep.k, "q_residual": rep.q_residual[-1],
                          "ok": ok}
    passed &= ok

    rep2 = build_witness(q, 1, "0,2", horizon=60)
    ok2 = (rep2.digits()[0] == -1 and rep2.q_certificate["passed"]
           and rep2.certified["re_negative_from_k"])
    measured["p=2i"] = {"k": rep2.k, "ok": ok2}
    passed &= ok2

    rep3 = build_witness(q, 1, "0,1", horizon=60)
    ok3 = (rep3.distinct_moduli or 0) >= 20
    measured["p=i"] = {"distinct_moduli": rep3.distinct_moduli, "ok": ok3}
    passed &= ok3 and rep3.q_certificate["passed"]
    return {"passed": passed, "measured": measured}


def case_lazy_contract() -> dict:
    """50 seeded random (q, m, pattern): accepted runs satisfy the digit
    constraints and the horizon residual bound; rejections happen exactly
    when the certified capacity upper bound is below one."""
    rng = random.Random(20240811)
    horizon = 80
    runs = 0
    accepted = 0
    rejected = 0
    passed = True
    while runs < 50:
        qf = Fraction(rng.randint(105, 260), 100)
        m = rng.randint(1, 3)
        if not m > qf - 1:
            continue
        runs += 1
        kind = rng.choice(["in", "out"])
        threshold = rng.randint(2, 14)
        explicit = frozenset(i for i in range(1, threshold)
                             if rng.random() < 0.45)
        pattern = SignPattern(explicit, threshold, kind)
        q = AlgebraicNumber.from_rational(qf)
        # independent capacity via exact Fractions
        cap = sum(Fraction(1) / qf**i for i in explicit)
        if kind == "in":
            cap += (Fraction(1) / qf**threshold) * qf / (qf - 1)
        cap *= m
        try:
            seq = lazy_constrained(q, m, pattern, horizon)
        except PreconditionError:
            rejected += 1
            passed &= cap < 1
            continue
        accepted += 1
        passed &= cap >= 1
        for i in range(1, horizon + 1):
            s = seq.digit(i)
            if pattern.contains(i):
                passed &= 0 <= s <= m
            else:
                passed &= -m <= s <= 0
        passed &= verify_expansion(seq, q, 0, horizon).passed
    return {"passed": passed,
            "measured": {"accepted": accepted, "rejected": rejected}}


def case_sidorov_solomyak_window() -> dict:
    """Positive root of q^4 = q + 1 (~1.2207): the largest tail gap of the
    nonnegative-digit window strictly decreases along bounds 10, 30, 90."""
    q = _base(QUARTIC_POLY)
    approx_ok = abs(q.float_value() - 1.2207) < 1e-3
    gaps = [gap_report(enumerate_X(q, 1, B)).max_gap_tail
            for B in (10, 30, 90)]
    passed = approx_ok and all(a > b for a, b in zip(gaps, gaps[1:]))
    return {"passed": passed,
            "measured": {"root": q.float_value(), "tail_gaps": gaps}}


def case_pm_one_density() -> dict:
    """Signed unit-digit values at q = 1.35 fill [-2, 2] more densely as the
    degree grows: the covering radius strictly decreases from 7 to 14."""
    q = AlgebraicNumber.from_rational(Fraction("1.35"))
    radii = []
    for n in range(7, 15):
        w = enumerate_A(q, n, 2)
        radii.append(w.covering_radius)
    passed = all(a > b for a, b in zip(radii, radii[1:]))
    return {"passed": passed, "measured": {"radii": radii}}


def _brute_vectors(q: AlgebraicNumber, alphabet, degree: int):
    ctx = q.zq_context()
    out = set()
    for digits in itertools.product(alphabet, repeat=degree + 1):
        out.add(ctx.from_digits(digits))
    return out


def case_oracle_equivalence() -> dict:
    """Window enumeration and the minimal-positive search agree with naive
    brute force over all digit strings (exact vector equality), 20 cases."""
    bases = [
        (_base(PHI_POLY), 1), (_base(SQRT2_POLY), 1),
        (_base(P1_POLY), 1), (AlgebraicNumber.from_rational(2), 2),
        (AlgebraicNumber.from_rational(3), 2),
        (_base(IntPolynomial([-3, 0, 1])), 1),   # sqrt(3)
        (_base(P2_POLY), 1),
    ]
    checks = []
    for q, m in bases:
        ctx = q.zq_context()        # monic: its vectors need no scale
        qf = q.float_value()
        degree = 5 if m > 1 else 6
        B = Fraction(4)

        # X: brute force nonneg digits, value in [0, B]
        brute = set()
        for digits in itertools.product(range(m + 1), repeat=degree + 1):
            vec = ctx.from_digits(digits)
            if ctx.cmp_fraction(vec, B) <= 0:
                brute.add(vec)
        win = enumerate_X(q, m, B)
        # every value up to B has degree <= log_q B <= the brute-force cap
        # for these bases, so the sets must agree exactly
        got = set(win.vecs)
        checks.append(got == brute)

        # Y: degree-truncated window vs brute force
        n = 4 if m > 1 else 5
        By = Fraction(3)
        brute_y = set()
        for digits in itertools.product(range(-m, m + 1), repeat=n + 1):
            vec = ctx.from_digits(digits)
            if (ctx.cmp_fraction(vec, By) <= 0
                    and ctx.cmp_fraction(vec, -By) >= 0):
                brute_y.add(vec)
        wy = enumerate_Y(q, m, n, By)
        checks.append(set(wy.vecs) == brute_y)

        # minimal positive at depth 5 vs brute force over strings deg <= 4
        res = min_positive_bfs(q, m, max_depth=5)
        best = None
        for vec in _brute_vectors(q, range(-m, m + 1), 4):
            if ctx.sign(vec) <= 0:
                continue
            if ctx.cmp_tail(vec, m) > 0:
                continue
            if best is None or ctx.sign(_axpy(vec, -1, best)) < 0:
                best = vec
        got_min = res.trace[4].min_vec if len(res.trace) > 4 else \
            res.trace[-1].min_vec
        checks.append(best == got_min)
    return {"passed": all(checks),
            "measured": {"checks": checks, "cases": len(checks)}}


def case_sqrt_p2_power_chain() -> dict:
    """The eighth-degree root q ~ 1.1748 is not Pisot, q^2 is, q^3 is not;
    and its nonnegative-digit window tail gaps keep decreasing."""
    q = _base(SQRT_P2_POLY)
    c1 = classify_base(q).tag == "NotPisot-AlgebraicInteger"
    c2 = classify_base(power_base(q, 2)).tag == "Pisot"
    c3 = classify_base(power_base(q, 3)).tag == "NotPisot-AlgebraicInteger"
    gaps = [gap_report(enumerate_X(q, 1, B)).max_gap_tail
            for B in (6, 12, 24)]
    falling = all(a > b for a, b in zip(gaps, gaps[1:]))
    return {"passed": c1 and c2 and c3 and falling,
            "measured": {"not_pisot": c1, "square_pisot": c2,
                         "cube_not_pisot": c3, "tail_gaps": gaps}}


class ReproduceCase(namedtuple("ReproduceCase",
                               "case_id runner time_limit_s")):
    """``runner()`` returns {"passed": ..., "measured": ...}; its docstring
    is the case's description."""
    __slots__ = ()


CASES: tuple[ReproduceCase, ...] = (
    ReproduceCase("base3-unit-gap", case_base3_unit_gap, 1.0),
    ReproduceCase("golden-closure", case_golden_closure, 1.0),
    ReproduceCase("sqrt2-descent", case_sqrt2_descent, 10.0),
    ReproduceCase("classification-suite", case_classification_suite, 8.0),
    ReproduceCase("verdict-corpus", case_verdict_corpus, 60.0),
    ReproduceCase("witness-certificates", case_witness_certificates, 5.0),
    ReproduceCase("lazy-contract", case_lazy_contract, 10.0),
    ReproduceCase("sidorov-solomyak-window", case_sidorov_solomyak_window,
                  30.0),
    ReproduceCase("pm-one-density", case_pm_one_density, 10.0),
    ReproduceCase("oracle-equivalence", case_oracle_equivalence, 30.0),
    ReproduceCase("sqrt-p2-power-chain", case_sqrt_p2_power_chain, 30.0),
)


def case_ids() -> list[str]:
    return [c.case_id for c in CASES]


def run_case(case: ReproduceCase) -> dict:
    t0 = time.perf_counter()
    try:
        out = case.runner()
    except Exception as exc:   # budget/precision problems reported per case
        out = {"passed": False, "measured": {"error": repr(exc)}}
    dt = time.perf_counter() - t0
    return {"case": case.case_id,
            "description": " ".join(case.runner.__doc__.split()),
            "passed": bool(out["passed"]),
            "measured": out["measured"],
            "runtime_s": round(dt, 3),
            "time_limit_s": case.time_limit_s,
            "within_time": dt <= case.time_limit_s}


def run_cases(which: str = "all") -> list[dict]:
    selected = [c for c in CASES if which in ("all", c.case_id)]
    if not selected:
        raise PreconditionError(
            f"unknown case {which!r}; known: {', '.join(case_ids())}")
    return sorted(map(run_case, selected), key=lambda r: r["case"])
