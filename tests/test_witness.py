"""Witness construction and verdict tests.

Oracles: geometric series identities for the direction-vector partial sums,
direct evaluation of forced-prefix capacities, and brute-force checks of the
digit constraints.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from qspectra import cli
from qspectra.algebraic import AlgebraicNumber
from qspectra.errors import PrecisionExhaustedError, PreconditionError
from qspectra.expansions import SignPattern, _Corridor
from qspectra.intpoly import IntPolynomial
from qspectra.serialize import canonical_json
from qspectra.witness import (
    _chain_bound,
    _first_maximal_partial_sum,
    _over_int,
    _p_traces,
    _Powers,
    _re_sums,
    accumulation_verdict,
    as_gaussian,
    build_P_and_k,
    build_witness,
    choose_w,
    parse_complex,
)

PHI_POLY = IntPolynomial([-1, -1, 1])
SQRT2_POLY = IntPolynomial([-2, 0, 1])
PLASTIC_POLY = IntPolynomial([-1, -1, 0, 1])


def phi():
    return AlgebraicNumber.base_from_poly(PHI_POLY, root_index=0)


def plastic():
    return AlgebraicNumber.base_from_poly(PLASTIC_POLY, root_index=0)


def q18():
    return AlgebraicNumber.from_rational(Fraction("1.8"))


def digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


# -- parsing / direction -----------------------------------------------------


def test_parse_complex():
    assert parse_complex("-1.2") == (Fraction(-6, 5), 0)
    assert parse_complex("0,2") == (0, 2)
    assert parse_complex("0.5,-0.25") == (Fraction(1, 2), Fraction(-1, 4))
    with pytest.raises(PreconditionError):
        parse_complex("fish")


def test_as_gaussian_takes_exactly_a_pair():
    assert as_gaussian([0, 2]) == as_gaussian((0, 2)) == (0, 2)
    assert as_gaussian(-1.25) == (Fraction(-5, 4), 0)
    assert as_gaussian(0.5 + 2j) == (Fraction(1, 2), 2)
    for bad in ((1, 2, 3), (0,), None, [0, "1/0"], [float("inf"), 0]):
        with pytest.raises(PreconditionError):
            as_gaussian(bad)
    with pytest.raises(PreconditionError):
        build_witness(q18(), 1, (1, 2, 3), horizon=40)


def test_choose_w_negative_real():
    # p = -2: w = 1-p = 3 (scaled w=1); partial sums sum (-1/2)^i stay in
    # [-1/2, -1/4] <= 0 (geometric series oracle)
    d = choose_w("-2", 1)
    assert d.case == "a"
    w = d.w_unit()
    assert abs(w - 1) < 1e-12
    p = -2.0
    acc = 0.0
    for k in range(1, 60):
        acc += (w * p**-k).real
        assert acc <= 1e-15
        assert -0.5 - 1e-12 <= acc <= -0.25 + 1e-12


def test_choose_w_2i_case_a():
    d = choose_w("0,2", 1)
    assert d.case == "a"
    w = d.w_unit()
    want = (1 - 2j) / abs(1 - 2j)
    assert abs(w - want) < 1e-12
    assert w.real > 0
    assert abs(w.real - 1 / math.sqrt(5)) < 1e-12


def test_choose_w_i_rational_angle():
    d = choose_w("0,1", 1)
    assert d.case == "b-rational"
    assert d.period == 4
    w = d.w_unit()
    want = (1 - 1j) / abs(1 - 1j)
    # "near (1-i)/sqrt(2)": unperturbed or a tiny power-of-two rotation
    assert abs(w - want) < 0.1
    # period-wise requirements, float oracle
    for i in range(4):
        assert abs((w * 1j**-i).real) > 1e-9
    acc = 0.0
    for k in range(1, 5):
        acc += (w * 1j**-k).real
        assert acc < w.real


def test_choose_w_shift_case():
    # Re p >= 1, nonreal, |p| > 1: the shifted construction
    d = choose_w("1.5,0.5", 1)
    assert d.case == "a-shift"
    assert d.shift_n is not None and d.shift_n >= 0
    w = d.w_unit()
    assert w.real > 0
    p = complex(1.5, 0.5)
    acc = 0.0
    for k in range(1, 200):
        acc += (w * p**-k).real
        assert acc <= 1e-12


def test_choose_w_direction_validity_random():
    # 100 random companion points with |p| in [1, 3], never positive real:
    # Re w > 0 and nonpositive partial sums up to the horizon
    rng = random.Random(7)
    count = 0
    while count < 100:
        re = Fraction(rng.randint(-300, 300), 100)
        im = Fraction(rng.randint(-300, 300), 100)
        a2 = re * re + im * im
        if a2 < 1 or a2 > 9 or (im == 0 and re >= 0):
            continue
        count += 1
        d = choose_w((re, im), 1)
        w = d.w_unit()
        assert w.real > 0
        p = complex(float(re), float(im))
        if d.case in ("a", "a-shift"):
            acc = 0.0
            for k in range(1, 120):
                acc += (w * p**-k).real
                assert acc <= 1e-9


def test_choose_w_rejections():
    for bad in ("1", "0.5", "2", "0.1,0.2"):
        with pytest.raises(PreconditionError):
            choose_w(bad, 1)


# -- P' and k ----------------------------------------------------------------


def test_build_P_and_k_odd_membership():
    # q=1.8, m=1, p=-2, w=1: P' = odd indices; k small (direct sums oracle)
    q = q18()
    d = choose_w("-2", 1)
    pattern, k, members = build_P_and_k(q, 1, "-2", d.w0, 60)
    assert members[:5] == [1, 3, 5, 7, 9]
    # oracle: capacity(k) = sum_{i<=k} 1.8^-i + sum_{odd i>k} 1.8^-i
    def cap(kk):
        c = sum(1.8**-i for i in range(1, kk + 1))
        c += sum(1.8**-i for i in range(kk + 1, 400) if i % 2 == 1)
        return c
    assert cap(k) >= 1 - 1e-12
    assert k == 0 or cap(k - 1) < 1
    assert k <= 2


def test_build_P_and_k_k0_when_capacity_rich():
    # q = 1.1: odd-index capacity alone ~ 5.24 >= 1, so k = 0
    q = AlgebraicNumber.from_rational(Fraction("1.1"))
    d = choose_w("-2", 1)
    pattern, k, members = build_P_and_k(q, 1, "-2", d.w0, 60)
    assert k == 0


def _members_oracle(p, w, horizon: int) -> list[int]:
    """P' = {i <= horizon : Re(w p^-i) <= 0}, with p^-i in Fractions."""
    (pr, pi), (wr, wi) = p, w
    n = pr * pr + pi * pi
    inv, z, members = (pr / n, -pi / n), (Fraction(1), Fraction(0)), []
    for i in range(1, horizon + 1):
        z = (z[0] * inv[0] - z[1] * inv[1], z[0] * inv[1] + z[1] * inv[0])
        if wr * z[0] - wi * z[1] <= 0:
            members.append(i)
    return members


def _truncated_k_oracle(q: Fraction, m: int, p, horizon: int):
    """P' = {i <= horizon : Re((1 - p) p^-i) <= 0} and the least k whose
    truncated capacity m sum_{i <= horizon, i <= k or i in P'} q^-i reaches
    1, with the capacity of k - 1 below 1 even with the full tail
    m q^-horizon / (q - 1) added: all in Fractions."""
    members = _members_oracle(p, (1 - p[0], -p[1]), horizon)

    def lower(k):
        return sum(m * q ** -i for i in range(1, horizon + 1)
                   if i <= k or i in members)

    k = next(k for k in range(horizon + 1) if lower(k) >= 1)
    assert k == 0 or lower(k - 1) + m * q ** -horizon / (q - 1) < 1
    return members, k


def test_build_P_and_k_aperiodic_matches_the_fraction_oracle():
    # p = 2i is neither real nor a root of unity, so its k is decided by
    # the truncated bounds, not by an exact periodic tail
    q, p = q18(), as_gaussian("0,2")
    members, k = _truncated_k_oracle(Fraction(9, 5), 1, p, 60)
    assert k == 3
    pattern, got_k, got_members = build_P_and_k(q, 1, p, choose_w(p, 1).w0, 60)
    assert (got_k, got_members) == (k, members)
    assert pattern == SignPattern.from_membership(
        set(members) | {1, 2, 3}, 60)


def _periodic_k_oracle(q: Fraction, m: int, members: list[int], t: int,
                       horizon: int) -> int:
    """The least k whose capacity m sum_{i in P' u {1..k}} q^-i reaches 1,
    for P' periodic with period t: the indices up to the horizon summed
    one by one, and each class of P' past it as the geometric series
    q^-j / (1 - q^-t) from its first index j > horizon.  All in
    Fractions."""
    classes = {i % t for i in members}
    firsts = [horizon + 1 + (r - horizon - 1) % t for r in classes]
    tail = sum(q ** -j for j in firsts) / (1 - q ** -t)

    def cap(k):
        return m * (tail + sum(q ** -i for i in range(1, horizon + 1)
                               if i <= k or i in members))

    return next(k for k in range(horizon + 1) if cap(k) >= 1)


@pytest.mark.parametrize("qtext", ["1.8", "1.35"])
@pytest.mark.parametrize("ptext,t", [("-1.2", 2), ("-2", 2), ("0,1", 4)])
def test_build_P_and_k_periodic_matches_the_geometric_oracle(qtext, ptext,
                                                             t):
    # p real or a root of unity: P' repeats with period t, so the capacity
    # of each forced pattern is exact, its tail a geometric series
    q, p = Fraction(qtext), as_gaussian(ptext)
    w0 = choose_w(p, 1).w0
    members = _members_oracle(p, w0, 60)
    assert all((i + t in members) == (i in members) for i in range(1, 61 - t))
    k = _periodic_k_oracle(q, 1, members, t, 60)
    pattern, got_k, got_members = build_P_and_k(
        AlgebraicNumber.from_rational(q), 1, p, w0, 60)
    assert (got_k, got_members) == (k, members)
    assert pattern == SignPattern.from_membership(
        set(members) | set(range(1, k + 1)), 60)


# each error path of the forced prefix: the message, and exit 4 from the CLI
FORCED_PREFIX_ERRORS = [
    ("1.999", "-1.2", "capacity never reached 1 within the horizon"),
    ("1.999", "0,2", "capacity never reached 1 within the horizon"),
    ("1.71", "0.5,1.5", "minimality of k undecidable at this horizon"),
]


@pytest.mark.parametrize("qtext,ptext,message", FORCED_PREFIX_ERRORS)
def test_forced_prefix_errors_are_inconclusive(qtext, ptext, message,
                                               capsys):
    q = AlgebraicNumber.from_rational(Fraction(qtext))
    with pytest.raises(PrecisionExhaustedError) as info:
        build_witness(q, 1, ptext, 8)
    assert str(info.value) == f"{message}; extend it"
    assert cli.main(["witness", "--base", qtext, "--m", "1", "--p", ptext,
                     "--horizon", "8"]) == 4
    assert capsys.readouterr().err == f"inconclusive: {message}; extend it\n"


def test_build_P_and_k_decides_capacity_exactly_one():
    # on phi the odd indices have capacity sum_{i odd} phi^-i = 1 exactly:
    # the exact walk over the two classes gives k = 0, while the corridor's
    # truncated bounds at horizon 60 certify neither side of 1
    pattern, k, members = build_P_and_k(phi(), 1, "-1.2",
                                        choose_w("-1.2", 1).w0, 60)
    assert k == 0 and members == list(range(1, 61, 2))
    odd = SignPattern.from_membership(members, 60)
    assert pattern == odd
    assert _Corridor(phi(), 1, odd, 60).capacity_bounds() == (False, False)


def test_build_P_and_k_requires_window():
    with pytest.raises(PreconditionError):
        build_P_and_k(AlgebraicNumber.from_rational(3), 1, "-2",
                      as_gaussian("3"), 40)


# -- witnesses ----------------------------------------------------------------


def test_witness_step3_q18_pminus12():
    rep = build_witness(q18(), 1, "-1.2", horizon=60)
    assert rep.step == 3
    assert rep.digits()[0] == -1
    # q-residual at the horizon under the tail bound
    assert rep.q_certificate["passed"]
    assert rep.q_residual[-1] <= 1.8**-60 / 0.8 * (1 + 1e-9)
    # certified negative real parts from k on
    assert rep.certified["re_negative_from_k"]
    assert rep.certified["chain_bound_negative"]
    assert all(x < 0 for x in rep.p_re_trace[rep.k:])


def test_witness_step3_digit_structure():
    rep = build_witness(q18(), 1, "-1.2", horizon=60)
    k = rep.k
    digits = rep.digits()
    for j in range(1, k):
        assert digits[j] == 1
    if k > 0:
        assert 1 <= digits[k] <= 1


def test_witness_eq32_compliance():
    rep = build_witness(q18(), 1, "-1.2", horizon=60)
    member_set = set(rep.members) | set(range(1, rep.k + 1))
    digits = rep.digits()
    for i in range(1, 61):
        if i in member_set:
            assert 0 <= digits[i] <= 1
        else:
            assert -1 <= digits[i] <= 0


def test_witness_2i_and_i():
    rep = build_witness(q18(), 1, "0,2", horizon=60)
    assert rep.step == 3
    assert rep.certified["re_negative_from_k"]
    rep_i = build_witness(q18(), 1, "0,1", horizon=60)
    assert rep_i.step == 4
    if rep_i.distinct_moduli is not None:
        assert rep_i.distinct_moduli >= 20
    else:
        assert rep_i.p_re_trace[-1] < -3


def test_witness_step1_real_p():
    rep = build_witness(q18(), 1, "1.3", horizon=60)
    assert rep.step == 1
    assert rep.certified["nonzero"]
    assert rep.q_certificate["passed"]


def test_witness_step2_phi():
    rep = build_witness(phi(), 1, "1", horizon=40)
    assert rep.step == 2
    assert rep.sequence.period == (-1, 1, 1)
    assert rep.certified["digit_sum_per_period"] == 1
    # linear divergence of the digit sums
    assert rep.p_re_trace[-1] >= 40 / 3 - 2


def test_witness_step4_finite_support_replication():
    # phi with p=i: digits (-1,1,1) terminate; replication at multiples of 4
    rep = build_witness(phi(), 1, "0,1", horizon=40)
    assert rep.step == 4
    assert rep.verdict == "divergent-real-part"
    shifts = rep.certified["shifts"]
    assert shifts[0] == 0 and all(s % 4 == 0 for s in shifts)
    assert all(b - a > 2 for a, b in zip(shifts, shifts[1:]))
    assert rep.certified["block_sums_below_half"]
    assert rep.p_re_trace[-1] < -10
    # q-value of the replicated sequence still vanishes
    assert rep.q_certificate["passed"]


def test_witness_q_residual_tail_bound_every_N():
    rep = build_witness(q18(), 1, "-1.2", horizon=50)
    qf = 1.8
    for N, r in enumerate(rep.q_residual):
        assert r <= 1 * qf ** -N / (qf - 1) * (1 + 1e-9)


def test_witness_rejects_bad_p():
    with pytest.raises(PreconditionError):
        build_witness(q18(), 1, "0.5", horizon=40)
    with pytest.raises(PreconditionError):
        build_witness(q18(), 1, "1.8", horizon=40)   # p == q
    with pytest.raises(PreconditionError):
        build_witness(AlgebraicNumber.from_rational(3), 1, "-2", horizon=40)


# -- pinned reports ---------------------------------------------------------

BASES = {"phi": phi, "plastic": plastic, "q18": q18}

# sha256 of canonical_json(build_witness(q, 1, p, horizon).to_dict()): every
# step, real p > 1 (-1.2 is step 3), p = 1, |p| > 1 with Re p < 1, the
# shift case (1.5,0.5 and 1,1), the roots of unity and the irrational
# unit-circle point (3+4i)/5, floats included
WITNESS_DIGESTS = [
    ("phi", "-1.2", 60, "1c2ce0bbcc416b3a383e9214db7bc1981461fd47956a40401c530f717f4edbc2"),
    ("phi", "3", 60, "f1ddc536e5705dfe82b0bae6856afbe96235ae50dd429aa18ed5cdab3f538928"),
    ("phi", "1", 60, "6563daf6751f1d99703c640d9354fed213d0c59390559baac02ee330e5ca7af0"),
    ("phi", "0,2", 60, "765babbabc72574a627b1d2fd44bf5e419ce71a4286de2abbc06d0a0674fdcb9"),
    ("phi", "0,1", 60, "17bc061f9ab6f2bcd4cb7e3bf5a469107ebd25c1e71b334f304623d5732da988"),
    ("phi", "0,-1", 60, "53c06cad07d719a0cf3fdc92dab476b379b8024fbf963c619a03a9529a3b9de7"),
    ("phi", "-1", 60, "2d8bfee40b469d968527b309cb56a0163d4b6b1e100755fdc9ebddbaf80fa14b"),
    ("phi", "1.5,0.5", 60, "78e99873fceb41954d29f7e1b4f62420555b1e260a6a3edda3b300efbcdeb447"),
    ("phi", "1,1", 60, "145f631fd6de4aafff0a4094e415fff11b8dabe4281441f694ee59da66bcb74a"),
    ("phi", "0.6,0.8", 20, "1dd5e2966c450e2f1e42bbe51b9e41d9ece93724e6c56155f8d216199be924a3"),
    ("plastic", "-1.2", 60, "627316013969a7ad6348b0b6e38bffae03f68603a0139980958da1e4321f6930"),
    ("plastic", "3", 60, "7c9d2c162eb9a0f5b1f0651cbd07f7d278e31138ee186396c58ed6af7c513fb2"),
    ("plastic", "1", 60, "60cc59ea29a46463de7861a8e1ffa56538830a9625d0c6b823f19b3df4c180e3"),
    ("plastic", "0,2", 60, "4b2f8857252f95d6a3578ac15c423644505ffd835d23ee4bb17bef6ca6bd07f9"),
    ("plastic", "0,1", 60, "fdc4821ae0e349662187dcb8e4e021cccbff5506d2c80ab081a507ff34035c17"),
    ("plastic", "0,-1", 60, "cd81a80bfc6dd1bf8e2dfe8ef0ae971aeefa8e6fad4c8a7e5b3e54a1280b6f71"),
    ("plastic", "-1", 60, "d64902c0ae1da312dc3433eb022227a3b911f7b5fdd64f78ca8f4c94ddee8574"),
    ("plastic", "1.5,0.5", 60, "3e0e45d83a5b7b7218a886809f91110181f3148f1a422d8532ca274b29262b8c"),
    ("plastic", "1,1", 60, "5f5ca35a118ffe3e2dfd53d15a4b7316f1770862f31449621398499cf42a783d"),
    ("plastic", "0.6,0.8", 20, "dd395af7569d520c0551255336e2635d27056d34207567da4d3dea3190974e03"),
    ("q18", "-1.2", 60, "12020666abb721290374a22ab8d5f1936bac1c62758d9a6a386c3fcf8cc6840d"),
    ("q18", "3", 60, "95b19c9a30322dd69659bdfc2016a20304d7e22a52f844a7e145e0ab6d883506"),
    ("q18", "1", 60, "47d1701ddb44434e5845b38d67e295dcae0f7143f77296fccbbf501a0c08d621"),
    ("q18", "0,2", 60, "7cb3017e04828f33bb918879abb56989955ba9bb722cc904d9126b404d1936ab"),
    ("q18", "0,1", 60, "61ace4fe7995948d474aefe6ed7566f849b9f108a97e76f009d0c9646c101733"),
    ("q18", "0,-1", 60, "30abe2a07cdc0ce0586308507136d52240a5ab7e8dae4a5403c9d7d686155a9e"),
    ("q18", "-1", 60, "47017f7d7332a9b25b8209ec8696b082cdaca10319e10c0bdbcfabb9b2fe02cc"),
    ("q18", "1.5,0.5", 60, "61d7b0eabc2e3b0fbd570d015e7d0ca98b15a239c8eeb7953eb9e65127cfa484"),
    ("q18", "1,1", 60, "6bc998c39605668777995c16ca5e2fca58dbb39d6004f0319d1264352d57e9df"),
    ("q18", "0.6,0.8", 20, "394de834c81517a42724ae4dbec9dc73afc5942b26644b4bb2564d76cebe508f"),
]


@pytest.mark.parametrize("base, p, horizon, want", WITNESS_DIGESTS)
def test_witness_report_is_pinned(base, p, horizon, want):
    assert digest(build_witness(BASES[base](), 1, p, horizon).to_dict()) == want


def test_witness_at_an_irrational_unit_circle_point(deadline):
    # p = (3+4i)/5 is on the unit circle but no root of unity, and the
    # plastic number's digits terminate: the block is replicated at shifts
    # r with p^-r ever closer to 1, found among 5,380 indices
    with deadline(3):
        rep = build_witness(plastic(), 1, "0.6,0.8", 40)
    assert rep.certified["shifts"] == [0, 7, 27, 61, 332, 393, 786, 2297,
                                       2690, 5380]
    assert rep.horizon == 5383
    assert rep.certified["block_sums_below_half"]
    assert digest(rep.to_dict()) == (
        "9e3d082215a1dfc5a754f6a8f5ceef346ab060ca01a919e9a7800034fff5b22f")


def test_a_shift_search_that_stops_short_says_so(tmp_path):
    # the search for shifts stops at r = 100,000: at H = 60 the block of 4
    # digits wants 15 shifts and gets 14, so the report says so and the
    # CLI exits 3; at H = 40 it gets all 10 it wants, and the report
    # carries no flag (its digest is pinned above)
    rep = build_witness(plastic(), 1, "0.6,0.8", 60)
    assert len(rep.certified["shifts"]) == 14
    assert rep.certified["schedule_truncated"] == {"shifts": 14,
                                                   "wanted": 15}
    full = build_witness(plastic(), 1, "0.6,0.8", 40)
    assert len(full.certified["shifts"]) == 10
    assert "schedule_truncated" not in full.certified
    args = ["witness", "--poly", "-1,-1,0,1", "--m", "1", "--p", "0.6,0.8",
            "--out", str(tmp_path / "w.json"), "--horizon"]
    assert cli.main(args + ["60"]) == 3
    assert cli.main(args + ["40"]) == 0


def _count_fractions(monkeypatch, call):
    """Fractions created while call() runs, each as the (file, function,
    line) of its nearest caller outside the fractions module."""
    created = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_filename.endswith("fractions.py"):
            frame = frame.f_back
        code = frame.f_code
        created.append((code.co_filename.rpartition("/")[2], code.co_name,
                        frame.f_lineno))
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    try:
        call()
    finally:
        monkeypatch.undo()
    return created


def test_per_index_witness_loops_create_no_fraction(monkeypatch):
    """The loops over indices run on Gaussian integers: partial sums, the
    first maximal partial sum, the chain bound, the traces with their
    moduli, and the powers streamed and jumped past the table."""
    circle = build_witness(plastic(), 1, "0.6,0.8", 40)
    cases = []
    for p, rep in (("0.6,0.8", circle),
                   ("-1.2", build_witness(q18(), 1, "-1.2", 60)),
                   ("0,1", build_witness(q18(), 1, "0,1", 60))):
        cases.append((_Powers(as_gaussian(p), 60),
                      _over_int(rep.direction.w0), rep))
    pw_shift = _Powers(as_gaussian("1.5,0.5"), 60)
    (gr, gi), M = pw_shift.G, pw_shift.M
    seed = (-gi, gr - M)       # -(1 - p^-1) i, as choose_w seeds it
    assert seed[0] > 0
    shift_n = choose_w("1.5,0.5", 1).shift_n

    def loops():
        for pw, w, rep in cases:
            list(_re_sums(pw, w[0], 300))
            _chain_bound(w, pw, 1, 50)
            _p_traces(rep.sequence, w, pw, rep.horizon, moduli=True)
            pw.at(10_000)
        assert _first_maximal_partial_sum(seed, pw_shift) == shift_n

    assert _count_fractions(monkeypatch, loops) == []


@pytest.mark.parametrize("base, p", [("q18", "-1.2"), ("phi", "0,2"),
                                     ("plastic", "1.5,0.5"),
                                     ("q18", "0,1"), ("plastic", "0,-1"),
                                     ("plastic", "0.6,0.8")])
def test_witness_fractions_do_not_grow_with_the_horizon(monkeypatch, base, p):
    # the Fractions built in witness.py are set-up (the boundary pairs of p
    # and w0), the same at any horizon
    def made_here(horizon):
        q = BASES[base]()
        made = _count_fractions(
            monkeypatch, lambda: build_witness(q, 1, p, horizon))
        return sorted(c for c in made if c[0] == "witness.py")

    assert made_here(24) == made_here(48) != []


# -- verdicts -----------------------------------------------------------------


def test_verdict_examples():
    assert accumulation_verdict(phi(), 1).verdict == "Discrete"
    assert accumulation_verdict(phi(), 1).reason == "Pisot"
    sqrt2 = AlgebraicNumber.base_from_poly(SQRT2_POLY, root_index=0)
    v = accumulation_verdict(sqrt2, 1)
    assert v.verdict == "Accumulates"
    v3 = accumulation_verdict(AlgebraicNumber.from_rational(3), 2)
    assert v3.verdict == "Discrete" and v3.reason == "q>=m+1"


def test_verdict_cross_checks():
    v = accumulation_verdict(phi(), 1)
    assert v.cross_check["bfs"]["closed"]
    v3 = accumulation_verdict(AlgebraicNumber.from_rational(3), 2)
    assert v3.cross_check["bfs"]["min_positive"] == 1
    # q = 3 = m+1 exactly: growth bound does not apply, closure does
    assert v3.cross_check["devries"]["applies"] is False
    v4 = accumulation_verdict(AlgebraicNumber.from_rational(4), 2)
    assert v4.cross_check["devries"]["applies"] is True
    sqrt2 = AlgebraicNumber.base_from_poly(SQRT2_POLY, root_index=0)
    va = accumulation_verdict(sqrt2, 1)
    trace = va.cross_check["bfs"]["trace"]
    assert trace[-1] < trace[3] / 5


def test_verdict_rational_nonintegers_accumulate():
    v = accumulation_verdict(AlgebraicNumber.from_rational(Fraction("1.8")), 1)
    assert v.verdict == "Accumulates"
    assert v.classification == "NotAlgebraicInteger"
