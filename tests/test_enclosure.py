"""Carried float enclosures of the exact Z[q] search states.

The engines give every state a float f and every level one radius R with
|value - f| <= R, and decide signs, window tests, the window clip and the
window order from [f - R, f + R].  These tests check that bound against
exact values along random and near-cancelling digit strings, and check the
engines against references that make every decision through the exact
kernel.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from array import array
from fractions import Fraction
from functools import cmp_to_key

import pytest

from qspectra import spectrum
from qspectra.algebraic import AlgebraicNumber, ZqContext, _axpy
from qspectra.config import DEFAULT_STATE_BUDGET
from qspectra.intpoly import IntPolynomial
from qspectra.reproduce import case_oracle_equivalence
from qspectra.serialize import canonical_json, window_point_texts
from qspectra.spectrum import (
    BfsDepthRecord,
    MODEL_WIDTH,
    BfsResult,
    SpectrumWindow,
    _PackedZq,
    _child_radius,
    _float_enclosure,
    _sort_order,
    enumerate_A,
    enumerate_X,
    enumerate_Y,
    gap_report,
    min_positive_bfs,
)

POLYS = {
    "q8": [-1, 0, 0, 0, 0, 0, -1, 0, 1],    # x^8 - x^6 - 1, q ~ 1.1749
    "q3": [-1, -1, 0, 1],                   # x^3 - x - 1,   q ~ 1.3247
    "phi": [-1, -1, 1],
    "sqrt2": [-2, 0, 1],
    "quartic": [-1, -1, 0, 0, 1],           # x^4 - x - 1,   q ~ 1.2207
    "q4": [-1, 0, 0, -1, 1],                # x^4 - x^3 - 1, q ~ 1.3803
    # (x - 1)(x - 2^40) + 1, q ~ 1 + 2^-40
    "near1": [2**40 + 1, -(2**40 + 1), 1],
    "far": [-1, -2**40, 1],                 # q ~ 2^40
    "nonmonic": [-1, -2, 2],                # 2x^2 - 2x - 1, q ~ 1.366
}


def base(key) -> AlgebraicNumber:
    """A fresh base, so no test sees another's refinement: a rational for
    an int or a text such as "27/20"."""
    if key not in POLYS:
        return AlgebraicNumber.from_rational(Fraction(key))
    return AlgebraicNumber.base_from_poly(IntPolynomial(POLYS[key]),
                                          root_index=0)


def interval(ctx: ZqContext, vec) -> tuple[Fraction, Fraction]:
    """The exact enclosure of the value of ctx's vector vec on the current
    base interval."""
    lo, hi, den = ctx._bounds(vec)
    return Fraction(lo, den), Fraction(hi, den)


def walk(ctx: ZqContext, model, m: int, top_first):
    """(vector of ctx, carried float, radius) after each digit of a
    top-first string no longer than ctx's depth + 1, as the engines compute
    them for a one-state level."""
    vec, f, r = (0,) * ctx.d, 0.0, 0.0
    out = []
    for s in top_first:
        r = _child_radius(model, r, [f], m)
        f = model[0] * f + s
        vec = ctx.step(vec, s)
        out.append((vec, f, r))
    return out


def digit_strings(q, m, witness_depth, seed):
    """Seeded random strings, and the top-first prefixes of the minimal
    positive witness continued by random digits: the witness cancels to
    the smallest positive value the search finds, so its prefixes are the
    near-cancelling states."""
    rng = random.Random(seed)
    strings = [[rng.randint(-m, m) for _ in range(rng.randint(1, 30))]
               for _ in range(60)]
    res = min_positive_bfs(q, m, witness_depth)
    top_first = list(reversed(res.min_witness))
    for k in range(1, len(top_first) + 1):
        strings.append(top_first[:k])
        strings.append(top_first[:k] + [rng.randint(-m, m)
                                        for _ in range(rng.randint(1, 12))])
    return strings


@pytest.mark.parametrize("key,m,witness_depth", [
    ("q8", 1, 12), ("q3", 2, 60), ("phi", 1, 24), (3, 2, 10),
    ("27/20", 1, 14), ("nonmonic", 1, 14)])
def test_enclosure_contains_exact_value_and_decides_signs(
        deadline, key, m, witness_depth):
    with deadline(60):
        q = base(key)
        strings = digit_strings(q, m, witness_depth, seed=f"enc:{key}")
        ctx = ZqContext(q, max(map(len, strings)))
        q.refine_to_width(MODEL_WIDTH)
        model = _PackedZq(ctx, m).float_model()
        # exact values are read on a much finer interval; the model was
        # taken before, and refinement only shrinks the interval
        q.refine_to_width(Fraction(1, 2**100))
        decided = 0
        for digits in strings:
            for vec, f, r in walk(ctx, model, m, digits):
                lo, hi = interval(ctx, vec)
                assert Fraction(f) - Fraction(r) <= lo
                assert hi <= Fraction(f) + Fraction(r)
                if f > r or f < -r:
                    decided += 1
                    assert ctx.sign(vec) == (1 if f > 0 else -1)
        assert decided > 500


@pytest.mark.parametrize("key,m,digits", [
    (3, 2, [0, 0, 1, -2, 0]),     # zero prefixes of an integer base
    ("phi", 1, [1, -1, -1, 1]),   # phi^2 - phi - 1 = 0
])
def test_zero_children_are_left_to_the_exact_sign(key, m, digits):
    q = base(key)
    ctx = q.zq_context()
    q.refine_to_width(MODEL_WIDTH)
    zeros = 0
    for vec, f, r in walk(ctx, _PackedZq(ctx, m).float_model(), m, digits):
        if not any(vec):
            zeros += 1
            assert -r <= f <= r       # the enclosure cannot decide it
            assert ctx.sign(vec) == 0
    assert zeros >= 1


def test_nonfinite_radius_leaves_every_decision_exact():
    model = _PackedZq(base("q3").zq_context(), 1).float_model()
    assert _child_radius(model, math.inf, [1.0], 1) == math.inf
    assert _child_radius(model, 0.0, [math.inf], 1) == math.inf
    assert _child_radius(_PackedZq(base(3).zq_context(), 2).float_model(),
                         0.0, [math.inf], 2) == math.inf   # dq = 0 for q = 3


def test_float_model_encloses_the_base():
    for key in ("q8", "q3", "phi", 3, "27/20", "nonmonic"):
        q = base(key)
        qf, dq, qabs = _PackedZq(q.zq_context(), 1).float_model()
        lo, hi = q.interval()
        assert Fraction(qf) - Fraction(dq) <= lo <= hi <= (Fraction(qf)
                                                           + Fraction(dq))
        assert Fraction(qabs) >= Fraction(qf) + Fraction(dq)


# -- differential: the engines against an all-exact reference ---------------


def _canonical(top_first):
    digits = tuple(reversed(top_first))
    while len(digits) > 1 and digits[-1] == 0:
        digits = digits[:-1]
    return digits or (0,)


def reference_bfs(q: AlgebraicNumber, m: int, max_depth: int,
                  budget: int = DEFAULT_STATE_BUDGET) -> BfsResult:
    """The smallest-positive search with every sign, window test and
    comparison made by ``ZqContext.sign``.  The budget rule is
    the engine's: expansion stops after the first parent whose children
    push ``seen`` past the budget, and that partial level still offers its
    best."""
    ctx = q.zq_context()
    q.refine_to_width(MODEL_WIDTH)

    def in_upper(v):
        return ctx.sign(_axpy(_axpy(ctx.mul_q(v), -1, v), -m, ctx.one)) <= 0

    def less(a, b):
        return ctx.sign(_axpy(a, -1, b)) < 0

    seen, level, best, trace = {}, [], None, []

    def record(depth, new_level):
        if best is None:
            return BfsDepthRecord(depth, math.inf, None, (), len(seen),
                                  len(new_level))
        return BfsDepthRecord(depth, ctx.float_value(best[0]), best[0],
                              _canonical(best[1]), len(seen), len(new_level))

    for s in range(1, m + 1):
        v = ctx.from_digits([s])
        if ctx.sign(v) > 0 and in_upper(v) and v not in seen:
            seen[v] = (s,)
            level.append((v, (s,)))
            if best is None or less(v, best[0]):
                best = (v, (s,))
    depth, closed, exhausted = 1, False, False
    trace.append(record(depth, level))
    while depth < max_depth:
        nxt = []
        for v, path in level:
            for s in range(-m, m + 1):
                child = ctx.step(v, s)
                sign = ctx.sign(child)
                if sign == 0:
                    continue
                if sign < 0:
                    child = tuple(-x for x in child)
                    cpath = tuple(-x for x in path) + (-s,)
                else:
                    cpath = path + (s,)
                if not in_upper(child) or child in seen:
                    continue
                seen[child] = cpath
                nxt.append((child, cpath))
                if best is None or less(child, best[0]):
                    best = (child, cpath)
            if len(seen) > budget:
                exhausted = True
                break
        if exhausted:
            break
        depth += 1
        trace.append(record(depth, nxt))
        if not nxt:
            closed = True
            break
        level = nxt
    closed_states = None
    if closed:
        closed_states = tuple((ctx.float_value(v), v)
                              for v in sorted(seen, key=ctx.float_value))
    return BfsResult(q, m, tuple(trace), closed, exhausted, closed_states,
                     ctx.float_value(best[0]) if best else None,
                     best[0] if best else None,
                     _canonical(best[1]) if best else None)


def _bfs_case(key, m, depth, budget=None):
    name = f"{key}-{m}-{depth}" + (f"-budget{budget}" if budget else "")
    return pytest.param(key, m, depth, budget or DEFAULT_STATE_BUDGET,
                        id=name)


# the bases of the witness soundness test in test_spectrum.py, an integer
# base, two searches whose carried entry bound passes the packing limit
# and restarts from the level's true maximum (("sqrt2", 2, 24) and the
# closing ("q3", 2, 60)), and three whose budget trips: sqrt 2 after 2 and
# 7 depths, and x^8 - x^6 - 1 after 6, a third of the way into depth 7,
# whose partial level holds a smaller state than depth 6 but not the
# smallest of the full level
BFS_CASES = [_bfs_case(*case) for case in [
    ("phi", 1, 24), ("sqrt2", 1, 12), (3, 2, 10), ("q3", 2, 60),
    ("q8", 1, 10), ("sqrt2", 2, 24), ("q4", 3, 10), ("q8", 1, 12),
    ("sqrt2", 1, 30, 5), ("sqrt2", 1, 30, 37), ("q8", 1, 12, 500)]]


@pytest.mark.parametrize("key,m,depth,budget", BFS_CASES)
def test_min_positive_bfs_matches_the_exact_reference(deadline, key, m,
                                                      depth, budget):
    with deadline(60):
        want = reference_bfs(base(key), m, depth, budget).to_dict()
        got = min_positive_bfs(base(key), m, depth,
                               state_budget=budget).to_dict()
    assert got == want
    assert got["budget_exhausted"] == (budget < DEFAULT_STATE_BUDGET)


@pytest.mark.parametrize("key,m,depth,widths", [
    ("q3", 2, 60, [16]), ("sqrt2", 2, 24, [16, 32]),
    ("near1", 1, 5, [16, 64, 128]), ("far", 1, 4, [16])])
def test_packed_search_repacks_at_a_wider_width(monkeypatch, deadline, key,
                                                m, depth, widths):
    """The carried entry bound E' = E*(1 + max|c_i|) + m passes 2^(W-2)
    mid-search (x^3 - x - 1 closes after it), or at once for coefficients
    of 2^40.  It then restarts from the level's true maximum.  The level,
    the best state and seen are re-packed at a wider W only where the
    entries truly outgrow the width: sqrt 2's pass 2^14 by depth 24, and
    "near1"'s at once; x^3 - x - 1 keeps entries far below 2^14, and "far"
    has no state at all.  The trace, the witnesses and the closed states
    stay those of the tuple reference."""
    seen_widths = []
    set_width = _PackedZq._set_width

    def spy(self, W):
        seen_widths.append(W)
        set_width(self, W)

    monkeypatch.setattr(_PackedZq, "_set_width", spy)
    with deadline(60):
        got = min_positive_bfs(base(key), m, depth).to_dict()
        want = reference_bfs(base(key), m, depth).to_dict()
    assert seen_widths == widths
    assert got == want


def _coarse_model(monkeypatch, q: AlgebraicNumber,
                  shift: Fraction) -> AlgebraicNumber:
    """Give every context of q a valid but coarse float model: qf is off
    by ``shift`` and dq covers it.  The carried floats are then wrong by
    far more than rounding, the radius still bounds the error, and the
    exact fallbacks decide a large share of the children."""
    q.refine_to_width(MODEL_WIDTH)
    qf, dq, _ = _PackedZq(q.zq_context(), 1).float_model()
    off = float(Fraction(qf) + shift)
    dq = _float_enclosure(abs(Fraction(off) - Fraction(qf)) + Fraction(dq))[1]
    coarse = (off, dq, _float_enclosure(Fraction(off) + Fraction(dq))[1])
    model = _PackedZq.float_model
    monkeypatch.setattr(_PackedZq, "float_model", lambda self: (
        coarse if self.ctx.q is q else model(self)))
    return q


@pytest.mark.parametrize("key,m,depth,budget", BFS_CASES)
def test_coarse_enclosures_reach_the_same_result(monkeypatch, deadline, key,
                                                 m, depth, budget):
    with deadline(60):
        want = reference_bfs(base(key), m, depth, budget).to_dict()
        q = _coarse_model(monkeypatch, base(key), Fraction(1, 2**12))
        got = min_positive_bfs(q, m, depth, state_budget=budget).to_dict()
    assert got == want


@pytest.mark.parametrize("key,m,sha256", [
    ("9/5", 1,
     "6d57b3e5215d0a20190d4cf404ba6ce67cf1b3389f6088aef273883552cb9c3f"),
    ("27/20", 1,
     "0c307fbb4116752b9d49fc17722e2157ac21a3bb267d539ed2fe209d87f822d0"),
    # c = 2/(5 - 1) = 1/2 lies below every digit, so depth 1 is empty and
    # the search closes at depth 2
    (5, 2,
     "bd098e88effe59e1028aba66c04c78adad599688283b57490f79fdc78dc8534d")])
def test_searches_keep_their_recorded_results(key, m, sha256):
    """The float kernel's search on two rational bases, and a search whose
    first level is empty, to depth 12: the SHA-256 of the sorted-key JSON
    of the result."""
    res = min_positive_bfs(base(key), m, 12).to_dict()
    text = json.dumps(res, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize("key,depth,exact", [("q8", 10, True),
                                             ("9/5", 12, False)])
def test_each_search_depth_is_one_level_expansion(monkeypatch, key, depth,
                                                  exact):
    """The search grows through the windows' level routine, one call per
    depth, the first included, on the packed and on the float kernel."""
    folds = []
    expand = spectrum._expand_level

    def counting(*args, **kwargs):
        folds.append(kwargs.get("fold"))
        return expand(*args, **kwargs)

    monkeypatch.setattr(spectrum, "_expand_level", counting)
    res = min_positive_bfs(base(key), 1, depth)
    assert not res.closed and not res.budget_exhausted
    assert len(res.trace) == depth
    assert (res.min_positive_vec is not None) == exact
    assert folds == [True] * depth


def _digest(window):
    text = json.dumps([[list(p.vec), list(p.digits)] for p in window.points])
    return len(window.points), hashlib.sha256(text.encode()).hexdigest()


WINDOWS = [  # (name, window of a base factory, point count, SHA-256)
    ("X quartic m1 B80", lambda b: enumerate_X(b("quartic"), 1, 80), 5254,
     "18f02f656c6f217a70e94d747ed74318ee0c203544a03f3047e8ac4cd6115767"),
    ("Y quartic m1 deg9 B3", lambda b: enumerate_Y(b("quartic"), 1, 9, 3),
     777, "5fd1fa65503cb922301ec55bc31cfe54806d7f747f542cd6d294bc07a001f82a"),
    ("X q8 m2 B12", lambda b: enumerate_X(b("q8"), 2, 12), 1966,
     "607f87ecd3bb708c2752f270d01dbe5e9d935ee811173c5131c403ecdb030d05"),
    ("Y q8 m1 deg10 B2", lambda b: enumerate_Y(b("q8"), 1, 10, 2), 10037,
     "9ad0314fa55b6f7a7d381de393543c08ad3d06fbdbbf9681c16164578ef3e621"),
    ("A q8 deg16 B3", lambda b: enumerate_A(b("q8"), 16, 3), 2320,
     "2f4443cefb0fb49e0fb1e026a512cb193ec0822553744c94fe722073eb1473a1"),
]


@pytest.mark.parametrize("name,make,count,sha", WINDOWS)
def test_exact_windows_keep_their_recorded_points(name, make, count, sha):
    # the counts and digests were recorded with every keep test exact
    assert _digest(make(base)) == (count, sha)


@pytest.mark.parametrize("name,make,count,sha", WINDOWS)
def test_coarse_window_tests_keep_the_recorded_points(monkeypatch, name, make,
                                                      count, sha):
    def coarse(key):
        return _coarse_model(monkeypatch, base(key), Fraction(1, 2**16))
    assert _digest(make(coarse)) == (count, sha)


# -- windows: order, display floats and gaps against exact values -----------


ORDER_CASES = [  # (name, window of a base factory, bound)
    ("X quartic", lambda b: enumerate_X(b("quartic"), 1, 40), 40),
    ("X quartic B20", lambda b: enumerate_X(b("quartic"), 1, 20), 20),
    ("Y quartic", lambda b: enumerate_Y(b("quartic"), 1, 9, 3), 3),
    ("A quartic", lambda b: enumerate_A(b("quartic"), 18, 3), 3),
    ("X q8", lambda b: enumerate_X(b("q8"), 2, 8), 8),
    ("Y q8", lambda b: enumerate_Y(b("q8"), 1, 9, 2), 2),
    ("Y q8 deg6", lambda b: enumerate_Y(b("q8"), 1, 6, 2), 2),
    ("A q8", lambda b: enumerate_A(b("q8"), 14, 3), 3),
    ("X phi", lambda b: enumerate_X(b("phi"), 1, 60), 60),
    ("Y phi", lambda b: enumerate_Y(b("phi"), 1, 10, 4), 4),
    ("A phi", lambda b: enumerate_A(b("phi"), 12, 100), 100),
    ("X 2", lambda b: enumerate_X(b(2), 1, 100), 100),
    ("Y 2", lambda b: enumerate_Y(b(2), 1, 8, 40), 40),
    ("A 2", lambda b: enumerate_A(b(2), 8, 50), 50),
    # a rational and a non-monic base: packed values scaled by a^D
    ("X 27/20", lambda b: enumerate_X(b("27/20"), 1, 40), 40),
    ("Y 27/20", lambda b: enumerate_Y(b("27/20"), 1, 8, 2), 2),
    ("A 27/20", lambda b: enumerate_A(b("27/20"), 12, 2), 2),
    ("X nonmonic", lambda b: enumerate_X(b("nonmonic"), 1, 40), 40),
    ("Y nonmonic", lambda b: enumerate_Y(b("nonmonic"), 1, 8, 2), 2),
    ("A nonmonic", lambda b: enumerate_A(b("nonmonic"), 12, 2), 2),
]


def _elements(w) -> list:
    """The window's values by position, as vectors of its kernel's
    ``ZqContext`` (at the window's scale)."""
    return list(map(w.kernel.unpack, w.keys))


def _compare(ctx: ZqContext):
    """The exact comparison of two vectors of ctx."""
    return lambda a, b: ctx.sign(_axpy(a, -1, b))


@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("name,make,bound", ORDER_CASES)
def test_window_order_is_the_exact_order(monkeypatch, deadline, name, make,
                                         bound, coarse):
    made = []

    def factory(key):
        q = base(key)
        if coarse:
            q = _coarse_model(monkeypatch, q, Fraction(1, 2**16))
        made.append(q)
        return q

    # the exact decisions of the window's kernel: its sort's comparisons
    # (``sign``) and its clip and keep tests (``cmp_fraction``)
    exact = []
    for attr in ("sign", "cmp_fraction"):
        real = getattr(_PackedZq, attr)
        monkeypatch.setattr(_PackedZq, attr, lambda self, *a, real=real: (
            exact.append(a), real(self, *a))[1])
    with deadline(60):
        w = make(factory)
    monkeypatch.undo()
    assert len(made) == 1
    # the order is a permutation of the columns
    elems = _elements(w)
    assert sorted(w.order) == list(range(len(elems)))
    vecs = [elems[i] for i in w.order]
    assert len(vecs) > 10 and len(set(vecs)) == len(vecs)
    assert vecs == sorted(vecs, key=cmp_to_key(_compare(w.kernel.ctx)))
    if coarse and not name.endswith((" 2", " phi")):
        # the coarse floats leave tests to the exact kernel, except on the
        # integer and golden-ratio bases, whose values stay far apart
        assert exact


@pytest.mark.parametrize("name,make,bound", ORDER_CASES)
def test_window_display_floats_are_close_to_the_exact_values(name, make,
                                                             bound):
    holder = []

    def factory(key):
        holder.append(base(key))
        return holder[-1]

    w = make(factory)
    q, = holder
    ctx = w.kernel.ctx
    q.refine_to_width(Fraction(1, 2**100))
    tol = Fraction(1e-12) * max(1, bound)
    for p, elem in zip(w.points, map(_elements(w).__getitem__, w.order)):
        lo, hi = interval(ctx, elem)
        assert lo - tol <= Fraction(p.value) <= hi + tol


def test_exact_gap_floats_come_from_the_gap_vectors():
    for key in ("quartic", "27/20", "nonmonic"):
        q = base(key)
        w = enumerate_X(q, 1, 60)
        rep = gap_report(w)
        ctx = w.kernel.ctx
        q.refine_to_width(Fraction(1, 2**100))
        lo, hi = interval(ctx, rep.min_gap_vec)
        exact = (lo + hi) / 2
        assert (abs(Fraction(rep.min_gap) - exact)
                <= Fraction(2.0 ** -52) * exact)
        # each histogram float is the correctly rounded value of some gap,
        # and the minimal vector's gap is the smallest of them
        assert rep.min_gap == rep.histogram[0][0]
        assert ctx.sign(rep.min_gap_vec) > 0


# -- columnar windows: the permutation sort and the lazy points -------------


def test_overlapping_enclosures_are_ordered_by_the_exact_compare():
    # q^2 > q > 1 for the quartic's q ~ 1.2207, but the carried floats order
    # them the other way, each within its radius 0.5 of its value: the
    # exact compares must bubble each value back past the others
    ctx = base("quartic").zq_context()
    kernel = _PackedZq(ctx, 1)
    vecs = [(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]
    floats = array("d", [1.1, 1.15, 1.2])
    order = _sort_order(kernel, list(map(kernel.pack, vecs)), floats, 0.5)
    assert list(order) == [2, 1, 0]
    assert [vecs[i] for i in order] == \
        sorted(vecs, key=cmp_to_key(_compare(ctx)))


def test_lazy_points_match_the_streamed_texts(monkeypatch):
    windows = [enumerate_X(base("quartic"), 1, 30),
               enumerate_Y(base("q8"), 1, 8, 2),
               enumerate_A(base("q8"), 12, 3)]
    for w in windows:
        # the writer's texts are runs of flat JSON objects, comma-joined, so
        # "},{" parts two points and nothing else
        texts = ",".join(window_point_texts(w)).replace("},{", "}\n{")
        texts = texts.split("\n")
        assert "points" not in vars(w)      # the writer built no point
        assert len(texts) == len(w.points) > 10
        ctx = w.base.zq_context()
        for p, text in zip(w.points, texts):
            d = json.loads(text)
            assert (d["approx"], d["digits"], d["vec"]) == \
                (p.value, list(p.digits), list(p.vec))
            assert text == canonical_json(p.to_dict())
            assert ctx.from_digits(p.digits) == p.vec
            assert len(p.digits) == 1 or p.digits[-1] != 0
    # the library's oracle comparison reads the vector columns only

    def unbuilt(window):
        raise AssertionError("points built")

    monkeypatch.setattr(SpectrumWindow, "points", property(unbuilt))
    assert case_oracle_equivalence()["passed"]
