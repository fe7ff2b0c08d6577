"""The four benchmark workloads: their seeded inputs, fixed bases,
operation lists and output checks.

A workload's operations are plain calls of qspectra's public API (or of
``qspectra.cli.main``). Each operation returns its output; ``check`` decides
whether the output is correct and ``facts`` pulls out the counts the
per-layer report needs. Nothing here times anything; ``run.py`` does.

Outputs of fixed inputs are checked against the recorded outputs: every
integer, string and flag must match exactly (a digest in ``expected.json``),
and every float display value must match the recorded one in
``expected_floats.xz`` within a relative tolerance. Seeded inputs are
checked independently: census labels against ``oracle.py``, lazy-contract
runs against exact-Fraction capacities and the digit constraints.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import lzma
import math
import os
import random
import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from setup_probe import POLYS, build_bases

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = BENCH_DIR / "expected.json"
EXPECTED_FLOATS = BENCH_DIR / "expected_floats.xz"
FLOAT_REL_TOL = 1e-9
# A display value whose terms cancel to near zero carries their rounding
# error, so a float may also differ by this share of the largest float of
# the same output.
FLOAT_SCALE_TOL = 1e-12
# Census operations run under this per-operation deadline (SIGALRM, in the
# same process). The slowest census operation that completes at the seed
# commit is x^20-x-1, about 0.3 s untraced and under 1 s traced; inputs
# that time out were still running after 15 s when probed.
CENSUS_DEADLINE_S = 2.0
CENSUS_ENUMERATED = (3, 4, 5)   # degrees whose inputs are all taken
CENSUS_PER_DEGREE = 30      # irreducible polynomials drawn per degree 6..10
CENSUS_AUDIT_SIZE = 24      # reducible inputs, a seeded sample, classified
                            # in the traced run
# Lazy-contract cases per run: about 40% of the reproduction generator's
# draws have capacity < 1 and must be rejected, so a run takes that share
# exactly instead of leaving it to chance; rejected cases are ten times
# cheaper, and a random split would move every timing with the seed.
CONTRACT_ACCEPTED = 30
CONTRACT_REJECTED = 20
CONTRACT_HORIZON = 80

QUARTIC = "-1,-1,0,0,1"           # x^4 - x - 1,   q ~ 1.2207


@dataclass
class Op:
    """One operation: ``call`` runs it and returns its output."""
    name: str
    call: Callable[[], object]
    exact_spectrum: bool = False     # runs the exact Z[q] spectrum engine
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# output digests


def split_output(obj):
    """(exact skeleton, floats) of a JSON-like value: floats are replaced by
    a marker in the skeleton and collected in order."""
    floats: list[float] = []

    def walk(x):
        if isinstance(x, float):
            floats.append(x)
            return "<f>"
        if isinstance(x, dict):
            return {str(k): walk(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        if isinstance(x, Fraction):
            return str(x)
        return x

    return walk(obj), floats


def fingerprint(obj) -> dict:
    """Digest of the exact parts, and the floats in order."""
    skeleton, floats = split_output(obj)
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return {"digest": hashlib.sha256(text.encode()).hexdigest(),
            "floats": array("d", floats)}


def fingerprint_matches(got: dict, want: dict) -> bool:
    """Exact parts equal, and each float close to the recorded one."""
    g, w = got["floats"], want["floats"]
    if got["digest"] != want["digest"] or len(g) != len(w):
        return False
    abs_tol = FLOAT_SCALE_TOL * max((abs(f) for f in w if math.isfinite(f)),
                                    default=0.0)
    return all(a == b or math.isclose(a, b, rel_tol=FLOAT_REL_TOL,
                                      abs_tol=abs_tol)
               for a, b in zip(g, w))


def load_expected() -> dict:
    """The recorded fingerprints: digests and float counts from
    expected.json, the floats from expected_floats.xz (little-endian
    doubles, outputs in name order)."""
    if not EXPECTED.exists():
        return {}
    counts = json.loads(EXPECTED.read_text())
    floats = array("d", lzma.decompress(EXPECTED_FLOATS.read_bytes()))
    if sys.byteorder == "big":
        floats.byteswap()
    expected, at = {}, 0
    for name in sorted(counts):
        n = counts[name]["floats"]
        expected[name] = {"digest": counts[name]["digest"],
                          "floats": floats[at:at + n]}
        at += n
    return expected


def save_expected(expected: dict) -> None:
    names = sorted(expected)
    EXPECTED.write_text(json.dumps(
        {n: {"digest": expected[n]["digest"],
             "floats": len(expected[n]["floats"])} for n in names},
        indent=1) + "\n")
    floats = array("d")
    for n in names:
        floats.extend(expected[n]["floats"])
    if sys.byteorder == "big":
        floats.byteswap()
    EXPECTED_FLOATS.write_bytes(lzma.compress(floats.tobytes(), preset=9))


class Workload:
    """Base class. ``seconds_per_list`` is the seed commit's time for one
    pass over the operation list; it fixes how many passes a run makes, so
    the number of operations never depends on how fast the program is."""

    name = ""
    why = ""
    seconds_per_list = 1.0
    deadline_s = None         # per-operation deadline, if the workload has one

    def inputs(self, seed: int):
        return None

    def setup(self) -> dict:
        """Import qspectra and build the fixed bases (what setup_s times)."""
        return build_bases(self.name)

    def ops(self, env: dict, inputs) -> list[Op]:
        raise NotImplementedError

    def output_view(self, op: Op, out):
        """The JSON-like view of an output that fixed-input checks digest."""
        return out

    def check(self, op: Op, out, expected: dict) -> bool:
        want = expected.get(op.name)
        return want is not None and fingerprint_matches(
            fingerprint(self.output_view(op, out)), want)

    def facts(self, op: Op, out) -> dict:
        return {}


# ---------------------------------------------------------------------------
# search


class Search(Workload):
    name = "search"
    why = ("min_positive_bfs: the Z[q] step/sign/float_bounds path and the "
           "seen-dict do the work, at degrees 8, 4 and 3, plus the float "
           "kernel at q=1.8")
    seconds_per_list = 6.3
    CASES = (  # (op name, base key, m, max depth, exact kernel)
        ("bfs_q8_m1_d16", "q8", 1, 16, True),
        ("bfs_q4_m3_d10", "q4", 3, 10, True),
        ("bfs_q3_m2_closes", "q3", 2, 60, True),
        ("bfs_q1.8_m1_d21", "q1.8", 1, 21, False),
    )

    def inputs(self, seed):
        order = list(range(len(self.CASES)))
        random.Random(f"search:{seed}").shuffle(order)
        return order

    def ops(self, env, order):
        import qspectra
        out = []
        for i in order:
            name, key, m, depth, exact = self.CASES[i]
            q = env[key]
            out.append(Op(name, lambda q=q, m=m, d=depth:
                          qspectra.min_positive_bfs(q, m, d),
                          exact_spectrum=exact))
        return out

    def output_view(self, op, res):
        return res.to_dict()

    def facts(self, op, res):
        return {"states": res.trace[-1].states if op.exact_spectrum else 0}


# ---------------------------------------------------------------------------
# windows


class Windows(Workload):
    name = "windows"
    why = ("qspectra CLI in-process: X/Y windows with exact adjacent-pair "
           "certification, gaps, float-kernel windows, serialize and cli")
    seconds_per_list = 6.7
    CASES = (  # (op name, argv, exact kernel)
        ("spectrum_X_quartic_B300",
         ["spectrum", "--poly", QUARTIC, "--m", "1", "--bound", "300"], True),
        ("gaps_X_quartic_B300",
         ["gaps", "--poly", QUARTIC, "--m", "1", "--bound", "300"], True),
        ("spectrum_Y_q8_deg11_B2",
         ["spectrum", "--kind", "Y", "--poly", POLYS["q8"], "--m", "1",
          "--degree", "11", "--bound", "2"], True),
        ("spectrum_X_1.35_B200",
         ["spectrum", "--base", "1.35", "--tolerance", "1e-9", "--m", "1",
          "--bound", "200"], False),
        ("aq_1.35_deg14_20_B2",
         ["aq", "--base", "1.35", "--tolerance", "1e-9", "--degrees",
          "14,20", "--bound", "2"], False),
    )

    out_dir = ""        # where the CLI writes; set by the runner

    def inputs(self, seed):
        order = list(range(len(self.CASES)))
        random.Random(f"windows:{seed}").shuffle(order)
        return order

    def ops(self, env, order):
        from qspectra import cli
        out = []
        for i in order:
            name, argv, exact = self.CASES[i]
            out.append(Op(name, self._runner(cli, name, argv),
                          exact_spectrum=exact))
        return out

    def _runner(self, cli, name, argv):
        counter = [0]

        def call():
            counter[0] += 1
            path = os.path.join(self.out_dir, f"{name}.{counter[0]}.json")
            code = cli.main(argv + ["--out", path])
            return code, path

        return call

    def output_view(self, op, out):
        code, path = out
        with open(path) as fh:
            doc = json.load(fh)
        doc["manifest"].pop("wall_time_s", None)
        return {"exit_code": code, "doc": doc}

    def facts(self, op, out):
        code, path = out
        facts = {"bytes": os.path.getsize(path)}
        if op.exact_spectrum and op.name.startswith("spectrum"):
            with open(path) as fh:
                facts["states"] = len(json.load(fh)["result"]["points"])
        return facts


# ---------------------------------------------------------------------------
# expand


def contract_cases(seed: int):
    """Random (q, m, pattern) triples drawn as in the library's lazy-contract
    reproduction case, from the benchmark's seed; each carries its capacity
    m * sum_{i in P} q^-i computed independently in exact Fractions. Draws
    are kept, in order, until there are CONTRACT_ACCEPTED cases with
    capacity >= 1 and CONTRACT_REJECTED ones below 1."""
    rng = random.Random(f"expand:{seed}")
    cases = []
    want = {True: CONTRACT_ACCEPTED, False: CONTRACT_REJECTED}
    while want[True] or want[False]:
        qf = Fraction(rng.randint(105, 260), 100)
        m = rng.randint(1, 3)
        if not m > qf - 1:
            continue
        kind = rng.choice(["in", "out"])
        threshold = rng.randint(2, 14)
        explicit = frozenset(i for i in range(1, threshold)
                             if rng.random() < 0.45)
        cap = sum(Fraction(1) / qf**i for i in explicit)
        if kind == "in":
            cap += (Fraction(1) / qf**threshold) * qf / (qf - 1)
        cap *= m
        if want[cap >= 1]:
            want[cap >= 1] -= 1
            cases.append({"q": qf, "m": m, "explicit": explicit,
                          "threshold": threshold, "kind": kind, "cap": cap})
    return cases


class Expand(Workload):
    name = "expand"
    why = ("lazy, greedy and witness expansions with verify_expansion: "
           "FractionVecArith, exact sign refinement and Gaussian-rational "
           "witness helpers, no Z[q] search")
    seconds_per_list = 2.3
    HORIZON = 400
    WITNESS_HORIZON = 120
    WITNESS_POINTS = (("q1.8", ("-1.2", "0,2", "0,1", "1", "3")),
                      ("q8", ("-1.2", "0,2", "1", "3")))

    def inputs(self, seed):
        return contract_cases(seed)

    def ops(self, env, cases):
        import qspectra as qs
        q8, q3, h = env["q8"], env["q3"], self.HORIZON

        def with_verify(make, q, target):
            def call():
                seq = make()
                return seq, qs.verify_expansion(seq, q, target, h)
            return call

        ops = [
            Op("lazy_q8_all_h400", with_verify(
                lambda: qs.lazy_constrained(q8, 1, qs.SignPattern.all_indices(),
                                            h), q8, 0)),
            Op("lazy_q3_pattern_h400", with_verify(
                lambda: qs.lazy_constrained(
                    q3, 1, qs.SignPattern.from_text(
                        "explicit:2,4;eventual:in;threshold:6"), h), q3, 0)),
            Op("greedy_q8_one_h400", with_verify(
                lambda: qs.greedy_expansion(1, q8, 1, h), q8, 1)),
        ]
        for key, points in self.WITNESS_POINTS:
            for p in points:
                ops.append(Op(f"witness_{key}_p{p}",
                              lambda q=env[key], p=p: qs.build_witness(
                                  q, 1, p, self.WITNESS_HORIZON)))
        for i, case in enumerate(cases):
            ops.append(Op(f"contract_{i:02d}", self._contract_call(qs, case),
                          meta=case))
        return ops

    @staticmethod
    def _contract_call(qs, case):
        from qspectra.errors import PreconditionError

        def call():
            q = qs.AlgebraicNumber.from_rational(case["q"])
            pattern = qs.SignPattern(case["explicit"], case["threshold"],
                                     case["kind"])
            try:
                seq = qs.lazy_constrained(q, case["m"], pattern,
                                          CONTRACT_HORIZON)
            except PreconditionError:
                return None
            return seq, pattern, qs.verify_expansion(seq, q, 0,
                                                     CONTRACT_HORIZON)
        return call

    def check(self, op, out, expected):
        if not op.name.startswith("contract_"):
            return super().check(op, out, expected)
        case = op.meta
        if out is None:                    # rejected: only when capacity < 1
            return case["cap"] < 1
        seq, pattern, cert = out
        if case["cap"] < 1 or not cert.passed or seq.digit(0) != -1:
            return False
        m = case["m"]
        for i in range(1, CONTRACT_HORIZON + 1):
            s = seq.digit(i)
            ok = 0 <= s <= m if pattern.contains(i) else -m <= s <= 0
            if not ok:
                return False
        return True

    def output_view(self, op, out):
        if op.name.startswith("witness_"):
            return out.to_dict()
        # seq.meta is left out, as DigitSequence equality leaves it out: its
        # capacity floats are evaluated on the base's current interval, so
        # they change once an earlier call has refined it
        seq, cert = out
        return {"sequence": seq.to_dict(), "verify": cert.to_dict()}

    def facts(self, op, out):
        if op.name.startswith("witness_") or out is None:
            return {}
        return {"digits": len(out[0].preperiod)}


# ---------------------------------------------------------------------------
# census


def descartes_root_above_one(coeffs) -> bool | None:
    """Exact test for a real root > 1 by Descartes' rule on p(x + 1):
    False when there is none, True when there is one, None when the rule
    cannot tell (an even number >= 2 of sign changes)."""
    c = list(coeffs)
    n = len(c)
    for i in range(n):                     # Taylor shift x -> x + 1
        for j in range(n - 2, i - 1, -1):
            c[j] += c[j + 1]
    signs = [x > 0 for x in c if x]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if changes == 0:
        return False
    return True if changes % 2 else None


def census_sample(seed: int):
    """Monic polynomials with coefficients in {-1, 0, 1} and degree 3..10,
    kept when the oracle finds a real root > 1: every one of degree
    CENSUS_ENUMERATED, then seeded draws of each higher degree.

    Inputs are split by the oracle: ``irreducible`` (the input is the
    minimal polynomial of q, the library's documented input contract) holds
    all of them at the enumerated degrees and CENSUS_PER_DEGREE distinct
    draws at each higher one; ``reducible`` holds every other kept input,
    in order.
    """
    from oracle import oracle
    irreducible, reducible = [], []

    def keep(coeffs) -> bool:
        """File a kept input; True when it is irreducible."""
        if descartes_root_above_one(coeffs) is False:
            return False
        ans = oracle(coeffs)
        if ans is None:
            return False
        (reducible if ans.reducible else irreducible).append((coeffs, ans))
        return not ans.reducible

    for d in CENSUS_ENUMERATED:
        for head in itertools.product((-1, 0, 1), repeat=d):
            keep(head + (1,))
    rng = random.Random(f"census:{seed}")
    for d in range(CENSUS_ENUMERATED[-1] + 1, 11):
        seen, got = set(), 0
        while got < CENSUS_PER_DEGREE:
            if len(seen) == 3**d:
                raise RuntimeError(f"fewer than {CENSUS_PER_DEGREE} "
                                   f"irreducible inputs of degree {d}")
            coeffs = tuple(rng.choice((-1, 0, 1)) for _ in range(d)) + (1,)
            if coeffs not in seen:
                seen.add(coeffs)
                got += keep(coeffs)
    return irreducible, reducible


class Census(Workload):
    name = "census"
    why = ("base_from_poly + classify_base on seeded monic height-1 "
           "polynomials of degree 3-10 and 4 anchors: Sturm isolation and "
           "certified conjugates, no Z[q]")
    seconds_per_list = 6.5
    deadline_s = CENSUS_DEADLINE_S

    def inputs(self, seed):
        import oracle
        oracle.self_check()
        irreducible, reducible = census_sample(seed)
        anchors = [(coeffs, oracle.oracle(coeffs))
                   for _, coeffs, _, _ in oracle.ANCHORS]
        audit = random.Random(f"census-audit:{seed}").sample(
            reducible, CENSUS_AUDIT_SIZE)
        return {"ops": irreducible + anchors, "audit": audit}

    def ops(self, env, inputs, which="ops"):
        import qspectra as qs
        out = []
        for coeffs, ans in inputs[which]:
            poly = qs.IntPolynomial(coeffs)

            def call(poly=poly):
                q = qs.AlgebraicNumber.base_from_poly(poly, root_index=0)
                return q, qs.classify_base(q)

            out.append(Op("poly_" + ",".join(map(str, coeffs)), call,
                          meta={"answer": ans}))
        return out

    def check(self, op, out, expected):
        ans = op.meta["answer"]
        q, cls = out
        if cls.tag != ans.label:
            return False
        if ans.on_circle and (cls.conjugate_set is None
                              or cls.conjugate_set.on_circle_count
                              != ans.on_circle):
            return False
        # the selected root must be the oracle's; reading the interval as is
        # keeps the check from refining q, which facts() reports on
        lo, hi = q.interval()
        return lo - 1e-12 <= ans.q <= hi + 1e-12

    def facts(self, op, out):
        q, cls = out
        facts = {}
        if q.exact_rational is None:
            lo, hi = q.interval()
            facts["width_bits"] = -math.log2(hi - lo)
            facts["widths"] = 1
        cs = cls.conjugate_set
        if cs is not None:
            facts["precision_bits"] = cs.precision_bits
            facts["conjugate_sets"] = 1
            facts["unresolved"] = 0 if cs.resolved else 1
        return facts


WORKLOADS = {w.name: w for w in (Search(), Windows(), Expand(), Census())}
