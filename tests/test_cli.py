"""CLI, serialization, and reproducibility tests."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from qspectra import __version__, cli, reproduce, spectrum
from qspectra.algebraic import AlgebraicNumber
from qspectra.intpoly import IntPolynomial
from qspectra.serialize import (
    DIGITS_SCHEMA,
    ENVELOPE_SCHEMA,
    MINPOS_SCHEMA,
    WINDOW_SCHEMA,
    canonical_json,
    params_hash,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _text_without_wall_time(doc) -> str:
    """The canonical text of a result document, its manifest's wall time
    left out."""
    manifest = dict(doc["manifest"])
    del manifest["wall_time_s"]
    return canonical_json({**doc, "manifest": manifest})


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# -- classify -----------------------------------------------------------------


def test_cli_classify_first_pisot(capsys):
    code, doc = run_json(capsys, "classify", "--poly", "-1,-1,0,1",
                         "--root-index", "0")
    assert code == 0
    assert doc["result"]["class"] == "Pisot"
    assert len(doc["result"]["conjugates"]) == 3


def test_cli_classify_sqrt2(capsys):
    code, doc = run_json(capsys, "classify", "--poly", "-2,0,1",
                         "--root-index", "0")
    assert code == 0
    assert doc["result"]["class"] == "NotPisot-AlgebraicInteger"


def test_cli_classify_integer(capsys):
    code, doc = run_json(capsys, "classify", "--poly", "-2,1")
    assert code == 0
    assert doc["result"]["class"] == "PisotInteger"


def test_cli_root_interval_selection(capsys):
    code, doc = run_json(capsys, "classify", "--poly", "-1,-1,1",
                         "--root-interval", "1..2")
    assert code == 0
    assert doc["result"]["class"] == "Pisot"


@pytest.mark.parametrize("base,sha256", [
    (["--poly", "-1,-1,0,1"],                      # x^3-x-1, Pisot
     "854bd56ef7a0713cecd2c5c60a7a4d48466d0f85fc2dbdb1238a652ba0448e58"),
    (["--poly", "1,-1,-1,-1,1"],                   # Salem quartic
     "82bb4ca6949b5163731084fc76e851ec8e144147a2ac5f38f3de38b39919245c"),
    (["--poly", "-2,0,1"],                         # sqrt 2
     "d803e79a8c3a6a0365c74379c1072a46f071ab89fa354953755357f19d41447e"),
    (["--poly", "-1,0,0,0,0,0,-1,0,1"],            # x^8-x^6-1
     "8a0540e7362e951d94abb679f9219ea102a12c2dd67b848b5eb69bf5e93537c9"),
    (["--poly", "-1,-2,2"],                        # 2x^2-2x-1, not monic
     "36b45d141d19919daa1072436b06265cd79211a4d0e647e3ae0b528c8247dedd"),
    (["--base", "2", "--tolerance", "1e-9"],
     "3d5dd20b5478a0fe549bcff5fae0cac9851241224e3d6d1e3e8d7390f798c44d"),
])
def test_cli_classify_is_byte_identical_to_its_pin(capsys, base, sha256):
    # pins the label, the detail, every disk of the evidence and the exit
    # code
    code, out = run_cli(capsys, "classify", *base)
    assert code == 0
    text = re.sub(r'"wall_time_s":[^,}]*', '"wall_time_s":0', out)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


# classify on hard intake: huge coefficients, a base beyond float range, a
# base near 1, a Salem number, non-monic and rational bases, and a
# non-squarefree input under both selectors.  Each label is the one the
# independent oracle (bench/oracle.py) gives for Lehmer's polynomial and
# (x-1)^2(x^2-x-1); the oracle gives no answer on the huge coefficients or
# on degree 31 and takes no non-monic or rational base, so those labels are
# the closed-form ones (x^2 - (10^20+1) has both roots outside the unit
# circle; x^2 - 10^200 x - 1 has its other root at -10^-200; x^31 - x - 1
# has 21 roots outside).
CLASSIFY_SWEEP = [
    pytest.param(["--poly", f"{-(10**20 + 1)},0,1"], 0,
                 "NotPisot-AlgebraicInteger", ["outside"] * 2,
                 id="x2-1e20-1"),
    pytest.param(["--poly", f"-1,{-10**200},1"], 0, "Pisot",
                 ["inside", "outside"], id="x2-1e200x-1"),
    pytest.param(["--poly", f"-1,{-10**400},1"], 2, None, None,
                 id="x2-1e400x-1"),
    pytest.param(["--poly", "-1,-1" + ",0" * 29 + ",1"], 0,
                 "NotPisot-AlgebraicInteger",
                 ["inside"] * 10 + ["outside"] * 21, id="x31-x-1"),
    pytest.param(["--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"], 0,
                 "NotPisot-AlgebraicInteger",
                 ["on"] * 8 + ["inside", "outside"], id="lehmer"),
    pytest.param(["--poly", "-1,-2,2"], 0, "NotAlgebraicInteger", [],
                 id="2x2-2x-1"),
    pytest.param(["--base", "27/20", "--tolerance", "1e-9"], 0,
                 "NotAlgebraicInteger", [], id="27/20"),
    pytest.param(["--poly", "-1,1,2,-3,1", "--root-index", "0"], 0, "Pisot",
                 ["inside", "outside"], id="non-squarefree-index"),
    pytest.param(["--poly", "-1,1,2,-3,1", "--root-interval", "1.5..1.7"], 0,
                 "Pisot", ["inside", "outside"], id="non-squarefree-interval"),
    # a linear polynomial's interval is checked too: 3 is not in (5, 6)
    pytest.param(["--poly", "-3,1", "--root-interval", "5..6"], 2, None, None,
                 id="linear-root-outside-interval"),
    pytest.param(["--poly", "-3,1", "--root-interval", "2..4"], 0,
                 "PisotInteger", [], id="linear-root-in-interval"),
]


@pytest.mark.parametrize("argv,code,label,locations", CLASSIFY_SWEEP)
def test_cli_classify_sweep(tmp_path, capsys, deadline, argv, code, label,
                            locations):
    out = tmp_path / "classify.json"
    with deadline(3):
        assert cli.main(["classify", *argv, "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) <= 1 and all(line.startswith("error: ") for line in err)
    if code:
        assert err and not out.exists()
        return
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, ENVELOPE_SCHEMA)
    assert doc["result"]["class"] == label
    assert [d["location"] for d in doc["result"].get("conjugates", [])] \
        == locations


# -- windows / schemas ----------------------------------------------------------


def test_cli_spectrum_schema_and_content(capsys):
    code, doc = run_json(capsys, "spectrum", "--poly", "-1,-1,1",
                         "--root-index", "0", "--m", "1", "--bound", "2")
    assert code == 0
    jsonschema.validate(doc, ENVELOPE_SCHEMA)
    jsonschema.validate(doc["result"], WINDOW_SCHEMA)
    vals = [p["approx"] for p in doc["result"]["points"]]
    assert vals[0] == 0 and len(vals) == 3


def test_cli_spectrum_Y_requires_degree(capsys):
    code, _ = run_cli(capsys, "spectrum", "--poly", "-2,0,1",
                      "--root-index", "0", "--m", "1", "--bound", "1",
                      "--kind", "Y")
    assert code == 2


def test_cli_spectrum_budget_exit(capsys):
    code, doc = run_json(capsys, "spectrum", "--poly", "-2,0,1",
                         "--root-index", "0", "--m", "1", "--bound", "40",
                         "--budget-states", "10")
    assert code == 3
    assert doc["result"]["truncated"] is True


def test_cli_minpos_schema(capsys):
    code, doc = run_json(capsys, "minpos", "--poly", "-1,-1,1",
                         "--root-index", "0", "--m", "1")
    assert code == 0
    jsonschema.validate(doc["result"], MINPOS_SCHEMA)
    assert doc["result"]["closed"] is True
    assert abs(doc["result"]["min_positive"] - 0.6180339887498949) < 1e-12


def test_cli_expand_digits_schema(capsys):
    code, doc = run_json(capsys, "expand", "--poly", "-1,-1,1",
                         "--root-index", "0", "--m", "1", "--target", "1",
                         "--horizon", "10")
    assert code == 0
    jsonschema.validate(doc["result"]["sequence"], DIGITS_SCHEMA)
    assert doc["result"]["sequence"]["preperiod"][:2] == [1, 1]


def test_cli_expand_lazy_as_in_the_readme(capsys):
    pattern = "explicit:;eventual:in;threshold:1"
    code, doc = run_json(capsys, "expand", "--base", "1.5", "--m", "1",
                         "--pattern", pattern, "--horizon", "40")
    assert code == 0
    result = doc["result"]
    assert result["mode"] == "lazy" and result["pattern"] == pattern
    lo, hi = result["capacity"]
    assert type(lo) is float and type(hi) is float and lo <= hi
    assert result["capacity_certified"] is True
    jsonschema.validate(result["sequence"], DIGITS_SCHEMA)
    assert result["sequence"]["preperiod"][0] == -1


def test_cli_expand_lazy_capacity_violation_exit2(capsys):
    code, _ = run_cli(capsys, "expand", "--base", "1.9", "--tolerance",
                      "1e-9", "--m", "1", "--pattern",
                      "explicit:1;eventual:out;threshold:2")
    assert code == 2


def test_cli_numeric_base_runs_without_tolerance(capsys):
    # --base once required --tolerance, which the exact windows never read
    argv = ["spectrum", "--base", "1.35", "--m", "1", "--bound", "20"]
    code, doc = run_json(capsys, *argv)
    assert code == 0
    _, with_tol = run_json(capsys, *argv, "--tolerance", "1e-9")
    assert doc["result"] == with_tol["result"]


def test_cli_witness_json(capsys):
    code, doc = run_json(capsys, "witness", "--base", "1.8", "--tolerance",
                         "1e-9", "--m", "1", "--p", "-1.2",
                         "--horizon", "40")
    assert code == 0
    r = doc["result"]
    assert r["digits"][0] == -1
    assert r["certified"]["re_negative_from_k"] is True


def test_cli_aq(capsys):
    code, doc = run_json(capsys, "aq", "--base", "1.35", "--tolerance",
                         "1e-9", "--degrees", "7,10", "--bound", "2")
    assert code == 0
    assert doc["result"]["strictly_decreasing"] is True
    for w in doc["result"]["windows"]:
        jsonschema.validate(w, WINDOW_SCHEMA)


def test_cli_aq_window_without_points(capsys):
    # the degree-1 window of the golden ratio has no point in [-1/10, 1/10],
    # so it has no covering radius
    code, doc = run_json(capsys, "aq", "--poly", "-1,-1,1", "--root-index",
                         "0", "--degrees", "1,2", "--bound", "1/10")
    assert code == 0
    jsonschema.validate(doc, ENVELOPE_SCHEMA)
    r = doc["result"]
    assert r["windows"][0]["points"] == []
    assert r["covering_radii"][0] is None
    assert r["strictly_decreasing"] is False


def test_cli_verdict(capsys):
    code, doc = run_json(capsys, "verdict", "--poly", "-2,0,1",
                         "--root-index", "0", "--m", "1")
    assert code == 0
    assert doc["result"]["verdict"] == "Accumulates"


@pytest.mark.parametrize("base,verdict,kind", [
    (["--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"], "Accumulates", None),
    (["--base", "1.35"], "Accumulates", None),
    (["--base", "3"], "Discrete", "devries"),
], ids=["lehmer", "1.35", "3"])
def test_cli_verdict_runs_no_search(capsys, deadline, base, verdict, kind):
    # the verdict once ran a search to depth 16 beside its label, about 2 s
    # on the first two; now it is the label and one certificate slot
    with deadline(0.5):
        code, doc = run_json(capsys, "verdict", *base, "--m", "1")
    assert code == 0 and doc["result"]["verdict"] == verdict
    cert = doc["result"]["cross_check"]["certificate"]
    assert cert["kind"] == kind
    assert cert["certified"] is (kind is not None)
    assert kind is not None or cert["reason"]


def test_cli_verdict_loads_no_search_module():
    code = (
        "import contextlib, io, sys\n"
        "from qspectra import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verdict', '--poly', '-1,-1,0,1', '--m', '1'])\n"
        "print(code, sorted({'qspectra.spectrum', 'qspectra.disks'}\n"
        "                   & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout == "0 []\n"


TREND_WORDS = ("decreasing", "stalled", "positive-certified", "constant",
               "mixed")


@pytest.mark.parametrize("base", [
    ["--poly", "-1,-1,0,1"],                    # Pisot
    ["--poly", "-2,0,1"],                       # sqrt 2, not Pisot
    ["--base", "1.8"],                          # rational
])
def test_search_outputs_carry_no_trend_word(capsys, base):
    # the evidence is the search itself: closed, its minimum, its trace
    flag, text = base
    q = (AlgebraicNumber.from_rational(Fraction(text)) if flag == "--base"
         else AlgebraicNumber.base_from_poly(IntPolynomial.from_text(text),
                                             root_index=0))
    texts = [canonical_json(spectrum.gap_report(
        spectrum.enumerate_X(q, 1, B)).to_dict()) for B in (5, 10)]
    for argv in (["minpos", "--m", "1", "--max-depth", "10"],
                 ["verdict", "--m", "1"]):
        for fmt in ("json", "csv"):
            code, out = run_cli(capsys, *argv, *base, "--format", fmt)
            assert code == 0
            texts.append(out)
    for text in texts:
        assert not [w for w in TREND_WORDS if w in text], text[:200]
    cross_check = json.loads(texts[-2])["result"]["cross_check"]
    assert list(cross_check) == ["certificate"]


def test_cli_float_search_never_claims_closure(capsys):
    # with tolerance 0.6 the float dedup empties the first level; the
    # search once reported that as closed, with no minimum
    code, doc = run_json(capsys, "minpos", "--base", "1.8", "--tolerance",
                         "0.6", "--m", "1", "--max-depth", "8")
    assert code == 0
    r = doc["result"]
    assert r["closed"] is False and r["closed_states"] is None
    assert r["min_positive"] is None


# -- csv -------------------------------------------------------------------------


def test_cli_csv_window(capsys):
    code, out = run_cli(capsys, "spectrum", "--poly", "-1,-1,1",
                        "--root-index", "0", "--m", "1", "--bound", "2",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value,gap"
    assert len(lines) == 4


def test_cli_csv_window_is_pinned(capsys):
    code, out = run_cli(capsys, "spectrum", "--poly", "-1,-1,0,0,1", "--m",
                        "1", "--bound", "3", "--format", "csv")
    assert code == 0
    assert out == (
        "index,value,gap\n"
        "0,0.0,\n"
        "1,1.0,1.0\n"
        "2,1.2207440846057596,0.22074408460575956\n"
        "3,1.490216120099954,0.2694720354941944\n"
        "4,1.819172513396165,0.32895639329621096\n"
        "5,2.2207440846057596,0.40157157120959464\n"
        "6,2.490216120099954,0.26947203549419463\n"
        "7,2.7109602047057133,0.22074408460575912\n"
        "8,2.8191725133961647,0.1082123086904514\n")


def test_cli_csv_aq_rows_are_pinned(capsys):
    argv = ["aq", "--poly", "-1,-1,0,1", "--degrees", "4,6", "--bound", "2"]
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == (
        "degree,index,value,gap\n"
        "4,0,-1.3247179572447467,\n"
        "4,1,-0.6752820427552539,0.6494359144894928\n"
        "4,2,-0.1850373752486394,0.49024466750661455\n"
        "4,3,0.1850373752486394,0.3700747504972788\n"
        "4,4,0.6752820427552539,0.49024466750661455\n"
        "4,5,1.3247179572447458,0.6494359144894919\n"
        "6,0,-2.0000000000000018,\n"
        "6,1,-1.509755332493386,0.4902446675066159\n"
        "6,2,-1.1396805819961067,0.3700747504972792\n"
        "6,3,-0.8603194180038934,0.2793611639922132\n"
        "6,4,-0.6494359144894919,0.21088350351440155\n"
        "6,5,-1.5543122344752192e-15,0.6494359144894903\n"
        "6,6,0.6494359144894919,0.6494359144894934\n"
        "6,7,0.8603194180038934,0.21088350351440155\n"
        "6,8,1.1396805819961067,0.2793611639922132\n"
        "6,9,1.5097553324933854,0.3700747504972788\n"
        "6,10,2.0,0.49024466750661455\n")
    # the rows hold the JSON output's points, window by window
    _, doc = run_json(capsys, *argv)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(int(d), float(v)) for d, _, v, _ in rows] == [
        (w["degree"], p["approx"]) for w in doc["result"]["windows"]
        for p in w["points"]]


def test_cli_csv_gaps(capsys):
    code, out = run_cli(capsys, "gaps", "--poly", "-2,1", "--m", "1",
                        "--bound", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "gap,count"


# -- exit-code mapping ------------------------------------------------------------


def test_cli_parse_error_exit2(capsys):
    code, _ = run_cli(capsys, "classify", "--poly", "1,phi")
    assert code == 2


def test_cli_inconclusive_exit4(capsys, monkeypatch):
    from qspectra.errors import PrecisionExhaustedError

    def boom(args):
        raise PrecisionExhaustedError("withheld")

    monkeypatch.setitem(cli.COMMANDS, "classify", boom)
    code, _ = run_cli(capsys, "classify", "--poly", "-2,1")
    assert code == 4


def test_cli_classify_with_unresolved_disks_keeps_its_label(capsys,
                                                           monkeypatch):
    # no disk is decided inside or outside: the label, from exact counts,
    # stands, and the evidence says what the disks could not decide
    from qspectra import disks

    monkeypatch.setattr(disks, "_locate_disk", lambda *a: "straddle")
    code, doc = run_json(capsys, "classify", "--poly", "-1,-1,0,1")
    assert code == 0
    assert doc["result"]["class"] == "Pisot"
    assert [c["location"] for c in doc["result"]["conjugates"]] == \
        ["unresolved"] * 3


def test_cli_reproduce_exits_nonzero_when_a_case_fails(capsys, monkeypatch):
    failing = {"case": "golden-closure", "passed": False, "runtime_s": 0.0}
    monkeypatch.setattr(reproduce, "run_cases", lambda *a, **k: [failing])
    code, doc = run_json(capsys, "reproduce", "golden-closure")
    assert code == 1
    assert doc["result"]["all_passed"] is False


def test_cli_classify_base_beyond_float_range_exit2(capsys, deadline):
    # x^2 - 10^600 x - 1 is Pisot, with q ~ 10^600: its label is exact,
    # but the display float of q overflows
    poly = "-1,-1" + "0" * 600 + ",1"
    with deadline(30):
        code = cli.main(["classify", "--poly", poly])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: base is beyond the float range\n"


def test_cli_engines_on_a_base_beyond_float_range_exit2(capsys, deadline):
    # the same base: the engines' float model of q overflows before any
    # level is built
    poly = "-1,-1" + "0" * 600 + ",1"
    for argv in (["spectrum", "--m", "1", "--bound", "2"],
                 ["minpos", "--m", "1", "--max-depth", "4"],
                 ["verdict", "--m", "1"]):
        with deadline(30):
            code = cli.main([*argv, "--poly", poly])
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert out == ""
        assert err == "error: base is beyond the float range\n", argv


def test_cli_classify_conjugate_beyond_float_range_exit2(capsys, deadline):
    # x^3 - 10^400 x^2 - 3x + 3*10^400 + 1: the base is near sqrt(3), and
    # the certified disk of the conjugate near 10^400 has no float centre
    poly = f"{3 * 10**400 + 1},-3,{-10**400},1"
    with deadline(30):
        code = cli.main(["classify", "--precision", "1024", "--poly", poly])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: conjugate beyond the float range\n"


@pytest.mark.parametrize("p", ["1e400", "0,1e400"])
def test_cli_witness_point_beyond_float_range_exit2(capsys, p):
    # the report's display floats of p would overflow
    code = cli.main(["witness", "--poly", "-1,-1,0,1", "--m", "1", "--p", p])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == (f"error: companion point {p!r} is not a finite point "
                   "within the float range\n")


def test_cli_expand_capacity_beyond_the_float_range_exit2(capsys):
    # w_0 = q^1600 (q-1) is past the float range: the capacity display once
    # ended in an OverflowError traceback (exit 1)
    code = cli.main(["expand", "--poly", "-1,-1,1", "--m", "1", "--pattern",
                     "explicit:1;eventual:in;threshold:1600", "--horizon",
                     "10"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == ("error: capacity condition violated: m*sum q^-i = "
                   "0.618034 < 1\n")


@pytest.mark.parametrize("p", ["-1.2", "0,2"])
def test_cli_witness_capacity_beyond_the_float_range_exit0(capsys, p):
    # the lazy run's w_0 = 1.8^2001 * 0.8 is past the float range: its
    # capacity display once ended in an OverflowError traceback (exit 1)
    code, doc = run_json(capsys, "witness", "--base", "1.8", "--m", "1",
                         "--p", p, "--horizon", "2000")
    assert code == 0
    assert doc["result"]["q_certificate"]["passed"]
    assert len(doc["result"]["digits"]) == 2001


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_cli_minpos_rejects_a_depth_below_one_exit2(capsys, depth):
    # a search of no depth used to exit 0 with one "stalled" record
    code = cli.main(["minpos", "--poly", "-1,-1,0,1", "--m", "1",
                     "--max-depth", depth])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: max_depth >= 1 required\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_cli_rejects_a_tolerance_that_is_not_positive_and_finite(capsys,
                                                                 tol):
    # 0 and nan once ended in a traceback; -1 and inf ran with meaningless
    # dedup.  Every --base command checks it at intake, also those that
    # never read it (the windows are exact)
    for argv in (["spectrum", "--m", "1", "--bound", "5"], ["classify"],
                 ["expand", "--m", "1", "--target", "1"]):
        code = cli.main(argv + ["--base", "1.35", "--tolerance", tol])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be positive and finite")


@pytest.mark.parametrize("fraction", ["2", "-1", "nan"])
def test_cli_gaps_rejects_a_tail_fraction_outside_0_1(capsys, fraction):
    # the tail statistics once fell back to the whole window
    code = cli.main(["gaps", "--poly", "-1,-1,1", "--m", "1", "--bound", "5",
                     "--tail-fraction", fraction])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: tail fraction must lie in [0, 1]")


def test_cli_gaps_checks_the_tail_fraction_before_the_window(capsys,
                                                           monkeypatch):
    def enumerate_X(*args, **kwargs):
        raise AssertionError("the window was enumerated")

    monkeypatch.setattr(spectrum, "enumerate_X", enumerate_X)
    code = cli.main(["gaps", "--poly", "-1,-1,0,0,1", "--m", "1", "--bound",
                     "300", "--tail-fraction", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: tail fraction must lie in [0, 1]")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--m", "1"],
    ["spectrum", "--kind", "Y", "--degree", "4", "--m", "1"],
    ["gaps", "--m", "1"],
    ["aq", "--degrees", "4,6"],
])
@pytest.mark.parametrize("bound", ["1e400", "-1", "0"])
def test_cli_windows_reject_a_bound_that_is_not_a_positive_float(capsys,
                                                                argv, bound):
    # 1e400 once ended in an OverflowError traceback from float(B); aq took
    # -1 and 0 and marked its windows over the empty [1, -1] complete
    code = cli.main([*argv, "--poly", "-1,-1,0,1", "--bound", bound])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: bound must be positive and a finite float\n"


@pytest.mark.parametrize("degrees", ["4,x", ","])
def test_cli_aq_rejects_a_degree_list_without_integers(capsys, degrees):
    # '4,x' once ended in a ValueError traceback; ',' exited 0 over no
    # windows, reporting strictly decreasing covering radii
    code = cli.main(["aq", "--poly", "-1,-1,0,1", "--degrees", degrees,
                     "--bound", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: --degrees must list integers, not {degrees!r}\n"


@pytest.mark.parametrize("pattern,field,value", [
    ("explicit:x", "explicit", "x"), ("threshold:x", "threshold", "x"),
    ("threshold:1.5", "threshold", "1.5")])
def test_cli_expand_rejects_a_pattern_field_that_is_not_an_integer(
        capsys, pattern, field, value):
    # each once ended in a ValueError traceback
    code = cli.main(["expand", "--poly", "-1,-1,0,1", "--m", "1",
                     "--pattern", pattern])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == (f"error: pattern field {field!r} needs integers, not "
                   f"{value!r}\n")


def test_cli_unwritable_out_file_exit2(tmp_path, capsys):
    # the command once ran, then ended in a FileNotFoundError traceback
    target = tmp_path / "missing" / "x.json"
    code = cli.main(["spectrum", "--poly", "-1,-1,0,1", "--m", "1",
                     "--bound", "2", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot write {str(target)!r}: "
                   "No such file or directory\n")


def test_cli_unwritable_out_file_fails_before_the_command(tmp_path, capsys,
                                                         monkeypatch):
    # the path is checked at intake: the 60,504-point window below was once
    # enumerated and sorted before the exit
    def spectrum(args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli.COMMANDS, "spectrum", spectrum)
    target = tmp_path / "missing" / "x.json"
    code = cli.main(["spectrum", "--poly", "-1,-1,0,0,1", "--m", "1",
                     "--bound", "300", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot write {str(target)!r}: "
                   "No such file or directory\n")
    assert not target.parent.exists()


def test_cli_failing_command_leaves_the_out_file_as_it_was(tmp_path,
                                                           capsys):
    target = tmp_path / "x.json"
    target.write_bytes(b"an earlier run\n")
    code = cli.main(["spectrum", "--poly", "-1,-1,0,1", "--m", "1",
                     "--bound", "-1", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == "error: bound must be positive and a finite float\n"
    assert target.read_bytes() == b"an earlier run\n"


@pytest.mark.parametrize("argv, read", [
    # 155 kB: more than the pipe holds, so the write itself meets the
    # closed pipe; and 1 kB, which sits in stdout's buffer until it flushes
    (["spectrum", "--poly", "-1,-1,0,1", "--m", "1", "--bound", "300"], 100),
    (["classify", "--poly", "-1,-1,0,-1,1"], 0)], ids=["write", "exit-flush"])
def test_cli_closed_stdout_ends_quietly_with_the_command_code(argv, read):
    # stdout closed early once ended in a BrokenPipeError traceback, exit 1
    proc = subprocess.Popen([sys.executable, "-m", "qspectra.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": SRC})
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_cli_X_window_rejects_a_degree_exit2(capsys):
    # the degree was once recorded in the manifest and ignored
    code = cli.main(["spectrum", "--poly", "-1,-1,0,1", "--m", "1",
                     "--bound", "2", "--degree", "3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: --degree applies to Y windows only\n"


@pytest.mark.parametrize("argv", [
    ["minpos", "--m", "1"], ["spectrum", "--m", "1", "--bound", "2"]])
def test_cli_state_budget_below_one_exit2(capsys, argv):
    # -5 and 0 once exited 3, reporting an exhausted budget
    for budget in ("-5", "0"):
        code = cli.main([*argv, "--poly", "-1,-1,0,1",
                         "--budget-states", budget])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: state budget must be >= 1\n"
    code = cli.main([*argv, "--poly", "-1,-1,0,1", "--budget-states", "1"])
    capsys.readouterr()
    assert code == 3


def test_cli_root_selectors_agree_on_a_non_squarefree_polynomial(capsys):
    # (x - 1)^2 (x^2 - x - 1): the interval selector once rejected it as
    # not squarefree while the index selector took its squarefree part
    docs = [run_json(capsys, "classify", "--poly", "-1,1,2,-3,1", *selector)
            for selector in (["--root-index", "0"],
                             ["--root-interval", "1.5..1.7"])]
    assert [code for code, _ in docs] == [0, 0]
    first, second = (doc["result"] for _, doc in docs)
    assert first == second
    assert first["class"] == "Pisot"
    assert first["base"]["poly"] == "-1,-1,1"


@pytest.mark.parametrize("selector", [["--root-index", "0"],
                                      ["--root-index", "1"],
                                      ["--root-interval", "1..3"]])
def test_cli_root_selection_next_to_a_rational_base_exit2(capsys, selector):
    # --base 2 --root-index 1 once exited 0, the selector silently ignored
    code = cli.main(["classify", "--base", "2", *selector])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: --root-index and --root-interval select "
                            "a root of --poly, not of --base\n")


def test_cli_classify_a_huge_constant_term(capsys, deadline):
    # x^2 - (10^20 + 1): its rational root search once ran for hours
    with deadline(1):
        code, doc = run_json(capsys, "classify", "--poly",
                             f"{-(10**20 + 1)},0,1")
    assert code == 0
    assert doc["result"]["class"] == "NotPisot-AlgebraicInteger"


def test_cli_classify_without_root_above_one_exit2(capsys, deadline):
    # x^4-x^2-x+1 has real roots 0.7549 and 1 only; isolating them used
    # to hang
    with deadline(30):
        code, _ = run_cli(capsys, "classify", "--poly", "1,-1,-1,0,1")
    assert code == 2


# -- manifests / reproducibility --------------------------------------------------


def test_manifest_reproducibility(capsys):
    argv = ["spectrum", "--poly", "-2,0,1", "--root-index", "0", "--m", "1",
            "--bound", "6"]
    _, doc1 = run_json(capsys, *argv)
    _, doc2 = run_json(capsys, *argv)
    assert _text_without_wall_time(doc1) == _text_without_wall_time(doc2)
    assert doc1["manifest"]["input_hashes"]["params_sha256"] == \
        doc2["manifest"]["input_hashes"]["params_sha256"]


@pytest.mark.parametrize("argv,sha256", [
    (["minpos", "--poly", "-1,0,0,-1,1", "--m", "3", "--max-depth", "7"],
     "3d4a48cc3d03e8dfe6898c75ed49ecb33b5ced6b2cb13b4d306fe308ca5eb05f"),
    # closes at depth 40 with 745 closed states
    (["minpos", "--poly", "-1,-1,0,1", "--m", "2", "--max-depth", "60"],
     "939c5bb8a9273eb461c3cd773d46ce2d5e7bd0d700dd5adbc86dabdaac17c085"),
    (["spectrum", "--kind", "Y", "--poly", "-1,0,0,0,0,0,-1,0,1", "--m", "1",
      "--degree", "8", "--bound", "2"],
     "4773cce08471040cd4b1c8030336b503bb4669ada507700c973403de60d2b97b"),
    # recorded when the 1.35 windows ran on the float kernel: the exact
    # kernel carries the same floats qf*f + s and keeps the same points in
    # the same order
    (["spectrum", "--base", "1.35", "--tolerance", "1e-9", "--m", "1",
      "--bound", "20"],
     "2ec096c8bfee26b0bd20e87d52ce043432030c9fbbe4ef98a51e0cbe4347e3b9"),
    (["aq", "--base", "1.35", "--tolerance", "1e-9", "--degrees", "7,10",
      "--bound", "2"],
     "b0dac127da768c8b94995c01e3a7f1de4a64de56d75ca61665209278b696691a"),
])
def test_cli_output_is_byte_identical_to_its_pin(capsys, argv, sha256):
    # pins the witnesses, the closed-state order and every float
    code, doc = run_json(capsys, *argv)
    assert code == 0
    text = _text_without_wall_time(doc)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_manifest_embedded_in_every_result(capsys):
    for argv in (
        ["classify", "--poly", "-2,1"],
        ["minpos", "--poly", "-2,1", "--m", "1"],
        ["gaps", "--poly", "-2,1", "--m", "1", "--bound", "7"],
    ):
        _, doc = run_json(capsys, *argv)
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        assert doc["manifest"]["command"] == argv[0]
        assert doc["manifest"]["wall_time_s"] is not None


def test_reproduce_single_case_repeats_and_records_one_thread(capsys):
    _, doc = run_json(capsys, "reproduce", "golden-closure")
    _, again = run_json(capsys, "reproduce", "golden-closure")
    # the case times go to stderr, so a second run repeats byte for byte
    for case in doc["result"]["cases"]:
        assert "runtime_s" not in case and "within_time" not in case
    assert _text_without_wall_time(again) == _text_without_wall_time(doc)
    assert doc["result"]["all_passed"]
    # no flag sets the thread count, but manifests record it until the
    # benchmark's recorded digests are next re-recorded
    manifest = doc["manifest"]
    assert manifest["params"]["threads"] == manifest["budgets"]["threads"] == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "golden-closure", "--threads", "3"])
    assert exc.value.code == 2


def test_reproduce_unknown_case_exit2(capsys):
    code, _ = run_cli(capsys, "reproduce", "no-such-case")
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "window.json"
    code = cli.main(["spectrum", "--poly", "-2,1", "--m", "1", "--bound",
                     "7", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["result"]["kind"] == "X"


def _raw_output(argv, path) -> bytes:
    """The bytes ``cli.main`` writes to ``path``, wall time set to 0."""
    cli.main(argv + ["--out", str(path)])
    return re.sub(rb'"wall_time_s":[^,}]*', b'"wall_time_s":0',
                  path.read_bytes())


@pytest.mark.parametrize("argv", [
    ["spectrum", "--poly", "-1,-1,0,0,1", "--m", "1", "--bound", "20"],
    ["spectrum", "--kind", "Y", "--poly", "-1,0,0,0,0,0,-1,0,1", "--m", "1",
     "--degree", "8", "--bound", "2"],
    ["spectrum", "--base", "1.35", "--tolerance", "1e-9", "--m", "1",
     "--bound", "20"],
    ["aq", "--base", "1.35", "--tolerance", "1e-9", "--degrees", "7,10",
     "--bound", "2"],
    ["aq", "--poly", "-1,-1,1", "--root-index", "0", "--degrees", "1,2",
     "--bound", "1/10"],
])
def test_streamed_output_is_canonical_json_of_the_point_dicts(
        tmp_path, monkeypatch, argv):
    streamed = _raw_output(argv, tmp_path / "streamed.json")
    with monkeypatch.context() as mp:
        # the envelope built whole from SpectrumWindow.to_dict()
        mp.setattr(cli, "_window_result", lambda w: w.to_dict())
        mp.setattr(cli, "write_json",
                   lambda fh, doc: fh.write(canonical_json(doc)))
        whole = _raw_output(argv, tmp_path / "whole.json")
    assert streamed == whole
    assert streamed.endswith(b"}\n")
    if "--base" in argv:
        assert b'"vec"' not in streamed
    if argv[0] == "aq":
        assert streamed.count(b'"points":[') == 2
    if "1/10" in argv:
        assert b'"points":[]' in streamed


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_and_out_file_get_the_same_bytes(tmp_path, capsys, fmt):
    argv = ["spectrum", "--poly", "-1,-1,1", "--m", "1", "--bound", "4",
            "--format", fmt]
    _, printed = run_cli(capsys, *argv)
    written = _raw_output(argv, tmp_path / "out")
    assert re.sub(rb'"wall_time_s":[^,}]*', b'"wall_time_s":0',
                  printed.encode()) == written
    assert written.endswith(b"\n") and not written.endswith(b"\n\n")


def test_window_writer_peak_per_point(tmp_path, monkeypatch):
    # the 60,504-point X window of x^4-x-1 at B=300: from the moment
    # enumerate_X returns the window, writing it may add at most 80 B a
    # point to the traced memory (57.5 measured with texts packed in one
    # string; 104.9 with one str per text, and point dicts or the whole
    # JSON text would take far more)
    enumerate_X = spectrum.enumerate_X
    held = []

    def measured(*args, **kwargs):
        w = enumerate_X(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return w

    monkeypatch.setattr(spectrum, "enumerate_X", measured)
    tracemalloc.start()
    try:
        code = cli.main(["spectrum", "--poly", "-1,-1,0,0,1", "--m", "1",
                         "--bound", "300", "--out", str(tmp_path / "w.json")])
        output_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    (window,) = held
    assert (output_peak - window) / 60504 <= 80


def test_main_writes_the_manifest(capsys):
    code, doc = run_json(capsys, "classify", "--poly", "-1,-1,1")
    assert code == 0
    manifest = doc["manifest"]
    assert set(manifest) == {"command", "params", "precision_bits", "budgets",
                             "version", "wall_time_s", "input_hashes"}
    params = manifest["params"]
    assert manifest["command"] == "classify" and params["poly"] == "-1,-1,1"
    assert manifest["version"] == __version__
    assert manifest["input_hashes"] == {"params_sha256": params_hash(params)}
    assert isinstance(manifest["wall_time_s"], float)
    assert manifest["wall_time_s"] >= 0
