"""Every precondition of the public entry points ends in PreconditionError.

Each case calls one entry point with one bad input.  At the CLI the same
errors exit 2 with a single ``error:`` line on stderr and no traceback.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from qspectra import cli
from qspectra.algebraic import AlgebraicNumber, classify_base, power_base
from qspectra.disks import conjugates
from qspectra.errors import PreconditionError
from qspectra.expansions import (DigitSequence, SignPattern,
                                 greedy_expansion, lazy_constrained,
                                 periodic_completion, verify_expansion)
from qspectra.intpoly import IntPolynomial, cauchy_root_bound
from qspectra.spectrum import (enumerate_A, enumerate_X, enumerate_Y,
                               gap_report, min_positive_bfs)
from qspectra.witness import (accumulation_verdict, build_witness,
                              parse_complex)


def phi():
    return AlgebraicNumber.base_from_poly(IntPolynomial([-1, -1, 1]),
                                          root_index=0)


def one():
    return AlgebraicNumber.from_rational(Fraction(1))


def rational(text):
    return AlgebraicNumber.from_rational(Fraction(text))


BIG = 10**5000


CASES = {
    # expansions
    "greedy m < 1": lambda: greedy_expansion(1, phi(), 0, 10),
    "greedy N < 1": lambda: greedy_expansion(1, phi(), 1, 0),
    "greedy q <= 1": lambda: greedy_expansion(1, one(), 1, 10),
    "lazy m < 1": lambda: lazy_constrained(
        phi(), 0, SignPattern.all_indices(), 10),
    "lazy horizon < 1": lambda: lazy_constrained(
        phi(), 1, SignPattern.all_indices(), 0),
    "lazy q <= 1": lambda: lazy_constrained(
        one(), 1, SignPattern.all_indices(), 10),
    "lazy horizon past a materialized pattern": lambda: lazy_constrained(
        phi(), 1, SignPattern.from_membership([1, 2], 5), 10),
    "lazy threshold past max(horizon + 1, 4096)": lambda: lazy_constrained(
        phi(), 1, SignPattern(frozenset(), 4097, "in"), 10),
    "pattern index 0": lambda: SignPattern.all_indices().contains(0),
    "pattern unknown field": lambda: SignPattern.from_text("period:2"),
    "digit below first_index": lambda: DigitSequence(
        (1,), 1, first_index=1).digit(0),
    "periodic completion of nothing": lambda: periodic_completion(
        (), phi(), 1),
    "periodic completion digit over m": lambda: periodic_completion(
        (-1, 2), phi(), 1),
    # spectrum
    "X m < 1": lambda: enumerate_X(phi(), 0, 5),
    "Y m < 1": lambda: enumerate_Y(phi(), 0, 3, 2),
    "search m < 1": lambda: min_positive_bfs(phi(), 0),
    "Y degree < 0": lambda: enumerate_Y(phi(), 1, -1, 2),
    "A degree < 0": lambda: enumerate_A(phi(), -1, 2),
    "window q <= 1": lambda: enumerate_X(one(), 1, 5),
    # witness
    "witness horizon < 8": lambda: build_witness(phi(), 1, "-1.2", 7),
    "witness nonreal |p| < 1": lambda: build_witness(phi(), 1, "0.5,0.5"),
    "complex point of three parts": lambda: parse_complex("1,2,3"),
    "verdict m < 1": lambda: accumulation_verdict(phi(), 0),
    "verdict q <= 1": lambda: accumulation_verdict(one(), 1),
    # algebraic and intpoly
    "constant minimal polynomial": lambda: AlgebraicNumber(
        IntPolynomial([3]), Fraction(0), Fraction(1)),
    "both root selectors": lambda: AlgebraicNumber.base_from_poly(
        IntPolynomial([-2, 0, 1]), root_index=0,
        root_interval=(Fraction(1), Fraction(2))),
    "no root selector": lambda: AlgebraicNumber.base_from_poly(
        IntPolynomial([-2, 0, 1])),
    "selected root <= 1": lambda: AlgebraicNumber.base_from_poly(
        IntPolynomial([-2, 0, 1]), root_interval=(Fraction(-2), Fraction(-1))),
    "interval end past the int-to-str digit limit": lambda: AlgebraicNumber(
        IntPolynomial([-1, -1, 1]), Fraction(-10**5000), Fraction(3)),
    "classify q <= 1": lambda: classify_base(one()),
    "power exponent < 1": lambda: power_base(phi(), 0),
    "leading coefficient of zero": lambda: IntPolynomial([]).leading,
    "root bound of a constant": lambda: cauchy_root_bound(IntPolynomial([3])),
    "conjugates of a constant": lambda: conjugates(IntPolynomial([3])),
    "empty polynomial text": lambda: IntPolynomial.from_text(""),
    "blank polynomial text": lambda: IntPolynomial.from_text(" "),
    # values past Python's 4,300-digit int-to-str limit or the float range,
    # which once broke the message that named them
    "root index past the digit limit": lambda: AlgebraicNumber.base_from_poly(
        IntPolynomial([-1, -1, 1]), root_index=BIG),
    "root interval of three parts past the digit limit":
        lambda: AlgebraicNumber.base_from_poly(
            IntPolynomial([-1, -1, 1]), root_interval=(BIG, 1, 2)),
    "Y degree past the digit limit": lambda: enumerate_Y(
        rational("27/20"), 1, BIG, 2),
    "A degree past the digit limit": lambda: enumerate_A(
        rational("27/20"), BIG, 2),
    "X m past the digit limit": lambda: enumerate_X(
        phi(), Fraction(BIG, 3), 5),
    "search depth past the digit limit": lambda: min_positive_bfs(
        phi(), 1, Fraction(BIG, 3)),
    "coefficient past the digit limit": lambda: IntPolynomial(
        [Fraction(BIG, 3)]),
    "tail fraction past the float range": lambda: gap_report(
        enumerate_X(phi(), 1, 3), Fraction(BIG)),
    "tolerance past the float range": lambda: min_positive_bfs(
        rational("27/20"), 1, 3, tol=BIG),
    "tolerance that is not a number": lambda: min_positive_bfs(
        rational("27/20"), 1, 3, tol="x"),
    "companion point past the digit limit": lambda: build_witness(
        rational("9/5"), 1, BIG),
    "explicit index past the digit limit": lambda: SignPattern(
        frozenset({BIG}), 3),
    "eventual flag past the digit limit": lambda: SignPattern(
        frozenset(), 3, BIG),
    "membership past the digit limit": lambda: SignPattern.from_membership(
        [1], 3).contains(BIG),
    "first index past the digit limit": lambda: DigitSequence(
        (1,), 1, first_index=BIG).digit(0),
    "sequence past the digit limit": lambda: verify_expansion(
        BIG, phi(), 1, 3),
    "pattern past the digit limit": lambda: lazy_constrained(
        phi(), 1, BIG, 3),
    "refinement width past the digit limit": lambda: phi().refine_to_width(
        -BIG),
    "verdict on an integer past the digit limit": lambda:
        accumulation_verdict(rational(BIG), 1).to_dict(),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_bad_input_raises_a_precondition_error(call):
    with pytest.raises(PreconditionError):
        call()


CLI_CASES = {
    "unparsable number": ["classify", "--base", "1.3.5"],
    "both --poly and --base": ["classify", "--poly", "-1,-1,1",
                               "--base", "1.5"],
    "neither --poly nor --base": ["classify"],
    "base <= 1": ["classify", "--base", "0.5"],
    "both root selectors": ["classify", "--poly", "-2,0,1", "--root-index",
                            "0", "--root-interval", "1..2"],
    "root interval end past the int-to-str digit limit": [
        "classify", "--poly", "-1,-1,1", "--root-interval", "-1e5000..3"],
    "base past the int-to-str digit limit": ["verdict", "--base", "1e5000",
                                             "--m", "1"],
    "expand with both": ["expand", "--poly", "-1,-1,1", "--m", "1",
                         "--target", "1", "--pattern", "explicit:1"],
    "expand with neither": ["expand", "--poly", "-1,-1,1", "--m", "1"],
}


@pytest.mark.parametrize("argv", CLI_CASES.values(), ids=CLI_CASES.keys())
def test_cli_bad_input_exits_2_with_one_error_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err
