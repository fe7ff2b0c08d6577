"""qspectra: discreteness structure of spectra of real bases q > 1.

Exact enumeration of the sets of digit-polynomial values at a base q,
certified Pisot classification, minimal-positive-element search with closure
detection, constrained lazy digit expansions, and the conjugate-witness
construction, with a reproduction suite and CLI on top.
"""

__version__ = "0.1.0"

from .algebraic import (
    AlgebraicNumber,
    ConjugateDisk,
    ConjugateSet,
    NumberClass,
    ZqContext,
    classify_base,
    conjugates,
    power_base,
)
from .expansions import (
    DigitSequence,
    SignPattern,
    greedy_expansion,
    lazy_constrained,
    periodic_completion,
    verify_expansion,
)
from .intpoly import IntPolynomial
from .spectrum import (
    BfsResult,
    GapReport,
    L_estimate,
    SpectrumWindow,
    enumerate_A,
    enumerate_X,
    enumerate_Y,
    gap_report,
    l_estimate,
    min_positive_bfs,
)
from .witness import (
    AccumulationVerdict,
    Direction,
    WitnessReport,
    accumulation_verdict,
    build_P_and_k,
    build_witness,
    choose_w,
)

__all__ = [
    "AlgebraicNumber", "ConjugateDisk", "ConjugateSet", "NumberClass",
    "ZqContext", "classify_base", "conjugates", "power_base",
    "DigitSequence", "SignPattern", "greedy_expansion", "lazy_constrained",
    "periodic_completion", "verify_expansion", "IntPolynomial",
    "BfsResult", "GapReport", "L_estimate", "SpectrumWindow",
    "enumerate_A", "enumerate_X", "enumerate_Y", "gap_report", "l_estimate",
    "min_positive_bfs", "AccumulationVerdict", "Direction", "WitnessReport",
    "accumulation_verdict", "build_P_and_k", "build_witness", "choose_w",
    "__version__",
]
