"""qspectra: discreteness structure of spectra of real bases q > 1.

Exact enumeration of the sets of digit-polynomial values at a base q,
certified Pisot classification, minimal-positive-element search with closure
detection, constrained lazy digit expansions, and the conjugate-witness
construction, with a reproduction suite and CLI on top.

``import qspectra`` loads the classification layer (``algebraic``,
``intpoly``) at once; the names of ``disks`` (the certified conjugate
disks, ``conjugates`` among them), ``expansions``, ``spectrum`` and
``witness`` load their module on first use (PEP 562).  Records are
``collections.namedtuple`` subclasses, or plain classes on
``records.FrozenRecord`` where a tuple does not fit, so that no module loads
``inspect`` or ``typing``, which are slow to import.
"""

import importlib

__version__ = "0.1.0"

from .algebraic import (
    AlgebraicNumber,
    NumberClass,
    ZqContext,
    classify_base,
    power_base,
)
from .intpoly import IntPolynomial

#: submodule -> the names it serves, loaded on first lookup
_LAZY = {
    "disks": ("ConjugateDisk", "ConjugateSet", "conjugates"),
    "expansions": ("DigitSequence", "SignPattern", "greedy_expansion",
                   "lazy_constrained", "periodic_completion",
                   "verify_expansion"),
    "spectrum": ("BfsResult", "GapReport", "SpectrumWindow", "enumerate_A",
                 "enumerate_X", "enumerate_Y", "gap_report",
                 "min_positive_bfs"),
    "witness": ("AccumulationVerdict", "Direction", "WitnessReport",
                "accumulation_verdict", "build_P_and_k", "build_witness",
                "choose_w"),
}
_HOME = {name: mod for mod, names in _LAZY.items() for name in names}

__all__ = [
    "AlgebraicNumber", "NumberClass", "ZqContext", "classify_base",
    "power_base", "IntPolynomial", *_HOME, "__version__",
]


def __getattr__(name):
    mod = name if name in _LAZY else _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{mod}", __name__)   # binds the module
    if name != mod:
        globals()[name] = getattr(module, name)     # later lookups skip this
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
