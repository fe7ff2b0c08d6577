"""Per-layer figures from a traced pass: span counts and self times grouped
by layer, ratios measured where the work happens, and the counts taken
from the operations' outputs.

Layers are named after qspectra's modules; ``algebraic`` is split into its
four parts (the Z[q] kernel, AlgebraicNumber, FractionVecArith and the
conjugate/classification code) because each has its own cost model.
"""

from __future__ import annotations

from array import array
from collections import Counter

from tracer import Tracer, ancestor_flags, self_times

#: (metric name, unit) in report order; every traced run reports all of
#: them. A ratio whose denominator is zero is reported as 0.
PER_LAYER = (
    ("zq.step.calls", "count"), ("zq.sign.calls", "count"),
    ("zq.float_bounds.calls", "count"), ("zq.self_s", "s"),
    ("zq.ns_per_step", "ns"), ("zq.filter_hit", "ratio"),
    ("spectrum.states", "count"), ("spectrum.children", "count"),
    ("spectrum.useful_ratio", "ratio"), ("spectrum.self_s", "s"),
    ("spectrum.bytes_per_state", "B"),
    ("serialize.bytes", "B"), ("serialize.self_s", "s"), ("cli.self_s", "s"),
    ("intpoly.isolate.calls", "count"), ("intpoly.isolate.self_s", "s"),
    ("intpoly.sturm_counts", "count"), ("intpoly.sturm_per_isolate", "ratio"),
    ("intpoly.refine.calls", "count"),
    ("conjugates.calls", "count"), ("conjugates.self_s", "s"),
    ("conjugates.precision_bits", "bits"), ("conjugates.unresolved", "count"),
    ("classify.self_s", "s"),
    ("number.exact_sign.calls", "count"), ("number.exact_sign.self_s", "s"),
    ("number.refine.calls", "count"), ("number.width_bits", "bits"),
    ("fvec.sign.calls", "count"), ("fvec.self_s", "s"),
    ("expansions.digits", "count"), ("expansions.self_s", "s"),
    ("expansions.signs_per_digit", "ratio"),
    ("witness.calls", "count"), ("witness.self_s", "s"),
    ("census.ops", "count"), ("census.timeouts", "count"),
    ("census.typed_errors", "count"), ("census.untyped_errors", "count"),
    ("census.wrong", "count"),
    ("trace.spans", "count"), ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
)

ZQ_STEP = "algebraic.ZqContext.step"
ZQ_SIGN = "algebraic.ZqContext.sign"
ZQ_FLOAT_BOUNDS = "algebraic.ZqContext.float_bounds"
EXACT_SIGN = "algebraic.AlgebraicNumber.sign_of_int_poly"
EXACT_VEC_SIGN = "algebraic.AlgebraicNumber.sign_of_fraction_vec"
REFINE = "algebraic.AlgebraicNumber.refine_to_width"
ISOLATE = "intpoly.isolate_roots_exact"
STURM = "intpoly.count_roots_in"
ROOT_REFINE = "intpoly.refine_root_interval"
CONJUGATES = "algebraic.conjugates"
FVEC_SIGN = "algebraic.FractionVecArith.sign"
WITNESS = "witness.build_witness"
EXPANSION_ENTRIES = ("expansions.lazy_constrained",
                     "expansions.greedy_expansion")


def layer_of(name: str) -> str:
    """Layer of a span name 'module.Qualname'."""
    mod, _, rest = name.partition(".")
    if mod != "algebraic":
        return mod
    head = rest.split(".")[0]
    if head in ("ZqContext", "ZqElement", "zq_canonicalize", "zq_compare"):
        return "zq"
    if head in ("AlgebraicNumber", "power_base", "isolate_real_roots",
                "mpf_to_fraction"):
        return "number"
    if head == "FractionVecArith":
        return "fvec"
    if head in ("classify_base", "NumberClass"):
        return "classify"
    return "conjugates"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, facts: Counter, extra: dict,
                  time_scale: float) -> dict:
    """Every PER_LAYER metric. ``facts`` sums the counts the operations'
    outputs gave (states, bytes, digits, precision bits, ...); ``extra``
    holds the figures measured around the traced pass (wall times, census
    outcomes, memory). Self times are multiplied by ``time_scale``, the
    traced pass's host-speed factor."""
    names = tracer.names
    calls = Counter()
    for nid, n in Counter(tracer.name).items():
        calls[names[nid]] = n
    self_t = array("d", (st * time_scale for st in self_times(tracer)))
    layer_self = Counter()
    name_layer = [layer_of(nm) for nm in names]
    by_name = [0.0] * len(names)
    for nid, st in zip(tracer.name, self_t):
        by_name[nid] += st
    for nid, st in enumerate(by_name):
        layer_self[name_layer[nid]] += st

    def self_under(marker_names, layer) -> float:
        """Self time of ``layer`` spans inside a span named in
        ``marker_names`` (the marker spans included)."""
        if not any(calls[nm] for nm in marker_names):
            return 0.0
        flags = ancestor_flags(tracer, lambda nm: nm in marker_names)
        return sum(st for nid, st, f in zip(tracer.name, self_t, flags)
                   if f and name_layer[nid] == layer)

    def count_under(target, marker_names, direct_parent=False) -> int:
        if not calls[target] or not any(calls[nm] for nm in marker_names):
            return 0
        tid = names.index(target)
        if direct_parent:
            marks = {names.index(nm) for nm in marker_names if nm in names}
            return sum(1 for nid, p in zip(tracer.name, tracer.parent)
                       if nid == tid and p >= 0 and tracer.name[p] in marks)
        flags = ancestor_flags(tracer, lambda nm: nm in marker_names)
        return sum(1 for nid, f in zip(tracer.name, flags)
                   if nid == tid and f)

    spectrum_names = {nm for nm in names if nm.startswith("spectrum.")}
    exact_in_sign = count_under(EXACT_VEC_SIGN, {ZQ_SIGN}, direct_parent=True)
    children = count_under(ZQ_STEP, spectrum_names)
    isolate_sturm = count_under(STURM, {ISOLATE})
    expansion_signs = count_under(EXACT_SIGN, set(EXPANSION_ENTRIES))
    states = facts["states"]
    out = {
        "zq.step.calls": calls[ZQ_STEP],
        "zq.sign.calls": calls[ZQ_SIGN],
        "zq.float_bounds.calls": calls[ZQ_FLOAT_BOUNDS],
        "zq.self_s": layer_self["zq"],
        "zq.ns_per_step": _ratio(layer_self["zq"] * 1e9, calls[ZQ_STEP]),
        "zq.filter_hit": (1.0 - _ratio(exact_in_sign, calls[ZQ_SIGN])
                          if calls[ZQ_SIGN] else 0.0),
        "spectrum.states": states,
        "spectrum.children": children,
        "spectrum.useful_ratio": _ratio(states, children),
        "spectrum.self_s": layer_self["spectrum"],
        "spectrum.bytes_per_state": _ratio(extra["rss_growth_bytes"],
                                           facts["largest_states"]),
        "serialize.bytes": facts["bytes"],
        "serialize.self_s": layer_self["serialize"],
        "cli.self_s": layer_self["cli"],
        "intpoly.isolate.calls": calls[ISOLATE],
        "intpoly.isolate.self_s": self_under({ISOLATE}, "intpoly"),
        "intpoly.sturm_counts": calls[STURM],
        "intpoly.sturm_per_isolate": _ratio(isolate_sturm, calls[ISOLATE]),
        "intpoly.refine.calls": calls[ROOT_REFINE],
        "conjugates.calls": calls[CONJUGATES],
        "conjugates.self_s": layer_self["conjugates"],
        "conjugates.precision_bits": _ratio(facts["precision_bits"],
                                            facts["conjugate_sets"]),
        "conjugates.unresolved": facts["unresolved"],
        "classify.self_s": layer_self["classify"],
        "number.exact_sign.calls": calls[EXACT_SIGN],
        "number.exact_sign.self_s": self_under({EXACT_SIGN, EXACT_VEC_SIGN},
                                               "number"),
        "number.refine.calls": calls[REFINE],
        "number.width_bits": _ratio(facts["width_bits"], facts["widths"]),
        "fvec.sign.calls": calls[FVEC_SIGN],
        "fvec.self_s": layer_self["fvec"],
        "expansions.digits": facts["digits"],
        "expansions.self_s": layer_self["expansions"],
        "expansions.signs_per_digit": _ratio(expansion_signs,
                                             facts["digits"]),
        "witness.calls": calls[WITNESS],
        "witness.self_s": layer_self["witness"],
        "trace.spans": len(tracer),
    }
    out.update({k: extra[k] for k in (
        "census.ops", "census.timeouts", "census.typed_errors",
        "census.untyped_errors", "census.wrong", "trace.wall_s",
        "trace.untraced_wall_s", "trace.overhead_s")})
    return out
