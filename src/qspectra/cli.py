"""Command-line front end.

Subcommands: classify, spectrum, gaps, minpos, expand, witness, aq,
verdict, reproduce.  Every run emits a manifest-carrying envelope (JSON,
or CSV for tabular results); re-running the same manifest reproduces the
output byte for byte apart from the wall time.

Exit codes: 0 ok, 1 a reproduction case failed, 2 precondition violation,
3 budget exhaustion, 4 precision exhaustion / a withheld result.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .algebraic import AlgebraicNumber, classify_base
from .config import (DEFAULT_NUMERIC_TOL, DEFAULT_PRECISION_BITS,
                     DEFAULT_STATE_BUDGET)
from .errors import (
    PreconditionError,
    PrecisionExhaustedError,
    QSpectraError,
)
from .intpoly import IntPolynomial
from .serialize import (
    JsonArray,
    gaps_csv,
    key_value_csv,
    minpos_csv,
    params_hash,
    window_csv,
    window_point_texts,
    windows_csv,
    write_json,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_INCONCLUSIVE = 4


def _add_base_args(sub):
    sub.add_argument("--poly", help="integer coefficients, ascending degree, "
                     "e.g. '-1,-1,0,1' for x^3-x-1")
    sub.add_argument("--root-index", type=int, default=None,
                     help="0-based index into the ascending real roots > 1")
    sub.add_argument("--root-interval", default=None,
                     help="rational isolating interval 'lo..hi'")
    sub.add_argument("--base", default=None,
                     help="rational base such as 1.35, taken exactly")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"cannot parse number {text!r}: {exc}")


def resolve_base(args) -> AlgebraicNumber:
    if (args.poly is None) == (args.base is None):
        raise PreconditionError("give exactly one of --poly / --base")
    if args.base is not None:
        if args.root_index is not None or args.root_interval is not None:
            raise PreconditionError("--root-index and --root-interval select "
                                    "a root of --poly, not of --base")
        if args.tolerance is not None:
            from .spectrum import check_tolerance
            check_tolerance(args.tolerance)
        q = AlgebraicNumber.from_rational(_parse_fraction(args.base))
        if not q.greater_than(1):
            raise PreconditionError("base must satisfy q > 1")
        return q
    poly = IntPolynomial.from_text(args.poly)
    if args.root_interval is not None and args.root_index is not None:
        raise PreconditionError("give at most one of --root-index / "
                                "--root-interval")
    if args.root_interval is not None:
        lo_txt, _, hi_txt = args.root_interval.partition("..")
        interval = (_parse_fraction(lo_txt), _parse_fraction(hi_txt))
        return AlgebraicNumber.base_from_poly(poly, root_interval=interval)
    index = args.root_index if args.root_index is not None else 0
    return AlgebraicNumber.base_from_poly(poly, root_index=index)


def _window_result(w) -> dict:
    """``w.to_dict()`` with the points left as texts, encoded from the
    window's columns, for ``write_json`` to stream, so no point is built."""
    d = w.to_dict(with_points=False)
    d["points"] = JsonArray(window_point_texts(w))
    return d


# ---------------------------------------------------------------------------
# subcommand handlers: return (result, csv_renderer, exit_code)


def cmd_classify(args):
    q = resolve_base(args)
    cls = classify_base(q)
    result = {
        "base": q.describe(),
        "class": cls.tag,
        "is_pisot": cls.is_pisot,
        "detail": cls.detail,
        "conjugates": [],
    }
    if cls.evidence_poly is not None:      # the disks, at --precision's cap
        from .disks import conjugates
        result["conjugates"] = conjugates(cls.evidence_poly, budget_bits=max(
            1024, 4 * args.precision)).evidence()
    return result, key_value_csv, EXIT_OK


def cmd_spectrum(args):
    from .spectrum import enumerate_X, enumerate_Y
    if args.kind == "X" and args.degree is not None:
        raise PreconditionError("--degree applies to Y windows only")
    q = resolve_base(args)
    B = _parse_fraction(args.bound)
    if args.kind == "X":
        w = enumerate_X(q, args.m, B, budget=args.budget_states)
    elif args.degree is None:
        raise PreconditionError("Y windows need --degree")
    else:
        w = enumerate_Y(q, args.m, args.degree, B,
                        budget=args.budget_states)
    code = EXIT_BUDGET if w.truncated else EXIT_OK
    return _window_result(w), lambda _result: window_csv(w), code


def cmd_gaps(args):
    from .spectrum import check_tail_fraction, enumerate_X, gap_report
    check_tail_fraction(args.tail_fraction)     # before the enumeration
    q = resolve_base(args)
    B = _parse_fraction(args.bound)
    w = enumerate_X(q, args.m, B, budget=args.budget_states)
    rep = gap_report(w, tail_fraction=args.tail_fraction)
    result = rep.to_dict()
    result["window_truncated"] = w.truncated
    code = EXIT_BUDGET if w.truncated else EXIT_OK
    return result, gaps_csv, code


def cmd_minpos(args):
    from .spectrum import min_positive_bfs
    q = resolve_base(args)
    res = min_positive_bfs(q, args.m, args.max_depth,
                           state_budget=args.budget_states, tol=args.tolerance)
    code = EXIT_BUDGET if res.budget_exhausted else EXIT_OK
    return res.to_dict(), minpos_csv, code


def cmd_expand(args):
    from .expansions import SignPattern, greedy_expansion, lazy_constrained
    q = resolve_base(args)
    if (args.target is None) == (args.pattern is None):
        raise PreconditionError("give exactly one of --target (greedy) / "
                                "--pattern (lazy)")
    if args.target is not None:
        seq = greedy_expansion(_parse_fraction(args.target), q, args.m,
                               args.horizon)
        result = {"mode": "greedy", "base": q.describe(),
                  "target": args.target, "sequence": seq.to_dict()}
    else:
        pattern = SignPattern.from_text(args.pattern)
        seq = lazy_constrained(q, args.m, pattern, args.horizon)
        result = {"mode": "lazy", "base": q.describe(),
                  "pattern": pattern.to_text(), "sequence": seq.to_dict(),
                  "capacity": list(seq.meta.get("capacity", ())),
                  "capacity_certified": seq.meta.get("capacity_certified")}
    return result, key_value_csv, EXIT_OK


def cmd_witness(args):
    from .witness import build_witness
    q = resolve_base(args)
    rep = build_witness(q, args.m, args.p, horizon=args.horizon)
    code = EXIT_BUDGET if "schedule_truncated" in rep.certified else EXIT_OK
    return rep.to_dict(), key_value_csv, code


def cmd_aq(args):
    from .spectrum import enumerate_A
    q = resolve_base(args)
    try:
        degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    except ValueError:
        degrees = []
    if not degrees:
        raise PreconditionError(
            f"--degrees must list integers, not {args.degrees!r}")
    B = _parse_fraction(args.bound)
    windows = [enumerate_A(q, n, B, budget=args.budget_states)
               for n in degrees]
    truncated = any(w.truncated for w in windows)
    radii = [w.covering_radius for w in windows]
    result = {
        "base": q.describe(),
        "bound": float(B),
        "degrees": degrees,
        "covering_radii": radii,
        # a window with no point in [-B, B] has no radius: not decreasing
        "strictly_decreasing": None not in radii and all(
            a > b for a, b in zip(radii, radii[1:])),
    }
    result["windows"] = [_window_result(w) for w in windows]
    code = EXIT_BUDGET if truncated else EXIT_OK
    return result, lambda _result: windows_csv(windows), code


def cmd_verdict(args):
    from .witness import accumulation_verdict
    q = resolve_base(args)
    v = accumulation_verdict(q, args.m)
    return v.to_dict(), key_value_csv, EXIT_OK


def cmd_reproduce(args):
    from .reproduce import run_cases
    results = run_cases(args.case)
    for r in results:
        mark = "PASS" if r["passed"] else "FAIL"
        print(f"{mark} {r['case']:30s} {r['runtime_s']:8.2f}s",
              file=sys.stderr)
    # the case times go to stderr only, so the output repeats byte for byte
    cases = [{k: v for k, v in r.items()
              if k not in ("runtime_s", "within_time")} for r in results]
    passed = all(r["passed"] for r in results)
    result = {"cases": cases, "all_passed": passed}
    return result, key_value_csv, EXIT_OK if passed else EXIT_FAILED


COMMANDS = {
    "classify": cmd_classify,
    "spectrum": cmd_spectrum,
    "gaps": cmd_gaps,
    "minpos": cmd_minpos,
    "expand": cmd_expand,
    "witness": cmd_witness,
    "aq": cmd_aq,
    "verdict": cmd_verdict,
    "reproduce": cmd_reproduce,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global options")
    g.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                   help=f"bits (default {DEFAULT_PRECISION_BITS}); classify "
                        f"certifies its conjugate disks at up to "
                        f"max(1024, 4x) bits")
    g.add_argument("--format", choices=["json", "csv"],
                   default=argparse.SUPPRESS)
    g.add_argument("--budget-states", type=int, default=argparse.SUPPRESS,
                   help="read by spectrum, gaps, aq and minpos: the "
                        "states a window or search may hold before it "
                        f"stops with exit 3 (default {DEFAULT_STATE_BUDGET})")
    g.add_argument("--tolerance", type=float, default=argparse.SUPPRESS,
                   help="read only by minpos: the dedup tolerance of its "
                        "float search on a non-monic base (default "
                        f"{DEFAULT_NUMERIC_TOL})")
    g.add_argument("--out", default=argparse.SUPPRESS,
                   help="write output to this file")

    ap = argparse.ArgumentParser(
        prog="qspectra",
        description="Spectra of real bases q > 1: enumeration, gaps, "
                    "classification, expansions, witnesses.",
        parents=[common])
    # no flag sets threads: manifests keep it until the next bench re-record
    ap.set_defaults(precision=DEFAULT_PRECISION_BITS, format="json",
                    threads=1, budget_states=DEFAULT_STATE_BUDGET,
                    tolerance=None, out=None)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", parents=[common],
                        help="Pisot classification of a base")
    _add_base_args(sp)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="enumerate a spectrum window")
    _add_base_args(sp)
    sp.add_argument("--kind", choices=["X", "Y"], default="X")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--bound", required=True)
    sp.add_argument("--degree", type=int, default=None,
                    help="digit-string degree cap (Y windows)")

    sp = sub.add_parser("gaps", parents=[common],
                        help="gap statistics of a window")
    _add_base_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--bound", required=True)
    sp.add_argument("--tail-fraction", type=float, default=0.5)

    sp = sub.add_parser("minpos", parents=[common],
                        help="minimal positive element search")
    _add_base_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--max-depth", type=int, default=24)

    sp = sub.add_parser("expand", parents=[common],
                        help="greedy or lazy digit expansion")
    _add_base_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--target", default=None,
                    help="greedy expansion target in [0, m/(q-1)]")
    sp.add_argument("--pattern", default=None,
                    help="sign pattern 'explicit:2,4;eventual:in;"
                         "threshold:6' for the lazy expansion")
    sp.add_argument("--horizon", type=int, default=60)

    sp = sub.add_parser("witness", parents=[common],
                        help="conjugate-witness construction")
    _add_base_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", required=True, help="companion point 're,im'")
    sp.add_argument("--horizon", type=int, default=120)

    sp = sub.add_parser("aq", parents=[common],
                        help="signed unit-digit windows and covering radii")
    _add_base_args(sp)
    sp.add_argument("--degrees", required=True, help="e.g. '7,14'")
    sp.add_argument("--bound", required=True)

    sp = sub.add_parser("verdict", parents=[common],
                        help="discreteness verdict for (q, m)")
    _add_base_args(sp)
    sp.add_argument("--m", type=int, required=True)

    sp = sub.add_parser("reproduce", parents=[common],
                        help="run registered reproduction cases")
    sp.add_argument("case", nargs="?", default="all",
                    help="case id or 'all'")
    return ap


def _params_of(args) -> dict:
    skip = {"command", "out", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


_VALUE_FLAGS = {
    "--poly", "--root-interval", "--base", "--bound", "--target",
    "--pattern", "--p", "--degrees", "--tolerance",
}


def _preprocess_argv(argv):
    """Join value flags with '=' so values with leading dashes parse
    (e.g. --poly -1,-1,0,1)."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            try:
                out.append(f"{tok}={next(it)}")
            except StopIteration:
                out.append(tok)
        else:
            out.append(tok)
    return out


def _out_error(path: str) -> str | None:
    """Why ``path`` cannot be written, or None; found without creating or
    truncating it, so a failed command leaves an existing file as it was."""
    folder = os.path.dirname(path) or "."
    code = (errno.ENOENT if not os.path.exists(folder)
            else errno.ENOTDIR if not os.path.isdir(folder)
            else errno.EISDIR if os.path.isdir(path)
            else errno.EACCES if not os.access(
                path if os.path.exists(path) else folder, os.W_OK) else 0)
    return os.strerror(code) if code else None


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser()
    args = ap.parse_args(_preprocess_argv(argv))
    t0, params = time.perf_counter(), _params_of(args)
    manifest = {
        "command": args.command, "params": params,
        "precision_bits": args.precision,
        "budgets": {"states": args.budget_states, "threads": args.threads},
        "version": __version__, "wall_time_s": None,
        "input_hashes": {"params_sha256": params_hash(params)},
    }
    if args.out and (why := _out_error(args.out)):     # before the run
        print(f"error: cannot write {args.out!r}: {why}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        result, csv_fn, code = COMMANDS[args.command](args)
    except PrecisionExhaustedError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except QSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION

    manifest["wall_time_s"] = round(time.perf_counter() - t0, 6)
    doc = {"manifest": manifest, "result": result}
    try:
        with (open(args.out, "w") if args.out
              else contextlib.nullcontext(sys.stdout)) as fh:
            if args.format == "csv":
                fh.write(csv_fn(result))
            else:
                write_json(fh, doc)
                fh.write("\n")
            fh.flush()
    except OSError as exc:
        if not args.out:
            if not isinstance(exc, BrokenPipeError):
                raise
            # the reader closed stdout: the exit flush of what is still
            # buffered goes to devnull, so the run ends quietly
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return code
        print(f"error: cannot write {args.out!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_PRECONDITION
    return code


if __name__ == "__main__":
    sys.exit(main())
