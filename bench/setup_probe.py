"""The workloads' fixed bases, and the fresh-process timing of building them.

    python3 bench/setup_probe.py <workload>

prints one JSON object: ``setup_s``, the seconds from before ``import
qspectra`` until the workload's fixed bases are built, and ``factor``, the
host-speed factor measured right after (see run.py). Ahead of the timed
region this script imports only ``sys`` and ``time``, which the interpreter
has loaded before any script runs, so every module qspectra needs is
imported, and timed, inside it. run.py starts this script in several fresh
processes and reports the median as ``setup_s``.
"""

import sys
import time

#: The bases each workload builds in set-up; "q1.8" is the rational 9/5,
#: the others are the real roots > 1 of POLYS.
BASES = {"search": ("q8", "q4", "q3", "q1.8"), "windows": (),
         "expand": ("q8", "q3", "q1.8"), "census": ()}
POLYS = {"q8": "-1,0,0,0,0,0,-1,0,1",     # x^8 - x^6 - 1, q ~ 1.1749
         "q4": "-1,0,0,-1,1",             # x^4 - x^3 - 1, q ~ 1.3803
         "q3": "-1,-1,0,1"}               # x^3 - x - 1,   q ~ 1.3247


def build_bases(workload: str) -> dict:
    """Import qspectra (its CLI too, for windows) and build the workload's
    fixed bases; search also builds each algebraic base's Z[q] context."""
    import qspectra
    if workload == "windows":
        import qspectra.cli  # noqa: F401
    env = {}
    for key in BASES[workload]:
        if key == "q1.8":
            env[key] = qspectra.AlgebraicNumber.from_rational("1.8")
            continue
        env[key] = qspectra.AlgebraicNumber.base_from_poly(
            qspectra.IntPolynomial.from_text(POLYS[key]), root_index=0)
        if workload == "search":
            env[key].zq_context()
    return env


def main() -> int:
    workload = sys.argv[1]
    sys.path.insert(0, sys.path[0] + "/../src")
    t0 = time.perf_counter()
    build_bases(workload)
    setup_s = time.perf_counter() - t0
    import json

    import run
    print(json.dumps({"setup_s": setup_s, "factor": run.idle_factor()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
