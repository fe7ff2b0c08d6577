"""qspectra benchmark.

    python3 bench/run.py --workload {search,windows,expand,census}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src. Each
workload runs as a closed loop with one caller in this single process: the
next operation starts when the last one returns. A run makes a fixed
number of passes over the workload's operation list, seconds divided by
the seed commit's time per pass, so the work done never depends on how fast
the program is.

--trace 0 measures from outside, calling only the public API, and reports
the end-to-end metrics:

  setup_s      median over fresh processes (setup_probe.py) of: import
               qspectra and build the workload's fixed bases (input
               generation and oracle excluded)
  wall_s       median over passes of the time to run the operation list once
  peak_rss_mb  ru_maxrss of this process after the timed passes

Both times are scaled to a reference host speed (see KERNEL_REF_S below).

The stderr summary adds the operation latencies, which BENCHMARK.json does
not bound: op_p50_s, the median latency of one operation, and op_tail_s,
the latency at the highest percentile with at least ten operations beyond
it (failed operations count at the deadline), with that percentile and the
sample count, and failed_frac, the share of operations without a correct
answer. On the search and windows workloads a run holds only 12 and 15
operations, so their latencies spread too far between runs to be bounded.

--trace 1 runs one untraced pass to warm up, one untraced pass that is
timed, then one pass with every public function and method of qspectra's
modules wrapped in a span (see tracer.py), and reports the per-layer
metrics of layers.py, including the tracing overhead. Both timed passes,
and the self times taken from the traced one, are scaled to the reference
host speed as wall_s is. The spans, as measured, are written to
.bench_out/spans-<workload>.bin.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A human-readable summary, with the
failure share, the tail percentile and its sample count, goes to stderr.
``--record`` rewrites expected.json and expected_floats.xz from the
current program's outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 6

# Host-speed correction. On a shared 2-core host, where KERNEL_REF_S was
# measured, the same pure-Python code runs up to 40% slower for tens of
# seconds at a time, which swamps any bound a regression could be judged
# by. So while a timed region runs, SIGPROF interrupts it every
# PROBE_PERIOD_S of CPU time to time a fixed kernel, and the region is
# reported as
#     measured * KERNEL_REF_S / median kernel time.
# The kernel keeps no containers, so its time follows the host's speed and
# hardly the program's memory state (about 65 us inside every workload on
# that host). KERNEL_REF_S is that time, so there reported and measured
# times agree on average; the summary prints the measured ones. A set-up
# probe may import nothing ahead of the import it times, so it times the
# kernel back to back right after its timed region instead (idle_factor).
KERNEL_REF_S = 6.5e-5
PROBE_PERIOD_S = 0.005
IDLE_SAMPLES = 31


def speed_kernel():
    """Fixed pure-Python integer arithmetic."""
    acc = 1
    for i in range(600):
        acc = (acc * 31 + i) & 0xFFFFF
    return acc


def kernel_time() -> float:
    t0 = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - t0


def idle_factor() -> float:
    """KERNEL_REF_S over the median of IDLE_SAMPLES back-to-back kernel
    times."""
    return KERNEL_REF_S / statistics.median(kernel_time()
                                            for _ in range(IDLE_SAMPLES))


class SpeedProbe:
    """Collects kernel times while active; the kernel never touches the
    program's state. Use ``factor(start)`` for the samples from ``start``,
    or ``run(ops, deadline_s)`` for a pass and its factor."""

    def __init__(self):
        self.samples = array("d")

    def _sample(self, signum, frame):
        self.samples.append(kernel_time())

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # a SIGPROF already pending would terminate the process by default
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def factor(self, start: int = 0) -> float:
        """KERNEL_REF_S over the median kernel time since ``start``; a region
        too short to be sampled is followed by samples taken on the spot."""
        while len(self.samples) - start < 5:
            self._sample(None, None)
        return KERNEL_REF_S / statistics.median(self.samples[start:])

    def run(self, ops, deadline_s):
        """(Pass over ``ops``, host-speed factor while it ran)."""
        start = len(self.samples)
        done = Pass().run(ops, deadline_s)
        return done, self.factor(start)


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler. A BaseException, so that library code
    catching Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(call, deadline_s=None):
    """Run one operation: (outcome, output, latency_s). The outcome is
    'ok', 'timeout', 'typed_error' (a QSpectraError) or 'untyped_error'."""
    from qspectra.errors import QSpectraError
    out = None
    if deadline_s is not None:
        signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        if deadline_s is not None:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            out = call()
        finally:
            if deadline_s is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = "ok"
    except DeadlineExceeded:
        outcome = "timeout"
    except QSpectraError:
        outcome = "typed_error"
    except Exception:
        outcome = "untyped_error"
    return outcome, out, time.perf_counter() - t0


def tail_latency(samples):
    """(value, percentile, n) at the highest percentile with at least ten
    samples above it, or None for ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    k = n - 11
    return sorted(samples)[k], 100.0 * (k + 1) / n, n


def _rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _check_library() -> None:
    if not (SRC / "qspectra" / "__init__.py").is_file():
        raise SystemExit(f"error: no qspectra sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))


def _setup(wl) -> dict:
    """The workload's fixed bases, built in this process (untimed)."""
    env = wl.setup()
    import qspectra
    if Path(qspectra.__file__).resolve().parent != SRC / "qspectra":
        raise SystemExit(f"error: qspectra imported from {qspectra.__file__}")
    return env


def _setup_probes(workload: str, n: int) -> list[tuple[float, float]]:
    """(measured set-up seconds, host-speed factor) of ``n`` fresh
    interpreter processes running setup_probe.py, one by one."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["factor"]))
    return out


class Pass:
    """Results of one pass over the operation list."""

    def __init__(self):
        self.records = []      # (op, outcome, output, latency)
        self.wall = 0.0

    def run(self, ops, deadline_s):
        gc.collect()
        for op in ops:
            outcome, out, dt = run_op(op.call, deadline_s)
            self.records.append((op, outcome, out, dt))
            self.wall += dt
        return self


def judge(wl, records, expected):
    """Per-record verdicts: the run_op outcome, or 'wrong' for an output
    that fails the workload's check."""
    verdicts = []
    for op, outcome, out, _ in records:
        if outcome == "ok" and not wl.check(op, out, expected):
            outcome = "wrong"
        verdicts.append(outcome)
    return verdicts


def _facts(wl, records, env) -> Counter:
    facts = Counter()
    for op, outcome, out, _ in records:
        if outcome != "ok":
            continue
        f = wl.facts(op, out)
        facts.update(f)
        facts["largest_states"] = max(facts["largest_states"],
                                      f.get("states", 0))
    for q in env.values():
        if getattr(q, "exact_rational", 1) is None:
            lo, hi = q.interval()
            facts["width_bits"] += -math.log2(hi - lo)
            facts["widths"] += 1
    return facts


def _summary(lines):
    for line in lines:
        print(line, file=sys.stderr)


def measure(wl, seconds, env, inputs, setup_samples, expected):
    deadline = wl.deadline_s
    ops = wl.ops(env, inputs)
    passes = max(1, round(seconds / wl.seconds_per_list))
    with SpeedProbe() as probe:
        done, factors = zip(*(probe.run(ops, deadline)
                              for _ in range(passes)))
    peak_mb = _rss_bytes() / 2**20
    records = [r for p in done for r in p.records]
    verdicts = judge(wl, records, expected)
    failed = sum(1 for v in verdicts if v != "ok")
    lat = [max(dt, deadline) if v != "ok" and deadline else dt
           for (_, _, _, dt), v in zip(records, verdicts)]
    tail = tail_latency(lat)
    setup_raw = statistics.median(t for t, _ in setup_samples)
    wall_raw = statistics.median(p.wall for p in done)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in setup_samples), "s"),
        "wall_s": (statistics.median(p.wall * f
                                     for p, f in zip(done, factors)), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    _summary([f"{wl.name}: {len(ops)} operations x {passes} passes, "
              f"closed loop, 1 caller; pass walls "
              + " ".join(f"{p.wall:.4g}" for p in done)]
             + [f"  {k:12s} {v:.6g} {u}" for k, (v, u) in metrics.items()]
             + [f"  measured: setup_s {setup_raw:.6g} s, wall_s {wall_raw:.6g}"
                f" s; host-speed factor {statistics.median(factors):.4g} "
                f"({len(probe.samples)} kernel samples)",
                f"  op_p50_s     {statistics.median(lat):.6g} s",
                f"  op_tail_s    {tail[0]:.6g} s (p{tail[1]:.1f} of {tail[2]} "
                f"operations)" if tail else "  op_tail_s    - (10 or fewer)",
                f"  failed_frac  {failed / len(records):.4g} ratio "
                f"({dict(Counter(verdicts))})"])
    return len(records), failed, metrics


def trace_pass(wl, env, inputs, expected, setup_rss):
    from layers import PER_LAYER, layer_metrics
    from tracer import Tracer
    deadline = wl.deadline_s
    ops = wl.ops(env, inputs)
    tracer = Tracer()
    census = Counter()        # outcomes of every census operation classified
    with SpeedProbe() as probe:
        Pass().run(ops, deadline)                   # warm-up
        untraced, untraced_factor = probe.run(ops, deadline)
        rss_growth = max(_rss_bytes() - setup_rss, 0)
        if wl.name == "census":
            audit = Pass().run(wl.ops(env, inputs, "audit"), deadline)
            census.update(judge(wl, audit.records, expected))
        tracer.install()
        try:
            traced, traced_factor = probe.run(ops, deadline)
        finally:
            tracer.uninstall()
    facts = _facts(wl, traced.records, env)     # before checks touch outputs
    traced_verdicts = judge(wl, traced.records, expected)
    verdicts = traced_verdicts + judge(wl, untraced.records, expected)
    failed = sum(1 for v in verdicts if v != "ok")
    if wl.name == "census":
        census.update(traced_verdicts)
    extra = {
        "rss_growth_bytes": rss_growth,
        "census.ops": sum(census.values()),
        "census.timeouts": census["timeout"],
        "census.typed_errors": census["typed_error"],
        "census.untyped_errors": census["untyped_error"],
        "census.wrong": census["wrong"],
        "trace.wall_s": traced.wall * traced_factor,
        "trace.untraced_wall_s": untraced.wall * untraced_factor,
        "trace.overhead_s": (traced.wall * traced_factor
                             - untraced.wall * untraced_factor),
    }
    values = layer_metrics(tracer, facts, extra, traced_factor)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{wl.name}.bin")
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    _summary([f"{wl.name} traced pass: {len(tracer)} spans, measured "
              f"{traced.wall:.4g} s (untraced {untraced.wall:.4g} s), "
              f"host-speed factors {traced_factor:.4g} "
              f"({untraced_factor:.4g})"]
             + [f"  {k:28s} {v:.6g} {u}" for k, (v, u) in metrics.items()])
    return len(verdicts), failed, metrics


def record_expected(wl, env, inputs):
    """Record every fixed-input operation's output. Operations with seeded
    inputs carry them in ``meta`` and are checked on their own."""
    from workloads import fingerprint, load_expected, save_expected
    expected = load_expected()
    for op in wl.ops(env, inputs):
        if op.meta:
            continue
        outcome, out, _ = run_op(op.call)
        if outcome != "ok":
            raise SystemExit(f"error: {op.name} ended with {outcome}")
        expected[op.name] = fingerprint(wl.output_view(op, out))
    save_expected(expected)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["search", "windows", "expand", "census"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json and expected_floats.xz "
                         "from this program's outputs")
    args = ap.parse_args(argv)
    _check_library()
    from workloads import WORKLOADS, load_expected
    wl = WORKLOADS[args.workload]
    env = _setup(wl)
    setup_rss = _rss_bytes()
    inputs = wl.inputs(args.seed)
    work_dir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl.out_dir = str(work_dir)
    try:
        if args.record:
            record_expected(wl, env, inputs)
            return 0
        expected = load_expected()
        if args.trace:
            attempted, failed, metrics = trace_pass(wl, env, inputs,
                                                    expected, setup_rss)
        else:
            samples = _setup_probes(wl.name, SETUP_PROBES)
            attempted, failed, metrics = measure(wl, args.seconds, env,
                                                 inputs, samples, expected)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
