"""Tests of the benchmark's own helpers: the tail-percentile rule, span self
times, the host-speed probe, the set-up probe, the census oracle, failure
classification and output fingerprints."""

import json
import subprocess
import sys
import time

import pytest

import run

run._check_library()

import oracle  # noqa: E402
import workloads  # noqa: E402
from qspectra.errors import ReducibleInputError  # noqa: E402
from tracer import Tracer, ancestor_flags, self_times  # noqa: E402


def test_tail_needs_more_than_ten_samples():
    assert run.tail_latency([1.0] * 10) is None


def test_tail_leaves_exactly_ten_samples_above():
    samples = [float(i) for i in range(1, 21)]          # passed reversed
    value, pct, n = run.tail_latency(samples[::-1])
    assert (value, pct, n) == (10.0, 50.0, 20)
    assert sum(1 for s in samples if s > value) == 10
    value, pct, n = run.tail_latency(samples[:11])
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    root = tr.add_span("a.root", -1, 0.0, 10.0)
    c1 = tr.add_span("a.child", root, 1.0, 4.0)
    tr.add_span("b.grandchild", c1, 2.0, 3.0)
    tr.add_span("a.child", root, 5.0, 6.0)
    assert list(self_times(tr)) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert list(ancestor_flags(tr, lambda nm: nm == "a.child")) == [0, 1, 1, 1]


def test_tracer_wraps_and_restores_library_functions():
    import qspectra
    from qspectra import spectrum
    original = spectrum.min_positive_bfs
    tr = Tracer()
    tr.install()
    try:
        q = qspectra.AlgebraicNumber.base_from_poly(
            qspectra.IntPolynomial([-1, -1, 1]), root_index=0)
        spectrum.min_positive_bfs(q, 1, 3)
    finally:
        tr.uninstall()
    assert spectrum.min_positive_bfs is original
    assert "spectrum.min_positive_bfs" in tr.names
    assert "algebraic.ZqContext.step" in tr.names
    assert all(e >= s for s, e in zip(tr.start, tr.end))


def test_speed_probe_samples_regions_too_short_for_sigprof():
    with run.SpeedProbe() as probe:
        pass
    assert len(probe.samples) == 0
    assert probe.factor() > 0 and len(probe.samples) == 5


def test_setup_probe_times_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "setup_probe.py"), "census"],
        capture_output=True, text=True, timeout=60, check=True)
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert probe["setup_s"] > 0 and probe["factor"] > 0


def test_oracle_anchors():
    oracle.self_check()
    lehmer = oracle.oracle(oracle.ANCHORS[2][1])
    assert lehmer.label == oracle.NOT_PISOT and lehmer.on_circle == 8
    assert abs(lehmer.q - 1.17628081825991) < 1e-12


def test_oracle_rational_roots_are_exact():
    # (x - 1)(x^3 + x^2 - 1): the root at 1 is not "> 1", the cubic's real
    # root is below 1, so there is nothing to classify
    assert oracle.oracle([1, -1, -1, 0, 1]) is None
    # (x^2 - x - 1)(x^2 + 1): q is the golden ratio, the input is reducible
    ans = oracle.oracle([-1, -1, 0, -1, 1])
    assert ans.min_poly == (-1, -1, 1) and ans.reducible
    assert ans.label == oracle.PISOT


def test_descartes_prefilter_agrees_with_oracle():
    for coeffs in [(-1, -1, 0, 1), (1, 0, 1, 1), (1, -1, -1, 0, 1),
                   (-1, 0, 0, -1, 1), (1, 1, 1, 1)]:
        verdict = workloads.descartes_root_above_one(coeffs)
        if verdict is not None:
            assert verdict == (oracle.oracle(coeffs) is not None)


def test_failure_classification():
    def spin():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5:
            pass

    def typed():
        raise ReducibleInputError("stub")

    def untyped():
        raise ValueError("stub")

    outcome, _, dt = run.run_op(spin, deadline_s=0.05)
    assert outcome == "timeout" and dt < 1
    assert run.run_op(typed, 1.0)[0] == "typed_error"
    assert run.run_op(untyped, 1.0)[0] == "untyped_error"
    assert run.run_op(lambda: 3, 1.0)[:2] == ("ok", 3)

    class Stub(workloads.Workload):
        def check(self, op, out, expected):
            return out == 3

    ops = [workloads.Op(f"op{i}", call) for i, call in
           enumerate([lambda: 3, lambda: 4, typed, spin])]
    records = run.Pass().run(ops, 0.05).records
    assert run.judge(Stub(), records, {}) == [
        "ok", "wrong", "typed_error", "timeout"]


def test_fingerprint_exact_parts_and_float_tolerance():
    a = workloads.fingerprint({"digits": [1, 0, -1], "value": 1.25})
    b = workloads.fingerprint({"digits": [1, 0, -1], "value": 1.25 * (1 + 1e-12)})
    c = workloads.fingerprint({"digits": [1, 0, 0], "value": 1.25})
    d = workloads.fingerprint({"digits": [1, 0, -1], "value": 1.3})
    assert workloads.fingerprint_matches(b, a)
    assert not workloads.fingerprint_matches(c, a)
    assert not workloads.fingerprint_matches(d, a)


def test_fingerprint_compares_every_float():
    values = [1.0 + i / 7 for i in range(60000)]
    want = workloads.fingerprint({"points": values})
    shifted = list(values)
    shifted[30000] *= 1 + 1e-7                # one value, far below the sum
    swapped = list(values)
    swapped[10], swapped[11] = swapped[11], swapped[10]
    rounded = [v * (1 + 1e-13) for v in values]
    assert not workloads.fingerprint_matches(
        workloads.fingerprint({"points": shifted}), want)
    assert not workloads.fingerprint_matches(
        workloads.fingerprint({"points": swapped}), want)
    assert workloads.fingerprint_matches(
        workloads.fingerprint({"points": rounded}), want)


def test_recorded_fingerprints_load():
    expected = workloads.load_expected()
    assert len(expected["spectrum_X_quartic_B300"]["floats"]) == 60506
    assert all(len(v["digest"]) == 64 for v in expected.values())


def test_census_takes_every_input_of_low_degree():
    irreducible, _ = workloads.census_sample(1)
    degrees = [len(coeffs) - 1 for coeffs, _ in irreducible]
    assert [degrees.count(d) for d in range(3, 11)] == [3, 8, 30] + [30] * 5
