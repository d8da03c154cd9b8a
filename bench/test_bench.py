"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for name, gen in workloads.GENERATORS.items():
        first = gen(workloads.rng_for(name, 7, 0), 12)
        again = gen(workloads.rng_for(name, 7, 0), 12)
        other = gen(workloads.rng_for(name, 8, 0), 12)
        assert first == again, name
        assert first != other, name


def test_stratified_quotas_do_not_depend_on_the_seed():
    def counts(seed):
        probs = workloads.gen_local(workloads.rng_for("local", seed, 0), 60)
        keys = [workloads._local_key(p) for p in probs]
        return sorted((k, keys.count(k)) for k in set(keys))

    assert counts(1) == counts(2)


def test_self_times_on_a_hand_built_span_tree():
    # root 0..10 s holds span 1 (1..4 s) and span 2 (5..9 s); span 2
    # holds span 3 (6..7 s) and kernel calls of 0.5 s made directly from
    # it, themselves spending 0.2 s in a nested kernel
    spans = [
        ("r", "a.root", 0.0, 10.0, None),
        ("s1", "a.left", 1.0, 4.0, "r"),
        ("s2", "a.right", 5.0, 9.0, "r"),
        ("s3", "a.left", 6.0, 7.0, "s2"),
    ]
    aggregates = [
        ("s2", "k.outer", 3, 0.5, 0.3),
        ("s2", "k.inner", 2, 0.0, 0.2),
    ]
    out = tracing.self_times(spans, aggregates)
    assert out["a.root"] == {"calls": 1, "self_s": 10.0 - 3.0 - 4.0}
    assert out["a.left"] == {"calls": 2, "self_s": 3.0 + 1.0}
    assert out["a.right"]["calls"] == 1
    assert abs(out["a.right"]["self_s"] - (4.0 - 1.0 - 0.5)) < 1e-12
    assert out["k.outer"] == {"calls": 3, "self_s": 0.3}
    assert out["k.inner"] == {"calls": 2, "self_s": 0.2}
    total = sum(row["self_s"] for row in out.values())
    assert abs(total - 10.0) < 1e-12


def test_tracer_self_times_add_up_to_the_root_span():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("exactnum.hilbert", lambda: None)
    inner = tracer.wrap("pencil.torsor_system", lambda: leaf())
    outer = tracer.wrap("pencil.brauer_group", lambda: (inner(), leaf()))
    outer()
    stats = tracer.stats()
    assert stats["pencil.brauer_group"]["calls"] == 1
    assert stats["exactnum.hilbert"]["calls"] == 2
    assert sum(row["self_s"] for row in stats.values()) == 7.0


def _system():
    # x1^2 + y1^2 = u1, x2^2 - 2 y2^2 = u2 at p = 5
    return (-1, 2), ((1, 0), (0, 1))


def test_witness_checker_accepts_a_valid_witness():
    a, forms = _system()
    assert oracle.check_local_witness(a, forms, 5, (1, 1), 4) is None
    assert oracle.check_local_witness(a, forms, None, (1, -1), None) is None


def test_witness_checker_rejects_corrupted_witnesses():
    a, forms = _system()
    # f_2 = 5 * 3: valuation 1, unit 3, and (2, 15)_5 = (2/5) = -1
    assert "symbol" in oracle.check_local_witness(a, forms, 5, (1, 15), 4)
    # f_1 = 0 mod 5^4 has no unit digits left
    assert "vanishes" in oracle.check_local_witness(a, forms, 5, (625, 1), 4)
    # at p = 2 the unit needs three digits of margin
    assert "margin" in oracle.check_local_witness((-1, 3), forms, 2,
                                                  (4, 1), 4)
    # a_1 < 0 needs f_1 > 0 over the reals
    assert "real" in oracle.check_local_witness(a, forms, None, (-1, 1), None)
    assert "coordinates" in oracle.check_local_witness(a, forms, 5, (1,), 4)


def test_local_symbol_matches_known_values():
    assert oracle.local_symbol(-1, -1, 2) == -1
    assert oracle.local_symbol(2, 5, 5) == -1
    assert oracle.local_symbol(5, 5, 5) == 1
    assert oracle.local_symbol(3, 3, 3) == -1
    # reciprocity: the symbols of (-1, 3) over 2 and 3 cancel with oo = 1
    assert oracle.local_symbol(-1, 3, 2) * oracle.local_symbol(-1, 3, 3) == 1


def test_quotient_rank_counts_independent_classes():
    assert oracle.quotient_rank((5, 5, 5, 5)) == 2
    assert oracle.quotient_rank((2, 3, 6)) == 0
    assert oracle.quotient_rank((-1, -1)) == 0


REPORT = """{
  "command": "brauer",
  "results": {
    "quotient_rank": 2
  },
  "schema": 1,
  "timings": {
    "total_seconds": 0.01
  },
  "version": "0.1.0"
}
"""


def test_cli_comparison_ignores_only_timings():
    slower = REPORT.replace("0.01", "0.25")
    assert oracle.strip_timings(REPORT) == oracle.strip_timings(slower)
    assert '"timings"' not in oracle.strip_timings(REPORT)
    for changed in (REPORT.replace('"quotient_rank": 2', '"quotient_rank": 3'),
                    REPORT.replace('"schema": 1', '"schema": 2'),
                    REPORT.replace("  \"version\"", "   \"version\""),
                    REPORT + "\n"):
        assert oracle.strip_timings(changed) != oracle.strip_timings(REPORT)


def test_cli_comparison_when_timings_is_the_last_member():
    text = '{\n  "a": 1,\n  "timings": {\n    "total_seconds": 1\n  }\n}\n'
    assert oracle.strip_timings(text) == '{\n  "a": 1\n}\n'


def test_reference_comparison():
    parts = {"scan": "cells", "brauer": (1, 2)}
    ref = workloads.reference(parts, ["els:5", "els:7"])
    assert workloads.compare(ref, parts, ["els:5", "els:7", "els:11"]) == []
    assert workloads.compare(None, {"scan": "other"}, []) == []
    assert workloads.compare(ref, dict(parts, scan="other"),
                             ["els:5", "els:7"]) == [
        "scan differs from the pinned output"]
    assert workloads.compare(ref, parts, ["els:5"]) == [
        "pinned soluble verdicts lost: els:7"]
