"""The benchmark's tracer still hooks the package.

`perfbench/tracing.py` wraps votecert's functions and a few methods by
name and reads members such as `RuleTable.table` and
`build_polytope(...).constraints` in its hooks.  A traced sweep and a
traced SP check must bump the counters the benchmark reports, so deleting
or renaming a member it reads fails here, not only in the benchmark's own
smoke test.
"""

import importlib.util
from fractions import Fraction as F
from pathlib import Path

from votecert import beliefs, polytope, rules
from votecert.beliefs import SPVerdict

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_traced_sweep_and_sp_check_bump_the_benchmark_counters():
    tracer = _tracer_class()()
    tracer.install()
    try:
        polytope.max_distance(3, 2, F(1, 10))
        beliefs.check_weak_sp(rules.plurality_fixed_tiebreak(3, 2))
    finally:
        tracer.uninstall()
    for name in ("lp._pivot", "polytope.rows", "rules.profiles_validated"):
        assert tracer.counts[name] > 0, name


def test_traced_sp_check_runs_the_ladder_hook_on_a_climbing_ladder():
    """Table 4 of the (3, 3) vertex corpus is certified at rung 2, so the
    ladder climbs and the `polya_certify` hook binds its arguments on every
    rung; tracing leaves the verdict as it is."""
    v = polytope.max_distance(3, 3, F(1, 10), keep_witnesses=True).all_witnesses[4]
    tracer = _tracer_class()()
    tracer.install()
    try:
        verdict = beliefs.check_weak_sp(v)
    finally:
        tracer.uninstall()
    assert verdict == SPVerdict("certified", polya_degree=2, max_degree_tried=2, instances_total=60)
    rungs = [span for span in tracer.spans if span[0] == "beliefs.polya_certify"]
    assert len(rungs) >= 2 and "beliefs.polya_degree_max" in tracer.peaks
