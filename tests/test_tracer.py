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
