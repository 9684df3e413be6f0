"""Traced pass: votecert's layers observed from outside the package.

`Tracer.install()` wraps the public functions of each votecert module (and
a few methods and private hot spots) in place, rebinding every module-level
reference to them, so no program file changes.  Wrapped calls either
record a span (layer.name, start, end, parent, job) or bump a call counter.
Spans stay in memory until the run ends.  `layer_metrics` turns them into
the per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "rules", "prefs", "axioms", "beliefs", "polytope", "lp")

# prefs returns lazy iterators that run inside their callers, and the other
# names here run in inner loops (up to about 750,000 calls per pass); they
# are counted, not spanned, so the trace stays small and cheap.
COUNT_ONLY_LAYERS = {"prefs"}
COUNT_ONLY = {
    "rules.validate_lottery",
    "beliefs.SimplexPolynomial.evaluate",
    "lp._pivot",
}
# Methods and private functions wrapped in addition to public module functions.
EXTRA = {
    "rules": ("RuleTable.__init__",),
    "beliefs": ("SimplexPolynomial.evaluate",),
    "lp": ("SlackBasisSimplex.__init__", "SlackBasisSimplex.solve", "_pivot"),
}


def _hook_table():
    """Counters read from a spanned call's arguments and result."""

    def add(name, value):
        return lambda tr, args, result: tr.add(name, value(args, result))

    def peak(name, value):
        return lambda tr, args, result: tr.peak(name, value(args, result))

    return {
        "lp.reduce_equalities": [add("lp.eq_rows", lambda a, r: len(a["eqs"]))],
        "lp.SlackBasisSimplex.__init__": [
            add("lp.tableau_cells", lambda a, r: a["self"].nrows * (a["self"].ncols + 1)),
        ],
        "polytope.build_polytope": [
            add("polytope.rows", lambda a, r: len(r.constraints)),
            add("polytope.vars", lambda a, r: r.n_vars),
        ],
        "polytope.max_distance": [
            add("polytope.solves", lambda a, r: r.n_solves),
            peak("polytope.free_dim", lambda a, r: r.free_dim),
        ],
        "beliefs.dominance_polynomial": [add("beliefs.poly_terms", lambda a, r: len(r.terms))],
        "beliefs.sample_refute": [add("beliefs.scan_hits", lambda a, r: int(r is not None))],
        "beliefs.polya_certify": [peak("beliefs.polya_degree_max", lambda a, r: a["boost"])],
        "rules.RuleTable.__init__": [
            add("rules.profiles_validated", lambda a, r: len(a["self"].table)),
        ],
    }


class Tracer:
    """Spans and counters for one traced pass; one tracer per pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[int] = []
        self._hooks = _hook_table()
        self._signatures: dict[str, inspect.Signature] = {}
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    # -- recording ----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)
        hooks = self._hooks.get(name)
        if hooks:
            if name not in self._signatures:
                self._signatures[name] = inspect.signature(fn)
            bound = self._signatures[name].bind(*args, **kwargs)
            bound.apply_defaults()
            for hook in hooks:
                hook(self, bound.arguments, result)
        return result

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's functions; `uninstall` restores them."""
        modules = {layer: importlib.import_module(f"votecert.{layer}") for layer in LAYERS}
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            targets = [
                (mod, attr, f"{layer}.{attr}")
                for attr, obj in vars(mod).items()
                if not attr.startswith("_")
                and callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == mod.__name__
                and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
            ]
            for dotted in EXTRA.get(layer, ()):
                *owner_path, attr = dotted.split(".")
                owner = mod
                for part in owner_path:
                    owner = getattr(owner, part)
                targets.append((owner, attr, f"{layer}.{dotted}"))
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                if layer in COUNT_ONLY_LAYERS or name in COUNT_ONLY or inspect.isgeneratorfunction(original):
                    wrapper = self._counted(name, original)
                else:
                    wrapper = self._spanned(name, original)
                self._patch(owner, attr, wrapper)
                if not inspect.isclass(owner):
                    replaced[id(original)] = (original, wrapper)
        # `from .x import f` copies f into other modules: rebind those too.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "votecert" or mod_name.startswith("votecert.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "job": job}
            for i, (name, start, end, parent, job) in enumerate(self.spans)
        ]


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, report_bytes: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            covered[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    axioms_top = 0.0
    for i, (name, start, end, parent, _job) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - covered[i]
        calls[name] += 1
        if name.startswith("axioms.") and (parent < 0 or not spans[parent][0].startswith("axioms.")):
            axioms_top += end - start
    counts, peaks = tracer.counts, tracer.peaks

    def ratio(num, den):
        return num / den if den else 0.0

    solve_s = total["lp.SlackBasisSimplex.solve"]
    named_axioms = [
        total["axioms.responsiveness_deviation"],
        total["axioms.isolation_deviation"],
        total["axioms.distance_to_random_dictatorship"],
        total["axioms.min_eps_pareto"],
    ]
    scans = calls["beliefs.sample_refute"]
    return {
        "lp.simplex_solve_s": (solve_s, "s"),
        "lp.simplex_init_s": (total["lp.SlackBasisSimplex.__init__"], "s"),
        "lp.pivots": (counts["lp._pivot"], "count"),
        "lp.pivot_ms": (1000 * ratio(solve_s, counts["lp._pivot"]), "ms"),
        "lp.tableau_cells": (counts["lp.tableau_cells"], "count"),
        "lp.reduce_equalities_s": (total["lp.reduce_equalities"], "s"),
        "lp.eq_rows": (counts["lp.eq_rows"], "count"),
        "polytope.build_s": (total["polytope.build_polytope"], "s"),
        "polytope.rows": (counts["polytope.rows"], "count"),
        "polytope.vars": (counts["polytope.vars"], "count"),
        "polytope.self_s": (own["polytope.max_distance"], "s"),
        "polytope.free_dim": (peaks["polytope.free_dim"], "count"),
        "polytope.solves": (counts["polytope.solves"], "count"),
        "beliefs.sample_refute_s": (total["beliefs.sample_refute"], "s"),
        "beliefs.scans": (scans, "count"),
        "beliefs.scan_hit_ratio": (ratio(counts["beliefs.scan_hits"], scans), "ratio"),
        "beliefs.evaluations": (counts["beliefs.SimplexPolynomial.evaluate"], "count"),
        "beliefs.dominance_polynomial_s": (total["beliefs.dominance_polynomial"], "s"),
        "beliefs.polynomials": (calls["beliefs.dominance_polynomial"], "count"),
        "beliefs.poly_terms": (counts["beliefs.poly_terms"], "count"),
        "beliefs.polya_certify_s": (total["beliefs.polya_certify"], "s"),
        "beliefs.polya_calls": (calls["beliefs.polya_certify"], "count"),
        "beliefs.polya_degree_max": (peaks["beliefs.polya_degree_max"], "count"),
        "beliefs.classic_s": (total["beliefs.check_classic_sp"], "s"),
        "axioms.responsiveness_s": (named_axioms[0], "s"),
        "axioms.isolation_s": (named_axioms[1], "s"),
        "axioms.distance_s": (named_axioms[2], "s"),
        "axioms.pareto_s": (named_axioms[3], "s"),
        "axioms.other_s": (axioms_top - sum(named_axioms), "s"),
        "rules.load_s": (total["rules.load_rule"], "s"),
        "rules.load_calls": (calls["rules.load_rule"], "count"),
        "rules.table_build_s": (total["rules.RuleTable.__init__"], "s"),
        "rules.profiles_validated": (counts["rules.profiles_validated"], "count"),
        "prefs.enumerate_profiles_calls": (counts["prefs.enumerate_profiles"], "count"),
        "prefs.canonicalize_calls": (counts["prefs.canonicalize"], "count"),
        "cli.self_s": (own["cli.main"], "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
    }
