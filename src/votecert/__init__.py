"""Exact checkers for anonymous randomized voting rules: axiom meters,
strategy-proofness w.r.t. all i.i.d. beliefs, and polytope distance sweeps.

`import votecert` loads no layer.  The package root defines only what the
command line shows before a command runs (the version, the axiom names and
the default top rung of the Pólya ladder); every other public name is
resolved from its module on first use, so a command compiles only the
layers it runs.
"""

import importlib

__version__ = "0.1.0"

# The axioms `check` reports, in report order; `axioms.run_axiom` dispatches on them.
AXIOM_NAMES = (
    "pareto",
    "strong-unanimity",
    "weak-unanimity",
    "super-weak-unanimity",
    "responsiveness",
    "isolation",
    "tops-only",
    "times-at-top",
    "candidate-anonymity",
    "sliding-window",
)

# The top rung of the Pólya ladder in `beliefs.check_weak_sp` and `sp-check
# --polya-max`; each rung that does not certify is scanned on its own grid.
POLYA_MAX = 6


# Public name -> the layer that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "axioms": (
            "AxiomReport", "DistanceReport", "candidate_anonymity_deviation",
            "distance_to_random_dictatorship", "isolation_deviation", "min_eps_pareto",
            "min_eps_strong_unanimity", "min_eps_super_weak_unanimity", "min_eps_weak_unanimity",
            "replay_report", "responsiveness_deviation", "sliding_window_deviation",
            "times_at_top_deviation", "tops_only_deviation", "vprime_table",
        ),
        "beliefs": (
            "ManipulationInstance", "SPVerdict", "SPWitness", "SimplexPolynomial",
            "check_classic_sp", "check_weak_sp", "dominance_polynomial", "polya_certify",
            "replay_gain",
        ),
        "errors": ("CapExceededError", "DomainError", "InternalError", "ValidationError", "VoteCertError"),
        "lp": ("Constraint", "LinearProgram", "LPSolution", "constraint", "solve_lp"),
        "polytope": (
            "MaxDistanceResult", "TracedConstant", "build_polytope", "max_distance",
            "traced_constant", "verify_theorem",
        ),
        "prefs": ("canonicalize", "enumerate_orderings", "enumerate_profiles", "swap_path", "upper_set"),
        "rules": (
            "RuleTable", "closeness", "load_rule", "mixture", "pair_rule", "perturb",
            "plurality_fixed_tiebreak", "plurality_uniform_tiebreak", "random_dictatorship",
            "rank_rule", "save_rule", "uniform_rule",
        ),
    }.items()
    for name in names
}
_LAYERS = frozenset(_MODULE_OF.values())

__all__ = sorted({"AXIOM_NAMES", "POLYA_MAX", *_MODULE_OF})


def __getattr__(name: str):
    """A public name or a layer module, imported on first use (PEP 562)."""
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAYERS})
