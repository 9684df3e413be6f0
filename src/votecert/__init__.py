"""Exact checkers for anonymous randomized voting rules: axiom meters,
strategy-proofness w.r.t. all i.i.d. beliefs, and polytope distance sweeps."""

__version__ = "0.1.0"

from .axioms import (
    AxiomReport,
    DistanceReport,
    candidate_anonymity_deviation,
    distance_to_random_dictatorship,
    isolation_deviation,
    min_eps_pareto,
    min_eps_strong_unanimity,
    min_eps_super_weak_unanimity,
    min_eps_weak_unanimity,
    replay_report,
    responsiveness_deviation,
    sliding_window_deviation,
    times_at_top_deviation,
    tops_only_deviation,
    vprime_table,
)
from .beliefs import (
    ManipulationInstance,
    SPConfig,
    SPVerdict,
    SPWitness,
    SimplexPolynomial,
    check_classic_sp,
    check_weak_sp,
    dominance_polynomial,
    polya_certify,
    replay_gain,
    sample_refute,
)
from .errors import CapExceededError, DomainError, InternalError, ValidationError, VoteCertError
from .lp import Constraint, LinearProgram, LPSolution, constraint, solve_lp
from .polytope import (
    MaxDistanceResult,
    TracedConstant,
    build_polytope,
    max_distance,
    traced_constant,
    verify_theorem,
)
from .prefs import (
    canonicalize,
    enumerate_orderings,
    enumerate_profiles,
    swap_path,
    upper_set,
)
from .rules import (
    RuleTable,
    closeness,
    load_rule,
    mixture,
    pair_rule,
    perturb,
    plurality_fixed_tiebreak,
    plurality_uniform_tiebreak,
    random_dictatorship,
    rank_rule,
    save_rule,
    uniform_rule,
)
