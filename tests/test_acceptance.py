"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact rational equalities or inequalities; the golden
distance values were produced by the exact solver on first run and are
pinned verbatim.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 2 note: its final clause places the refutation witness for
plurality-with-uniform-tiebreak at a point-mass belief.  No such witness
exists at (m=3, n=3): under a point-mass belief both opponents share one
ordering, whose top then holds an outright 2-vote plurality no matter what
the manipulator reports, so every dominance value at every point mass is
exactly 0 (checked exhaustively below).  The clause is asserted as written
and fails honestly; the refutation itself (at a midpoint belief, with an
exactly replaying positive gain) is criterion 2's passing core.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from votecert.axioms import (
    candidate_anonymity_deviation,
    distance_to_random_dictatorship,
    isolation_deviation,
    min_eps_pareto,
    min_eps_strong_unanimity,
    min_eps_super_weak_unanimity,
    min_eps_weak_unanimity,
    responsiveness_deviation,
    sliding_window_deviation,
    times_at_top_deviation,
    tops_only_deviation,
)
from votecert.beliefs import (
    ManipulationInstance,
    check_classic_sp,
    check_weak_sp,
    dominance_polynomial,
    enumerate_instances,
    replay_gain,
)
from votecert.lp import solve_lp
from votecert.polytope import max_distance, traced_constant
from votecert.prefs import (
    canonicalize,
    enumerate_orderings,
    kendall_tau,
    swap_path,
)
from votecert.rules import (
    constant_rule,
    mixture,
    pair_rule,
    perturb,
    plurality_uniform_tiebreak,
    random_dictatorship,
    rank_rule,
    uniform_rule,
)

from test_lp import oracle_solve, random_lp
from test_prefs import apply_swaps

GOLDEN_D_STAR = {
    (3, 2, F(1, 100)): F(1, 50),
    (3, 2, F(1, 10)): F(1, 5),
    (3, 3, F(1, 100)): F(7, 300),
    (3, 3, F(1, 10)): F(7, 30),
}


@contextmanager
def criterion(num, budget_s, description):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL {description} ({time.monotonic() - t0:.1f}s)")
        raise
    elapsed = time.monotonic() - t0
    print(f"[criterion {num}] PASS {description} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


@pytest.fixture(scope="module")
def sweep():
    """Shared polytope sweeps for criteria 3, 4, and 5."""
    out = {}
    for n in (2, 3):
        out[(3, n, F(0))] = max_distance(3, n, 0)
        for eps in (F(1, 100), F(1, 10)):
            keep = eps == F(1, 10) and n == 3
            out[(3, n, eps)] = max_distance(3, n, eps, keep_witnesses=keep)
    return out


def test_criterion_1_positive_control():
    with criterion(1, 10, "random dictatorship satisfies everything exactly"):
        v = random_dictatorship(3, 3)
        assert min_eps_pareto(v).eps == 0
        assert min_eps_strong_unanimity(v).eps == 0
        assert min_eps_weak_unanimity(v).eps == 0
        assert min_eps_super_weak_unanimity(v).eps == 0
        assert responsiveness_deviation(v).eps == 0
        assert isolation_deviation(v).eps == 0
        assert check_classic_sp(v).status == "certified"
        verdict = check_weak_sp(v)
        assert verdict.status == "certified"
        assert verdict.polya_degree == 0


def test_criterion_2_negative_control_core():
    with criterion(2, 30, "plurality tie-break refuted with exact replaying gain"):
        v = plurality_uniform_tiebreak(3, 3)
        verdict = check_weak_sp(v)
        assert verdict.status == "refuted"
        w = verdict.witness
        assert w.gain > 0
        assert replay_gain(v, w) == w.gain
        assert distance_to_random_dictatorship(v).closeness.eps > 0


def test_criterion_2_point_mass_witness_clause():
    """Asserted as stated; see the module docstring for why this cannot hold."""
    v = plurality_uniform_tiebreak(3, 3)
    point_masses = [tuple(F(1) if j == i else F(0) for j in range(6)) for i in range(6)]
    values = {
        f.evaluate(phi)
        for inst in enumerate_instances(3)
        for f in (dominance_polynomial(v, inst),)
        for phi in point_masses
    }
    assert values == {0}  # exhaustive: no point mass separates any two reports
    verdict = check_weak_sp(v)
    with criterion(2, 30, "refutation witness sits at a point-mass belief"):
        assert verdict.witness.stage == "point-mass", (
            "no point-mass refutation exists for plurality at (m=3, n=3): every "
            "dominance value at every point mass is exactly 0; the witness found "
            f"is at a {verdict.witness.stage} belief"
        )


def test_criterion_3_theorem_at_eps_zero(sweep):
    with criterion(3, 120, "polytope at eps=0 collapses onto random dictatorship"):
        for n in (2, 3):
            res = sweep[(3, n, F(0))]
            assert res.d_star == 0
            assert res.witness == random_dictatorship(3, n)


def test_criterion_4_theorem_at_positive_eps(sweep):
    with criterion(4, 600, "distance bounded by the traced constant, golden values hold"):
        c3 = traced_constant(3).value
        for n in (2, 3):
            values = {}
            for eps in (F(1, 100), F(1, 10)):
                d = sweep[(3, n, eps)].d_star
                values[eps] = d
                assert d == GOLDEN_D_STAR[(3, n, eps)]
                assert d <= c3 * eps
                assert d / eps <= c3
            assert sweep[(3, n, F(0))].d_star <= values[F(1, 100)] <= values[F(1, 10)]


def test_criterion_5_window_bounds_on_extremal_witnesses(sweep):
    with criterion(5, 300, "every extremal vertex obeys the window bounds"):
        m, eps = 3, F(1, 10)
        res = sweep[(3, 3, eps)]
        assert res.all_witnesses
        c_linear = traced_constant(3).value - 2 * m
        for w in res.all_witnesses:
            rep = distance_to_random_dictatorship(w)
            assert tops_only_deviation(w).eps <= m * eps
            assert times_at_top_deviation(w).eps <= 2 * m * eps
            assert rep.table_vs_canonical.eps <= 2 * m * eps
            assert candidate_anonymity_deviation(w).eps <= 14 * m * eps
            assert sliding_window_deviation(w).eps <= 64 * m * eps
            assert rep.canonical_vs_linear.eps <= c_linear * eps


def test_criterion_6_responsive_rules_level_the_unanimity_gap():
    with criterion(6, 120, "responsiveness collapses strong onto super-weak unanimity"):
        bases = [
            random_dictatorship(3, 3),
            uniform_rule(3, 3),
            rank_rule(3, 3, 2),
            rank_rule(3, 3, 3),
            pair_rule(3, 3, 0, 1),
            pair_rule(3, 3, 0, 2),
            pair_rule(3, 3, 1, 2),
            constant_rule(3, 3, [1, 0, 0]),
            constant_rule(3, 3, [0, 1, 0]),
            constant_rule(3, 3, [0, 0, 1]),
        ]
        rng = random.Random(606)
        for _ in range(200):
            picks = rng.sample(range(len(bases)), rng.randrange(2, 5))
            weights = [F(rng.randrange(1, 9)) for _ in picks]
            total = sum(weights)
            v = mixture([bases[i] for i in picks], [w / total for w in weights])
            assert responsiveness_deviation(v).eps == 0
            assert min_eps_strong_unanimity(v).eps == min_eps_super_weak_unanimity(v).eps


def test_criterion_7_upper_set_reduction_oracle():
    with criterion(7, 120, "dominance decomposition matches direct expected utility"):
        rng = random.Random(777)
        orderings = enumerate_orderings(3)
        for trial in range(1000):
            n = rng.choice((2, 3))
            v = perturb(random_dictatorship(3, n), F(rng.randrange(0, 9), 8), seed=trial)
            truthful, misreport = rng.sample(orderings, 2)
            if rng.randrange(2):  # point-mass belief
                hot = rng.randrange(6)
                belief = tuple(F(1) if i == hot else F(0) for i in range(6))
            else:
                weights = [rng.randrange(0, 10) for _ in range(6)]
                if not sum(weights):
                    weights[0] = 1
                belief = tuple(F(w, sum(weights)) for w in weights)
            cuts = sorted(rng.sample(range(1, 50), 3), reverse=True)
            u = [F(0)] * 3
            for pos, cand in enumerate(truthful):
                u[cand] = F(cuts[pos], 50)

            f_values = {
                k: dominance_polynomial(
                    v, ManipulationInstance(truthful, misreport, k)
                ).evaluate(belief)
                for k in (1, 2)
            }
            gaps = {k: u[truthful[k - 1]] - u[truthful[k]] for k in (1, 2)}
            direct = F(0)
            for others in itertools.product(range(6), repeat=n - 1):
                weight = F(1)
                for s in others:
                    weight *= belief[s]
                if not weight:
                    continue
                tp = tuple(orderings[s] for s in others)
                lot_t = v.lottery_at(canonicalize(tp + (truthful,)))
                lot_l = v.lottery_at(canonicalize(tp + (misreport,)))
                direct += weight * sum(u[x] * (lot_t[x] - lot_l[x]) for x in range(3))

            assert direct == sum(gaps[k] * f_values[k] for k in (1, 2))
            if all(val >= 0 for val in f_values.values()):
                assert direct >= 0
            if direct < 0:
                assert min(f_values.values()) < 0


def test_criterion_8_lp_solver_oracle():
    with criterion(8, 60, "simplex agrees exactly with vertex enumeration"):
        rng = random.Random(808)
        for _ in range(200):
            lp = random_lp(rng)
            got = solve_lp(lp)
            want_status, want_value = oracle_solve(lp)
            assert got.status == want_status
            if want_status == "optimal":
                assert got.value == want_value


def test_criterion_9_machinery_properties():
    with criterion(9, 60, "swap paths, canonical keys, and lottery normalization"):
        rng = random.Random(909)
        top_a = [o for o in enumerate_orderings(3) if o[0] == 0]
        for _ in range(500):
            pa = tuple(rng.choice(top_a) for _ in range(3))
            pb = tuple(rng.choice(top_a) for _ in range(3))
            path = swap_path(pa, pb, forbidden=0)
            assert apply_swaps(pa, path) == pb
            assert all(0 not in pair for _, pair in path)
            assert len(path) == sum(kendall_tau(x, y) for x, y in zip(pa, pb))

        for n in (2, 3, 4):
            for profile in itertools.product(enumerate_orderings(3), repeat=n):
                key = canonicalize(profile)
                for perm in itertools.permutations(range(n)):
                    assert canonicalize(tuple(profile[i] for i in perm)) == key

        tables = [
            random_dictatorship(3, 3),
            uniform_rule(3, 2),
            plurality_uniform_tiebreak(3, 3),
            rank_rule(3, 3, 2),
            pair_rule(3, 2, 0, 2),
            perturb(random_dictatorship(3, 3), F(1, 3), seed=1),
            mixture([random_dictatorship(3, 2), uniform_rule(3, 2)], [F(1, 4), F(3, 4)]),
        ]
        for v in tables:
            for key in v.keys():
                assert sum(v.lottery_at(key)) == 1
