"""Polytope construction, the distance sweep, and the traced constant.

Golden values: the worst-case distances below were produced by the exact
solver on first run and are pinned as exact rationals; any drift is a
regression.  The eps = 0 rows reproduce the collapse of the polytope onto
random dictatorship.
"""

import hashlib
from fractions import Fraction as F

import pytest

from votecert import lp as lp_module, polytope
from votecert.axioms import (
    candidate_anonymity_deviation,
    distance_to_random_dictatorship,
    isolation_deviation,
    min_eps_strong_unanimity,
    min_eps_super_weak_unanimity,
    responsiveness_deviation,
    sliding_window_deviation,
    times_at_top_deviation,
    tops_only_deviation,
)
from votecert.errors import DomainError, InternalError
from votecert.polytope import (
    ALL_PARTS,
    build_polytope,
    max_distance,
    normalize_parts,
    traced_constant,
    verify_theorem,
)
from votecert.rules import RuleTable, closeness, mixture, random_dictatorship, uniform_rule

GOLDEN_D_STAR = {
    (3, 2, F(0)): F(0),
    (3, 3, F(0)): F(0),
    (3, 2, F(1, 100)): F(1, 50),
    (3, 2, F(1, 10)): F(1, 5),
    (3, 3, F(1, 100)): F(7, 300),
    (3, 3, F(1, 10)): F(7, 30),
}


def rule_vector(v: RuleTable):
    out = []
    for key in sorted(v.keys()):
        out.extend(v.lottery_at(key))
    return out


def satisfies(lp, x):
    for c in lp.constraints:
        lhs = sum(a * xi for a, xi in zip(c.coeffs, x) if a)
        ok = {"<=": lhs <= c.rhs, ">=": lhs >= c.rhs, "=": lhs == c.rhs}[c.rel]
        if not ok:
            return False
    return True


def test_build_polytope_variable_count():
    lp = build_polytope(3, 2, F(1, 10))
    assert lp.n_vars == 21 * 3
    assert len(lp.constraints) > 21  # normalization plus structure rows


def test_build_polytope_rejects_bad_input():
    with pytest.raises(DomainError):
        build_polytope(1, 2, 0)
    with pytest.raises(DomainError):
        build_polytope(3, 2, F(-1, 10))
    with pytest.raises(DomainError):
        normalize_parts({"responsive", "mystery"})
    assert normalize_parts({"strong-unanimity"}) == frozenset({"unanimity"})


def test_random_dictatorship_is_always_feasible():
    v = random_dictatorship(3, 3)
    for eps in (F(0), F(1, 100), F(1, 10), F(1)):
        assert satisfies(build_polytope(3, 3, eps), rule_vector(v))


def test_uniform_rule_feasibility_threshold():
    u = uniform_rule(3, 3)
    x = rule_vector(u)
    assert satisfies(build_polytope(3, 3, 0, parts={"responsive", "isolated"}), x)
    assert not satisfies(build_polytope(3, 3, F(1, 2)), x)
    assert satisfies(build_polytope(3, 3, F(2, 3)), x)


def test_certified_rules_lie_in_their_polytope():
    """Relaxation containment: weakly strategy-proof rules sit inside the
    polytope built at their own super-weak unanimity eps."""
    vd = random_dictatorship(3, 3)
    un = uniform_rule(3, 3)
    mx = mixture([vd, un], [F(3, 4), F(1, 4)])
    for v in (vd, un, mx):
        eps = min_eps_super_weak_unanimity(v).eps
        assert satisfies(build_polytope(3, 3, eps), rule_vector(v))


@pytest.mark.parametrize("n", [2, 3])
def test_distance_zero_at_eps_zero(n):
    res = max_distance(3, n, 0)
    assert res.d_star == 0
    assert res.witness == random_dictatorship(3, n)


@pytest.mark.parametrize(
    "m,n,eps", sorted(GOLDEN_D_STAR, key=lambda t: (t[0], t[1], t[2]))
)
def test_distance_golden_values(m, n, eps):
    res = max_distance(m, n, eps)
    assert res.d_star == GOLDEN_D_STAR[(m, n, eps)]


@pytest.mark.slow
def test_distance_slope_at_three_candidates_five_voters():
    """D* = c(3, n) * eps with c(3, n) = 3 - 2/n, measured for n = 2..7."""
    res = max_distance(3, 5, F(1, 10))
    assert res.d_star == (3 - F(2, 5)) * F(1, 10) == F(13, 50)
    assert (res.free_dim, res.n_solves) == (18, 252)


def test_distance_monotone_and_linearly_bounded():
    c3 = traced_constant(3).value
    for n in (2, 3):
        values = {eps: max_distance(3, n, eps).d_star for eps in (F(0), F(1, 100), F(1, 10))}
        assert values[F(0)] <= values[F(1, 100)] <= values[F(1, 10)]
        for eps, d in values.items():
            assert d <= c3 * eps
    # the sweep's slope stays bounded well under the traced constant
    for eps in (F(1, 100), F(1, 20), F(1, 10), F(1, 4)):
        d = max_distance(3, 2, eps).d_star
        assert d / eps <= c3


def test_witness_replays_through_the_axiom_meters():
    eps = F(1, 10)
    res = max_distance(3, 3, eps)
    w = res.witness
    assert closeness(w, random_dictatorship(3, 3)) == res.d_star
    assert distance_to_random_dictatorship(w).closeness.eps == res.d_star
    assert responsiveness_deviation(w).eps == 0
    assert isolation_deviation(w).eps == 0
    assert min_eps_strong_unanimity(w).eps <= eps


def test_all_vertices_satisfy_the_window_bounds():
    m, eps = 3, F(1, 10)
    res = max_distance(3, 3, eps, keep_witnesses=True)
    assert res.all_witnesses
    c_linear = traced_constant(3).value - 2 * m
    for w in res.all_witnesses:
        assert responsiveness_deviation(w).eps == 0
        assert isolation_deviation(w).eps == 0
        assert min_eps_strong_unanimity(w).eps <= eps
        rep = distance_to_random_dictatorship(w)
        assert tops_only_deviation(w).eps <= m * eps
        assert times_at_top_deviation(w).eps <= 2 * m * eps
        assert rep.table_vs_canonical.eps <= 2 * m * eps
        assert candidate_anonymity_deviation(w).eps <= 14 * m * eps
        assert sliding_window_deviation(w).eps <= 64 * m * eps
        assert rep.canonical_vs_linear.eps <= c_linear * eps


def test_per_objective_table_covers_every_pair():
    res = max_distance(3, 2, F(1, 10))
    assert len(res.per_objective) == 21 * 3 * 2
    assert max(o.value for o in res.per_objective) == res.d_star


def test_two_candidate_control_is_measured_not_bounded():
    # the distance theorem needs three candidates; at m = 2 both swap
    # properties are vacuous (no bystander candidate, and matching the
    # pair order pins the whole ordering), so mixed profiles are entirely
    # unconstrained and the distance is large even at eps = 0
    res = max_distance(2, 3, 0)
    assert res.d_star == F(2, 3)


def test_traced_constant_values():
    c3 = traced_constant(3)
    assert c3.value == 587
    assert c3.value == 194 * 3 + 5
    assert len(c3.links) == 8
    for m in (3, 4, 5):
        assert traced_constant(m).value >= 64 * m
    assert traced_constant(4).value > traced_constant(3).value
    with pytest.raises(DomainError):
        traced_constant(2)


def test_verify_theorem_outcomes():
    out = verify_theorem(3, 2, 0)
    assert out["status"] == "PASS" and out["d_star"] == 0
    out = verify_theorem(3, 2, F(1, 10))
    assert out["status"] == "PASS"
    assert out["d_star"] <= out["bound"]
    out = verify_theorem(2, 3, F(1, 10))
    assert out["status"] == "SKIPPED"
    assert "three candidates" in out["reason"]


def test_parts_subsets_relax_the_polytope():
    full = max_distance(3, 2, F(1, 10), parts=ALL_PARTS).d_star
    no_iso = max_distance(3, 2, F(1, 10), parts={"responsive", "unanimity"}).d_star
    assert full <= no_iso


def test_reduced_sweep_agrees_with_full_size_simplex():
    """Dual route: the elimination/warm-start path must match fresh two-phase
    solves of the unreduced program, objective by objective."""
    import random

    from votecert.lp import LinearProgram, solve_lp
    from votecert.polytope import _var
    from votecert.prefs import enumerate_orderings, enumerate_profiles

    m, n, eps = 3, 2, F(1, 10)
    lp = build_polytope(m, n, eps)
    keys = list(enumerate_profiles(m, n, anonymous=True))
    tops = [o[0] for o in enumerate_orderings(m)]
    res = max_distance(m, n, eps)
    by = {(o.profile, o.candidate, o.sign): o.value for o in res.per_objective}

    rng = random.Random(3)
    picks = rng.sample(sorted(by), 4)
    picks.append((res.witness_profile, res.witness_candidate, res.witness_sign))
    for key, x, sign in picks:
        k = keys.index(key)
        j = sum(1 for r in key if tops[r] == x)
        obj = [F(0)] * lp.n_vars
        obj[_var(k, x, m)] = F(sign)
        sol = solve_lp(LinearProgram(lp.n_vars, tuple(obj), lp.constraints))
        assert sol.status == "optimal"
        assert sol.value - F(sign) * F(j, n) == by[(key, x, sign)]


# -- the pivot path and every reported number, pinned --------------------------------


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _table_repr(v: RuleTable):
    return sorted((key, tuple(str(p) for p in lot)) for key, lot in v.table.items())


@pytest.mark.parametrize("m, n, eps, pivots", [(3, 2, F(1, 10), 153), (3, 3, F(1, 10), 678), (3, 4, F(0), 0)])
def test_pivot_count_is_pinned(monkeypatch, m, n, eps, pivots):
    """Bland's rule fixes the pivot path; these counts were taken from the
    Fraction tableau that the integer-scaled kernel replaced."""
    calls = []
    pivot = lp_module._pivot

    def counted(*args):
        calls.append(args[-2:])
        return pivot(*args)

    monkeypatch.setattr(lp_module, "_pivot", counted)
    max_distance(m, n, eps)
    assert len(calls) == pivots


# (m, n, eps, parts) -> d_star, witness profile, candidate, sign, digests of the
# witness table, per_objective and all_witnesses, witness count, free_dim, n_solves
PINNED_MAX_DISTANCE = {
    (3, 2, F(1, 10), ALL_PARTS): (
        F(1, 5), (0, 5), 1, 1, "0a8c24df0dbdbbb8", "ed6b90d75004db8e", "a00a7b73fac376a7", 13, 9, 24,
    ),
    (3, 3, F(1, 7), ALL_PARTS): (
        F(1, 3), (0, 0, 3), 0, -1, "15c818373d8aaf46", "73501805e45ee3ae", "64c6da8a30712382", 24, 12, 56,
    ),
    (3, 2, F(0), ALL_PARTS): (
        F(0), (0, 0), 0, 1, "7ae39a124e72df72", "65896e7168ee625b", "12e3332abdb3a44f", 1, 0, 24,
    ),
    (3, 2, F(1, 10), frozenset({"responsive", "unanimity"})): (
        F(1, 5), (0, 5), 1, 1, "0a8c24df0dbdbbb8", "ed6b90d75004db8e", "a00a7b73fac376a7", 13, 9, 24,
    ),
}


@pytest.mark.parametrize("case", list(PINNED_MAX_DISTANCE))
def test_max_distance_results_are_pinned(case):
    res = max_distance(*case, keep_witnesses=True)
    per_objective = [(o.profile, o.candidate, o.sign, str(o.value)) for o in res.per_objective]
    got = (
        res.d_star,
        res.witness_profile,
        res.witness_candidate,
        res.witness_sign,
        _digest(_table_repr(res.witness)),
        _digest(per_objective),
        _digest([_table_repr(w) for w in res.all_witnesses]),
        len(res.all_witnesses),
        res.free_dim,
        res.n_solves,
    )
    assert got == PINNED_MAX_DISTANCE[case]


# -- dual certificates ----------------------------------------------------------------


@pytest.mark.parametrize("m, n", [(3, 2), (3, 3)])
def test_every_solve_passes_the_dual_check(monkeypatch, m, n):
    verdicts = []

    def recorded(*args):
        verdicts.append(lp_module.dual_certifies(*args))
        return verdicts[-1]

    monkeypatch.setattr(polytope, "dual_certifies", recorded)
    res = max_distance(m, n, F(1, 10))
    assert len(verdicts) == res.n_solves and all(verdicts)


@pytest.mark.parametrize("tamper", ["shift", "negate"])
def test_tampered_dual_stops_max_distance(monkeypatch, tamper):
    solve = lp_module.SlackBasisSimplex.solve

    def tampered(self, objective):
        out = solve(self, objective)
        i = next((i for i, yi in enumerate(self.dual) if yi), 0)
        self.dual[i] = self.dual[i] + F(1, 7) if tamper == "shift" else -self.dual[i] - 1
        return out

    monkeypatch.setattr(lp_module.SlackBasisSimplex, "solve", tampered)
    with pytest.raises(InternalError, match="dual"):
        max_distance(3, 2, F(1, 10))
