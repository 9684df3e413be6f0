"""Strategy-proofness machinery: dominance polynomials, certificates,
refutation scans, and the upper-set reduction itself.

The reduction oracle: for a consistent utility u with rank gaps l_k, the
expected-utility difference between truth and lie equals sum(l_k * f_k)
where f_k is the k-th dominance polynomial; both sides are computed by
independent code paths and compared exactly.
"""

import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from votecert import beliefs
from votecert.beliefs import (
    ManipulationInstance,
    RefutationPoint,
    SPVerdict,
    SPWitness,
    SimplexPolynomial,
    _refute_at_point_masses_and_midpoints,
    _refute_on_grid,
    check_classic_sp,
    check_weak_sp,
    dominance_polynomial,
    enumerate_instances,
    polya_certify,
    polynomial_from_terms,
    replay_gain,
    validate_belief,
)
from votecert.axioms import isolation_deviation, responsiveness_deviation
from votecert import POLYA_MAX
from votecert.errors import DomainError
from votecert.polytope import max_distance
from votecert.prefs import canonicalize, enumerate_orderings, upper_set
from votecert.rules import (
    constant_rule,
    is_consistent_utility,
    mixture,
    pair_rule,
    perturb,
    plurality_fixed_tiebreak,
    plurality_uniform_tiebreak,
    random_dictatorship,
    rank_rule,
    uniform_rule,
)

A, B, C = 0, 1, 2
ABC, BAC = (0, 1, 2), (1, 0, 2)


def brute_force_expected_gap(v, inst, belief):
    """Truthful-minus-misreport expected upper-set mass, expanded over
    ordered opponent tuples (independent of the polynomial path)."""
    u = upper_set(inst.truthful, inst.k)
    total = F(0)
    fact = math.factorial(v.m)
    orderings = enumerate_orderings(v.m)
    for others in itertools.product(range(fact), repeat=v.n - 1):
        weight = F(1)
        for s in others:
            weight *= belief[s]
        if not weight:
            continue
        tp = tuple(orderings[s] for s in others)
        gap = sum(v.prob_at(canonicalize(tp + (inst.truthful,)), x) for x in u) - sum(
            v.prob_at(canonicalize(tp + (inst.misreport,)), x) for x in u
        )
        total += weight * gap
    return total


def seeded_belief(rng, nvars):
    weights = [rng.randrange(0, 20) for _ in range(nvars)]
    if not sum(weights):
        weights[0] = 1
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def seeded_consistent_utility(rng, ordering):
    """Strictly decreasing rationals in [0, 1] along the ordering."""
    m = len(ordering)
    cuts = sorted(rng.sample(range(1, 100), m), reverse=True)
    u = [F(0)] * m
    for pos, cand in enumerate(ordering):
        u[cand] = F(cuts[pos], 100)
    return tuple(u)


# -- polynomial construction -----------------------------------------------------


def test_dominance_polynomial_random_dictatorship_nonnegative():
    v = random_dictatorship(3, 3)
    for inst in enumerate_instances(3):
        f = dominance_polynomial(v, inst)
        assert all(c >= 0 for c in f.terms.values())


def test_dominance_polynomial_uniform_is_zero():
    v = uniform_rule(3, 3)
    for inst in enumerate_instances(3):
        assert not dominance_polynomial(v, inst).terms


def test_dominance_polynomial_single_voter_is_constant():
    v = plurality_uniform_tiebreak(3, 1)
    inst = ManipulationInstance(ABC, BAC, 1)
    f = dominance_polynomial(v, inst)
    assert f.degree == 0
    u = upper_set(ABC, 1)
    expected = sum(v.prob_at(canonicalize((ABC,)), x) for x in u) - sum(
        v.prob_at(canonicalize((BAC,)), x) for x in u
    )
    anywhere = tuple([F(1)] + [F(0)] * 5)
    assert f.evaluate(anywhere) == expected


def test_dominance_polynomial_matches_brute_force_expectation():
    rng = random.Random(77)
    for n in (2, 3):
        v = perturb(random_dictatorship(3, n), F(3, 7), seed=n)
        for _ in range(25):
            inst = ManipulationInstance(*rng.sample(enumerate_orderings(3), 2), rng.choice((1, 2)))
            belief = seeded_belief(rng, 6)
            f = dominance_polynomial(v, inst)
            assert f.evaluate(belief) == brute_force_expected_gap(v, inst, belief)


# -- certificates and refutation ---------------------------------------------------


def test_certificate_nonnegative_coefficients_at_level_zero():
    f = polynomial_from_terms(2, 2, {(2, 0): F(1), (1, 1): F(1, 2)})
    assert polya_certify(f, 0)


def test_certificate_zero_polynomial():
    f = polynomial_from_terms(2, 2, {})
    for boost in range(4):
        assert polya_certify(f, boost)


def test_certificate_square_difference_never_certifies():
    # (w1 - w2)^2 is nonnegative but vanishes on the simplex boundary of
    # its negative cross term; scaling never clears it.  Regression pin.
    f = polynomial_from_terms(2, 2, {(2, 0): F(1), (1, 1): F(-2), (0, 2): F(1)})
    for boost in range(11):
        assert not polya_certify(f, boost)
    assert _refute_at_point_masses_and_midpoints(f) is None  # it really is nonnegative
    g = f
    for _ in range(10):
        g = g.times_coordinate_sum()
        assert _refute_on_grid(f, g) is None


def test_certificate_ladder_succeeds_at_level_one():
    f = polynomial_from_terms(2, 2, {(2, 0): F(1), (1, 1): F(-2, 3), (0, 2): F(1)})
    assert not polya_certify(f, 0)
    assert polya_certify(f, 1)


def test_certified_polynomials_never_refute():
    rng = random.Random(31)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e0 = rng.randrange(0, 3)
            terms[(e0, 2 - e0)] = terms.get((e0, 2 - e0), F(0)) + F(rng.randrange(-2, 5))
        f = polynomial_from_terms(2, 2, terms)
        if any(polya_certify(f, boost) for boost in range(4)):
            assert _refute_at_point_masses_and_midpoints(f) is None


def test_sample_refute_zero_polynomial():
    f = polynomial_from_terms(3, 2, {})
    assert _refute_at_point_masses_and_midpoints(f) is None
    assert _refute_on_grid(f, f.times_coordinate_sum()) is None


def test_sample_refute_finds_point_mass_first():
    f = polynomial_from_terms(2, 1, {(1, 0): F(-1), (0, 1): F(1)})
    hit = _refute_at_point_masses_and_midpoints(f)
    assert hit.stage == "point-mass"
    assert hit.belief == (F(1), F(0))


def dense_scan(f):
    """Reference for the deterministic stage: evaluate every point mass, then
    every pairwise midpoint in combinations order."""
    nv = f.nvars
    for i in range(nv):
        phi = tuple(F(1) if t == i else F(0) for t in range(nv))
        if f.evaluate(phi) < 0:
            return RefutationPoint(phi, "point-mass")
    for i, j in itertools.combinations(range(nv), 2):
        phi = tuple(F(1, 2) if t in (i, j) else F(0) for t in range(nv))
        if f.evaluate(phi) < 0:
            return RefutationPoint(phi, "midpoint")
    return None


def seeded_sparse_polynomial(rng, nvars, degree):
    """Few terms on small supports, pure terms mostly positive, so that all
    three scan outcomes occur."""
    terms = {}
    for _ in range(rng.randrange(0, 7)):
        support = rng.sample(range(nvars), min(nvars, degree, rng.choice((1, 1, 2, 2, 3))))
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.choice(support)] += 1
        low = -1 if len(support) == 1 else -6
        coeff = F(rng.randrange(low, 6), rng.randrange(1, 4))
        terms[tuple(exps)] = terms.get(tuple(exps), F(0)) + coeff
    return polynomial_from_terms(nvars, degree, terms)


def test_structural_scan_matches_dense_scan():
    rng = random.Random(2015)
    stages = Counter()
    for trial in range(600):
        f = seeded_sparse_polynomial(rng, rng.randrange(2, 7), rng.randrange(0, 4))
        want = dense_scan(f)
        assert _refute_at_point_masses_and_midpoints(f) == want, f
        stages[want.stage if want else None] += 1
        if f.degree == 0:
            stages["degree-0 " + (want.stage if want else "none")] += 1
    zero = polynomial_from_terms(4, 2, {})
    assert _refute_at_point_masses_and_midpoints(zero) is None and dense_scan(zero) is None
    for stage in ("point-mass", "midpoint", None, "degree-0 point-mass", "degree-0 none"):
        assert stages[stage] >= 10, stages


def dense_times_sum(terms, nvars, boost):
    """Exponent-vector reference: the terms of f times (sum of x_i)^boost."""
    for _ in range(boost):
        bumped = {}
        for exps, c in terms.items():
            for i in range(nvars):
                e = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                bumped[e] = bumped.get(e, F(0)) + c
        terms = {e: c for e, c in bumped.items() if c}
    return terms


def test_monomial_keys_match_dense_exponent_vectors():
    rng = random.Random(1916)
    ladder = Counter()
    for _ in range(150):
        nvars, degree = rng.randrange(2, 7), rng.randrange(0, 4)
        terms = {}
        if rng.randrange(2):  # positive pure terms, which a climb of the ladder can spread
            for i in range(nvars):
                terms[tuple(degree if t == i else 0 for t in range(nvars))] = F(rng.randrange(2, 7))
        for _ in range(rng.randrange(0, 6)):
            exps = [0] * nvars
            for _ in range(degree):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = F(rng.randrange(-2, 7), rng.randrange(1, 4))
        terms = {e: c for e, c in terms.items() if c}
        f = polynomial_from_terms(nvars, degree, terms)
        for _ in range(3):
            point = tuple(F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(nvars))
            want = sum((c * math.prod(w**e for w, e in zip(point, exps)) for exps, c in terms.items()), F(0))
            assert f.evaluate(point) == want
        assert f.times_coordinate_sum() == polynomial_from_terms(
            nvars, degree + 1, dense_times_sum(terms, nvars, 1)
        )
        verdicts = [polya_certify(f, boost) for boost in range(4)]
        assert verdicts == [
            all(c >= 0 for c in dense_times_sum(terms, nvars, boost).values()) for boost in range(4)
        ]
        ladder[verdicts.index(True) if True in verdicts else None] += 1
    assert ladder[0] >= 10 and ladder[None] >= 10 and ladder[1] + ladder[2] + ladder[3] >= 3, ladder


@pytest.mark.parametrize("coeff", [F(1), F(0)])
def test_polynomial_from_terms_rejects_negative_exponents(coeff):
    with pytest.raises(DomainError):
        polynomial_from_terms(2, 2, {(3, -1): coeff})


def test_weak_sp_verdicts_match_pinned():
    """Verdicts captured before the deterministic scan was read off the terms
    grouped by support: a midpoint refutation, and a point-mass refutation
    of a single-voter rule, whose polynomials are degree-0 constants."""
    v1, v0 = F(1), F(0)
    midpoint = SPVerdict(
        "refuted",
        witness=SPWitness(
            ManipulationInstance((0, 1, 2), (1, 0, 2), 2),
            (v1, F(4, 5), v0),
            v1,
            F(1, 10),
            belief=(v0, v0, F(1, 2), v0, F(1, 2), v0),
            stage="midpoint",
        ),
        instances_total=60,
    )
    point_mass = SPVerdict(
        "refuted",
        witness=SPWitness(
            ManipulationInstance((0, 1, 2), (0, 2, 1), 1),
            (v1, F(1, 5), v0),
            v1,
            F(5649067, 92877050),
            belief=(v1, v0, v0, v0, v0, v0),
            stage="point-mass",
        ),
        instances_total=60,
    )
    assert check_weak_sp(plurality_uniform_tiebreak(3, 3)) == midpoint
    assert check_weak_sp(perturb(random_dictatorship(3, 1), F(1, 7), seed=1)) == point_mass


def test_weak_sp_ladder_reports_first_certified_rung(monkeypatch):
    """Above degree 0 the ladder stops at the first rung polya_certify accepts;
    the verdict names the largest such rung over all instances."""

    def square_form(c):  # w1^2 - c w1 w2 + w2^2, >= 0 on the simplex for c <= 2
        return polynomial_from_terms(2, 2, {(2, 0): 1, (1, 1): -c, (0, 2): 1})

    one, three, never = square_form(F(2, 3)), square_form(F(5, 4)), square_form(F(2))
    assert [next(b for b in range(7) if polya_certify(f, b)) for f in (one, three)] == [1, 3]
    v = rank_rule(2, 3, 2)  # two instances, both with a negative gap: (ab, ba, 1) and (ba, ab, 1)

    def verdict(first, second, polya_max):
        # in call order: the two pairs' walks are equal, so a fake keyed on the walk could not tell them apart
        fake = iter([(first,), (second,)])
        monkeypatch.setattr(beliefs, "_dominance_siblings", lambda v, walk: next(fake))
        return check_weak_sp(v, polya_max=polya_max)

    assert verdict(one, three, 6) == SPVerdict(
        "certified", polya_degree=3, max_degree_tried=3, instances_total=2
    )
    assert verdict(three, one, 2) == SPVerdict(
        "unknown",
        max_degree_tried=2,
        instances_total=2,
        instances_unknown=(ManipulationInstance((0, 1), (1, 0), 1),),
    )
    stuck = verdict(one, never, 4)
    assert (stuck.status, stuck.max_degree_tried) == ("unknown", 4)
    nonnegative = square_form(F(0))
    with pytest.raises(DomainError):  # degree 0 is decided before any rung: no mode without it
        verdict(nonnegative, nonnegative, -1)


def centre_dip(nvars=3, at=(0, 1, 2)):
    """(x+y+z)^2 - (18/5)(xy+yz+zx) on the variables `at`: 1 at each point mass
    and 1/10 at each midpoint, but -1/5 at the centre, which is on rung 1's grid."""
    terms = {}
    for a, b in itertools.combinations_with_replacement(at, 2):
        exps = [0] * nvars
        exps[a] += 1
        exps[b] += 1
        terms[tuple(exps)] = F(1) if a == b else F(-8, 5)
    return polynomial_from_terms(nvars, 2, terms)


def test_grid_refutes_the_centre_dip_at_rung_one():
    f = centre_dip()
    points = ((1, 0, 0), (F(1, 2), F(1, 2), 0), (F(1, 3),) * 3)
    assert [f.evaluate(p) for p in points] == [1, F(1, 10), F(-1, 5)]
    assert _refute_at_point_masses_and_midpoints(f) is None
    assert _refute_on_grid(f, f) is None  # rung 0's grid: the point masses and midpoints
    assert _refute_on_grid(f, f.times_coordinate_sum()) == RefutationPoint((F(1, 3),) * 3, "grid")


def dip_verdict(monkeypatch, polya_max):
    """Through the _dominance_siblings seam, in the order the open pairs reach
    it: one misreport's k = 1 polynomial is the centre dip on 3 of the 6
    belief variables, every other is 0, so the ladder climbs to the top and
    only the grid can refute.  The rule has a negative gap at (abc, bac, 1),
    so that instance reaches the seam."""
    v = rank_rule(3, 3, 2)
    zero = polynomial_from_terms(6, 2, {})
    dip = centre_dip(6, (0, 2, 4))
    fake = iter([(dip, zero) if (t, q) == (ABC, BAC) else (zero, zero)
                 for t, q, _, _ in beliefs._open_pairs(v)])
    monkeypatch.setattr(beliefs, "_dominance_siblings", lambda v, walk: next(fake))
    return check_weak_sp(v, polya_max=polya_max)


def test_weak_sp_reports_the_grid_refutation(monkeypatch):
    """Rung 1 does not certify the dip, so its grid is signed at once and the
    centre refutes there, whatever the cap above it."""
    for polya_max in (1, POLYA_MAX):
        verdict = dip_verdict(monkeypatch, polya_max)
        assert verdict.status == "refuted" and verdict.max_degree_tried == 1
        w = verdict.witness
        assert (w.instance, w.stage) == (ManipulationInstance(ABC, BAC, 1), "grid")
        assert w.belief == (F(1, 3), 0, F(1, 3), 0, F(1, 3), 0)
        assert w.gain > 0 and is_consistent_utility(w.utility, ABC)


def test_an_earlier_grid_refutation_wins_over_a_later_midpoint(monkeypatch):
    """Through the _dominance_siblings seam: the first open instance is the
    centre dip, which only rung 1's grid refutes, and a later one is negative
    at a midpoint.  Instances are searched in order, so the dip refutes."""
    v = rank_rule(3, 3, 2)
    zero = polynomial_from_terms(6, 2, {})
    dip = centre_dip(6, (0, 2, 4))
    pairs = [(t, q) for t, q, _, _ in beliefs._open_pairs(v)]
    assert pairs[0] == (ABC, BAC) and len(pairs) > 1
    later = polynomial_from_terms(6, 2, {(1, 1, 0, 0, 0, 0): F(-1)})  # -1/4 at (e_0 + e_1) / 2
    assert _refute_at_point_masses_and_midpoints(later).stage == "midpoint"
    fake = iter([(dip, zero)] + [(later, later)] * (len(pairs) - 1))
    monkeypatch.setattr(beliefs, "_dominance_siblings", lambda v, walk: next(fake))
    verdict = check_weak_sp(v)
    assert (verdict.status, verdict.max_degree_tried) == ("refuted", 1)
    w = verdict.witness
    assert (w.instance, w.stage, w.belief) == (
        ManipulationInstance(ABC, BAC, 1), "grid", (F(1, 3), 0, F(1, 3), 0, F(1, 3), 0))


def test_weak_sp_grid_of_rung_zero_adds_no_belief(monkeypatch):
    verdict = dip_verdict(monkeypatch, 0)
    assert (verdict.status, verdict.max_degree_tried, verdict.witness) == ("unknown", 0, None)
    assert ManipulationInstance(ABC, BAC, 1) in verdict.instances_unknown


def test_validate_belief():
    assert validate_belief(2, [F(1, 2), F(1, 2)])
    with pytest.raises(DomainError):
        validate_belief(2, [F(1, 2), F(1, 3)])
    with pytest.raises(DomainError):
        validate_belief(2, [F(3, 2), F(-1, 2)])


# -- verdicts ------------------------------------------------------------------------


def test_weak_sp_random_dictatorship_certified_at_level_zero():
    verdict = check_weak_sp(random_dictatorship(3, 3))
    assert verdict.status == "certified"
    assert verdict.polya_degree == 0


def test_weak_sp_uniform_certified():
    verdict = check_weak_sp(uniform_rule(3, 3))
    assert verdict.status == "certified"
    assert verdict.polya_degree == 0


def test_weak_sp_pair_rule_certified():
    verdict = check_weak_sp(pair_rule(3, 3, A, C))
    assert verdict.status == "certified"


def test_weak_sp_plurality_refuted_with_replaying_gain():
    v = plurality_uniform_tiebreak(3, 3)
    verdict = check_weak_sp(v)
    assert verdict.status == "refuted"
    w = verdict.witness
    assert w.gain > 0
    assert is_consistent_utility(w.utility, w.instance.truthful)
    assert replay_gain(v, w) == w.gain


def test_weak_sp_plurality_has_no_point_mass_refutation():
    """At a point-mass belief both opponents share one ordering, so its top
    holds an outright majority and the lottery ignores the report entirely.
    The honest refutation lives at a midpoint belief."""
    v = plurality_uniform_tiebreak(3, 3)
    point_masses = [tuple(F(1) if j == i else F(0) for j in range(6)) for i in range(6)]
    for inst in enumerate_instances(3):
        f = dominance_polynomial(v, inst)
        for phi in point_masses:
            assert f.evaluate(phi) == 0
    assert check_weak_sp(v).witness.stage == "midpoint"


def test_weak_sp_rank_rule_refuted_at_point_mass():
    v = rank_rule(3, 3, 2)
    verdict = check_weak_sp(v)
    assert verdict.status == "refuted"
    assert verdict.witness.stage == "point-mass"
    assert replay_gain(v, verdict.witness) == verdict.witness.gain


def test_classic_sp_random_dictatorship_certified():
    assert check_classic_sp(random_dictatorship(3, 3)).status == "certified"


def test_classic_sp_plurality_refuted():
    v = plurality_uniform_tiebreak(3, 3)
    verdict = check_classic_sp(v)
    assert verdict.status == "refuted"
    w = verdict.witness
    assert w.others is not None
    assert w.gain > 0
    assert is_consistent_utility(w.utility, w.instance.truthful)
    assert replay_gain(v, w) == w.gain


def test_classic_certified_rules_are_never_weakly_refuted():
    for v in (random_dictatorship(3, 2), uniform_rule(3, 2), pair_rule(3, 2, B, C)):
        assert check_classic_sp(v).status == "certified"
        assert check_weak_sp(v).status != "refuted"


def test_certified_rules_are_responsive_and_isolated():
    rules = [
        random_dictatorship(3, 3),
        uniform_rule(3, 3),
        pair_rule(3, 3, A, B),
        mixture([random_dictatorship(3, 3), pair_rule(3, 3, A, C)], [F(1, 2), F(1, 2)]),
    ]
    for v in rules:
        assert check_weak_sp(v).status == "certified"
        assert responsiveness_deviation(v).eps == 0
        assert isolation_deviation(v).eps == 0


def test_weak_sp_single_voter():
    assert check_weak_sp(random_dictatorship(3, 1)).status == "certified"
    assert check_weak_sp(rank_rule(3, 1, 2)).status == "refuted"


# -- upper-set reduction oracle -------------------------------------------------------


def test_upper_set_reduction_identity_seeded():
    """Direct expected-utility comparison agrees in sign (and in exact
    decomposition) with the k-wise dominance values."""
    rng = random.Random(4242)
    orderings = enumerate_orderings(3)
    for trial in range(250):
        n = rng.choice((2, 3))
        v = perturb(random_dictatorship(3, n), F(rng.randrange(0, 9), 8), seed=trial)
        truthful, misreport = rng.sample(orderings, 2)
        belief = seeded_belief(rng, 6)
        u = seeded_consistent_utility(rng, truthful)

        f_values = {
            k: dominance_polynomial(v, ManipulationInstance(truthful, misreport, k)).evaluate(belief)
            for k in (1, 2)
        }
        gaps = {
            k: u[truthful[k - 1]] - u[truthful[k]] for k in (1, 2)
        }
        direct = F(0)  # E[u(truth)] - E[u(lie)] via brute-force expansion
        fact = math.factorial(3)
        for others in itertools.product(range(fact), repeat=n - 1):
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
        if all(f_values[k] >= 0 for k in (1, 2)):
            assert direct >= 0
        if direct < 0:
            assert min(f_values.values()) < 0


# -- classic SP and the shared opponent walk -----------------------------------------


def test_classic_sp_verdicts_match_pinned():
    """Full classic verdicts, witnesses included, as the per-instance opponent
    loop produced them before both checks shared one walk."""
    v0, v1 = F(0), F(1)

    def refuted(truthful, misreport, k, utility, gain, others, total=60):
        witness = SPWitness(
            ManipulationInstance(truthful, misreport, k), utility, v1, gain, others=others
        )
        return SPVerdict("refuted", witness=witness, instances_total=total)

    cases = [
        (
            plurality_uniform_tiebreak(3, 3),
            refuted((0, 1, 2), (1, 0, 2), 2, (v1, F(4, 5), v0), F(1, 5), (2, 4)),
        ),
        (
            rank_rule(3, 2, 2),
            refuted((0, 1, 2), (1, 0, 2), 1, (v1, F(1, 5), v0), F(2, 5), (0,)),
        ),
        (
            perturb(random_dictatorship(3, 2), F(1, 7), seed=0),
            refuted((0, 1, 2), (0, 2, 1), 1, (v1, F(1, 5), v0), F(3629467, 98743575), (0,)),
        ),
        (  # (0,) refutes only at k = 2, so a scan of all k per opponent would pick it
            perturb(random_dictatorship(3, 2), F(1, 7), seed=5),
            refuted((0, 1, 2), (0, 2, 1), 1, (v1, F(1, 5), v0), F(2030179, 108675770), (1,)),
        ),
        (
            plurality_fixed_tiebreak(4, 2),
            refuted(
                (2, 0, 1, 3), (0, 1, 2, 3), 2, (F(6, 7), F(1, 7), v1, v0), F(5, 7), (6,), total=1656
            ),
        ),
    ]
    for v, expected in cases:
        verdict = check_classic_sp(v)
        assert verdict == expected
        assert replay_gain(v, verdict.witness) == verdict.witness.gain


def test_certified_classic_verdict_never_walks_the_gaps(monkeypatch):
    """A certified rule is decided per (opponents, upper set) without the
    ordered gap walk; a refuted one still walks the misreport pairs in
    instance order and stops at its first witness."""
    calls = []
    walk = beliefs._opponent_gaps

    def counting(v, truthful, misreport):
        calls.append((truthful, misreport))
        return walk(v, truthful, misreport)

    monkeypatch.setattr(beliefs, "_opponent_gaps", counting)
    for v in (random_dictatorship(3, 3), pair_rule(3, 3, A, C), random_dictatorship(4, 3)):
        assert check_classic_sp(v).status == "certified"
    assert calls == []
    witness = SPWitness(
        ManipulationInstance(ABC, BAC, 2), (F(1), F(4, 5), F(0)), F(1), F(1, 5), others=(2, 4)
    )
    assert check_classic_sp(plurality_uniform_tiebreak(3, 3)) == SPVerdict(
        "refuted", witness=witness, instances_total=60
    )
    assert calls == [(ABC, (0, 2, 1)), (ABC, BAC)]


def test_weak_sp_builds_polynomials_only_for_pairs_with_a_negative_gap(monkeypatch):
    """Degree 0 is decided in integers before any polynomial exists: a rule
    with no negative gap builds none, and a refuted one builds, in instance
    order, only the misreport pairs whose gaps go negative somewhere, each
    from its whole walk."""
    build = beliefs._dominance_siblings
    refuted_rule = plurality_fixed_tiebreak(4, 2)
    walks = [list(beliefs._opponent_gaps(refuted_rule, t, q))
             for t, q in itertools.permutations(enumerate_orderings(4), 2)]
    negative = [walk for walk in walks
                if any(c < 0 for f in build(refuted_rule, walk) for c in f.terms.values())]
    calls = []

    def counting(v, walk):
        calls.append(list(walk))
        return build(v, walk)

    monkeypatch.setattr(beliefs, "_dominance_siblings", counting)
    for v in (pair_rule(4, 2, 0, 1), random_dictatorship(4, 3)):
        assert check_weak_sp(v).status == "certified"
    assert calls == []
    assert check_weak_sp(refuted_rule).status == "refuted"
    assert calls and calls == negative[: len(calls)]


def test_weak_sp_walks_each_misreport_pair_once(monkeypatch):
    """Table 7 of the (3, 3) vertex corpus has a negative gap, so the degree-0
    stage walks all 30 misreport pairs, and the pairs it leaves open build
    their polynomials from that same walk: no pair is walked twice."""
    v = max_distance(3, 3, F(1, 10), keep_witnesses=True).all_witnesses[7]
    walk = beliefs._opponent_gaps
    calls = []

    def counting(v, truthful, misreport):
        calls.append((truthful, misreport))
        return walk(v, truthful, misreport)

    monkeypatch.setattr(beliefs, "_opponent_gaps", counting)
    assert check_weak_sp(v).status == "unknown"
    assert calls == list(itertools.permutations(enumerate_orderings(3), 2))


def test_classic_sp_holds_iff_every_dominance_polynomial_certifies_at_degree_zero():
    """The opponents' monomial carries multinomial times their gap, so classic
    strategy-proofness is exactly the degree-0 certificate on every instance."""
    rules = [
        random_dictatorship(3, 2),
        uniform_rule(3, 3),
        pair_rule(3, 3, A, C),
        constant_rule(3, 2, [F(1, 2), F(1, 3), F(1, 6)]),
        mixture([random_dictatorship(3, 3), uniform_rule(3, 3)], [F(1, 3), F(2, 3)]),
        random_dictatorship(4, 2),
        plurality_uniform_tiebreak(3, 3),
        plurality_fixed_tiebreak(3, 2),
        rank_rule(3, 2, 2),
        rank_rule(3, 3, 3),
        perturb(random_dictatorship(3, 2), F(1, 7), seed=0),
        mixture([random_dictatorship(3, 3), plurality_uniform_tiebreak(3, 3)], [F(9, 10), F(1, 10)]),
        plurality_fixed_tiebreak(4, 2),
    ]
    statuses = set()
    for v in rules:
        classic = check_classic_sp(v).status
        degree_zero = all(
            polya_certify(dominance_polynomial(v, inst), 0) for inst in enumerate_instances(v.m)
        )
        assert (classic == "certified") == degree_zero
        weak = check_weak_sp(v)
        assert (classic == "certified") == (weak.status == "certified" and weak.polya_degree == 0)
        statuses.add(classic)
    assert statuses == {"certified", "refuted"}


@pytest.mark.parametrize(
    "truthful, misreport",
    [((0, 1, 2), (1, 0)), ((0, 1), (1, 0, 2)), ((0, 1, 1), (1, 0, 2)), ((0, 1, 3), (1, 0, 2))],
)
def test_manipulation_instance_rejects_non_orderings(truthful, misreport):
    with pytest.raises(DomainError):
        ManipulationInstance(truthful, misreport, 1)


def test_replay_gain_rejects_malformed_witness():
    v = plurality_uniform_tiebreak(3, 3)
    good = check_weak_sp(v).witness
    classic = check_classic_sp(v).witness
    assert replay_gain(v, good) == good.gain
    bad = [
        replace(good, belief=good.belief + (F(0),)),  # 7 weights at m = 3
        replace(good, belief=good.belief[:5]),
        replace(good, belief=(F(1, 2),) * 6),  # weights sum to 3
        replace(good, belief=None, stage=None),  # neither a belief nor opponents
        replace(good, others=classic.others),  # both
    ]
    for witness in bad:
        with pytest.raises(DomainError):
            replay_gain(v, witness)



def test_replay_gain_rejects_an_inconsistent_utility():
    # random dictatorship is strategy-proof under every belief, yet a utility
    # that increases along the truthful ordering makes lying pay
    v = random_dictatorship(3, 2)
    assert check_weak_sp(v).status == "certified"
    abc_mass = (F(1),) + (F(0),) * 5  # the opponent reports abc
    inst = ManipulationInstance((0, 1, 2), (2, 1, 0), 1)
    honest = SPWitness(inst, (F(1), F(1, 2), F(0)), F(1), F(-1, 2), belief=abc_mass)
    assert replay_gain(v, honest) == F(-1, 2)
    for utility in [
        (F(0), F(1, 2), F(1)),  # increasing along abc: would replay to a gain of 1/2
        (F(1), F(1), F(0)),  # a tie
        (F(2), F(1, 2), F(0)),  # above 1
        (F(1), F(1, 2), F(-1)),  # below 0
    ]:
        with pytest.raises(DomainError, match="not strictly consistent"):
            replay_gain(v, replace(honest, utility=utility, gain=F(1, 2)))


_FOUR = ManipulationInstance((0, 1, 2, 3), (1, 0, 2, 3), 2)
_TWO = ManipulationInstance((0, 1), (1, 0), 1)
MISSHAPEN = {  # name -> (witness kind, alteration), on plurality_uniform_tiebreak(3, 3)
    "one-opponent": ("classic", lambda w: replace(w, others=(0,))),  # n - 1 = 2 expected
    "three-opponents": ("classic", lambda w: replace(w, others=(2, 4, 1))),
    "rank-past-m-factorial": ("classic", lambda w: replace(w, others=(2, 6))),
    "negative-rank": ("classic", lambda w: replace(w, others=(-1, 2))),
    "opponents-as-list": ("classic", lambda w: replace(w, others=list(w.others))),  # not a TypeError
    "bool-rank": ("classic", lambda w: replace(w, others=(True, 0))),  # range(6) holds True as 1
    "short-utility-classic": ("classic", lambda w: replace(w, utility=w.utility[:2])),
    "long-utility-classic": ("classic", lambda w: replace(w, utility=w.utility + (F(0),))),
    "short-utility-belief": ("iid", lambda w: replace(w, utility=w.utility[:2])),
    "four-candidates-belief": ("iid", lambda w: replace(w, instance=_FOUR)),
    "four-candidates-classic": ("classic", lambda w: replace(w, instance=_FOUR)),
    "two-candidates-belief": ("iid", lambda w: replace(w, instance=_TWO)),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN))
def test_replay_gain_rejects_misshapen_witness(case):
    v = plurality_uniform_tiebreak(3, 3)
    kind, alter = MISSHAPEN[case]
    witness = (check_classic_sp(v) if kind == "classic" else check_weak_sp(v)).witness
    assert replay_gain(v, witness) == witness.gain
    with pytest.raises(DomainError):
        replay_gain(v, alter(witness))


# -- the vertex corpora ---------------------------------------------------------------

# n -> tables in max_distance(3, n, 1/10, keep_witnesses=True).all_witnesses, their
# check_weak_sp outcomes at the default polya_max, and sha256(repr(verdicts))[:16]:
# every verdict is pinned, witnesses, rungs and unknown instances included.  Taken
# while each rung was still rebuilt from degree n - 1 and the sampler normalized
# every draw before evaluating it.  n = 4 was retaken when each rung came to be
# signed on its own grid as it is built: tables 28, 41 and 50 moved from a
# midpoint at rung 6 to a grid point of rung 1, on an earlier instance.
VERTEX_CORPUS_VERDICTS = {
    3: (24, {"certified at 0": 11, "certified at 2": 1, "point-mass": 8, "midpoint": 3, "unknown": 1},
        "f80f73817043e2db"),
    4: (57, {"certified at 0": 21, "point-mass": 13, "midpoint": 12, "grid": 3, "unknown": 8},
        "6d3c60b34c1aead5"),
}


def _outcome(verdict):
    if verdict.status == "certified":
        return f"certified at {verdict.polya_degree}"
    return verdict.witness.stage if verdict.witness else verdict.status


@pytest.mark.parametrize("n", [3, 4])
def test_vertex_corpus_verdicts_are_pinned(n):
    tables = max_distance(3, n, F(1, 10), keep_witnesses=True).all_witnesses
    verdicts = [check_weak_sp(v) for v in tables]
    count, outcomes, digest = VERTEX_CORPUS_VERDICTS[n]
    assert len(verdicts) == count
    assert Counter(map(_outcome, verdicts)) == outcomes
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest()[:16] == digest
    for v, verdict in zip(tables, verdicts):
        if verdict.witness:
            assert replay_gain(v, verdict.witness) == verdict.witness.gain > 0


def _edge_mixture():
    """A (3,3) mixture of two vertex tables that is negative on an edge near
    (3/5, 2/5), but at no point of the grids of degree 2, 3, 4, 6 or 8."""
    tables = max_distance(3, 3, F(1, 10), keep_witnesses=True).all_witnesses
    return mixture([tables[7], tables[5]], [F(4, 5), F(1, 5)])


_EDGE_INSTANCE = ManipulationInstance((0, 2, 1), (2, 1, 0), 2)


def test_an_edge_mixture_is_refuted_on_rung_three_at_the_default_cap():
    """The default top rung's grid (degree 8) misses the edge's negative
    values, but rung 3's grid (degree 5) hits one, and it is signed before the
    ladder climbs on.  A belief drawn by a former seeded sampler also replays
    to a positive gain."""
    v = _edge_mixture()
    verdict = check_weak_sp(v)
    assert (verdict.status, verdict.max_degree_tried) == ("refuted", 3)
    w = verdict.witness
    assert (w.instance, w.stage, w.belief) == (_EDGE_INSTANCE, "grid", (F(3, 5), 0, F(2, 5), 0, 0, 0))
    assert replay_gain(v, w) == w.gain > 0
    sampled = SPWitness(_EDGE_INSTANCE, (F(1), F(0), F(448187, 448312)), F(125, 149354),
                        F(373385, 4973573328),
                        belief=(F(27, 86), F(7, 129), F(1, 86), F(47, 129), F(35, 258), F(31, 258)))
    assert replay_gain(v, sampled) == sampled.gain > 0


def test_a_refutation_does_not_move_with_the_cap_above_its_rung():
    """The instances before the edge one certify by rung 3, and rung 3's grid
    is signed before the ladder climbs on, so every cap from 3 to 8 gives one
    and the same verdict; caps below 3 leave the edge instance unknown."""
    v = _edge_mixture()
    verdicts = {polya_max: check_weak_sp(v, polya_max=polya_max) for polya_max in range(9)}
    assert len({verdicts[polya_max] for polya_max in range(3, 9)}) == 1
    assert verdicts[3].witness.stage == "grid"
    for polya_max in range(3):
        assert verdicts[polya_max].status == "unknown"
        assert _EDGE_INSTANCE in verdicts[polya_max].instances_unknown


def test_the_ladder_builds_no_fraction(monkeypatch):
    """Dominance polynomials hold ints over one denominator, so neither the
    ladder of (3,3) vertex table 4, certified at rung 2, nor that of table 7,
    left open on 4 instances, builds a Fraction in `beliefs`."""
    tables = max_distance(3, 3, F(1, 10), keep_witnesses=True).all_witnesses
    built = []
    monkeypatch.setattr(beliefs, "Fraction", lambda *args: built.append(args) or F(*args))
    certified, unknown = check_weak_sp(tables[4]), check_weak_sp(tables[7])
    assert (certified.status, certified.polya_degree) == ("certified", 2)
    assert (unknown.status, len(unknown.instances_unknown)) == ("unknown", 4)
    assert built == []


@pytest.mark.parametrize("n", [3, pytest.param(4, marks=pytest.mark.slow)])
def test_grid_signs_match_fraction_evaluation_on_the_vertex_corpora(n):
    """Reference for the integer signs: at every negative monomial alpha of
    rungs 1-6 of each open instance, `_refute_on_grid` refutes at alpha alone
    exactly when `SimplexPolynomial.evaluate` gives f(alpha) < 0.  Open
    instances share polynomials (16 distinct of 80 at n = 3), each checked once."""
    distinct = {}
    for v in max_distance(3, n, F(1, 10), keep_witnesses=True).all_witnesses:
        for _, _, open_ks, walk in beliefs._open_pairs(v):
            siblings = beliefs._dominance_siblings(v, walk)
            for f in (siblings[k - 1] for k in open_ks):  # keyed by value: terms over den
                distinct.setdefault(frozenset((e, F(c, f.den)) for e, c in f.terms.items()), f)
    checked = 0
    for f in distinct.values():
        g = f
        for _ in range(6):
            g = g.times_coordinate_sum()
            for mono, coeff in g.terms.items():
                if coeff < 0:
                    alpha = [mono.count(i) for i in range(g.nvars)]
                    one = SimplexPolynomial(g.nvars, g.degree, {mono: coeff})
                    assert (_refute_on_grid(f, one) is not None) == (f.evaluate(alpha) < 0)
                    checked += 1
    assert checked > 0
