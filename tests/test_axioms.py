"""Axiom meters: minimal-eps values, deviation meters, canonical tables.

Oracle style: the zero values for random dictatorship are checked against
small inline brute-force scans, positive values against hand-constructed
tables, and every reported witness must replay to the reported value.
"""

import itertools
import random
from collections import defaultdict
from fractions import Fraction as F

import pytest

from votecert.axioms import (
    AXIOM_NAMES,
    AxiomReport,
    candidate_anonymity_deviation,
    canonical_profile,
    distance_to_random_dictatorship,
    isolation_deviation,
    isolation_groups,
    min_eps_pareto,
    min_eps_strong_unanimity,
    min_eps_super_weak_unanimity,
    min_eps_weak_unanimity,
    replay_report,
    responsiveness_deviation,
    run_axiom,
    sliding_window_deviation,
    times_at_top_deviation,
    tops_only_deviation,
    vprime_table,
)
from votecert.errors import DomainError
from votecert.prefs import (
    adjacent_swaps,
    canonicalize,
    enumerate_orderings,
    enumerate_profiles,
    profile_walk,
)
from votecert.rules import (
    RuleTable,
    mixture,
    pair_rule,
    perturb,
    plurality_uniform_tiebreak,
    random_dictatorship,
    rank_rule,
    uniform_rule,
)

A, B, C = 0, 1, 2
ABC, ACB, BAC, BCA, CAB, CBA = (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)


def brute_force_pareto(v):
    """Independent scan over ordered profiles and candidate pairs."""
    worst = F(0)
    for profile in itertools.product(enumerate_orderings(v.m), repeat=v.n):
        for x in range(v.m):
            for y in range(v.m):
                if x != y and all(o.index(x) < o.index(y) for o in profile):
                    worst = max(worst, v.prob_at(canonicalize(profile), y))
    return worst


def deviant_unanimity_rule(delta):
    """Random dictatorship except one mixed all-tops-a profile leaks delta."""
    v = random_dictatorship(3, 3)
    table = dict(v.table)
    key = canonicalize((ABC, ABC, ACB))
    table[key] = (1 - delta, delta, F(0))
    return RuleTable(3, 3, table)


def test_pareto_random_dictatorship_is_zero():
    v = random_dictatorship(3, 3)
    report = min_eps_pareto(v)
    assert report.eps == 0
    assert brute_force_pareto(v) == 0


def test_pareto_uniform_is_one_third():
    report = min_eps_pareto(uniform_rule(3, 3))
    assert report.eps == F(1, 3)
    assert brute_force_pareto(uniform_rule(3, 3)) == F(1, 3)


def test_pareto_single_candidate_is_vacuous():
    assert min_eps_pareto(uniform_rule(1, 2)).eps == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unanimity_random_dictatorship_all_zero(n):
    v = random_dictatorship(3, n)
    assert min_eps_pareto(v).eps == 0
    assert min_eps_strong_unanimity(v).eps == 0
    assert min_eps_weak_unanimity(v).eps == 0
    assert min_eps_super_weak_unanimity(v).eps == 0


def test_unanimity_uniform():
    u = uniform_rule(3, 3)
    assert min_eps_strong_unanimity(u).eps == F(2, 3)
    assert min_eps_weak_unanimity(u).eps == F(2, 3)
    assert min_eps_super_weak_unanimity(u).eps == F(2, 3)


def test_unanimity_deviant_rule_separates_the_notions():
    delta = F(1, 8)
    v = deviant_unanimity_rule(delta)
    assert min_eps_strong_unanimity(v).eps == delta
    assert min_eps_weak_unanimity(v).eps == 0  # replicated profiles untouched
    assert min_eps_super_weak_unanimity(v).eps == 0  # intact witness remains


def test_unanimity_strength_ordering_on_seeded_rules():
    rng = random.Random(5)
    rules = [random_dictatorship(3, 3), uniform_rule(3, 3), plurality_uniform_tiebreak(3, 3)]
    rules += [perturb(random_dictatorship(3, 3), F(rng.randrange(0, 9), 8), s) for s in range(8)]
    for v in rules:
        sw = min_eps_super_weak_unanimity(v).eps
        weak = min_eps_weak_unanimity(v).eps
        strong = min_eps_strong_unanimity(v).eps
        pareto = min_eps_pareto(v).eps
        assert sw <= weak <= strong
        assert strong <= v.m * pareto
        if pareto == 0:
            assert strong == 0


def test_responsiveness_zero_rules():
    assert responsiveness_deviation(random_dictatorship(3, 3)).eps == 0
    assert responsiveness_deviation(uniform_rule(3, 3)).eps == 0
    assert responsiveness_deviation(rank_rule(3, 3, 2)).eps == 0
    assert responsiveness_deviation(pair_rule(3, 3, A, C)).eps == 0


def test_responsiveness_perturbed_positive_and_replays():
    v = perturb(random_dictatorship(3, 3), F(1, 5), seed=13)
    report = responsiveness_deviation(v)
    assert report.eps > 0
    assert replay_report(v, report) == report.eps


def test_isolation_zero_rules():
    assert isolation_deviation(random_dictatorship(3, 3)).eps == 0
    assert isolation_deviation(uniform_rule(3, 3)).eps == 0
    assert isolation_deviation(pair_rule(3, 3, A, B)).eps == 0


def test_isolation_counterexample_table():
    """A raise-delta that depends on a third candidate's position is caught."""
    v = random_dictatorship(3, 2)
    table = dict(v.table)
    key = canonicalize((BAC, ABC))
    table[key] = (F(1, 4), F(1, 2), F(1, 4))
    bad = RuleTable(3, 2, table)
    report = isolation_deviation(bad)
    assert report.eps > 0
    assert replay_report(bad, report) == report.eps


def test_tops_only_and_times_at_top():
    for v in (random_dictatorship(3, 3), uniform_rule(3, 3)):
        assert tops_only_deviation(v).eps == 0
        assert times_at_top_deviation(v).eps == 0
    w = perturb(random_dictatorship(3, 3), F(1, 4), seed=3)
    for meter in (tops_only_deviation, times_at_top_deviation):
        report = meter(w)
        assert report.eps > 0
        assert replay_report(w, report) == report.eps


def test_vprime_random_dictatorship_is_linear():
    v = random_dictatorship(3, 3)
    vp = vprime_table(v)
    for x in range(3):
        for j in range(4):
            assert vp[(x, j)] == F(j, 3)


def test_vprime_uniform_is_flat():
    vp = vprime_table(uniform_rule(3, 2))
    assert all(val == F(1, 3) for val in vp.values())


def test_vprime_respects_strong_unanimity_bounds():
    delta = F(1, 9)
    v = deviant_unanimity_rule(delta)
    vp = vprime_table(v)
    for x in range(3):
        assert vp[(x, 0)] <= delta
        assert vp[(x, v.n)] >= 1 - delta


def test_vprime_rejects_single_candidate():
    with pytest.raises(DomainError):
        vprime_table(uniform_rule(1, 2))


def test_canonical_profile_shape():
    key = canonical_profile(3, 3, C, 2)
    orderings = enumerate_orderings(3)
    tops = [orderings[r][0] for r in key]
    assert tops.count(C) == 2
    # remaining voter has c at the very bottom
    rest = [orderings[r] for r in key if orderings[r][0] != C]
    assert all(o[-1] == C for o in rest)


def test_candidate_anonymity_and_sliding_window_zero():
    for v in (random_dictatorship(3, 3), uniform_rule(3, 3)):
        assert candidate_anonymity_deviation(v).eps == 0
        assert sliding_window_deviation(v).eps == 0


def test_sliding_window_perturbation_bound():
    # every canonical entry sits within delta of j/n, so any window
    # difference of two increments is at most 4*delta
    delta = F(1, 6)
    v = perturb(random_dictatorship(3, 3), delta, seed=21)
    report = sliding_window_deviation(v)
    assert report.eps <= 4 * delta
    if report.witness is not None:
        assert replay_report(v, report) == report.eps


def test_distance_report_random_dictatorship():
    rep = distance_to_random_dictatorship(random_dictatorship(3, 3))
    assert rep.closeness.eps == 0
    assert rep.table_vs_canonical.eps == 0
    assert rep.canonical_vs_linear.eps == 0


def test_distance_report_uniform():
    rep = distance_to_random_dictatorship(uniform_rule(3, 3))
    assert rep.closeness.eps == F(2, 3)
    assert rep.table_vs_canonical.eps == 0
    assert rep.canonical_vs_linear.eps == F(2, 3)


def test_distance_report_plurality_positive():
    rep = distance_to_random_dictatorship(plurality_uniform_tiebreak(3, 3))
    assert rep.closeness.eps > 0


def test_every_report_witness_replays_exactly():
    v = perturb(random_dictatorship(3, 3), F(2, 7), seed=8)
    for name in AXIOM_NAMES:
        report = run_axiom(v, name)
        assert report.axiom == name
        assert replay_report(v, report) == report.eps, name
    rep = distance_to_random_dictatorship(v)
    for sub in (rep.closeness, rep.table_vs_canonical, rep.canonical_vs_linear):
        assert replay_report(v, sub) == sub.eps, sub.axiom


def test_lemma_style_implications_on_responsive_families():
    """Rules with zero responsiveness/isolation deviation obey the window
    bounds scaled by their own strong-unanimity eps."""
    family = [
        random_dictatorship(3, 3),
        uniform_rule(3, 3),
        pair_rule(3, 3, B, C),
        mixture([random_dictatorship(3, 3), uniform_rule(3, 3)], [F(1, 3), F(2, 3)]),
    ]
    for v in family:
        assert responsiveness_deviation(v).eps == 0
        assert isolation_deviation(v).eps == 0
        eps = min_eps_strong_unanimity(v).eps
        m = v.m
        assert tops_only_deviation(v).eps <= m * eps
        assert times_at_top_deviation(v).eps <= 2 * m * eps
        assert distance_to_random_dictatorship(v).table_vs_canonical.eps <= 2 * m * eps
        assert candidate_anonymity_deviation(v).eps <= 14 * m * eps
        assert sliding_window_deviation(v).eps <= 64 * m * eps


def test_run_axiom_rejects_unknown_name():
    with pytest.raises(DomainError):
        run_axiom(uniform_rule(3, 2), "nonsense")


# Reports of two rules, pinned exactly: eps plus the whole witness, key order
# included.  A witness is the first profile (in enumeration order) attaining
# the value, so any change to how meters enumerate or break ties shows here.
PINNED_REPORTS = {
    "perturbed": {
        "pareto": (F(149, 1239), {"profile": (3, 3, 5), "dominator": 1, "dominated": 0}),
        "strong-unanimity": (F(152, 1113), {"profile": (3, 3, 3), "x": 1}),
        "weak-unanimity": (F(152, 1113), {"profile": (3, 3, 3), "x": 1}),
        "super-weak-unanimity": (F(1567, 13804), {"profile": (1, 1, 1), "x": 0}),
        "responsiveness": (F(523, 4914), {"profile": (3, 4, 5), "swapped_profile": (4, 5, 5),
                                          "acting_rank": 3, "pos": 0, "z": 0}),
        "isolation": (F(12083011, 66348450), {"acting_rank": 5, "pos": 1, "pair_count": 2,
                                              "others": (5, 5), "others_2": (3, 3)}),
        "tops-only": (F(206051, 1870890), {"profile": (3, 3, 5), "profile_2": (2, 2, 5), "x": 0}),
        "times-at-top": (F(55337, 483210), {"profile": (3, 3, 5), "profile_2": (3, 4, 5), "x": 0}),
        "candidate-anonymity": (F(795906, 13660955), {"x": 0, "y": 1, "j": 1}),
        "sliding-window": (F(164740274063, 1931033412252), {"x": 0, "j": 0, "jp": 2, "l": 1}),
        "distance": (F(152, 1113), {"profile": (3, 3, 3), "x": 1}),
        "table-vs-canonical": (F(115799, 1335887), {"profile": (1, 4, 5), "x": 0, "j": 1}),
        "canonical-vs-linear": (F(12, 97), {"x": 2, "j": 3}),
    },
    "plurality": {
        "pareto": (F(0), None),
        "strong-unanimity": (F(0), None),
        "weak-unanimity": (F(0), None),
        "super-weak-unanimity": (F(0), None),
        "responsiveness": (F(1, 3), {"profile": (0, 0, 4), "swapped_profile": (0, 2, 4),
                                     "acting_rank": 0, "pos": 0, "z": 2}),
        "isolation": (F(1), {"acting_rank": 0, "pos": 0, "pair_count": 1,
                             "others": (0, 2), "others_2": (4, 5)}),
        "tops-only": (F(0), None),
        "times-at-top": (F(1, 3), {"profile": (0, 2, 4), "profile_2": (0, 2, 2), "x": 0}),
        "candidate-anonymity": (F(0), None),
        "sliding-window": (F(1), {"x": 0, "j": 0, "jp": 1, "l": 1}),
        "distance": (F(1, 3), {"profile": (0, 0, 2), "x": 0}),
        "table-vs-canonical": (F(1, 3), {"profile": (0, 2, 4), "x": 0, "j": 1}),
        "canonical-vs-linear": (F(1, 3), {"x": 0, "j": 1}),
    },
}


def _all_reports(v):
    reports = {name: run_axiom(v, name) for name in AXIOM_NAMES}
    rep = distance_to_random_dictatorship(v)
    for sub in (rep.closeness, rep.table_vs_canonical, rep.canonical_vs_linear):
        reports[sub.axiom] = sub
    return reports


@pytest.mark.parametrize("label", sorted(PINNED_REPORTS))
def test_reports_match_pinned_witnesses(label):
    v = {
        "perturbed": lambda: perturb(random_dictatorship(3, 3), F(1, 7), seed=3),
        "plurality": lambda: plurality_uniform_tiebreak(3, 3),
    }[label]()
    got = {name: (r.eps, r.witness) for name, r in _all_reports(v).items()}
    expected = PINNED_REPORTS[label]
    assert list(got) == list(expected)
    for name, (eps, witness) in expected.items():
        assert got[name] == (eps, witness), name
        if witness is not None:
            assert list(got[name][1]) == list(witness), name


@pytest.mark.parametrize("v", [random_dictatorship(3, 3), uniform_rule(3, 2)], ids=["rd33", "uniform32"])
def test_witness_is_absent_exactly_when_eps_is_zero(v):
    reports = [(r.axiom, r.eps, r.witness) for r in _all_reports(v).values()]
    for name, eps, witness in reports:
        assert (eps == 0) == (witness is None), name


def _isolation_groups_per_swap(m, n):
    """isolation_groups as first written: before and x_above_y per swap."""
    orderings = enumerate_orderings(m)
    swaps = adjacent_swaps(m)
    contexts = list(itertools.combinations_with_replacement(range(len(orderings)), n - 1))
    for r, o in enumerate(orderings):
        for p, r2 in enumerate(swaps[r]):
            x, y = o[p], o[p + 1]
            x_above_y = [q.index(x) < q.index(y) for q in orderings]
            groups = defaultdict(list)
            for others in contexts:
                c = sum(x_above_y[s] for s in others)
                before = tuple(sorted(others + (r,)))
                after = tuple(sorted(others + (r2,)))
                groups[c].append((others, before, after))
            for c, members in groups.items():
                yield r, p, r2, y, c, members


@pytest.mark.parametrize("m, n", [(3, 2), (3, 3), (4, 2)])
def test_isolation_groups_match_the_per_swap_generator(m, n):
    # the generator yields context indices; read them back as the tuples above
    keys = list(enumerate_profiles(m, n))
    contexts, at, _ = profile_walk(m, n)
    got = [(r, p, r2, y, c, [(contexts[k], keys[at[k][r]], keys[at[k][r2]]) for k in members])
           for r, p, r2, y, groups in isolation_groups(m, n) for c, members in groups.items()]
    assert got == list(_isolation_groups_per_swap(m, n))


# -- the replay reads no field from a wrong place ------------------------------------
#
# On this rule every report has a witness.  Each case sets one witness field to
# a value the replay must refuse; before the check, a negative index read
# another candidate, position or canonical entry and returned its value.

REPLAY_RULE = perturb(random_dictatorship(3, 2), F(1, 5), 1)

BAD_FIELDS = {
    "candidate x below range": ("strong-unanimity", "x", -1),
    "candidate dominated below range": ("pareto", "dominated", -3),
    "candidate z past m": ("responsiveness", "z", 3),
    "candidate y past m": ("candidate-anonymity", "y", 3),
    "candidate as bool": ("distance", "x", True),
    "acting rank past m!": ("isolation", "acting_rank", 6),
    "acting rank below range": ("isolation", "acting_rank", -1),
    "pos below range": ("isolation", "pos", -1),
    "pos past m - 2": ("isolation", "pos", 2),
    "j below 0": ("canonical-vs-linear", "j", -1),
    "j past n": ("table-vs-canonical", "j", 3),
    "l past n": ("sliding-window", "l", 3),
    "jp window past n": ("sliding-window", "jp", 2),
    "j window past n": ("sliding-window", "j", 2),
    "profile not sorted": ("tops-only", "profile_2", (4, 2)),
    "profile too short": ("weak-unanimity", "profile", (1,)),
    "profile as list": ("responsiveness", "swapped_profile", [3, 4]),
    "profile rank past m!": ("super-weak-unanimity", "profile", (4, 6)),
    "context too long": ("isolation", "others_2", (4, 4)),
    "context rank below range": ("isolation", "others", (-1,)),
}


@pytest.mark.parametrize("axiom, field, value", list(BAD_FIELDS.values()), ids=list(BAD_FIELDS))
def test_replay_refuses_a_field_out_of_range(axiom, field, value):
    report = _all_reports(REPLAY_RULE)[axiom]
    assert field in report.witness and replay_report(REPLAY_RULE, report) == report.eps
    if axiom == "sliding-window" and field in ("j", "jp"):  # in 0..n, but the window runs past n
        assert report.witness["l"] == 1 and value + 1 > REPLAY_RULE.n
    bad = AxiomReport(axiom, report.eps, {**report.witness, field: value})
    with pytest.raises(DomainError, match=f"'{field}'"):
        replay_report(REPLAY_RULE, bad)


@pytest.mark.parametrize("axiom", sorted(_all_reports(REPLAY_RULE)))
def test_replay_refuses_a_witness_with_a_missing_field(axiom):
    report = _all_reports(REPLAY_RULE)[axiom]
    assert replay_report(REPLAY_RULE, report) == report.eps
    for field in report.witness:
        witness = {k: val for k, val in report.witness.items() if k != field}
        with pytest.raises(DomainError, match=f"no field '{field}'"):
            replay_report(REPLAY_RULE, AxiomReport(axiom, report.eps, witness))


# -- the replay refuses a witness that names no violation ----------------------------
#
# Each case sets witness fields of REPLAY_RULE to values in range that name
# profiles of the table, so only the witness's shape is wrong; before the shape
# checks, each replayed to a positive value.  Orderings: 0 abc, 1 acb, 2 bac,
# 3 bca, 4 cab, 5 cba.

WRONG_SHAPES = {
    "pareto: no voter pair dominates": ("pareto", {"profile": (0, 5), "dominator": 0, "dominated": 1}),
    "pareto: dominator is dominated": ("pareto", {"dominator": 0, "dominated": 1}),
    "strong unanimity: not unanimous": ("strong-unanimity", {"profile": (0, 5), "x": 0}),
    "strong unanimity: another top": ("strong-unanimity", {"x": 1}),
    "weak unanimity: two orderings": ("weak-unanimity", {"profile": (0, 1), "x": 0}),
    "super-weak unanimity: not unanimous": ("super-weak-unanimity", {"profile": (0, 5), "x": 0}),
    "responsiveness: not a swap": ("responsiveness", {"swapped_profile": (5, 5)}),
    "responsiveness: acting rank absent": ("responsiveness", {"acting_rank": 0}),
    "responsiveness: another pos": ("responsiveness", {"pos": 0}),
    "responsiveness: z in the pair": ("responsiveness", {"z": 0}),
    "isolation: others miscounted": ("isolation", {"pair_count": 1}),
    "isolation: others_2 miscounted": ("isolation", {"others_2": (0,)}),
    "tops-only: tops differ": ("tops-only", {"profile_2": (0, 4)}),
    "times-at-top: x's count differs": ("times-at-top", {"profile": (0, 5), "profile_2": (0, 0),
                                                         "x": 0}),
    "table-vs-canonical: j is not x's count": ("table-vs-canonical", {"profile": (0, 5), "x": 0,
                                                                      "j": 0}),
}


@pytest.mark.parametrize("axiom, changes", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES))
def test_replay_refuses_a_witness_of_the_wrong_shape(axiom, changes):
    report = _all_reports(REPLAY_RULE)[axiom]
    assert replay_report(REPLAY_RULE, report) == report.eps
    bad = AxiomReport(axiom, report.eps, {**report.witness, **changes})
    with pytest.raises(DomainError, match="names no violation"):
        replay_report(REPLAY_RULE, bad)
