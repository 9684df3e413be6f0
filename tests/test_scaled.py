"""Integer-scaled lotteries: the meters, the distance report and the classic
walk read each lottery as (nums, den) and compare integers.

Oracle style: a Fraction reference written out in this file (the formulas
the meters used before they moved to integers, with `max`/`min` by value
and super-weak unanimity's (value, key) order) must give the same value and
the same witness on a seeded corpus, ties included.
"""

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction as F
from operator import itemgetter

import pytest

from votecert import axioms
from votecert.axioms import (
    AxiomReport,
    candidate_anonymity_deviation,
    distance_to_random_dictatorship,
    isolation_deviation,
    isolation_groups,
    min_eps_pareto,
    min_eps_strong_unanimity,
    min_eps_super_weak_unanimity,
    min_eps_weak_unanimity,
    responsive_pairs,
    responsiveness_deviation,
    sliding_window_deviation,
    times_at_top_deviation,
    tops_only_deviation,
    unanimous_profiles,
    vprime_table,
)
from votecert.beliefs import (
    ManipulationInstance,
    SPVerdict,
    _misreport_pairs,
    _refuted_verdict,
    check_classic_sp,
    check_weak_sp,
    dominance_polynomial,
    enumerate_instances,
)
from votecert.errors import ValidationError
from votecert.prefs import (
    adjacent_swaps,
    canonicalize,
    enumerate_orderings,
    enumerate_profiles,
    ordering_rank,
    profile_walk,
)
from votecert.rules import (
    RuleTable,
    constant_rule,
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

ZERO = F(0)
ABC, ACB, BAC = (0, 1, 2), (0, 2, 1), (1, 0, 2)


# -- Fraction reference --------------------------------------------------------------


def ref_worst(axiom, fields, scored):
    top = max(scored, key=itemgetter(0), default=None)
    if top is None or top[0] <= 0:
        return AxiomReport(axiom, ZERO, None)
    return AxiomReport(axiom, top[0], dict(zip(fields, top[1:])))


def ref_tops(m):
    return [o[0] for o in enumerate_orderings(m)]


def ref_group_spreads(v, groups):
    for members, x in groups:
        if len(members) >= 2:
            lo = min(members, key=lambda k: v.prob_at(k, x))
            hi = max(members, key=lambda k: v.prob_at(k, x))
            yield v.prob_at(hi, x) - v.prob_at(lo, x), hi, lo, x


def ref_pareto(v):
    pos = [{c: i for i, c in enumerate(o)} for o in enumerate_orderings(v.m)]
    return ref_worst("pareto", ("profile", "dominator", "dominated"), (
        (v.prob_at(key, y), key, x, y)
        for key in v.keys()
        for x in range(v.m)
        for y in range(v.m)
        if x != y and all(pos[r][x] < pos[r][y] for r in key)
    ))


def ref_keys(v):
    """The anonymous profiles in enumeration order: what a generator's index names."""
    return list(enumerate_profiles(v.m, v.n))


def ref_strong(v):
    keys = ref_keys(v)
    return ref_worst("strong-unanimity", ("profile", "x"), (
        (1 - v.prob_at(keys[i], x), keys[i], x)
        for x, members in enumerate(unanimous_profiles(v.m, v.n))
        for i in members
    ))


def ref_weak(v):
    return ref_worst("weak-unanimity", ("profile", "x"), (
        (1 - v.prob_at((r,) * v.n, o[0]), (r,) * v.n, o[0])
        for r, o in enumerate(enumerate_orderings(v.m))
    ))


def ref_super_weak(v):
    keys = ref_keys(v)
    return ref_worst("super-weak-unanimity", ("profile", "x"), (
        (*min((1 - v.prob_at(keys[i], x), keys[i]) for i in members), x)
        for x, members in enumerate(unanimous_profiles(v.m, v.n))
    ))


def ref_responsiveness(v):
    keys = ref_keys(v)
    fields = ("profile", "swapped_profile", "acting_rank", "pos", "z")
    return ref_worst("responsiveness", fields, (
        (abs(v.prob_at(keys[i2], z) - v.prob_at(keys[i], z)), keys[i], keys[i2], r, p, z)
        for i, i2, r, p, zs in responsive_pairs(v.m, v.n)
        for z in zs
    ))


def ref_isolation(v):
    """y and the swapped rank from the ordering, the profiles by sorting a context."""
    orderings = enumerate_orderings(v.m)
    swaps = adjacent_swaps(v.m)
    contexts, _, _ = profile_walk(v.m, v.n)

    def spreads():
        for r, p, _r2, _y, groups in isolation_groups(v.m, v.n):
            y = orderings[r][p + 1]
            for c, group in groups.items():
                members = [(v.prob_at(tuple(sorted(contexts[k] + (swaps[r][p],))), y)
                            - v.prob_at(tuple(sorted(contexts[k] + (r,))), y), contexts[k])
                           for k in group]
                lo = min(members, key=itemgetter(0))
                hi = max(members, key=itemgetter(0))
                yield hi[0] - lo[0], r, p, c, hi[1], lo[1]

    return ref_worst("isolation", ("acting_rank", "pos", "pair_count", "others", "others_2"),
                     spreads())


def ref_tops_only(v):
    tops = ref_tops(v.m)
    groups = defaultdict(list)
    for key in v.keys():
        cnt = Counter(tops[r] for r in key)
        groups[tuple(cnt.get(x, 0) for x in range(v.m))].append(key)
    pairs = ((members, x) for members in groups.values() for x in range(v.m))
    return ref_worst("tops-only", ("profile", "profile_2", "x"), ref_group_spreads(v, pairs))


def ref_times_at_top(v):
    tops = ref_tops(v.m)
    groups = defaultdict(list)
    for x in range(v.m):
        for key in v.keys():
            groups[(x, sum(1 for r in key if tops[r] == x))].append(key)
    pairs = ((members, x) for (x, _), members in groups.items())
    return ref_worst("times-at-top", ("profile", "profile_2", "x"), ref_group_spreads(v, pairs))


def ref_candidate_anonymity(v):
    vp = vprime_table(v)
    return ref_worst("candidate-anonymity", ("x", "y", "j"), (
        (abs(vp[(x, j)] - vp[(y, j)]), x, y, j)
        for j in range(v.n + 1)
        for x in range(v.m)
        for y in range(x + 1, v.m)
    ))


def ref_sliding_window(v):
    vp = vprime_table(v)
    return ref_worst("sliding-window", ("x", "j", "jp", "l"), (
        (abs(vp[(x, j + w)] - vp[(x, j)] - vp[(x, jp + w)] + vp[(x, jp)]), x, j, jp, w)
        for x in range(v.m)
        for w in range(1, v.n + 1)
        for j in range(v.n - w + 1)
        for jp in range(v.n - w + 1)
    ))


def ref_distance(v):
    """The three reports, with random dictatorship built as a table."""
    rd = random_dictatorship(v.m, v.n)
    best, bkey, bx = ZERO, None, None
    for key in v.keys():
        for x in range(v.m):
            d = abs(v.prob_at(key, x) - rd.prob_at(key, x))
            if d > best:
                best, bkey, bx = d, key, x
    close = AxiomReport("distance", best, None if bkey is None else {"profile": bkey, "x": bx})
    tops = ref_tops(v.m)
    vp = vprime_table(v)
    table = ref_worst("table-vs-canonical", ("profile", "x", "j"), (
        (abs(v.prob_at(key, x) - vp[(x, j)]), key, x, j)
        for key in v.keys()
        for x in range(v.m)
        for j in [sum(1 for r in key if tops[r] == x)]
    ))
    linear = ref_worst("canonical-vs-linear", ("x", "j"), (
        (abs(vp[(x, j)] - F(j, v.n)), x, j) for x in range(v.m) for j in range(v.n + 1)
    ))
    return close, table, linear


def ref_opponent_gaps(v, truthful, misreport):
    r_true, r_lie = ordering_rank(truthful), ordering_rank(misreport)
    for others in itertools.combinations_with_replacement(range(math.factorial(v.m)), v.n - 1):
        lot_true = v.lottery_at(tuple(sorted(others + (r_true,))))
        lot_lie = v.lottery_at(tuple(sorted(others + (r_lie,))))
        if lot_true != lot_lie:
            diffs = (lot_true[x] - lot_lie[x] for x in truthful[:-1])
            yield others, tuple(itertools.accumulate(diffs))


def ref_classic(v):
    pairs = _misreport_pairs(v.m)
    total = len(pairs) * (v.m - 1)
    for truthful, misreport in pairs:
        walk = list(ref_opponent_gaps(v, truthful, misreport))
        for k in range(1, v.m):
            for others, gaps in walk:
                if gaps[k - 1] < 0:
                    inst = ManipulationInstance(truthful, misreport, k)
                    return _refuted_verdict(inst, dict(enumerate(gaps, 1)), total, 0, others=others)
    return SPVerdict("certified", polya_degree=0, instances_total=total)


METERS = [
    (min_eps_pareto, ref_pareto),
    (min_eps_strong_unanimity, ref_strong),
    (min_eps_weak_unanimity, ref_weak),
    (min_eps_super_weak_unanimity, ref_super_weak),
    (responsiveness_deviation, ref_responsiveness),
    (isolation_deviation, ref_isolation),
    (tops_only_deviation, ref_tops_only),
    (times_at_top_deviation, ref_times_at_top),
    (candidate_anonymity_deviation, ref_candidate_anonymity),
    (sliding_window_deviation, ref_sliding_window),
]


# -- Corpus ------------------------------------------------------------------------------


def _edited(v, key, lottery):
    table = dict(v.table)
    table[key] = lottery
    return RuleTable(v.m, v.n, table)


def corpus():
    rules = {}
    for m, n in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        rd = random_dictatorship(m, n)
        for seed in range(3):
            for delta in (F(1, 7), F(1, 20), F(1, 2)):
                rules[f"perturbed-{m}{n}-{seed}-{delta}"] = perturb(rd, delta, seed)
        rules[f"plurality-uniform-{m}{n}"] = plurality_uniform_tiebreak(m, n)
        rules[f"plurality-fixed-{m}{n}"] = plurality_fixed_tiebreak(m, n)
        rules[f"pair-{m}{n}"] = pair_rule(m, n, m - 1, 0)
        rules[f"uniform-{m}{n}"] = uniform_rule(m, n)
        rules[f"rank-last-{m}{n}"] = rank_rule(m, n, m)
    # m = 4 at n = 3: plurality ties within and across profiles
    rules["perturbed-43-0-1/20"] = perturb(random_dictatorship(4, 3), F(1, 20), 0)
    rules["rank-second-43"] = rank_rule(4, 3, 2)
    rules["plurality-uniform-43"] = plurality_uniform_tiebreak(4, 3)
    rd33 = random_dictatorship(3, 3)
    rules["mixture-33"] = mixture(
        [rd33, plurality_uniform_tiebreak(3, 3), uniform_rule(3, 3)], [F(1, 2), F(1, 3), F(1, 6)]
    )
    # certified mixtures whose contexts mix denominators (1, 3, 5, 15; 24, 72), so the
    # classic pass compares reports over their lcm and, where they agree, directly
    rd_pair = mixture([rd33, pair_rule(3, 3, 2, 0)], [F(2, 5), F(3, 5)])
    rules["mixture-rd-pair-33"] = rd_pair
    rules["mixture-rd-pair-uniform-43"] = mixture(
        [random_dictatorship(4, 3), pair_rule(4, 3, 0, 1), uniform_rule(4, 3)],
        [F(1, 3), F(1, 2), F(1, 6)],
    )
    # the unanimous profile of the last ordering lies only in the last context, so
    # every violation comes after the pass has read every other context
    rules["mixture-rd-pair-33-late"] = _edited(rd_pair, (5, 5, 5), (ZERO, F(1, 10), F(9, 10)))
    # the hand-edited tables of the axiom tests
    rules["deviant-unanimity"] = _edited(rd33, canonicalize((ABC, ABC, ACB)), (F(7, 8), F(1, 8), ZERO))
    rules["isolation-counterexample"] = _edited(
        random_dictatorship(3, 2), canonicalize((BAC, ABC)), (F(1, 4), F(1, 2), F(1, 4))
    )
    return rules


CORPUS = corpus()


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_integer_meters_match_fraction_reference(label):
    v = CORPUS[label]
    for meter, reference in METERS:
        got, want = meter(v), reference(v)
        assert (got.axiom, got.eps, got.witness) == (want.axiom, want.eps, want.witness), want.axiom
        assert type(got.eps) is F
    rep = distance_to_random_dictatorship(v)
    for got, want in zip((rep.closeness, rep.table_vs_canonical, rep.canonical_vs_linear),
                         ref_distance(v)):
        assert (got.axiom, got.eps, got.witness) == (want.axiom, want.eps, want.witness), want.axiom


@pytest.mark.parametrize("label", ["perturbed-43-0-1/20", "plurality-uniform-43", "pair-33"])
def test_distance_gives_the_witness_rule_one_item_per_profile(monkeypatch, label):
    """A profile's gaps share a denominator, so closeness and table-vs-canonical
    reduce over x before `_worst` sees them, not one item per (profile, x)."""
    seen = {}
    witness_rule = axioms._worst

    def counting(axiom, fields, scored):
        items = list(scored)
        seen[axiom] = len(items)
        return witness_rule(axiom, fields, items)

    monkeypatch.setattr(axioms, "_worst", counting)
    v = CORPUS[label]
    distance_to_random_dictatorship(v)
    for axiom in ("distance", "table-vs-canonical"):
        assert 0 < seen[axiom] <= len(v.keys()), axiom


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_classic_walk_matches_fraction_reference(label):
    v = CORPUS[label]
    assert check_classic_sp(v) == ref_classic(v)  # witness, utility, rho and gain included


def test_classic_corpus_has_both_verdicts():
    statuses = Counter(check_classic_sp(v).status for v in CORPUS.values())
    assert statuses["certified"] >= 5 and statuses["refuted"] >= 5


def test_late_violation_lies_only_in_the_last_context():
    v = CORPUS["mixture-rd-pair-33-late"]
    contexts, _, _ = profile_walk(v.m, v.n)
    refuting = {others for p, q in _misreport_pairs(v.m)
                for others, gaps in ref_opponent_gaps(v, p, q) if min(gaps) < 0}
    assert refuting == {contexts[-1]}
    assert check_classic_sp(v).witness.others == contexts[-1]


EDGE_RULES = {
    "random-dictatorship": random_dictatorship,
    "uniform": uniform_rule,
    "plurality-fixed": plurality_fixed_tiebreak,
    "plurality-uniform": plurality_uniform_tiebreak,
    "rank-last": lambda m, n: rank_rule(m, n, m),
    "perturbed": lambda m, n: perturb(random_dictatorship(m, n), F(1, 7), 0),
}


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1)])
@pytest.mark.parametrize("rule", sorted(EDGE_RULES))
def test_classic_verdict_at_edge_sizes_matches_fraction_reference(rule, m, n):
    """One candidate (no instance), two candidates (one upper-set size) and
    one voter (a single, empty opponent context)."""
    v = EDGE_RULES[rule](m, n)
    verdict = check_classic_sp(v)
    assert verdict == ref_classic(v)
    assert verdict.instances_total == math.factorial(m) * (math.factorial(m) - 1) * (m - 1)


@pytest.mark.parametrize("m, n, total", [(4, 4, 1656), (5, 2, 57120)])
def test_random_dictatorship_is_classic_sp_at_large_sizes(m, n, total):
    """The i.i.d. check reads the same degree-0 stage, so it certifies too."""
    v = random_dictatorship(m, n)
    certified = SPVerdict("certified", polya_degree=0, instances_total=total)
    assert check_classic_sp(v) == certified
    assert check_weak_sp(v) == certified


@pytest.mark.parametrize("label", [k for k in sorted(CORPUS)
                                   if k.endswith(("-32", "-33", "-1/7")) and CORPUS[k].m <= 3])
def test_dominance_polynomials_match_fraction_gaps(label):
    v = CORPUS[label]
    for inst in enumerate_instances(v.m):
        want = {}
        for others, gaps in ref_opponent_gaps(v, inst.truthful, inst.misreport):
            if gaps[inst.k - 1]:
                counts = Counter(others).values()
                weight = math.factorial(len(others)) // math.prod(math.factorial(c) for c in counts)
                want[others] = weight * gaps[inst.k - 1]
        f = dominance_polynomial(v, inst)
        assert all(type(c) is int for c in f.terms.values())
        assert {e: F(c, f.den) for e, c in f.terms.items()} == want


# -- Validation on the integer form ------------------------------------------------------


def ref_validate_lottery(m, probs):
    lot = tuple(p if isinstance(p, F) else F(p) for p in probs)
    if len(lot) != m:
        raise ValidationError(f"lottery has {len(lot)} entries, expected {m}")
    for i, p in enumerate(lot):
        if p < 0 or p > 1:
            raise ValidationError(f"lottery entry {i} lies outside [0, 1]")
    if sum(lot) != 1:
        raise ValidationError("lottery does not sum to 1")
    return lot


BIG_A, BIG_B = 3**40, 7**30  # large coprime denominators

LOTTERIES = [
    (3, (F(1, 3), F(1, 3), F(1, 3))),
    (3, (F(3, 2), F(-1, 2), ZERO)),  # out of range, above
    (3, (F(1, 2), F(-1, 2), F(1))),  # negative
    (2, (F(-1, 10**9), F(1) + F(1, 10**9))),
    (3, (F(1, BIG_A), F(1, BIG_B), 1 - F(1, BIG_A) - F(1, BIG_B))),  # exact
    (3, (F(1, BIG_A), F(1, BIG_B), 1 - F(1, BIG_A) - F(1, BIG_B) - F(1, 10**12))),  # short
    (3, (F(1, BIG_A), F(1, BIG_B), 1 - F(1, BIG_A) - F(1, BIG_B) + F(1, 10**30))),  # over
    (3, (F(1, 2), F(1, 2))),  # wrong length
    (2, (F(1, 2), F(1, 2), ZERO)),  # wrong length
    (2, (1, 0)),  # ints
    (2, (0, 2)),
    (3, ("1/3", "1/6", "1/2")),  # strings
    (3, ("1/3", "1/6", "1/3")),
    (3, ("2/3", "-1/3", "2/3")),
    (1, (1,)),
]


@pytest.mark.parametrize("m, probs", LOTTERIES)
def test_validate_lottery_matches_fraction_reference(m, probs):
    """The table's lottery check, as a one-voter constant rule meets it."""
    try:
        want = ref_validate_lottery(m, probs)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            constant_rule(m, 1, probs)
        assert str(info.value) == str(exc)
    else:
        v = constant_rule(m, 1, probs)
        for key in v.keys():
            got = v.lottery_at(key)
            assert got == want and all(type(p) is F for p in got)


# -- One view per table -----------------------------------------------------------------


def test_tables_hold_one_view_in_enumeration_order(tmp_path):
    path = str(tmp_path / "rd.json")
    keys = list(itertools.combinations_with_replacement(range(6), 2))  # enumeration order
    shares = {key: F(sum(r % 2 for r in key), 2) for key in keys}
    lotteries = {key: (share, 1 - share, ZERO) for key, share in shares.items()}
    built = RuleTable(3, 2, lotteries)
    save_rule(built, path)
    loaded, _ = load_rule(path)
    perturbed = perturb(built, F(1, 10), seed=1)
    # the view is the only thing a table stores: ints only, no Fraction dict
    assert set(RuleTable.__slots__) == {"m", "n", "names", "_view"}
    for table in (built, loaded, perturbed):
        assert list(table._scaled()) == keys
        assert table._scaled() is table._view is table._scaled()
        assert all(type(a) is int for nums, den in table._view.values() for a in (*nums, den))
        # .table builds Fractions when read, and keeps none
        assert table.table is not table.table
        assert all(type(p) is F for lot in table.table.values() for p in lot)
    assert built.table == lotteries == loaded.table


def test_view_is_exact_and_canonical(tmp_path):
    path = str(tmp_path / "mix.json")
    rd = random_dictatorship(3, 3)
    twins = [
        rd,
        mixture([rd, rd], [F(1, 3), F(2, 3)]),
        perturb(rd, F(0), seed=4),
    ]
    save_rule(twins[1], path)
    twins.append(load_rule(path)[0])
    views = [t._scaled() for t in twins]
    assert all(t == rd for t in twins)
    assert all(view == views[0] for view in views)
    for v in [rd, perturb(rd, F(1, 7), seed=2), plurality_uniform_tiebreak(3, 3)]:
        for key, (nums, den) in v._scaled().items():
            lot = v.lottery_at(key)
            assert den == math.lcm(*(p.denominator for p in lot))
            assert all(type(a) is int and F(a, den) == p for a, p in zip(nums, lot))
