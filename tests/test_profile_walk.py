"""The cached profile walk and the readers that index it instead of sorting.

Oracle style: versions of the generators that build every profile by
sorting a tuple are written out here, and the walk-based code must yield the
same items in the same order.  At m = 4 the `set(key)` iteration order of
`responsive_pairs` is not sorted order, so the m = 4 sizes are the ones that
show a reordering.
"""

import hashlib
import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction as F

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from votecert import lp as lp_module, polytope
from votecert.axioms import (
    isolation_deviation,
    isolation_groups,
    responsive_pairs,
    responsiveness_deviation,
)
from votecert.beliefs import _misreport_pairs, _opponent_gaps, check_classic_sp
from votecert.cli import main
from votecert.errors import CapExceededError
from votecert.polytope import max_distance
from votecert.prefs import (
    adjacent_swaps,
    enumerate_orderings,
    enumerate_profiles,
    ordering_rank,
    profile_walk,
)
from votecert.rules import (
    RuleTable,
    perturb,
    plurality_uniform_tiebreak,
    random_dictatorship,
    rank_rule,
    save_rule,
    uniform_rule,
)

SIZES = [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]


# -- the table against its definition ---------------------------------------------


def _check_walk(m, n):
    contexts, at, top_counts = profile_walk(m, n)
    keys = list(enumerate_profiles(m, n))
    index = {key: i for i, key in enumerate(keys)}
    ranks = range(math.factorial(m))
    assert contexts == tuple(itertools.combinations_with_replacement(ranks, n - 1))
    assert len(at) == len(contexts)
    for others, row in zip(contexts, at):
        assert row == tuple(index[tuple(sorted(others + (r,)))] for r in ranks)
    tops = [o[0] for o in enumerate_orderings(m)]
    assert top_counts == tuple(
        tuple(sum(1 for r in key if tops[r] == x) for x in range(m)) for key in keys
    )


@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (2, 1), (3, 1), (4, 1), *SIZES, (3, 4), (4, 4)])
def test_walk_table_matches_its_definition(m, n):
    _check_walk(m, n)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_walk_table_property(m, n):
    _check_walk(m, n)
    assert profile_walk(m, n) is profile_walk(m, n)  # built once per (m, n)


# -- the generators against their sorted-tuple versions ----------------------------


def _replace_rank(key, old, new):
    lst = list(key)
    lst.remove(old)
    lst.append(new)
    return tuple(sorted(lst))


def _responsive_pairs_sorted(m, n):
    orderings = enumerate_orderings(m)
    swaps = adjacent_swaps(m)
    for key in enumerate_profiles(m, n):
        for r in set(key):
            o = orderings[r]
            for p, r2 in enumerate(swaps[r]):
                key2 = _replace_rank(key, r, r2)
                if key2 < key:
                    continue
                for z in range(m):
                    if z != o[p] and z != o[p + 1]:
                        yield key, key2, r, p, z


def _isolation_groups_sorted(m, n):
    orderings = enumerate_orderings(m)
    swaps = adjacent_swaps(m)
    contexts = list(itertools.combinations_with_replacement(range(len(orderings)), n - 1))
    for r, o in enumerate(orderings):
        for p, r2 in enumerate(swaps[r]):
            x_above_y = [q.index(o[p]) < q.index(o[p + 1]) for q in orderings]
            groups = defaultdict(list)
            for others in contexts:
                before = tuple(sorted(others + (r,)))
                after = tuple(sorted(others + (r2,)))
                groups[sum(x_above_y[s] for s in others)].append((others, before, after))
            for c, members in groups.items():
                yield r, p, o[p + 1], c, members


# The generators yield profile and context indices; these read them back as
# the sorted tuples the references build.


def _responsive_pairs_as_keys(m, n):
    keys = list(enumerate_profiles(m, n))
    for i, i2, r, p, zs in responsive_pairs(m, n):
        for z in zs:
            yield keys[i], keys[i2], r, p, z


def _isolation_groups_as_keys(m, n):
    keys = list(enumerate_profiles(m, n))
    contexts, at, _ = profile_walk(m, n)
    for r, p, r2, y, groups in isolation_groups(m, n):
        for c, members in groups.items():
            yield r, p, y, c, [(contexts[k], keys[at[k][r]], keys[at[k][r2]]) for k in members]


def _opponent_gaps_sorted(v, truthful, misreport):
    view = v._scaled()
    r_true, r_lie = ordering_rank(truthful), ordering_rank(misreport)
    for others in itertools.combinations_with_replacement(range(math.factorial(v.m)), v.n - 1):
        a, da = view[tuple(sorted(others + (r_true,)))]
        b, db = view[tuple(sorted(others + (r_lie,)))]
        if da == db:
            if a == b:
                continue
            den, diffs = da, (a[x] - b[x] for x in truthful[:-1])
        else:
            den, diffs = da * db, (a[x] * db - b[x] * da for x in truthful[:-1])
        yield others, tuple(itertools.accumulate(diffs)), den


def test_set_order_differs_from_sorted_order_at_m4():
    # the case the m = 4 comparisons below guard
    assert list(set((3, 9))) == [9, 3]
    assert any(list(set(key)) != sorted(set(key)) for key in enumerate_profiles(4, 2))


@pytest.mark.parametrize("m, n", SIZES)
def test_responsive_pairs_match_the_sorted_tuple_generator(m, n):
    assert list(_responsive_pairs_as_keys(m, n)) == list(_responsive_pairs_sorted(m, n))
    for i, i2, _r, _p, zs in responsive_pairs(m, n):
        assert i < i2 and list(zs) == sorted(set(zs))


@pytest.mark.parametrize("m, n", SIZES)
def test_isolation_groups_match_the_sorted_tuple_generator(m, n):
    assert list(_isolation_groups_as_keys(m, n)) == list(_isolation_groups_sorted(m, n))


@pytest.mark.parametrize("m, n", SIZES)
def test_opponent_gaps_match_the_sorted_tuple_walk(m, n):
    rules = [
        perturb(random_dictatorship(m, n), F(1, 7), 3),
        plurality_uniform_tiebreak(m, n),
        rank_rule(m, n, m),
    ]
    for v in rules:
        for truthful, misreport in _misreport_pairs(m):
            got = list(_opponent_gaps(v, truthful, misreport))
            assert got == list(_opponent_gaps_sorted(v, truthful, misreport))


def test_responsiveness_witness_is_the_first_tied_bystander():
    # uniform at (4, 2) but for (0, 0): both bystanders of its first swap move by 1/4
    v = uniform_rule(4, 2)
    table = dict(v.table)
    table[(0, 0)] = (F(1, 2), F(1, 2), F(0), F(0))
    v = RuleTable(4, 2, table)
    first = max(((abs(v.prob_at(key2, z) - v.prob_at(key, z)), key, key2, r, p, z)
                 for key, key2, r, p, z in _responsive_pairs_as_keys(4, 2)),
                key=lambda item: item[0])
    report = responsiveness_deviation(v)
    assert report.eps == first[0] == F(1, 4)
    assert report.witness == dict(zip(("profile", "swapped_profile", "acting_rank", "pos", "z"),
                                      first[1:]))
    assert report.witness["z"] == 2


# -- the profile cap is checked on every call --------------------------------------


def test_cached_walk_does_not_bypass_the_profile_cap(monkeypatch, tmp_path):
    v = random_dictatorship(4, 3)
    profile_walk(4, 3)  # cached before the cap is lowered
    save_rule(v, str(tmp_path / "rd.json"))
    monkeypatch.setenv("VOTECERT_MAX_PROFILES", "10")
    for meter in (responsiveness_deviation, isolation_deviation, check_classic_sp):
        with pytest.raises(CapExceededError, match="profile cap 10"):
            meter(v)
    result = CliRunner().invoke(
        main, ["check", "--rule", str(tmp_path / "rd.json"), "--axiom", "responsiveness"]
    )
    assert result.exit_code == 3, result.output


# -- the integer dual check against the Fraction one -------------------------------


def _dual_certifies_fractions(G, h, objective, value, y):
    if len(y) != len(G) or any(yi < 0 for yi in y):
        return False
    lhs = dict.fromkeys(range(len(objective)), F(0))
    rhs = F(0)
    for yi, row, b in zip(y, G, h):
        if yi:
            for j, a in row.items():
                lhs[j] = lhs.get(j, F(0)) + yi * a
            rhs += yi * b
    return lhs == dict(enumerate(objective)) and rhs == value


def test_integer_dual_check_agrees_with_fractions(monkeypatch):
    systems, calls = [], []

    def scaled(G, h):
        systems.append((G, h, lp_module.scaled_system(G, h)))
        return systems[-1][2]

    def recorded(*args):
        calls.append(args)
        return lp_module.dual_certifies(*args)

    monkeypatch.setattr(polytope, "scaled_system", scaled)
    monkeypatch.setattr(polytope, "dual_certifies", recorded)
    max_distance(3, 3, F(1, 10))
    assert calls and len(systems) == 1
    G, h, built = systems[0]
    assert all(args[0] is built for args in calls)  # one system, built from G and h
    for system, obj, value, y in calls[::4]:
        support = [i for i, yi in enumerate(y) if yi]
        variants = [
            (value, y),
            (value + F(1, 3), y),
            (value, [yi + F(1, 5) if i == support[0] else yi for i, yi in enumerate(y)]),
            (value, [-yi if i == support[-1] else yi for i, yi in enumerate(y)]),
            (value, [F(1, 9) if i == 0 else yi for i, yi in enumerate(y)]),
        ]
        for val, dual in variants:
            want = _dual_certifies_fractions(G, h, obj, val, dual)
            assert lp_module.dual_certifies(system, obj, val, dual) == want
        assert lp_module.dual_certifies(system, obj, value, y)


# -- golden reports at m = 4 --------------------------------------------------------

# sha256 of each (4, 2) rule file, and of json.dumps(report["results"],
# sort_keys=True) for each report on them, as the sorted-tuple implementation
# wrote them: at m = 4 a reordered witness shows here.
GOLDEN_RULES_M4 = {
    "perturbed": (("--delta", "1/7", "--seed", "3"),
                  "a5a0e593d1e0db122fbc7fcb108cba4ecff9a947e9a1fda5e0d508ef1709494e"),
    "plurality-tiebreak": ((), "59dc0d0229be3333d5972a418657762ec3a77ce8d33a7eb0a548b1fe834086b6"),
}
GOLDEN_REPORTS_M4 = [
    (("check", "--axiom", "all"), "perturbed",
     "003cf568b700a8b2b4273538194a4ca169218eb6c609d2b313b4d28c5105917c"),
    (("check", "--axiom", "all"), "plurality-tiebreak",
     "cd1a09689dd5cbdc64b66f8d9a9c1dc8d5d56afe382508e871864f36d6b30ced"),
    (("sp-check", "--classic"), "perturbed",
     "ccdc7940d465f05b4f84b5f4b52bc25b50277871e5d5cc681b7b0894b403f38e"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args, kind, digest", GOLDEN_REPORTS_M4,
                         ids=lambda a: " ".join(a) if isinstance(a, tuple) else a[:12])
def test_golden_reports_at_m4_are_pinned(tmp_path, args, kind, digest):
    runner = CliRunner()
    extra, rule_digest = GOLDEN_RULES_M4[kind]
    rule = tmp_path / f"{kind}.json"
    result = runner.invoke(main, ["gen", kind, "4", "2", *extra, "--out", str(rule)])
    assert result.exit_code == 0, result.output
    assert _sha256(rule.read_bytes()) == rule_digest
    out = tmp_path / "report.json"
    result = runner.invoke(main, [*args, "--rule", str(rule), "--out", str(out)])
    assert result.exit_code == 0, result.output
    results = json.loads(out.read_text())["results"]
    assert _sha256(json.dumps(results, sort_keys=True).encode()) == digest
