"""Rule tables: builders, mixtures, closeness, perturbation, utilities, files.

Every stored lottery must sum to exactly 1; eval must be anonymous; the
closeness meter must behave like a metric on tables.
"""

import json
import os
import random
import re
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votecert.errors import DomainError, ValidationError
from votecert.prefs import canonicalize, enumerate_orderings, enumerate_profiles
from votecert.rules import (
    RuleTable,
    _parse_pair,
    closeness,
    constant_rule,
    is_consistent_utility,
    load_rule,
    mixture,
    pair_rule,
    perturb,
    plurality_fixed_tiebreak,
    plurality_uniform_tiebreak,
    random_dictatorship,
    rank_rule,
    rule_from_json_obj,
    rule_to_json_obj,
    save_rule,
    uniform_rule,
    upper_set_utility,
)

A, B, C = 0, 1, 2
ABC, ACB, BAC, BCA, CAB, CBA = (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)


def test_random_dictatorship_formula():
    v = random_dictatorship(3, 3)
    assert v.prob_at(canonicalize((ABC, ACB, BAC)), A) == F(2, 3)
    assert v.prob_at(canonicalize((ABC, BAC, CAB)), A) == F(1, 3)
    assert v.lottery_at(canonicalize((BAC, BCA, BAC))) == (F(0), F(1), F(0))
    v1 = random_dictatorship(3, 1)
    assert v1.lottery_at(canonicalize((CAB,))) == (F(0), F(0), F(1))


def test_lotteries_sum_to_one_everywhere():
    for v in (
        random_dictatorship(3, 3),
        uniform_rule(3, 2),
        plurality_uniform_tiebreak(3, 3),
        plurality_fixed_tiebreak(3, 2),
        rank_rule(3, 3, 2),
        pair_rule(3, 3, A, C),
        perturb(random_dictatorship(3, 3), F(1, 7), seed=5),
    ):
        for key in v.keys():
            assert sum(v.lottery_at(key)) == 1


def test_eval_is_anonymous():
    v = random_dictatorship(3, 3)
    profile = (ABC, CAB, BCA)
    for permuted in [(CAB, BCA, ABC), (BCA, ABC, CAB), (ABC, BCA, CAB)]:
        for x in range(3):
            assert v.prob_at(canonicalize(permuted), x) == v.prob_at(canonicalize(profile), x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_voter_permutation_invariance_exhaustive(n):
    import itertools

    v = perturb(random_dictatorship(3, n), F(1, 3), seed=n)
    for profile in itertools.product(enumerate_orderings(3), repeat=n):
        base = v.lottery_at(canonicalize(profile))
        for perm in itertools.permutations(range(n)):
            assert v.lottery_at(canonicalize(tuple(profile[i] for i in perm))) == base


def test_plurality_tiebreak():
    v = plurality_uniform_tiebreak(3, 3)
    assert v.lottery_at(canonicalize((ABC, BAC, CAB))) == (F(1, 3), F(1, 3), F(1, 3))
    assert v.lottery_at(canonicalize((ABC, ACB, BAC))) == (F(1), F(0), F(0))
    d = plurality_fixed_tiebreak(3, 2)
    assert d.lottery_at(canonicalize((BAC, CAB))) == (F(0), F(1), F(0))  # tie goes to lowest id


def test_uniform_rule():
    v = uniform_rule(3, 2)
    for key in v.keys():
        assert v.lottery_at(key) == (F(1, 3), F(1, 3), F(1, 3))


def test_mixture_identity_and_idempotence():
    u = uniform_rule(3, 2)
    v = random_dictatorship(3, 2)
    assert mixture([v], [1]) == v
    assert mixture([u, u], [F(1, 2), F(1, 2)]) == u
    assert mixture([v, v, v], [F(1, 2), F(1, 3), F(1, 6)]) == v


def test_mixture_validation():
    u, v = uniform_rule(3, 2), random_dictatorship(3, 2)
    with pytest.raises(DomainError):
        mixture([u, v], [F(1, 2), F(1, 3)])
    with pytest.raises(DomainError):
        mixture([u, random_dictatorship(3, 3)], [F(1, 2), F(1, 2)])


def test_mixture_weights_past_the_digit_limit_raise_domain_error():
    u = uniform_rule(2, 1)
    with pytest.raises(DomainError, match="sum to 1"):
        mixture([u, u], [F(1, 10**5000), F(1, 2)])


def test_closeness():
    u, v = uniform_rule(3, 3), random_dictatorship(3, 3)
    assert closeness(v, v) == 0
    assert closeness(u, v) == F(2, 3)
    assert closeness(u, v) == closeness(v, u)


def test_closeness_matches_the_fraction_formula():
    v = random_dictatorship(3, 3)
    for delta, seed in ((F(1, 7), 5), (F(2, 3), 8), (F(1), 1)):
        w = perturb(v, delta, seed)
        want = max(abs(p - q) for key, lot in w.table.items() for p, q in zip(lot, v.lottery_at(key)))
        assert 0 < want <= delta
        assert closeness(w, v) == closeness(v, w) == want


def test_closeness_is_a_metric_on_seeded_triples():
    rng = random.Random(11)
    base = random_dictatorship(3, 2)
    for _ in range(20):
        r1 = perturb(base, F(rng.randrange(0, 8), 8), rng.randrange(1000))
        r2 = perturb(base, F(rng.randrange(0, 8), 8), rng.randrange(1000))
        r3 = perturb(base, F(rng.randrange(0, 8), 8), rng.randrange(1000))
        d12, d23, d13 = closeness(r1, r2), closeness(r2, r3), closeness(r1, r3)
        assert d12 == closeness(r2, r1)
        assert (d12 == 0) == (r1 == r2)
        assert d13 <= d12 + d23


def test_perturb():
    v = random_dictatorship(3, 3)
    assert perturb(v, 0, seed=1) == v
    assert perturb(v, F(1, 2), seed=9) == perturb(v, F(1, 2), seed=9)
    assert perturb(v, F(1, 2), seed=9) != perturb(v, F(1, 2), seed=10)
    for delta in (F(1, 20), F(1, 2), F(1)):
        assert closeness(perturb(v, delta, seed=3), v) <= delta
    with pytest.raises(DomainError):
        perturb(v, 2, seed=0)


def test_perturb_delta_one_is_pure_noise():
    v = random_dictatorship(3, 2)
    u = uniform_rule(3, 2)
    assert perturb(v, 1, seed=4) == perturb(u, 1, seed=4)


def test_utility_helpers():
    assert is_consistent_utility([F(1), F(1, 2), F(0)], ABC)
    assert not is_consistent_utility([F(1, 2), F(1), F(0)], ABC)
    for k in (1, 2):
        for rho in (F(1), F(1, 7)):
            u = upper_set_utility(CAB, k, rho)
            assert is_consistent_utility(u, CAB)


# -- rule files -----------------------------------------------------------------


def test_rule_file_roundtrip(tmp_path):
    v = perturb(random_dictatorship(3, 3), F(1, 5), seed=2)
    path = tmp_path / "rule.json"
    save_rule(v, str(path))
    assert load_rule(str(path)) == v
    # serialization uses p/q strings with multiplicity-as-repeats profiles
    obj = json.loads(path.read_text())
    assert obj["m"] == 3 and obj["n"] == 3 and len(obj["entries"]) == 56
    assert all(len(e["profile"]) == 3 for e in obj["entries"])


def test_rule_file_totality_is_hard_error(tmp_path):
    v = random_dictatorship(3, 2)
    obj = rule_to_json_obj(v)
    del obj["entries"][0]
    with pytest.raises(ValidationError, match="missing"):
        rule_from_json_obj(obj)


def test_rule_file_rejects_bad_lottery():
    v = random_dictatorship(3, 2)
    obj = rule_to_json_obj(v)
    obj["entries"][0]["lottery"] = ["1/2", "1/2", "1/2"]
    with pytest.raises(ValidationError):
        rule_from_json_obj(obj)


def test_rule_file_rejects_duplicates():
    v = random_dictatorship(3, 2)
    obj = rule_to_json_obj(v)
    obj["entries"].append(obj["entries"][0])
    with pytest.raises(ValidationError, match="duplicate"):
        rule_from_json_obj(obj)


def test_rule_table_requires_totality():
    v = random_dictatorship(3, 2)
    table = dict(v.table)
    missing = next(iter(table))
    del table[missing]
    with pytest.raises(ValidationError, match="missing"):
        RuleTable(3, 2, table)


def test_rule_table_rejects_an_unknown_profile():
    table = dict(random_dictatorship(3, 2).table)
    table[(0, 0, 0)] = table[(0, 0)]
    with pytest.raises(ValidationError, match=re.escape("rule table lists unknown profile (0, 0, 0)")):
        RuleTable(3, 2, table)


def test_rank_and_pair_rule_values():
    r2 = rank_rule(3, 2, 2)
    assert r2.lottery_at(canonicalize((ABC, ABC))) == (F(0), F(1), F(0))
    assert r2.lottery_at(canonicalize((ABC, CBA))) == (F(0), F(1), F(0))
    pr = pair_rule(3, 2, A, B)
    assert pr.lottery_at(canonicalize((ABC, BAC))) == (F(1, 2), F(1, 2), F(0))
    assert pr.lottery_at(canonicalize((CAB, ACB))) == (F(1), F(0), F(0))
    assert list(enumerate_profiles(3, 2))  # enumeration sanity


# Plain [-]digits[/digits] strings take the fast path; everything else must
# fall back to Fraction(text) with the same value or the same error.
RATIONAL_TEXTS = [
    "1/2", "-1/2", "0", "-0", "0/7", "007/010", "6/4", "-12", str(10**40) + "/3",
    "1/0", "-5/0", "-0/0", "0/0",
    " 1/2", "1/2 ", "1 /2", "\t3", "+1/2", "+0", "1_0/3", "1/1_0",
    "0.5", "-.5", "1e3", "1E-2", "1.5/2",
    "\u0661/\u0662", "\u0661", "\u00b2", "1/\u00b2", "\u00bd", "\uff11/2",
    "", "-", "/", "1/", "/2", "--1", "1/-2", "3/4/5", "- 1", "nan", "inf",
    "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000,
]


def _outcome(parse, text):
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


@pytest.mark.parametrize("text", RATIONAL_TEXTS)
def test_lottery_entries_parse_exactly_as_fraction_does(text):
    def loader_read(text):  # as rule_from_json_obj reads an entry
        pair = _parse_pair(text)
        return F(text) if pair is None else F(*pair)

    assert _outcome(loader_read, text) == _outcome(F, text)


def test_lottery_entry_errors_are_unchanged():
    obj = rule_to_json_obj(random_dictatorship(2, 1))
    for text, message in (("1/0", "Fraction(1, 0)"), ("1 /2", "Invalid literal for Fraction: '1 /2'")):
        obj["entries"][0]["lottery"][0] = text
        with pytest.raises(ValidationError, match=re.escape(f"bad rational in lottery: {message}")):
            rule_from_json_obj(obj)


# Names drawn mostly from the characters that an ordering string could lose:
# the separator and whitespace that parse_ordering strips.
candidate_name = st.text(st.sampled_from("ab> \t\n\u00a0\u2003\"\\"), max_size=3) | st.text(max_size=3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(names=st.lists(candidate_name, min_size=3, max_size=3))
def test_every_accepted_name_tuple_round_trips(names):
    table = uniform_rule(3, 1).table
    clean = all(">" not in name and name == name.strip() for name in names)
    if not (clean and len(set(names)) == 3):
        with pytest.raises(ValidationError, match="candidate name"):
            RuleTable(3, 1, table, names)
        return
    rule = RuleTable(3, 1, table, names)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rule.json")
        save_rule(rule, path)
        loaded = load_rule(path)
    assert loaded == rule and loaded.names == tuple(names)
