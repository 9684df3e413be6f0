"""Rule tables: builders, mixtures, closeness, perturbation, utilities, files.

Every stored lottery must sum to exactly 1; eval must be anonymous; the
closeness meter must behave like a metric on tables.
"""

import gc
import hashlib
import json
import os
import random
import re
import tempfile
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votecert import rules
from votecert.errors import CapExceededError, DomainError, ValidationError
from votecert.prefs import canonicalize, enumerate_orderings, enumerate_profiles
from votecert.rules import (
    RuleTable,
    _Checked,
    _Scaled,
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
    within_digit_limit,
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
    assert load_rule(str(path)) == (v, hashlib.sha256(path.read_bytes()).hexdigest())
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


def _perturbed_file_obj():
    return rule_to_json_obj(perturb(random_dictatorship(3, 2), F(1, 7), 3))


@pytest.mark.parametrize("order", ["reversed", "shuffled", "rotated"])
def test_a_rule_file_in_any_entry_order_loads_to_an_equal_table(tmp_path, order):
    rule = perturb(random_dictatorship(3, 3), F(1, 7), 3)
    obj = rule_to_json_obj(rule)
    entries = obj["entries"]
    if order == "reversed":
        entries.reverse()
    elif order == "shuffled":
        random.Random(5).shuffle(entries)
    else:  # in enumeration order from the second entry on
        entries.append(entries.pop(0))
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(obj))
    loaded, _ = load_rule(str(path))
    assert loaded == rule and list(loaded.keys()) == list(enumerate_profiles(3, 3))


# Entries that save_rule would spell otherwise.  int() reads unreduced "p/q"
# texts as it reads save_rule's; Fraction reads every other lottery spelling.
SPELLINGS = {
    "spaced-ordering": lambda e: e["profile"].__setitem__(0, " > ".join(e["profile"][0].split(">"))),
    "int-items": lambda e: e.__setitem__("lottery", [int(F(q)) if F(q).denominator == 1 else q
                                                     for q in e["lottery"]]),
    "unreduced-items": lambda e: e.__setitem__("lottery", [f"{2 * F(q).numerator}/{2 * F(q).denominator}"
                                                           for q in e["lottery"]]),
    "decimal-items": lambda e: e.__setitem__("lottery", [str(Decimal(F(q).numerator) / F(q).denominator)
                                                         for q in e["lottery"]]),
    "unsorted-profile": lambda e: e["profile"].reverse(),
}


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_a_rule_file_in_another_spelling_loads_to_an_equal_table(spelling):
    # every lottery entry a multiple of 1/4, so each has a short decimal
    rule = mixture([random_dictatorship(3, 2), pair_rule(3, 2, A, B)], [F(1, 2), F(1, 2)])
    obj = rule_to_json_obj(rule)
    for k in (7, 20):  # entries 0 to 6 keep the spelling save_rule writes
        SPELLINGS[spelling](obj["entries"][k])
    loaded = rule_from_json_obj(obj)
    assert loaded == rule and list(loaded.keys()) == list(enumerate_profiles(3, 2))


@pytest.mark.parametrize("malformed", [False, True])
def test_the_profile_cap_is_raised_after_every_entry_error(monkeypatch, malformed):
    obj = _perturbed_file_obj()
    if malformed:
        obj["entries"][12] = "junk"
    monkeypatch.setenv("VOTECERT_MAX_PROFILES", "20")  # (3, 2) has 21 profiles
    with pytest.raises(ValidationError if malformed else CapExceededError,
                       match="malformed rule entry" if malformed else "exceed the profile cap 20"):
        rule_from_json_obj(obj)


def _bad_sum(entry):
    entry["lottery"] = ["1/2", "1/2", "1/2"]


# Each change to the entries of a perturbed (3, 2) rule file, and the error it
# raises.  The first error in file order wins among the entries' own faults
# (types, orderings, voter count, duplicates, rationals); a missing profile and
# a lottery's length, range and sum are found afterwards, in enumeration order.
LOADER_ERRORS = {
    "missing": (lambda es: es.pop(5),
                ValidationError, "rule table is missing profile (0, 5)"),
    "duplicated": (lambda es: es.__setitem__(7, json.loads(json.dumps(es[3]))),
                   ValidationError, "duplicate entry for profile ['a>b>c', 'b>c>a']"),
    "extra-voter": (lambda es: es[4]["profile"].append("a>b>c"),
                    ValidationError, "entry lists 3 orderings, expected 2"),
    "unknown-candidate": (lambda es: es[4]["profile"].__setitem__(0, "a>b>d"),
                          DomainError, "unknown candidate 'd' in ordering 'a>b>d'"),
    "short-ordering": (lambda es: es[4]["profile"].__setitem__(1, "a>b"),
                       DomainError, "ordering 'a>b' is not a permutation of all 3 candidates"),
    "duplicate-and-bad-sum": (
        lambda es: es.__setitem__(9, {"profile": list(es[2]["profile"]), "lottery": ["1", "1", "1"]}),
        ValidationError, "duplicate entry for profile ['a>b>c', 'b>a>c']"),
    "item-type-and-float": (
        lambda es: (es[3]["profile"].__setitem__(1, 7), es[3]["lottery"].__setitem__(0, 0.5)),
        ValidationError, "profile item 7 is not an ordering string"),
    "unknown-candidate-and-bad-rational": (
        lambda es: (es[6]["profile"].__setitem__(0, "z>a>b"), es[6]["lottery"].__setitem__(0, "x")),
        DomainError, "unknown candidate 'z' in ordering 'z>a>b'"),
    "extra-voter-and-bad-rational": (
        lambda es: (es[6]["profile"].append("a>b>c"), es[6]["lottery"].__setitem__(0, "1/0")),
        ValidationError, "entry lists 3 orderings, expected 2"),
    "length-and-range": (lambda es: es[8].__setitem__("lottery", ["2", "-1"]),
                         ValidationError, "lottery has 2 entries, expected 3"),
    "range-and-sum": (lambda es: es[8].__setitem__("lottery", ["3/2", "0", "0"]),
                      ValidationError, "lottery entry 0 lies outside [0, 1]"),
    "missing-before-bad-sum": (lambda es: (_bad_sum(es[10]), es.pop(2)),
                               ValidationError, "rule table is missing profile (0, 2)"),
    "bad-sum-before-missing": (lambda es: (_bad_sum(es[2]), es.pop(10)),
                               ValidationError, "lottery does not sum to 1"),
    "bad-sum-before-malformed": (
        lambda es: (_bad_sum(es[2]), es.__setitem__(10, "junk")),
        ValidationError, "malformed rule entry 'junk': need an object with list-valued 'profile' and 'lottery'"),
    "range-before-sum-reversed": (
        lambda es: (es[2].__setitem__("lottery", ["3/2", "-1/2", "0"]), _bad_sum(es[15]), es.reverse()),
        ValidationError, "lottery entry 0 lies outside [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(LOADER_ERRORS))
def test_rule_file_errors_and_their_precedence_are_pinned(case):
    change, error, message = LOADER_ERRORS[case]
    obj = _perturbed_file_obj()
    change(obj["entries"])
    with pytest.raises(error) as caught:
        rule_from_json_obj(obj)
    assert str(caught.value) == message


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("content", ["rule", "bad-json", "bad-entry", "missing"])
def test_load_rule_leaves_the_garbage_collector_as_it_found_it(tmp_path, enabled, content):
    path = tmp_path / "rule.json"
    save_rule(random_dictatorship(3, 2), str(path))
    if content == "missing":
        path.unlink()
    elif content == "bad-json":
        path.write_text("{")
    elif content == "bad-entry":
        obj = json.loads(path.read_text())
        obj["entries"][3] = "junk"
        path.write_text(json.dumps(obj))
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        if content == "rule":
            assert load_rule(str(path))[0] == random_dictatorship(3, 2)
        else:
            with pytest.raises(FileNotFoundError if content == "missing" else ValidationError):
                load_rule(str(path))
        assert gc.isenabled() is enabled and gc.get_freeze_count() == frozen == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_checked_views_are_kept_and_every_other_table_is_walked(tmp_path, monkeypatch):
    rd = random_dictatorship(3, 3)
    path = tmp_path / "rule.json"
    save_rule(perturb(rd, F(1, 7), 2), str(path))
    checks = []
    check = rules._checked
    monkeypatch.setattr(rules, "_checked", lambda m, scaled: checks.append(scaled) or check(m, scaled))
    perturbed = perturb(rd, F(1, 7), 2)
    mixed = mixture([rd, perturbed], [F(1, 3), F(2, 3)])
    assert load_rule(str(path))[0] == perturbed and checks == []
    assert RuleTable(3, 3, _Scaled(mixed._scaled())) == mixed and len(checks) == 56
    assert RuleTable(3, 3, mixed.table) == mixed and len(checks) == 112


# Changes to the entries of a complete, valid rule file, each of which leaves
# it with a checked view that RuleTable keeps.
VIEW_KEEPING_CHANGES = {
    "reversed": lambda es: es.reverse(),
    "shuffled": lambda es: random.Random(5).shuffle(es),
    "rotated": lambda es: es.append(es.pop(0)),
    **{spelling: lambda es, spell=spell: [spell(e) for e in es] for spelling, spell in SPELLINGS.items()},
}


@pytest.mark.parametrize("change", sorted(VIEW_KEEPING_CHANGES))
def test_every_complete_valid_rule_file_keeps_its_view(monkeypatch, change):
    # every lottery entry a multiple of 1/4, so each has a short decimal
    rule = mixture([random_dictatorship(3, 2), pair_rule(3, 2, A, B)], [F(1, 2), F(1, 2)])
    obj = rule_to_json_obj(rule)
    VIEW_KEEPING_CHANGES[change](obj["entries"])
    checks = []
    check = rules._checked
    monkeypatch.setattr(rules, "_checked", lambda m, scaled: checks.append(scaled) or check(m, scaled))
    loaded = rule_from_json_obj(obj)
    assert checks == [] and loaded == rule
    assert list(loaded.keys()) == list(enumerate_profiles(3, 2))


def test_a_hand_made_bad_view_raises_through_the_public_constructor():
    view = dict(random_dictatorship(3, 2)._scaled())
    first = next(iter(view))
    with pytest.raises(ValidationError, match="lottery does not sum to 1"):
        RuleTable(3, 2, _Scaled({**view, first: ((1, 1, 1), 2)}))
    with pytest.raises(ValidationError, match="lottery entry 1 lies outside"):
        RuleTable(3, 2, {**random_dictatorship(3, 2).table, first: (F(1, 2), F(-1, 2), F(1))})
    # a checked view keeps the names check, and one that misses a profile is walked
    with pytest.raises(ValidationError, match="need 3 distinct candidate names"):
        RuleTable(3, 2, _Checked(view), ("a", "b", "b"))
    del view[first]
    with pytest.raises(ValidationError, match=re.escape(f"rule table is missing profile {first}")):
        RuleTable(3, 2, _Checked(view))


class _Text(str):
    """A str subclass, which the loader takes for neither an ordering nor a rational."""


@pytest.mark.parametrize("field", ["profile", "lottery"])
def test_an_in_order_entry_with_a_str_subclass_item_is_rejected(field):
    obj = _perturbed_file_obj()
    items = obj["entries"][4][field]
    items[0] = _Text(items[0])
    message = ("profile item 'a>b>c' is not an ordering string" if field == "profile"
               else f"lottery item {items[0]!r} is not a string or an integer")
    with pytest.raises(ValidationError) as caught:
        rule_from_json_obj(obj)
    assert str(caught.value) == message


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


# Texts of ASCII digits and '/' are read by int(); every other text, and one
# that int() refuses, by Fraction(text), with the same value or the same error.
RATIONAL_TEXTS = [
    "1/2", "-1/2", "0", "-0", "0/7", "007/010", "6/4", "-12", str(10**40) + "/3",
    "1/0", "-5/0", "-0/0", "0/0",
    " 1/2", "1/2 ", "1 /2", "\t3", "+1/2", "+0", "1_0/3", "1/1_0",
    "0.5", "-.5", "1e3", "1E-2", "1.5/2",
    "\u0661/\u0662", "\u0661", "\u00b2", "1/\u00b2", "\u00bd", "\uff11/2",
    "", "-", "/", "1/", "/2", "--1", "1/-2", "3/4/5", "- 1", "nan", "inf",
    "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000, "1e5000", "1e-9999",
]


def _outcome(build):
    try:
        v = build()
    except (ValidationError, DomainError) as exc:
        return type(exc), str(exc)
    return v, list(v.keys())


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("text", RATIONAL_TEXTS)
def test_each_lottery_text_loads_as_fraction_reads_it(text, reverse):
    """A file with the text in one lottery, in enumeration order or reversed,
    loads to the table that Fraction(text) gives, or raises Fraction's error
    or the digit limit's."""
    rule = random_dictatorship(2, 2)
    key = list(rule.keys())[1]
    try:
        value = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        want = ValidationError, f"bad rational in lottery: {exc}"
        rest = "1/2"  # so that a text misread as 1/2, such as "1 /2", would sum to 1
    else:
        if within_digit_limit(value):
            want = _outcome(lambda: RuleTable(2, 2, {**rule.table, key: (value, 1 - value)}))
            rest = str(1 - value)
        else:
            want = ValidationError, "lottery entry has more digits than Python will print"
            rest = "0"
    obj = rule_to_json_obj(rule)
    obj["entries"][1]["lottery"] = [text, rest]
    if reverse:
        obj["entries"].reverse()
    assert _outcome(lambda: rule_from_json_obj(obj)) == want


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
        loaded, _ = load_rule(path)
    assert loaded == rule and loaded.names == tuple(names)
