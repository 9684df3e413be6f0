"""Rule tables kept as integers from file to report.

A table stores each lottery only as (nums, den).  The built-in rules build
that form, the loader parses plain p/q text straight into it, `perturb`
mixes on it and `dump_json` streams the file.  Oracle style: each is checked
against a Fraction reference written out in this file (the formulas and
checks the code used while tables were stored as Fractions) or against the
json module, on values, on error messages and on bytes.
"""

import dataclasses
import hashlib
import io
import json
import math
import random
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from votecert import cli, rules

from votecert.errors import CapExceededError, ValidationError
from votecert.prefs import canonicalize, enumerate_profiles, parse_ordering
from votecert.rules import (
    RuleTable,
    constant_rule,
    dump_json,
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
    within_digit_limit,
    write_json,
)

# -- The loader against a Fraction reference ---------------------------------------------


def ref_rule_from_json_obj(obj):
    """The table as {key: Fractions}, every entry read by Fraction(text) and
    checked in Fractions, with the loader's error messages (well-formed files)."""
    m, n, names = obj["m"], obj["n"], tuple(obj["candidates"])
    table = {}
    for entry in obj["entries"]:
        key = canonicalize(tuple(parse_ordering(t, names) for t in entry["profile"]))
        try:
            lot = tuple(F(text) for text in entry["lottery"])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational in lottery: {exc}") from None
        if not within_digit_limit(*lot):
            raise ValidationError("lottery entry has more digits than Python will print")
        table[key] = lot
    for key in enumerate_profiles(m, n):
        lot = table[key]
        if len(lot) != m:
            raise ValidationError(f"lottery has {len(lot)} entries, expected {m}")
        for i, p in enumerate(lot):
            if p < 0 or p > 1:
                raise ValidationError(f"lottery entry {i} lies outside [0, 1]")
        if sum(lot) != 1:
            raise ValidationError("lottery does not sum to 1")
    return table


LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
AT_LIMIT, PAST_LIMIT = "9" * LIMIT, "1" + "0" * LIMIT  # LIMIT and LIMIT + 1 digits

ENTRY_TEXTS = [
    "2/4", "-0", "0/7", "+1/2", " 1/2", "0.25", "1e-1", "1/0", "１/2", "6/4", "-1/2",
    "1/3", "007/010", "1", "0", 1, 0, 2, -1,
    f"1/{AT_LIMIT}", f"{AT_LIMIT[:-1]}8/{AT_LIMIT}", f"{AT_LIMIT}/{AT_LIMIT}",
    f"1/{PAST_LIMIT}", f"{PAST_LIMIT}/{AT_LIMIT}", 10**LIMIT - 1, 10**LIMIT,
    f"1e-{LIMIT - 1}", f"1e-{LIMIT}", f"1e{LIMIT}",
]


def _with_entry(text, rest=None):
    """A (2, 2) random-dictatorship file whose first lottery is [text, rest];
    rest defaults to 1 - text when that parses and prints, else "0"."""
    obj = rule_to_json_obj(random_dictatorship(2, 2))
    if rest is None:
        try:
            q = F(text)
            rest = str(1 - q) if within_digit_limit(1 - q) else "0"
        except (ValueError, ZeroDivisionError):
            rest = "0"
    obj["entries"][0]["lottery"] = [text, rest]
    return obj


def _outcome(load, obj):
    try:
        return dict(load(obj))
    except ValidationError as exc:
        return str(exc)


LOADER_CASES = (
    [_with_entry(t) for t in ENTRY_TEXTS]
    + [_with_entry(t, "0") for t in ENTRY_TEXTS]
    + [_with_entry("1/2", "1/3"), _with_entry("2/3", "2/3"), _with_entry("-1/2", "3/2")]
)


@pytest.mark.parametrize("obj", LOADER_CASES)
def test_loader_matches_fraction_reference(obj):
    want = _outcome(ref_rule_from_json_obj, obj)
    got = _outcome(lambda o: rule_from_json_obj(o).table, obj)
    assert got == want
    if isinstance(got, dict):  # canonical view: den is the lcm of the reduced denominators
        for nums, den in rule_from_json_obj(obj)._scaled().values():
            assert den == math.lcm(*(F(num, den).denominator for num in nums))


def test_loader_corpus_has_both_outcomes():
    outcomes = [_outcome(ref_rule_from_json_obj, obj) for obj in LOADER_CASES]
    assert sum(isinstance(o, dict) for o in outcomes) >= 12
    assert {o for o in outcomes if isinstance(o, str)} >= {
        "bad rational in lottery: Fraction(1, 0)",
        "lottery entry has more digits than Python will print",
        "lottery entry 0 lies outside [0, 1]",
        "lottery does not sum to 1",
    }


def test_load_rule_builds_no_fraction_for_plain_entries(tmp_path, monkeypatch):
    path = str(tmp_path / "rule.json")
    v = perturb(random_dictatorship(3, 3), F(1, 7), seed=2)
    save_rule(v, path)
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    loaded = load_rule(path)
    count = len(made)
    fractions = loaded.table  # control: Fractions built on demand are counted
    monkeypatch.undo()
    assert count == 0 and len(made) >= sum(map(len, fractions.values()))
    assert loaded == v


@pytest.mark.parametrize(
    "rule", [random_dictatorship(3, 2), perturb(uniform_rule(3, 3), F(1, 7), seed=1)]
)
def test_rule_file_entries_print_as_fractions(rule):
    for entry in rule_to_json_obj(rule)["entries"]:
        key = canonicalize(tuple(parse_ordering(t, rule.names) for t in entry["profile"]))
        assert entry["lottery"] == [str(p) for p in rule.lottery_at(key)]


# -- perturb against the Fraction formula ------------------------------------------------


def ref_perturb(v, delta, seed):
    """(1 - delta) * lottery + delta * noise in Fractions, profiles in sorted order."""
    delta = F(delta)
    rng = random.Random(seed)
    table = {}
    for key in sorted(v.keys()):
        weights = [rng.randrange(1, 1001) for _ in range(v.m)]
        total = sum(weights)
        lot = v.lottery_at(key)
        table[key] = tuple((1 - delta) * p + delta * F(wt, total) for p, wt in zip(lot, weights))
    return table


PERTURB_CASES = [
    (random_dictatorship, 3, 3, F(1, 10), 1),
    (random_dictatorship, 2, 4, F(0), 7),
    (random_dictatorship, 3, 2, F(1), 3),
    (plurality_uniform_tiebreak, 3, 3, F(3, 7), 0),
    (uniform_rule, 4, 2, F(1, 20), 11),
    (lambda m, n: rank_rule(m, n, 2), 3, 4, F(999, 1000), 5),
    (lambda m, n: perturb(random_dictatorship(m, n), F(1, 3), seed=8), 3, 3, F(2, 9), 4),
]


@pytest.mark.parametrize("build, m, n, delta, seed", PERTURB_CASES)
def test_perturb_matches_fraction_formula(build, m, n, delta, seed):
    v = build(m, n)
    got = perturb(v, delta, seed)
    assert got.table == ref_perturb(v, delta, seed)
    for key, (nums, den) in got._scaled().items():  # canonical: den is the lcm
        assert den == math.lcm(*(p.denominator for p in got.lottery_at(key)))


# -- write_json streams the same bytes ---------------------------------------------------


def test_write_json_bytes_match_dumps(tmp_path):
    path = tmp_path / "rule.json"
    obj = rule_to_json_obj(perturb(random_dictatorship(3, 2), F(1, 7), seed=1))
    write_json(str(path), obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_write_json_failure_mid_stream_keeps_path(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old contents\n")
    obj = {"a": list(range(1000)), "z": [1, object()]}  # fails after "a" is written
    with pytest.raises(TypeError):
        write_json(str(path), obj)
    assert path.read_text() == "old contents\n"
    assert not (tmp_path / "out.json.tmp").exists()
    with pytest.raises(TypeError):
        write_json(str(tmp_path / "new.json"), obj)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


json_text = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f600 ab')
json_floats = st.floats() | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_floats | json_text,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(json_text, inner),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(obj=json_values)
def test_write_json_and_the_stdout_report_match_dumps(tmp_path_factory, obj):
    want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    work = tmp_path_factory.getbasetemp()
    write_json(str(work / "dump.json"), obj)
    assert (work / "dump.json").read_bytes() == want.encode()
    save_rule(uniform_rule(2, 1), str(work / "rule.json"))
    with mock.patch.object(cli, "_run_report", return_value=obj):
        result = CliRunner().invoke(cli.main, ["check", "--axiom", "pareto",
                                               "--rule", str(work / "rule.json")])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == want.encode()


@pytest.mark.parametrize("obj", [{"a": {1, 2}}, [b"x"], F(1, 2), {"a": [None, object()]}])
def test_dump_json_rejects_values_as_json_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dump_json(obj, io.StringIO())


@pytest.mark.parametrize("obj", [{1: "a"}, {None: 0}, {"a": {2.5: 1}}, [{"b": 0, True: 1}]])
def test_dump_json_rejects_keys_that_are_not_strings(obj):
    with pytest.raises(TypeError):
        dump_json(obj, io.StringIO())


# -- Every built-in rule's file, pinned by its bytes ---------------------------------------

# sha256 of save_rule's bytes, taken while the built-in rules built their
# lotteries as Fractions and json.dump wrote them.
BUILT_IN_RULES = {
    "random_dictatorship": random_dictatorship,
    "uniform_rule": uniform_rule,
    "plurality_uniform_tiebreak": plurality_uniform_tiebreak,
    "plurality_fixed_tiebreak": plurality_fixed_tiebreak,
    "rank_rule(2)": lambda m, n: rank_rule(m, n, 2),
    "pair_rule(0, 1)": lambda m, n: pair_rule(m, n, 0, 1),
    "constant_rule": lambda m, n: constant_rule(
        m, n, [F(1, 2 ** (x + 1)) for x in range(m - 1)] + [F(1, 2 ** (m - 1))]),
    "mixture": lambda m, n: mixture(
        [random_dictatorship(m, n), plurality_fixed_tiebreak(m, n)], [F(1, 3), F(2, 3)]),
}
RULE_FILE_DIGESTS = {
    ("random_dictatorship", 3, 3): "accd308cf58953d114ca840d4bd376d6a4414f184ebcddf06f9d217936c006c3",
    ("random_dictatorship", 4, 2): "59dc0d0229be3333d5972a418657762ec3a77ce8d33a7eb0a548b1fe834086b6",
    ("uniform_rule", 3, 3): "305266bde5286d7ea81b292123095ef6a1fe6c381e8968cf65a4a5560e71c20c",
    ("uniform_rule", 4, 2): "66f784de790863b6fde924d253df42ab2bd3085061a32ed9b22535651dc92960",
    ("plurality_uniform_tiebreak", 3, 3): "82adafb16b99cf6c60361ce2ecd7169d633d83b2c7c56a6c34ba59f783897146",
    ("plurality_uniform_tiebreak", 4, 2): "59dc0d0229be3333d5972a418657762ec3a77ce8d33a7eb0a548b1fe834086b6",
    ("plurality_fixed_tiebreak", 3, 3): "38c86580ea6d8f886b83f0ec4cb075aaef500a9422b4c218f3f337807d7d4e59",
    ("plurality_fixed_tiebreak", 4, 2): "f3699605532c7e39d5924b59c96e783370245b8614a44b0f67ec9b674cfa0d3b",
    ("rank_rule(2)", 3, 3): "596170e2f3f7c62959928852093144057f81ad3b6a787c4b18d93d62c1f66819",
    ("rank_rule(2)", 4, 2): "67c62ec9a8e585d6cf19f87e59d57ad2bd7f1d00403d0384724fedd32a3c4c53",
    ("pair_rule(0, 1)", 3, 3): "8e1bac95fe82c31469bd50bf681aa9973a920c3ff7f6235989c186a1bf017dbb",
    ("pair_rule(0, 1)", 4, 2): "36051d9c1ad01a4e7df9bba352c928faf81ffdbcdd365b45abaaae2c0a9eae50",
    ("constant_rule", 3, 3): "f3bac41924de9e74eaf928fdb3af2fd43cf64f6b33f6484be48177b76fcb4173",
    ("constant_rule", 4, 2): "93b863dc3f9aef0521acc15e42125d305db902f8d08e692a444c38ea83a75b9a",
    ("mixture", 3, 3): "dcccef851678eca6c5979fcb04e8d9e22afab0b06f78df6224a19234b08281b4",
    ("mixture", 4, 2): "260d67dc6d2548f9dbc0c97f63765f78a5df73758d4f2b6660d15eaebcd7aad6",
}


def _saved_digest(rule, path):
    save_rule(rule, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, m, n", sorted(RULE_FILE_DIGESTS), ids=str)
def test_built_in_rule_files_are_pinned(tmp_path, name, m, n):
    rule = BUILT_IN_RULES[name](m, n)
    assert _saved_digest(rule, tmp_path / "rule.json") == RULE_FILE_DIGESTS[name, m, n]


def test_audit_rule_file_is_pinned(tmp_path):
    rule = perturb(random_dictatorship(4, 4), F(1, 20), 0)
    assert _saved_digest(rule, tmp_path / "rule.json") == (
        "7778712d3b0f56138900674ff6133cd24167380837cffe147db7caf6dc1d7a79")


# -- Built without Fractions -------------------------------------------------------------


def test_built_in_rules_and_rule_files_build_no_fraction(tmp_path, monkeypatch):
    made = []

    class Counting(type):  # rules.Fraction: real instance checks, counted constructions
        def __instancecheck__(cls, obj):
            return isinstance(obj, F)

        def __call__(cls, *args):
            made.append(args)
            return F(*args)

    monkeypatch.setattr(rules, "Fraction", Counting("Fraction", (), {}))
    v = random_dictatorship(4, 4)
    pair_rule(4, 2, 0, 1)
    plurality_fixed_tiebreak(4, 2)
    save_rule(perturb(v, F(1, 20), 0), str(tmp_path / "rule.json"))
    count = len(made)
    uniform_rule(3, 1)  # control: a Fraction built through rules.Fraction is counted
    assert count == 0 and len(made) == 3


def test_rule_file_holds_entries_that_print_under_an_lcm_that_does_not(tmp_path):
    # Coprime P and Q: every entry has about `digits` digits, the lcm 2PQ more
    # than the limit, so the writer's cheap bound fails and the exact check runs.
    for digits in (3000, 2200):
        big_p, big_q = 10**digits + 1, 10**digits + 3
        v = constant_rule(4, 1, [F(1, big_p), F(1, 2) - F(1, big_p), F(1, big_q), F(1, 2) - F(1, big_q)])
        assert not within_digit_limit(*(den for _, den in v._scaled().values()))
        path = tmp_path / f"rule-{digits}.json"
        save_rule(v, str(path))
        assert path.read_bytes() == _dumped(rule_to_json_obj(v))
        assert load_rule(str(path)) == v


# -- A table is streamed from its view ----------------------------------------------------


def _dumped(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


NEEDS_TWO_CANDIDATES = {"rank_rule(2)", "pair_rule(0, 1)"}


@pytest.mark.parametrize("name, m, n", [
    (name, m, n) for name in sorted(BUILT_IN_RULES) for m, n in [(1, 1), (2, 1), (3, 2), (3, 3), (4, 2)]
    if m >= 2 or name not in NEEDS_TWO_CANDIDATES], ids=str)
def test_saved_built_in_rules_match_dumps_of_the_object_form(tmp_path, name, m, n):
    rule = BUILT_IN_RULES[name](m, n)
    save_rule(rule, str(tmp_path / "rule.json"))
    assert (tmp_path / "rule.json").read_bytes() == _dumped(rule_to_json_obj(rule))


ESCAPED_NAMES = ('say "hi"', "back\\slash", "caf\u00e9", "line\u2028sep")
STREAMED_RULES = {
    "perturbed": lambda: perturb(random_dictatorship(4, 2), F(1, 7), seed=5),
    "mixture": lambda: mixture([perturb(uniform_rule(3, 3), F(1, 3), seed=2), pair_rule(3, 3, 0, 2)],
                               [F(2, 5), F(3, 5)]),
    "escaped-names": lambda: perturb(RuleTable(4, 2, random_dictatorship(4, 2).table, ESCAPED_NAMES),
                                     F(1, 9), seed=1),
}


@pytest.mark.parametrize("kind", sorted(STREAMED_RULES))
def test_streamed_rules_match_dumps_at_the_top_and_nested(tmp_path, kind):
    rule = STREAMED_RULES[kind]()
    save_rule(rule, str(tmp_path / "rule.json"))
    assert (tmp_path / "rule.json").read_bytes() == _dumped(rule_to_json_obj(rule))
    nested = {"outer": {"inner": rule, "z": 1}, "list": [0, rule, [rule]]}
    write_json(str(tmp_path / "nested.json"), nested)
    obj = rule_to_json_obj(rule)
    assert (tmp_path / "nested.json").read_bytes() == _dumped(
        {"outer": {"inner": obj, "z": 1}, "list": [0, obj, [obj]]})


def test_lp_max_stdout_report_matches_dumps_of_the_object_form():
    reports = []

    def recorded(*args):
        reports.append(run_report(*args))
        return reports[-1]

    run_report = cli._run_report
    with mock.patch.object(cli, "_run_report", recorded):
        result = CliRunner().invoke(cli.main, ["lp-max", "--m", "3", "--n", "2", "--eps", "1/10"])
    assert result.exit_code == 0, result.output
    [report] = reports
    witness = report["results"]["witness_rule"]
    assert isinstance(witness, RuleTable)
    report["results"]["witness_rule"] = rule_to_json_obj(witness)
    assert result.stdout_bytes == _dumped(report)


UNPRINTABLE = F(1, 10**LIMIT + 1)  # its reduced denominator has LIMIT + 1 digits


def test_an_unprintable_entry_fails_before_the_first_byte(tmp_path):
    path = tmp_path / "rule.json"
    with pytest.raises(CapExceededError):
        save_rule(constant_rule(2, 1, [UNPRINTABLE, 1 - UNPRINTABLE]), str(path))
    assert list(tmp_path.iterdir()) == []


def test_lp_max_with_an_unprintable_witness_writes_nothing_to_stdout(monkeypatch):
    from votecert import polytope

    result = polytope.max_distance(2, 1, F(1, 10))
    unprintable = constant_rule(2, 1, [UNPRINTABLE, 1 - UNPRINTABLE])
    monkeypatch.setattr(polytope, "max_distance",
                        lambda *args: dataclasses.replace(result, witness=unprintable))
    run = CliRunner().invoke(cli.main, ["lp-max", "--m", "2", "--n", "1", "--eps", "1/10"])
    assert run.exit_code == 3 and run.stdout == ""
    assert "more digits than Python will print" in run.stderr


def test_writing_builds_no_entry_object(tmp_path, monkeypatch):
    def refused(v):
        raise AssertionError("rule_to_json_obj called")

    for module in (rules, cli):  # cli too, in case it holds its own binding of the name
        monkeypatch.setattr(module, "rule_to_json_obj", refused, raising=False)
    save_rule(perturb(random_dictatorship(3, 3), F(1, 7), seed=2), str(tmp_path / "rule.json"))
    runner = CliRunner()
    for args in (["gen", "perturbed", "3", "3", "--delta", "1/7", "--out", str(tmp_path / "gen.json")],
                 ["lp-max", "--m", "3", "--n", "2", "--eps", "1/10", "--out", str(tmp_path / "lp.json")]):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 0, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json", "lp.json", "rule.json"]
