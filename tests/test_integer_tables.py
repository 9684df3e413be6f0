"""Rule tables kept as integers from file to report.

A table stores each lottery only as (nums, den).  The loader parses plain
p/q text straight into that form, `perturb` mixes on it and `write_json`
streams the file.  Oracle style: each is checked against a Fraction
reference written out in this file (the formulas and checks the code used
while tables were stored as Fractions), on values, on error messages and on
bytes.
"""

import json
import math
import random
import sys
from fractions import Fraction as F

import pytest

from votecert.errors import ValidationError
from votecert.prefs import canonicalize, enumerate_profiles, parse_ordering
from votecert.rules import (
    load_rule,
    perturb,
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
