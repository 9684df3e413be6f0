"""Anonymous randomized voting rules as exact-rational lottery tables.

A rule table maps every anonymous profile for a fixed (m, n) to a lottery
over candidates.  Lotteries must sum to exactly 1 and the table must be
total, both checked at construction.

A table stores each lottery once, as integers (nums, den) with den the lcm
of the entries' reduced denominators, so p[x] = nums[x] / den.  The pair is
canonical (equal lotteries have equal pairs), so comparisons become
cross-multiplications.  The view is built in enumeration order as the table
is validated; rule files are parsed into it and written from it, and
`perturb` mixes on it.  Fractions are built on demand, by `lottery_at`,
`prob_at`, `lottery`, `prob` and `.table`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, DomainError, ValidationError
from .prefs import (
    AnonKey,
    Ordering,
    Profile,
    candidate_names,
    canonicalize,
    enumerate_orderings,
    enumerate_profiles,
    format_key,
    parse_ordering,
    upper_set,
)

Lottery = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


@functools.cache
def _power_of_ten(k: int) -> int:
    return 10**k


def within_digit_limit(*qs: Fraction | int) -> bool:
    """Whether str() works on each q: no numerator or denominator has more digits
    than sys.get_int_max_str_digits(), where 0 or no such function means no limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        bound = _power_of_ten(limit)
        for q in qs:
            if q.denominator >= bound or abs(q.numerator) >= bound:
                return False
    return True


def check_printable(*qs: Fraction | int) -> None:
    """Raise CapExceededError, naming the digit limit, unless str() works on each q."""
    if not within_digit_limit(*qs):
        raise CapExceededError("a result has more digits than Python will print: "
                               f"sys.get_int_max_str_digits() is {sys.get_int_max_str_digits()}")


def checked_unit(q, name: str) -> Fraction:
    """q as a Fraction, checked to lie in [0, 1]; like every message about a
    rational, the error leaves the value out, which str() may refuse to print."""
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise DomainError(f"{name} must lie in [0, 1]")
    return q


def _canonical(nums, den: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) divided by their gcd, which makes den the lcm of the reduced denominators."""
    g = math.gcd(den, *nums)
    return tuple(num // g for num in nums), den // g


def _scaled_pairs(pairs) -> tuple[tuple[int, ...], int]:
    """Canonical (nums, den) with nums[x] / den == p / q for the x-th pair (p, q)."""
    den = math.lcm(*(q for _, q in pairs))
    return _canonical([p * (den // q) for p, q in pairs], den)


def _scaled_lottery(probs) -> tuple[tuple[int, ...], int]:
    """(nums, den) with Fraction(probs[x]) == nums[x] / den and den the lcm of the denominators."""
    lot = [p if isinstance(p, Fraction) else Fraction(p) for p in probs]
    return _scaled_pairs([(p.numerator, p.denominator) for p in lot])


def _checked(m: int, scaled: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    """scaled = (nums, den), returned once its length, range and sum are checked."""
    nums, den = scaled
    if len(nums) != m:
        raise ValidationError(f"lottery has {len(nums)} entries, expected {m}")
    for i, num in enumerate(nums):
        if num < 0 or num > den:
            raise ValidationError(f"lottery entry {i} lies outside [0, 1]")
    if sum(nums) != den:
        raise ValidationError("lottery does not sum to 1")
    return scaled


def validate_lottery(m: int, probs) -> Lottery:
    """Check length, range, and exact normalization; return as a tuple."""
    lot = tuple(p if isinstance(p, Fraction) else Fraction(p) for p in probs)
    _checked(m, _scaled_lottery(lot))
    return lot


class _Scaled(dict):
    """A table of unchecked (nums, den) pairs, as the loader and `perturb` give it to RuleTable."""


class RuleTable:
    """Total map from anonymous profiles to exact lotteries, stored only as the
    integer view that `_scaled` returns; never mutated after construction."""

    __slots__ = ("m", "n", "names", "_view")

    def __init__(self, m: int, n: int, table: dict[AnonKey, Lottery], names=None):
        if m < 1 or n < 1:
            raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        self.m = m
        self.n = n
        self.names = tuple(names) if names is not None else candidate_names(m)
        if len(self.names) != m or len(set(self.names)) != m:
            raise ValidationError(f"need {m} distinct candidate names, got {self.names!r}")
        scaled = type(table) is _Scaled
        view: dict[AnonKey, tuple[tuple[int, ...], int]] = {}
        for key in enumerate_profiles(m, n, anonymous=True):
            if key not in table:
                raise ValidationError(f"rule table is missing profile {key}")
            view[key] = _checked(m, table[key] if scaled else _scaled_lottery(table[key]))
        if len(table) != len(view):
            extra = sorted(set(table) - set(view))[0]
            raise ValidationError(f"rule table lists unknown profile {extra}")
        self._view = view

    def __eq__(self, other):  # the views are canonical
        return isinstance(other, RuleTable) and (self.m, self.n, self._view) == (
            other.m, other.n, other._view)

    def __repr__(self):
        return f"RuleTable(m={self.m}, n={self.n}, profiles={len(self._view)})"

    def keys(self):
        return self._view.keys()

    @property
    def table(self) -> dict[AnonKey, Lottery]:
        """The lotteries as Fractions, built afresh on each read; the table keeps none."""
        return {key: self.lottery_at(key) for key in self._view}

    def _scaled(self) -> dict[AnonKey, tuple[tuple[int, ...], int]]:
        """{key: (nums, den)} in enumeration order: the lottery at key is nums / den."""
        return self._view

    def lottery_at(self, key: AnonKey) -> Lottery:
        nums, den = self._view[key]
        return tuple(Fraction(num, den) for num in nums)

    def prob_at(self, key: AnonKey, x: int) -> Fraction:
        nums, den = self._view[key]
        return Fraction(nums[x], den)

    def lottery(self, profile: Profile) -> Lottery:
        self._check_profile(profile)
        return self.lottery_at(canonicalize(profile))

    def prob(self, profile: Profile, x: int) -> Fraction:
        """Selection probability of candidate x on a (possibly ordered) profile."""
        if not 0 <= x < self.m:
            raise DomainError(f"candidate {x} outside 0..{self.m - 1}")
        return self.lottery(profile)[x]

    def _check_profile(self, profile: Profile):
        if len(profile) != self.n or any(len(o) != self.m for o in profile):
            raise DomainError(f"profile shape does not match rule dimensions (m={self.m}, n={self.n})")


# -- Built-in rules ----------------------------------------------------------


def _tops(m: int) -> list[int]:
    return [o[0] for o in enumerate_orderings(m)]


def random_dictatorship(m: int, n: int) -> RuleTable:
    """Pick a voter uniformly at random and elect her top choice."""
    return rank_rule(m, n, 1)


def uniform_rule(m: int, n: int) -> RuleTable:
    """Ignore the votes; elect uniformly at random."""
    return constant_rule(m, n, (Fraction(1, m) for _ in range(m)))  # lazy: no 1/0 at m = 0


def plurality_uniform_tiebreak(m: int, n: int) -> RuleTable:
    """Most top votes wins; ties are broken uniformly among the tied."""
    tops = _tops(m)
    table = {}
    for key in enumerate_profiles(m, n, anonymous=True):
        cnt = Counter(tops[r] for r in key)
        best = max(cnt.values())
        winners = [x for x in range(m) if cnt.get(x, 0) == best]
        share = Fraction(1, len(winners))
        table[key] = tuple(share if x in winners else ZERO for x in range(m))
    return RuleTable(m, n, table)


def plurality_fixed_tiebreak(m: int, n: int) -> RuleTable:
    """Most top votes wins; ties go to the lowest candidate id (deterministic)."""
    tops = _tops(m)
    table = {}
    for key in enumerate_profiles(m, n, anonymous=True):
        cnt = Counter(tops[r] for r in key)
        best = max(cnt.values())
        winner = min(x for x in range(m) if cnt.get(x, 0) == best)
        table[key] = tuple(ONE if x == winner else ZERO for x in range(m))
    return RuleTable(m, n, table)


def rank_rule(m: int, n: int, r: int) -> RuleTable:
    """Pick a voter uniformly at random and elect her r-th ranked candidate."""
    orderings = enumerate_orderings(m)  # rejects m < 1 before r is checked
    if not 1 <= r <= m:
        raise DomainError(f"rank r={r} outside 1..{m}")
    table = {}
    for key in enumerate_profiles(m, n, anonymous=True):
        cnt = Counter(orderings[idx][r - 1] for idx in key)
        table[key] = tuple(Fraction(cnt.get(x, 0), n) for x in range(m))
    return RuleTable(m, n, table)


def pair_rule(m: int, n: int, x: int, y: int) -> RuleTable:
    """Split all mass between x and y by how many voters rank x above y."""
    if x == y or not (0 <= x < m and 0 <= y < m):
        raise DomainError(f"need two distinct candidates in 0..{m - 1}, got {x}, {y}")
    orderings = enumerate_orderings(m)
    prefers_x = [o.index(x) < o.index(y) for o in orderings]
    table = {}
    for key in enumerate_profiles(m, n, anonymous=True):
        cx = sum(1 for idx in key if prefers_x[idx])
        lot = [ZERO] * m
        lot[x] = Fraction(cx, n)
        lot[y] = Fraction(n - cx, n)
        table[key] = tuple(lot)
    return RuleTable(m, n, table)


def constant_rule(m: int, n: int, lottery) -> RuleTable:
    """Ignore the votes; always play the given lottery."""
    keys = list(enumerate_profiles(m, n, anonymous=True))  # rejects m < 1 or n < 1 first
    return RuleTable(m, n, dict.fromkeys(keys, validate_lottery(m, lottery)))


# -- Combinators and comparisons ---------------------------------------------


def mixture(rules: list[RuleTable], weights) -> RuleTable:
    """Pointwise convex combination of rules over the same (m, n)."""
    if not rules:
        raise DomainError("mixture needs at least one rule")
    w = [Fraction(q) for q in weights]
    if len(w) != len(rules):
        raise DomainError(f"{len(rules)} rules but {len(w)} weights")
    if any(q <= 0 for q in w):
        raise DomainError("mixture weights must be strictly positive")
    if sum(w) != 1:
        raise DomainError(f"mixture weights sum to {sum(w)}, not 1")
    m, n = rules[0].m, rules[0].n
    for v in rules[1:]:
        if (v.m, v.n) != (m, n):
            raise DomainError("mixture requires rules with identical dimensions")
    table = {key: tuple(sum((q * v.prob_at(key, x) for q, v in zip(w, rules)), ZERO)
                        for x in range(m)) for key in rules[0].keys()}
    return RuleTable(m, n, table, rules[0].names)


def closeness(v: RuleTable, w: RuleTable) -> Fraction:
    """Smallest eps such that the two tables differ by at most eps everywhere."""
    if (v.m, v.n) != (w.m, w.n):
        raise DomainError("closeness requires rules with identical dimensions")
    return max((abs(p - q) for key, lot in v.table.items() for p, q in zip(lot, w.lottery_at(key))),
               default=ZERO)


def perturb(v: RuleTable, delta, seed: int) -> RuleTable:
    """Move each lottery toward a seeded pseudo-random lottery w / total by factor
    delta = a/b: entry x is ((b-a)·nums[x]·total + a·w[x]·den) / (b·den·total), reduced
    by one gcd over the lottery, so the view stays canonical."""
    delta = checked_unit(delta, "delta")
    a, b = delta.numerator, delta.denominator
    rng = random.Random(seed)
    table = _Scaled()
    for key, (nums, den) in sorted(v._scaled().items()):
        weights = [rng.randrange(1, 1001) for _ in range(v.m)]
        total = sum(weights)
        mixed = [(b - a) * num * total + a * wt * den for num, wt in zip(nums, weights)]
        table[key] = _canonical(mixed, b * den * total)
    return RuleTable(v.m, v.n, table, v.names)


# -- Structural predicates ---------------------------------------------------


@dataclass(frozen=True)
class StructureVerdict:
    holds: bool
    detail: str
    witness: dict | None = None


def is_deterministic(v: RuleTable) -> bool:
    return all(den in nums for nums, den in v._scaled().values())


def is_dictatorial_deterministic(v: RuleTable) -> StructureVerdict:
    """Does some fixed voter index always get her top choice elected?

    Anonymous tables with n >= 2 can only satisfy this degenerately, so for
    those the verdict carries a per-voter counterexample profile instead.
    """
    if not is_deterministic(v):
        raise DomainError("dictatorship predicate is defined for deterministic rules only")
    counterexamples: dict[int, Profile] = {}
    for i in range(v.n):
        for profile in enumerate_profiles(v.m, v.n):
            if v.lottery(profile).index(ONE) != profile[i][0]:
                counterexamples[i] = profile
                break
        else:
            return StructureVerdict(True, f"voter {i} always gets her top choice", {"voter": i})
    return StructureVerdict(False, "every voter index has a profile where the winner is not "
                            "her top choice", {"counterexamples": counterexamples})


def is_duple(v: RuleTable) -> StructureVerdict:
    """Is all probability mass confined to one fixed pair of candidates?"""
    seen: dict[int, AnonKey] = {}
    for key, (nums, _) in v._scaled().items():
        for x in range(v.m):
            if nums[x] > 0 and x not in seen:
                seen[x] = key
    support = sorted(seen)
    if len(support) <= 2:
        return StructureVerdict(True, f"support is {support}", {"pair": tuple(support)})
    return StructureVerdict(False, f"support {support} has more than two candidates",
                            {"support": support, "examples": seen})


# -- Utility functions --------------------------------------------------------


def is_consistent_utility(u, ordering: Ordering) -> bool:
    """Strict consistency: u decreases strictly along the ordering."""
    vals = [Fraction(q) for q in u]
    if len(vals) != len(ordering):
        return False
    if any(q < 0 or q > 1 for q in vals):
        return False
    return all(vals[ordering[i]] > vals[ordering[i + 1]] for i in range(len(ordering) - 1))


def upper_set_utility(ordering: Ordering, k: int, rho: Fraction) -> tuple[Fraction, ...]:
    """Indicator of the top-k candidates plus a rank bonus, scaled into [0, 1].

    For any 0 < rho <= 1 the result is strictly consistent with `ordering`.
    """
    m = len(ordering)
    up = upper_set(ordering, k)
    scale = 1 / (1 + rho * Fraction(m - 1, m))
    u = [ZERO] * m
    for pos, cand in enumerate(ordering):
        bonus = rho * Fraction(m - 1 - pos, m)
        u[cand] = scale * ((1 if cand in up else 0) + bonus)
    return tuple(u)


# -- Rule files ---------------------------------------------------------------


def rule_to_json_obj(v: RuleTable) -> dict:
    entries = []
    for key, (nums, den) in sorted(v._scaled().items()):
        pairs = [(num // g, den // g) for num in nums for g in (math.gcd(num, den),)]
        check_printable(*itertools.chain.from_iterable(pairs))
        entries.append({"profile": format_key(key, v.names),
                        "lottery": [f"{p}/{q}" if q != 1 else str(p) for p, q in pairs]})
    return {"m": v.m, "n": v.n, "candidates": list(v.names), "entries": entries}


def _parse_pair(text: str | int) -> tuple[int, int] | None:
    """(p, q), not reduced, with p / q == Fraction(text) for plain ASCII [-]digits[/digits]
    and q != 0; None for every other text.  int() raises Fraction's error past the digit
    limit, so a pair it returns always prints."""
    if type(text) is str and text.isascii():
        num, slash, den = text.partition("/")
        if num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
            q = int(den) if slash else 1
            if q:
                return int(num), q
    return None


def _parse_rational(text: str | int) -> Fraction:
    """Fraction(text), with the same value or error, read as the loader reads it."""
    pair = _parse_pair(text)
    return Fraction(text) if pair is None else Fraction(*pair)


def rule_from_json_obj(obj: dict) -> RuleTable:
    try:
        m, n, names, entries = obj["m"], obj["n"], obj["candidates"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed rule file: missing {exc}") from None
    if type(m) is not int or type(n) is not int:  # rejects bools, floats and strings
        raise ValidationError(f"m and n must be JSON integers, got m={m!r}, n={n!r}")
    if not isinstance(names, list) or any(type(name) is not str for name in names):
        raise ValidationError(f"candidates must be a list of strings, got {names!r}")
    names = tuple(names)
    if not isinstance(entries, list):
        raise ValidationError("malformed rule file: entries must be a list")
    if m < 1 or n < 1:  # before any entry: no profile to canonicalize at n = 0
        raise ValidationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if len(names) != m:
        raise ValidationError(f"expected {m} candidate names, got {len(names)}")
    table = _Scaled()
    parsed: dict[str, Ordering] = {}  # each distinct ordering string, parsed once
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("profile"), list)
                and isinstance(entry.get("lottery"), list)):
            raise ValidationError(f"malformed rule entry {entry!r}: need an object with "
                                  "list-valued 'profile' and 'lottery'")
        for item in entry["profile"]:
            if type(item) is not str:
                raise ValidationError(f"profile item {item!r} is not an ordering string")
        for item in entry["lottery"]:
            if type(item) not in (str, int):
                raise ValidationError(f"lottery item {item!r} is not a string or an integer")
        for text in entry["profile"]:
            if text not in parsed:
                parsed[text] = parse_ordering(text, names)
        profile = tuple(parsed[text] for text in entry["profile"])
        if len(profile) != n:
            raise ValidationError(f"entry lists {len(profile)} orderings, expected {n}")
        key = canonicalize(profile)
        if key in table:
            raise ValidationError(f"duplicate entry for profile {entry['profile']}")
        pairs, others = [], []  # others: the entries only Fraction(text) reads
        try:
            for text in entry["lottery"]:
                pair = _parse_pair(text)
                if pair is None:
                    others.append(Fraction(text))
                    pair = others[-1].as_integer_ratio()
                pairs.append(pair)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational in lottery: {exc}") from None
        if not within_digit_limit(*others):
            raise ValidationError("lottery entry has more digits than Python will print")
        table[key] = _scaled_pairs(pairs)
    return RuleTable(m, n, table, names)  # checks each lottery's length, range and sum


def write_json(path: str, obj) -> None:
    """Write obj as indented, key-sorted JSON, replacing path in one step.

    The text goes to path + ".tmp" first; a failed write or replace deletes
    that file again and re-raises.
    """
    tmp = f"{path}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_rule(v: RuleTable, path: str) -> None:
    write_json(path, rule_to_json_obj(v))


def load_rule(path: str) -> RuleTable:
    with open(path, encoding="utf-8") as fh:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
        # Python's digit limit; RecursionError covers too deeply nested arrays.
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"rule file is not valid JSON: {exc}") from None
    return rule_from_json_obj(obj)
