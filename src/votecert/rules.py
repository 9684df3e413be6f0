"""Anonymous randomized voting rules as exact-rational lottery tables.

A rule table maps every anonymous profile for a fixed (m, n) to a lottery
over candidates.  All probabilities are Fractions; lotteries must sum to
exactly 1 and the table must be total, both checked at construction.

The meters read an integer-scaled view of each lottery instead: (nums, den)
with den the lcm of the entries' denominators, so p[x] = nums[x] / den.
Entries are reduced Fractions, so the pair is canonical (equal lotteries
have equal pairs) and comparisons become cross-multiplications.  The view
is built on first use by `RuleTable._scaled`, never for a table that is
only built, saved or replayed.
"""

from __future__ import annotations

import functools
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
    format_ordering,
    parse_ordering,
    upper_set,
)

Lottery = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


@functools.cache
def _power_of_ten(k: int) -> int:
    return 10**k


def within_digit_limit(*qs: Fraction) -> bool:
    """Whether str() works on each q: no numerator or denominator has more digits
    than sys.get_int_max_str_digits(), where 0 or no such function means no limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        bound = _power_of_ten(limit)
        for q in qs:
            if q.denominator >= bound or abs(q.numerator) >= bound:
                return False
    return True


def check_printable(*qs: Fraction) -> None:
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


def _scaled_lottery(lot: Lottery) -> tuple[tuple[int, ...], int]:
    """(nums, den) with lot[x] == nums[x] / den and den the lcm of the denominators."""
    den = math.lcm(*(p.denominator for p in lot))
    return tuple(p.numerator * (den // p.denominator) for p in lot), den


def validate_lottery(m: int, probs) -> Lottery:
    """Check length, range, and exact normalization; return as a tuple."""
    lot = tuple(p if isinstance(p, Fraction) else Fraction(p) for p in probs)
    if len(lot) != m:
        raise ValidationError(f"lottery has {len(lot)} entries, expected {m}")
    nums, den = _scaled_lottery(lot)
    for i, num in enumerate(nums):
        if num < 0 or num > den:
            raise ValidationError(f"lottery entry {i} lies outside [0, 1]")
    if sum(nums) != den:
        raise ValidationError("lottery does not sum to 1")
    return lot


class RuleTable:
    """Total map from anonymous profiles to exact lotteries.

    Tables are never mutated after construction, so the integer-scaled view
    that `_scaled` caches stays valid.
    """

    __slots__ = ("m", "n", "names", "table", "_view")

    def __init__(self, m: int, n: int, table: dict[AnonKey, Lottery], names=None):
        if m < 1 or n < 1:
            raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        self.m = m
        self.n = n
        self.names = tuple(names) if names is not None else candidate_names(m)
        if len(self.names) != m or len(set(self.names)) != m:
            raise ValidationError(f"need {m} distinct candidate names, got {self.names!r}")
        checked: dict[AnonKey, Lottery] = {}
        for key in enumerate_profiles(m, n, anonymous=True):
            if key not in table:
                raise ValidationError(f"rule table is missing profile {key}")
            checked[key] = validate_lottery(m, table[key])
        if len(table) != len(checked):
            extra = sorted(set(table) - set(checked))[0]
            raise ValidationError(f"rule table lists unknown profile {extra}")
        self.table = checked
        self._view = None

    def __eq__(self, other):
        return (
            isinstance(other, RuleTable)
            and (self.m, self.n) == (other.m, other.n)
            and self.table == other.table
        )

    def __repr__(self):
        return f"RuleTable(m={self.m}, n={self.n}, profiles={len(self.table)})"

    def keys(self):
        return self.table.keys()

    def _scaled(self) -> dict[AnonKey, tuple[tuple[int, ...], int]]:
        """{key: (nums, den)}, the lottery at key as integers over a common
        denominator; built on the first call and cached."""
        if self._view is None:
            self._view = {key: _scaled_lottery(lot) for key, lot in self.table.items()}
        return self._view

    def lottery_at(self, key: AnonKey) -> Lottery:
        return self.table[key]

    def prob_at(self, key: AnonKey, x: int) -> Fraction:
        return self.table[key][x]

    def lottery(self, profile: Profile) -> Lottery:
        self._check_profile(profile)
        return self.table[canonicalize(profile)]

    def prob(self, profile: Profile, x: int) -> Fraction:
        """Selection probability of candidate x on a (possibly ordered) profile."""
        if not 0 <= x < self.m:
            raise DomainError(f"candidate {x} outside 0..{self.m - 1}")
        return self.lottery(profile)[x]

    def _check_profile(self, profile: Profile):
        if len(profile) != self.n or any(len(o) != self.m for o in profile):
            raise DomainError(
                f"profile shape does not match rule dimensions (m={self.m}, n={self.n})"
            )


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
    table = {}
    for key in rules[0].keys():
        table[key] = tuple(
            sum((q * v.prob_at(key, x) for q, v in zip(w, rules)), ZERO) for x in range(m)
        )
    return RuleTable(m, n, table, rules[0].names)


def closeness(v: RuleTable, w: RuleTable) -> Fraction:
    """Smallest eps such that the two tables differ by at most eps everywhere."""
    if (v.m, v.n) != (w.m, w.n):
        raise DomainError("closeness requires rules with identical dimensions")
    return max((abs(p - q) for key, lot in v.table.items() for p, q in zip(lot, w.lottery_at(key))),
               default=ZERO)


def perturb(v: RuleTable, delta, seed: int) -> RuleTable:
    """Move each lottery toward a seeded pseudo-random lottery by factor delta."""
    delta = checked_unit(delta, "delta")
    rng = random.Random(seed)
    table = {}
    for key in sorted(v.keys()):
        weights = [rng.randrange(1, 1001) for _ in range(v.m)]
        total = sum(weights)
        noise = [Fraction(wt, total) for wt in weights]
        lot = v.lottery_at(key)
        table[key] = tuple((1 - delta) * lot[x] + delta * noise[x] for x in range(v.m))
    return RuleTable(v.m, v.n, table, v.names)


# -- Structural predicates ---------------------------------------------------


@dataclass(frozen=True)
class StructureVerdict:
    holds: bool
    detail: str
    witness: dict | None = None


def is_deterministic(v: RuleTable) -> bool:
    return all(max(lot) == 1 for lot in v.table.values())


def _winner(lot: Lottery) -> int:
    return lot.index(ONE)


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
            if _winner(v.lottery(profile)) != profile[i][0]:
                counterexamples[i] = profile
                break
        else:
            return StructureVerdict(True, f"voter {i} always gets her top choice", {"voter": i})
    return StructureVerdict(
        False,
        "every voter index has a profile where the winner is not her top choice",
        {"counterexamples": counterexamples},
    )


def is_duple(v: RuleTable) -> StructureVerdict:
    """Is all probability mass confined to one fixed pair of candidates?"""
    seen: dict[int, AnonKey] = {}
    for key in v.keys():
        lot = v.lottery_at(key)
        for x in range(v.m):
            if lot[x] > 0 and x not in seen:
                seen[x] = key
    support = sorted(seen)
    if len(support) <= 2:
        return StructureVerdict(True, f"support is {support}", {"pair": tuple(support)})
    return StructureVerdict(
        False,
        f"support {support} has more than two candidates",
        {"support": support, "examples": seen},
    )


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
    for key in sorted(v.keys()):
        orderings = enumerate_orderings(v.m)
        lot = v.lottery_at(key)
        check_printable(*lot)
        entries.append(
            {
                "profile": [format_ordering(orderings[r], v.names) for r in key],
                "lottery": [str(p) for p in lot],
            }
        )
    return {"m": v.m, "n": v.n, "candidates": list(v.names), "entries": entries}


def _parse_rational(text: str | int) -> Fraction:
    """Fraction(text), reading plain ASCII [-]digits[/digits] without its regex.

    Everything else goes to Fraction(text), so each accepted value and each
    error (zero denominators and the int digit limit included) is the same.
    """
    if type(text) is str and text.isascii():
        num, slash, den = text.partition("/")
        if num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
            return Fraction(int(num), int(den) if slash else 1)
    return Fraction(text)


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
    if len(names) != m:
        raise ValidationError(f"expected {m} candidate names, got {len(names)}")
    table: dict[AnonKey, Lottery] = {}
    parsed: dict[str, Ordering] = {}  # each distinct ordering string, parsed once
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("profile"), list)
            and isinstance(entry.get("lottery"), list)
        ):
            raise ValidationError(
                f"malformed rule entry {entry!r}: need an object with list-valued "
                "'profile' and 'lottery'"
            )
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
        try:
            lot = tuple(map(_parse_rational, entry["lottery"]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational in lottery: {exc}") from None
        if not within_digit_limit(*lot):
            raise ValidationError("lottery entry has more digits than Python will print")
        table[key] = lot
    return RuleTable(m, n, table, names)  # checks each lottery's length, range and sum


def save_rule(v: RuleTable, path: str) -> None:
    text = json.dumps(rule_to_json_obj(v), indent=2, sort_keys=True) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def load_rule(path: str) -> RuleTable:
    with open(path, encoding="utf-8") as fh:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
        # Python's digit limit; RecursionError covers too deeply nested arrays.
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"rule file is not valid JSON: {exc}") from None
    return rule_from_json_obj(obj)
