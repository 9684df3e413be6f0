"""Anonymous randomized voting rules as exact-rational lottery tables.

A rule table maps every anonymous profile for a fixed (m, n) to a lottery
over candidates.  Lotteries must sum to exactly 1 and the table must be
total, both checked at construction.

A table stores each lottery once, as integers (nums, den) with den the lcm
of the entries' reduced denominators, so p[x] = nums[x] / den.  The pair is
canonical (equal lotteries have equal pairs), so comparisons become
cross-multiplications.  The view is built in enumeration order and checked
once.  The built-in rules build it directly, and RuleTable walks it and checks
each lottery.  One reader parses every entry of a rule file, raising each
entry's own faults in file order, and records whether each lottery passes its
checks.  A file that lists every profile with lotteries that all pass, in any
order, and the mixes of checked views that `mixture` and `perturb` build, hand
RuleTable a `_Checked` view, which it keeps after the names check, the profile
cap and a count of the profiles.  Any other file is walked by RuleTable, which
raises a missing profile or a lottery's fault in enumeration order.
`load_rule` reads a file once and returns the sha256 of the bytes it checked.
`_parse_fraction` is the one reader of a caller's rational that is not a
Fraction, whether a rule file's entry, a command-line argument or a library one.

One writer, `dump_json`, streams rule files and reports as indented JSON; it
walks dicts, lists and tuples, streams a table, whether a rule file or a
report field, straight from the view, and builds no entry object; every
other value is left to `json.dumps`.
Fractions are built on demand, by `lottery_at`, `prob_at` and `.table`,
which all read a table by its anonymous profile key (`prefs.canonicalize`
turns an ordered profile into one).
"""

from __future__ import annotations

import functools
import gc
import io
import itertools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import CapExceededError, DomainError, ValidationError
from .prefs import (
    AnonKey,
    Ordering,
    candidate_names,
    count_anonymous_profiles,
    enumerate_orderings,
    enumerate_profiles,
    format_ordering,
    ordering_rank,
    parse_ordering,
    profile_walk,
    upper_set,
)

Lottery = tuple[Fraction, ...]

ZERO = Fraction(0)


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


# Fraction's decimal form with an exponent: its integer digits, fraction digits and exponent.
_EXPONENT_FORM = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                           r"e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE)


def _parse_fraction(value, name: str) -> Fraction:
    """The one reader of a caller's rational: Fraction(value), but text with an exponent past twice the
    digit limit builds no power of ten; int() refuses each digit string past the limit, as Fraction
    does, so a nonzero mantissa there does not print (ValidationError), and a zero one reads as 0."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    match = _EXPONENT_FORM.fullmatch(value) if limit and isinstance(value, str) else None
    if match:
        whole, decimals, exp = (int(digits or "0") for digits in match.groups())
        if abs(exp) > 2 * limit:
            if whole or decimals:
                raise ValidationError(f"{name} has more digits than Python will print")
            return Fraction(0)
    return Fraction(value)


def checked_unit(q, name: str) -> Fraction:
    """q as a Fraction, read by _parse_fraction unless it is one, and checked to lie in [0, 1];
    like every message about a rational, the error leaves the value out, which str() may refuse to print."""
    q = q if isinstance(q, Fraction) else _parse_fraction(q, name)
    if not 0 <= q <= 1:
        raise DomainError(f"{name} must lie in [0, 1]")
    return q


def _canonical(nums, den: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) divided by their gcd, which makes den the lcm of the reduced denominators."""
    g = math.gcd(den, *nums)
    if g == 1:  # always, for entries written reduced, as save_rule writes them
        return tuple(nums), den
    return tuple(num // g for num in nums), den // g


def _scaled_pairs(pairs) -> tuple[tuple[int, ...], int]:
    """Canonical (nums, den) with nums[x] / den == p / q for the x-th pair (p, q)."""
    den = math.lcm(*(q for _, q in pairs))
    return _canonical([p * (den // q) for p, q in pairs], den)


def _scaled_lottery(probs) -> tuple[tuple[int, ...], int]:
    """(nums, den) with _parse_fraction(probs[x]) == nums[x] / den and den the lcm of the denominators."""
    lot = [p if isinstance(p, Fraction) else _parse_fraction(p, "lottery entry") for p in probs]
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


def _checked_names(m: int, names) -> tuple[str, ...]:
    """names as a tuple, checked to be m distinct strings that an ordering
    string gives back: none contains '>', and none has leading or trailing
    whitespace, which parse_ordering strips."""
    names = tuple(names)
    for name in names:
        if type(name) is not str or ">" in name or name != name.strip():
            raise ValidationError(f"candidate name {name!r} is not a string without '>' "
                                  "and without leading or trailing whitespace")
    if len(names) != m or len(set(names)) != m:
        raise ValidationError(f"need {m} distinct candidate names, got {names!r}")
    return names


class _Scaled(dict):
    """A table of unchecked (nums, den) pairs, as the built-in rules and the loader give it to RuleTable."""


class _Checked(_Scaled):
    """A view its producer has already checked: distinct profiles of the table
    in enumeration order, each with a canonical lottery of m entries in [0, 1]
    that sum to 1.  The loader builds one from a file whose lotteries all pass,
    sorted only when the file is out of order, and `mixture` and `perturb`
    build one by mixing checked views."""


class RuleTable:
    """Total map from anonymous profiles to exact lotteries, stored only as the
    integer view that `_scaled` returns; never mutated after construction.

    A `_Checked` view that lists every profile is kept as it is; any other
    table is walked in enumeration order and each lottery checked."""

    __slots__ = ("m", "n", "names", "_view")

    def __init__(self, m: int, n: int, table: dict[AnonKey, Lottery], names=None):
        if m < 1 or n < 1:
            raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
        self.m = m
        self.n = n
        self.names = candidate_names(m) if names is None else _checked_names(m, names)
        keys = enumerate_profiles(m, n)  # the profile cap
        if type(table) is _Checked and len(table) == count_anonymous_profiles(m, n):
            self._view = table  # total, as its keys are distinct profiles
            return
        scaled = isinstance(table, _Scaled)
        view: dict[AnonKey, tuple[tuple[int, ...], int]] = {}
        for key in keys:
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


# -- Built-in rules ----------------------------------------------------------


def random_dictatorship(m: int, n: int) -> RuleTable:
    """Pick a voter uniformly at random and elect her top choice."""
    return rank_rule(m, n, 1)


def uniform_rule(m: int, n: int) -> RuleTable:
    """Ignore the votes; elect uniformly at random."""
    return constant_rule(m, n, (Fraction(1, m) for _ in range(m)))  # lazy: no 1/0 at m = 0


def plurality_uniform_tiebreak(m: int, n: int) -> RuleTable:
    """Most top votes wins; ties are broken uniformly among the tied."""
    _, _, top_counts = profile_walk(m, n)
    table = _Scaled()
    for key, counts in zip(enumerate_profiles(m, n), top_counts):
        best = max(counts)
        table[key] = tuple(int(c == best) for c in counts), counts.count(best)
    return RuleTable(m, n, table)


def plurality_fixed_tiebreak(m: int, n: int) -> RuleTable:
    """Most top votes wins; ties go to the lowest candidate id (deterministic)."""
    _, _, top_counts = profile_walk(m, n)
    points = [(tuple(int(x == winner) for x in range(m)), 1) for winner in range(m)]
    table = _Scaled()
    for key, counts in zip(enumerate_profiles(m, n), top_counts):
        table[key] = points[counts.index(max(counts))]
    return RuleTable(m, n, table)


def rank_rule(m: int, n: int, r: int) -> RuleTable:
    """Pick a voter uniformly at random and elect her r-th ranked candidate."""
    orderings = enumerate_orderings(m)  # rejects m < 1 before r is checked
    if not 1 <= r <= m:
        raise DomainError(f"rank r={r} outside 1..{m}")
    ranked = [o[r - 1] for o in orderings]
    table = _Scaled()
    for key in enumerate_profiles(m, n):
        nums = [0] * m
        for idx in key:
            nums[ranked[idx]] += 1
        table[key] = _canonical(nums, n)
    return RuleTable(m, n, table)


def pair_rule(m: int, n: int, x: int, y: int) -> RuleTable:
    """Split all mass between x and y by how many voters rank x above y."""
    if x == y or not (0 <= x < m and 0 <= y < m):
        raise DomainError(f"need two distinct candidates in 0..{m - 1}, got {x}, {y}")
    orderings = enumerate_orderings(m)
    prefers_x = [o.index(x) < o.index(y) for o in orderings]
    table = _Scaled()
    for key in enumerate_profiles(m, n):
        nums = [0] * m
        nums[x] = sum(1 for idx in key if prefers_x[idx])
        nums[y] = n - nums[x]
        table[key] = _canonical(nums, n)
    return RuleTable(m, n, table)


def constant_rule(m: int, n: int, lottery) -> RuleTable:
    """Ignore the votes; always play the given lottery."""
    keys = list(enumerate_profiles(m, n))  # rejects m < 1 or n < 1 first
    return RuleTable(m, n, _Scaled.fromkeys(keys, _scaled_lottery(lottery)))


# -- Combinators and comparisons ---------------------------------------------


def mixture(rules: list[RuleTable], weights) -> RuleTable:
    """Pointwise convex combination of rules over the same (m, n)."""
    if not rules:
        raise DomainError("mixture needs at least one rule")
    w = [_parse_fraction(q, "mixture weight") for q in weights]
    if len(w) != len(rules):
        raise DomainError(f"{len(rules)} rules but {len(w)} weights")
    if any(q <= 0 for q in w):
        raise DomainError("mixture weights must be strictly positive")
    if sum(w) != 1:
        raise DomainError("mixture weights must sum to 1")  # their sum may have too many digits to print
    m, n = rules[0].m, rules[0].n
    for v in rules[1:]:
        if (v.m, v.n) != (m, n):
            raise DomainError("mixture requires rules with identical dimensions")
    total = math.lcm(*(q.denominator for q in w))
    scales = [q.numerator * (total // q.denominator) for q in w]  # w[i] == scales[i] / total
    views = [v._scaled() for v in rules]
    table = _Checked()  # a mix of checked lotteries with positive weights that sum to 1
    for key in views[0]:
        lots = [view[key] for view in views]
        den = math.lcm(*(d for _, d in lots))
        factors = [s * (den // d) for s, (_, d) in zip(scales, lots)]
        columns = zip(*(ns for ns, _ in lots))  # column x: every rule's numerator of x
        nums = [sum(f * num for f, num in zip(factors, column)) for column in columns]
        table[key] = _canonical(nums, total * den)
    return RuleTable(m, n, table, rules[0].names)


def closeness(v: RuleTable, w: RuleTable) -> Fraction:
    """Smallest eps such that the two tables differ by at most eps everywhere."""
    if (v.m, v.n) != (w.m, w.n):
        raise DomainError("closeness requires rules with identical dimensions")
    other = w._scaled()
    best, best_den = 0, 1  # the largest gap so far, best / best_den
    for key, (nums, den) in v._scaled().items():
        wnums, wden = other[key]
        gap = max(abs(p * wden - q * den) for p, q in zip(nums, wnums))
        if gap * best_den > best * den * wden:
            best, best_den = gap, den * wden
    return Fraction(best, best_den)


def perturb(v: RuleTable, delta, seed: int) -> RuleTable:
    """Move each lottery toward a seeded pseudo-random lottery w / total by factor
    delta = a/b: entry x is ((b-a)·nums[x]·total + a·w[x]·den) / (b·den·total), reduced
    by one gcd over the lottery, so the view stays canonical.  The seed must be an
    int: None would seed from the operating system, and the table would not repeat."""
    if type(seed) is not int:
        raise DomainError(f"seed must be an int, got {type(seed).__name__}")
    delta = checked_unit(delta, "delta")
    a, b = delta.numerator, delta.denominator
    draw = random.Random(seed).randrange
    candidates = range(v.m)
    table = _Checked()  # each lottery a mix of two lotteries, with weights that sum to 1
    for key, (nums, den) in v._scaled().items():
        weights = [draw(1, 1001) for _ in candidates]
        total = sum(weights)
        kept, added = (b - a) * total, a * den
        mixed = [kept * num + added * wt for num, wt in zip(nums, weights)]
        whole = b * den * total
        g = math.gcd(whole, *mixed)
        table[key] = tuple([num // g for num in mixed]), whole // g
    return RuleTable(v.m, v.n, table, v.names)


# -- Utility functions --------------------------------------------------------


def is_consistent_utility(u, ordering: Ordering) -> bool:
    """Strict consistency: u decreases strictly along the ordering."""
    vals = [_parse_fraction(q, "utility") for q in u]
    if len(vals) != len(ordering) or any(q < 0 or q > 1 for q in vals):
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


def check_rule_printable(v: RuleTable) -> None:
    """Raise CapExceededError unless str() works on every reduced entry of v.
    Each entry prints if its lottery's den does, as no numerator exceeds its
    denominator; only past that bound are the entries reduced and read."""
    view = v._scaled()
    if not within_digit_limit(max(den for _, den in view.values())):
        check_printable(max(den // math.gcd(num, den) for nums, den in view.values() for num in nums))


def rule_to_json_obj(v: RuleTable) -> dict:
    check_rule_printable(v)
    texts = [format_ordering(o, v.names) for o in enumerate_orderings(v.m)]
    entries = [{"profile": [texts[r] for r in key],
                "lottery": [f"{num // g}/{den // g}" if g != den else str(num // den)
                            for num in nums for g in (math.gcd(num, den),)]}
               for key, (nums, den) in v._scaled().items()]
    return {"m": v.m, "n": v.n, "candidates": list(v.names), "entries": entries}


def rule_from_json_obj(obj: dict) -> RuleTable:
    if not isinstance(obj, dict):
        raise ValidationError("malformed rule file: the top level must be a JSON object")
    try:
        m, n, names, entries = obj["m"], obj["n"], obj["candidates"], obj["entries"]
    except KeyError as exc:
        raise ValidationError(f"malformed rule file: missing {exc}") from None
    if type(m) is not int or type(n) is not int:  # rejects bools, floats and strings
        raise ValidationError(f"m and n must be JSON integers, got m={m!r}, n={n!r}")
    if not isinstance(names, list) or any(type(name) is not str for name in names):
        raise ValidationError(f"candidates must be a list of strings, got {names!r}")
    if not isinstance(entries, list):
        raise ValidationError("malformed rule file: entries must be a list")
    if m < 1 or n < 1:  # before any entry: no profile to read at n = 0
        raise ValidationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    names = _checked_names(m, names)  # before any entry parses an ordering with them
    table = _Checked()
    parsed: dict[str, int] = {}  # each distinct ordering string's rank, parsed once
    valid = True
    for entry in entries:
        valid &= _read_entry(entry, m, n, names, parsed, table)
    if not valid:  # RuleTable's walk raises the first lottery fault or missing profile in enumeration order
        table = _Scaled(table)
    elif list(table) != sorted(table):  # enumeration order is the keys' sorted order
        table = _Checked(sorted(table.items()))
    return RuleTable(m, n, table, names)


# A lottery's texts as save_rule writes them, joined: ASCII digits and '/' only.
_PLAIN_LOTTERY = re.compile(r"[0-9/]*").fullmatch


def _read_entry(entry, m: int, n: int, names: tuple[str, ...], parsed: dict[str, int], table: _Scaled) -> bool:
    """Parse one rule-file entry into table, raising on the first fault in the
    order: its shape, item types, orderings, voter count, a duplicate profile,
    then each rational.  Return whether its lottery has m entries in [0, 1]
    that sum to 1; RuleTable's walk raises the fault of one that has not."""
    if not (isinstance(entry, dict) and isinstance(entry.get("profile"), list)
            and isinstance(entry.get("lottery"), list)):
        raise ValidationError(f"malformed rule entry {entry!r}: need an object with "
                              "list-valued 'profile' and 'lottery'")
    profile, lottery = entry["profile"], entry["lottery"]
    for item in profile:
        if type(item) is not str:
            raise ValidationError(f"profile item {item!r} is not an ordering string")
    for item in lottery:
        if type(item) is not str and type(item) is not int:
            raise ValidationError(f"lottery item {item!r} is not a string or an integer")
    for text in profile:
        if text not in parsed:
            parsed[text] = ordering_rank(parse_ordering(text, names))
    if len(profile) != n:
        raise ValidationError(f"entry lists {len(profile)} orderings, expected {n}")
    key = tuple(sorted(map(parsed.__getitem__, profile)))
    if key in table:
        raise ValidationError(f"duplicate entry for profile {profile}")
    try:  # int() reads "p" and "p/q" texts, as save_rule writes them
        if _PLAIN_LOTTERY("".join(lottery)):  # join raises TypeError on an int item
            table[key] = nums, den = _scaled_pairs([(int(num), int(q) if slash else 1) for num, slash, q
                                                    in map(str.partition, lottery, itertools.repeat("/"))])
            return len(nums) == m and sum(nums) == den  # no entry is negative
    except (TypeError, ValueError, ZeroDivisionError):  # an int item, a part int() refuses, a 0 denominator
        pass
    try:  # Fraction reads every other lottery, and gives each error its message
        probs = [_parse_fraction(text, "lottery entry") for text in lottery]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational in lottery: {exc}") from None
    if not within_digit_limit(*probs):
        raise ValidationError("lottery entry has more digits than Python will print")
    table[key] = nums, den = _scaled_lottery(probs)
    return len(nums) == m and sum(nums) == den and min(nums) >= 0


def dump_json(obj, fh) -> None:
    """Write obj and a newline to fh as json.dumps(obj, indent=2, sort_keys=True)
    writes it, piece by piece: no string holds the whole document.  A RuleTable
    anywhere in obj is written as its rule file's object, rule_to_json_obj.  A
    value that is not a container, a table or a string is encoded by json.dumps,
    which raises TypeError on one it cannot encode; unlike json.dumps, dump_json
    also raises it on a key that is not a str."""
    _dump(obj, fh.write, "\n")
    fh.write("\n")


def _dump(obj, write, newline: str) -> None:
    """obj as the json module encodes it, each line indented as far as newline's:
    a RuleTable streamed as rule_to_json_obj of the table, a nonempty dict, list
    or tuple walked member by member, a string encoded here, and every other
    value left to json.dumps."""
    if isinstance(obj, RuleTable):
        _dump_rule(obj, write, newline)
    elif isinstance(obj, dict) and obj:
        if not all(map(isinstance, obj, itertools.repeat(str))):
            raise TypeError("keys must be str")
        members = [(encode_basestring_ascii(key) + ": ", value)
                   for key, value in sorted(obj.items())]
        _dump_members(members, "{}", write, newline)
    elif isinstance(obj, (list, tuple)) and obj:
        if all(map(isinstance, obj, itertools.repeat(str))):
            inner = newline + "  "
            body = ("," + inner).join(map(encode_basestring_ascii, obj))
            write("[" + inner + body + newline + "]")
        else:
            _dump_members([("", item) for item in obj], "[]", write, newline)
    elif isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    else:
        write(json.dumps(obj))


def _dump_members(members, brackets: str, write, newline: str) -> None:
    """A nonempty array or object: each (prefix, value) member on its own line."""
    inner = newline + "  "
    sep = brackets[0]
    for prefix, value in members:
        write(sep + inner + prefix)
        _dump(value, write, inner)
        sep = ","
    write(newline + brackets[1])


def _dump_rule(v: RuleTable, write, newline: str) -> None:
    """v's file object streamed from its view: the candidates, then one write
    per entry, its lottery reduced by one gcd per entry and its profile taken
    from ordering texts encoded once."""
    check_rule_printable(v)  # before the first byte
    inner, entry, field, item = (newline + " " * k for k in (2, 4, 6, 8))
    next_item = "," + item
    texts = [encode_basestring_ascii(format_ordering(o, v.names)) for o in enumerate_orderings(v.m)]
    opening = entry + "{" + field + '"lottery": [' + item
    middle = field + "]," + field + '"profile": [' + item
    closing = field + "]" + entry + "}"
    write("{" + inner + '"candidates": ')
    _dump(v.names, write, inner)
    write("," + inner + '"entries": [')
    sep = ""
    for key, (nums, den) in v._scaled().items():
        lottery = next_item.join([f'"{num // g}/{den // g}"' if g != den else f'"{num // den}"'
                                  for num in nums for g in (math.gcd(num, den),)])
        write(sep + opening + lottery + middle + next_item.join([texts[r] for r in key]) + closing)
        sep = ","
    write(inner + "]," + inner + f'"m": {v.m},' + inner + f'"n": {v.n}' + newline + "}")


def write_json(path: str, obj) -> None:
    """Write obj as indented, key-sorted JSON, replacing path in one step.

    The text goes to path + ".tmp" first; a failed write or replace deletes
    that file again and re-raises.  An OSError, whether the temporary file
    cannot be created, written or moved onto path, is reported under path,
    the only name the caller gave.
    """
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            dump_json(obj, fh)
        os.replace(tmp, path)
    except BaseException as exc:
        os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def save_rule(v: RuleTable, path: str) -> None:
    write_json(path, v)


def _read_rule_json(path: str) -> tuple[dict, str]:
    """The JSON object in the file at path and the sha256 hex digest of its
    bytes.  The file is read once, and those bytes are decoded as UTF-8 text,
    with universal newlines, as open(path, encoding="utf-8") decodes them.
    Neither the bytes nor the text is held while the table is built."""
    import hashlib  # here, not at the top: it loads OpenSSL, which only a file read needs

    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers past
    # Python's digit limit; RecursionError covers too deeply nested arrays.
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data  # one copy of the file at a time
        return json.loads(text), digest
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"rule file is not valid JSON: {exc}") from None


def load_rule(path: str) -> tuple[RuleTable, str]:
    """The rule table in the file at path, and the sha256 hex digest of the
    bytes it was read from.  The file is read once, so the digest names the
    bytes that were parsed and checked.

    The cyclic garbage collector is paused while the file is decoded and
    read, so that it does not rescan the decoded tree, which holds no cycle;
    its state is restored on the way out, also on an error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj, digest = _read_rule_json(path)
        return rule_from_json_obj(obj), digest
    finally:
        if enabled:
            gc.enable()
