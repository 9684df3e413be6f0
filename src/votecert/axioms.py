"""Minimal-eps axiom checkers and deviation meters for rule tables.

Every checker returns the smallest eps for which its axiom holds, together
with a witness that replays to exactly that value.  Deviation meters return
0 exactly when the corresponding structural property (pairwise responsive,
pairwise isolated, tops-only, ...) holds.

The meters read each lottery as integers over a common denominator (the
table's `_scaled` view), so every difference is an integer pair and every
comparison a cross-multiplication; a Fraction is built only for the
reported value.  The swap meters and the top-count meters take that view as
a list in enumeration order and index it through `prefs.profile_walk`, so a
swapped or completed profile is a table lookup, not a sorted tuple.
`replay_report` stays on the Fractions of the table and sorts its own
profiles, so it checks the integer meters independently.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .prefs import (
    AnonKey,
    Ordering,
    adjacent_swaps,
    canonicalize,
    enumerate_orderings,
    enumerate_profiles,
    profile_walk,
)
from .rules import RuleTable, _scaled_lottery, _tops

ZERO = Fraction(0)


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    eps: Fraction
    witness: dict | None


@dataclass(frozen=True)
class VPrimeTable:
    """Canonical-profile selection probabilities, indexed by (candidate, top count)."""

    m: int
    n: int
    base: Ordering
    values: dict[tuple[int, int], Fraction]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.values[key]


@dataclass(frozen=True)
class DistanceReport:
    """Distance to random dictatorship plus its two canonical sub-quantities."""

    closeness: AxiomReport
    table_vs_canonical: AxiomReport
    canonical_vs_linear: AxiomReport


# -- Helpers -------------------------------------------------------------------


def _worst(axiom: str, fields: tuple[str, ...], scored) -> AxiomReport:
    """The witness rule shared by every meter.

    `scored` yields (num, den, *parts) in enumeration order, for the value
    num/den with den > 0.  The report carries the first strictly largest
    value (compared by cross-multiplication) as a Fraction, with its parts
    named by `fields`; when no value exceeds 0 it is eps 0 with no witness.
    """
    bn, bd, top = 0, 1, None
    for item in scored:
        if item[0] * bd > bn * item[1]:
            bn, bd, top = item[0], item[1], item
    if top is None:
        return AxiomReport(axiom, ZERO, None)
    return AxiomReport(axiom, Fraction(bn, bd), dict(zip(fields, top[2:])))


def _extremes(items):
    """(first minimum, first maximum) of nonempty (num, den, *parts) items by num/den."""
    it = iter(items)
    lo = hi = next(it)
    for item in it:
        if item[0] * lo[1] < lo[0] * item[1]:
            lo = item
        elif item[0] * hi[1] > hi[0] * item[1]:
            hi = item
    return lo, hi


def _spread(lo, hi) -> tuple[int, int]:
    """hi - lo as (num, den) for two (num, den, ...) items."""
    return hi[0] * lo[1] - lo[0] * hi[1], hi[1] * lo[1]


# -- Linear axioms: one generator each, shared with polytope.build_polytope ------


def unanimous_profiles(m: int, n: int, x: int):
    """Anonymous profiles in which every voter ranks x first (v(key, x) >= 1 - eps)."""
    ranks = [r for r, o in enumerate(enumerate_orderings(m)) if o[0] == x]
    return itertools.combinations_with_replacement(ranks, n)


def _swap_pairs(m: int, n: int, keys):
    """Yields (i, i2, r, p) in responsive_pairs order: a voter with ordering rank
    r in keys[i] swaps positions p and p+1, giving keys[i2], and i < i2.

    keys are the anonymous profiles in enumeration order, so an index order is
    the key order, and keys[i2] is read from the profile walk, not sorted.
    """
    contexts, at, _ = profile_walk(m, n)
    context_index = {others: c for c, others in enumerate(contexts)}
    swaps = adjacent_swaps(m)
    for i, key in enumerate(keys):
        for r in set(key):
            j = key.index(r)
            row = at[context_index[key[:j] + key[j + 1:]]]
            for p, r2 in enumerate(swaps[r]):
                if row[r2] > i:  # else the mirror swap already yielded it from keys[row[r2]]
                    yield i, row[r2], r, p


def responsive_pairs(m: int, n: int):
    """Yields (key, key2, r, p, z): a voter with ordering rank r in key swaps
    positions p and p+1, giving key2; bystander z keeps v(key, z) = v(key2, z).
    Each triple comes once, from the side with key < key2.
    """
    orderings = enumerate_orderings(m)
    keys = list(enumerate_profiles(m, n, anonymous=True))
    for i, i2, r, p in _swap_pairs(m, n, keys):
        o = orderings[r]
        for z in range(m):
            if z != o[p] and z != o[p + 1]:
                yield keys[i], keys[i2], r, p, z


def _isolation_classes(m: int, n: int):
    """Yields (r, p, groups) in isolation_groups order: groups maps each count c
    to the indices of its contexts in the contexts of profile_walk(m, n).

    The groups depend on the swap only through its pair (x, y), so the
    contexts are counted once per pair, not once per swap.
    """
    orderings = enumerate_orderings(m)
    contexts, _, _ = profile_walk(m, n)
    classes: dict[tuple[int, int], dict[int, list[int]]] = {}
    for r, o in enumerate(orderings):
        for p in range(m - 1):
            pair = o[p], o[p + 1]
            if pair not in classes:
                x_above_y = [q.index(pair[0]) < q.index(pair[1]) for q in orderings].__getitem__
                groups = classes[pair] = defaultdict(list)
                for i, others in enumerate(contexts):
                    groups[sum(map(x_above_y, others))].append(i)
            yield r, p, classes[pair]


def isolation_groups(m: int, n: int):
    """Yields (r, p, c, [(others, before, after), ...]): the voter with ordering
    rank r raises y = o[p+1] above x = o[p]; the other voters are grouped by c,
    how many of them rank x above y; v(after, y) - v(before, y) is constant
    within a group.
    """
    swaps = adjacent_swaps(m)
    contexts, at, _ = profile_walk(m, n)
    keys = list(enumerate_profiles(m, n, anonymous=True))
    for r, p, groups in _isolation_classes(m, n):
        r2 = swaps[r][p]
        for c, members in groups.items():
            yield r, p, c, [(contexts[i], keys[at[i][r]], keys[at[i][r2]]) for i in members]


# -- Efficiency and unanimity ---------------------------------------------------


def min_eps_pareto(v: RuleTable) -> AxiomReport:
    """Largest probability a unanimously dominated candidate ever receives."""
    pairs = [(x, y, 1 << (x * v.m + y)) for x in range(v.m) for y in range(v.m) if x != y]
    # above[r] has the bit of (x, y) set when ordering r ranks x above y
    above = [sum(bit for x, y, bit in pairs if o.index(x) < o.index(y))
             for o in enumerate_orderings(v.m)]
    all_pairs = sum(bit for _, _, bit in pairs)

    def dominated():
        for key, (nums, den) in v._scaled().items():
            common = all_pairs
            for r in key:
                common &= above[r]
            if common:
                for x, y, bit in pairs:
                    if common & bit:
                        yield nums[y], den, key, x, y

    return _worst("pareto", ("profile", "dominator", "dominated"), dominated())


def _unanimity_gaps(v: RuleTable, x: int):
    """(num, den, key) with num/den = 1 - v(key, x), over unanimous_profiles(x)."""
    view = v._scaled()
    for key in unanimous_profiles(v.m, v.n, x):
        nums, den = view[key]
        yield den - nums[x], den, key


def min_eps_strong_unanimity(v: RuleTable) -> AxiomReport:
    return _worst("strong-unanimity", ("profile", "x"), (
        (*gap, x) for x in range(v.m) for gap in _unanimity_gaps(v, x)
    ))


def min_eps_weak_unanimity(v: RuleTable) -> AxiomReport:
    """Strong unanimity on the profiles whose voters all cast one ordering."""
    return _worst("weak-unanimity", ("profile", "x"), (
        (*gap, x) for x in range(v.m) for gap in _unanimity_gaps(v, x) if len(set(gap[2])) == 1
    ))


def min_eps_super_weak_unanimity(v: RuleTable) -> AxiomReport:
    # unanimous_profiles yields keys in ascending order, so the first minimum
    # is the minimum by (value, key)
    return _worst("super-weak-unanimity", ("profile", "x"), (
        (*_extremes(_unanimity_gaps(v, x))[0], x) for x in range(v.m)
    ))


# -- Swap-based deviation meters -------------------------------------------------


def responsiveness_deviation(v: RuleTable) -> AxiomReport:
    """How much an adjacent swap can move a bystander candidate's probability."""
    bystanders = [[tuple(z for z in range(v.m) if z != o[p] and z != o[p + 1])
                   for p in range(v.m - 1)] for o in enumerate_orderings(v.m)]
    view = v._scaled()
    keys, lots = list(view), list(view.values())

    def gaps():
        # One item per swap, its first largest bystander gap: the same first
        # strictly largest item as one item per bystander, with fewer items.
        for i, i2, r, p in _swap_pairs(v.m, v.n, keys):
            a, da = lots[i]
            b, db = lots[i2]
            gap = 0
            for z in bystanders[r][p]:
                diff = abs(b[z] * da - a[z] * db)
                if diff > gap:
                    gap, worst = diff, z
            if gap:
                yield gap, da * db, keys[i], keys[i2], r, p, worst

    fields = ("profile", "swapped_profile", "acting_rank", "pos", "z")
    return _worst("responsiveness", fields, gaps())


def isolation_deviation(v: RuleTable) -> AxiomReport:
    """Spread of the raised candidate's probability change across matched contexts."""
    orderings = enumerate_orderings(v.m)
    swaps = adjacent_swaps(v.m)
    contexts, at, _ = profile_walk(v.m, v.n)
    lots = list(v._scaled().values())
    # column[r][i]: the lottery of context i completed by a voter of rank r
    column = [[lots[row[r]] for row in at] for r in range(len(orderings))]

    def spreads():
        for r, p, groups in _isolation_classes(v.m, v.n):
            y = orderings[r][p + 1]
            deltas = [(a[y] * db - b[y] * da, da * db)
                      for (a, da), (b, db) in zip(column[swaps[r][p]], column[r])]
            for c, members in groups.items():
                lo, hi = _extremes((*deltas[i], i) for i in members)
                yield *_spread(lo, hi), r, p, c, contexts[hi[2]], contexts[lo[2]]

    fields = ("acting_rank", "pos", "pair_count", "others", "others_2")
    return _worst("isolation", fields, spreads())


def _group_spreads(v: RuleTable, groups):
    """(spread num, spread den, first argmax profile, first argmin profile, x)
    of v(., x) over each (profiles, x)."""
    view = v._scaled()
    for members, x in groups:
        if len(members) >= 2:
            lo, hi = _extremes((view[k][0][x], view[k][1], k) for k in members)
            yield *_spread(lo, hi), hi[2], lo[2], x


def tops_only_deviation(v: RuleTable) -> AxiomReport:
    """Spread of any candidate's probability across profiles with equal tops."""
    groups: dict[tuple, list] = defaultdict(list)
    for key, _nums, _den, counts in _top_counts(v):
        groups[counts].append(key)
    pairs = ((members, x) for members in groups.values() for x in range(v.m))
    return _worst("tops-only", ("profile", "profile_2", "x"), _group_spreads(v, pairs))


def times_at_top_deviation(v: RuleTable) -> AxiomReport:
    """Spread of x's probability across profiles with the same x top-count."""
    rows = list(_top_counts(v))
    groups: dict[tuple, list] = defaultdict(list)
    for x in range(v.m):
        for key, _nums, _den, counts in rows:
            groups[(x, counts[x])].append(key)
    pairs = ((members, x) for (x, _), members in groups.items())
    return _worst("times-at-top", ("profile", "profile_2", "x"), _group_spreads(v, pairs))


# -- Canonical-profile table -----------------------------------------------------


def canonical_profile(m: int, n: int, x: int, j: int, base: Ordering) -> AnonKey:
    """j voters with x on top of `base`, the rest with x moved to its bottom."""
    rest = tuple(c for c in base if c != x)
    top_x = (x,) + rest
    bottom_x = rest + (x,)
    return canonicalize((top_x,) * j + (bottom_x,) * (n - j))


def vprime_table(v: RuleTable, base: Ordering | None = None) -> VPrimeTable:
    """Probability of x on the canonical profile with j top-x voters, for all (x, j)."""
    if v.m < 2:
        raise DomainError("canonical-profile table needs m >= 2 (no bottom to move to)")
    if base is None:
        base = tuple(range(v.m))
    if sorted(base) != list(range(v.m)):
        raise DomainError(f"base {base!r} is not an ordering of 0..{v.m - 1}")
    values = {}
    for x in range(v.m):
        for j in range(v.n + 1):
            key = canonical_profile(v.m, v.n, x, j, base)
            values[(x, j)] = v.prob_at(key, x)
    return VPrimeTable(v.m, v.n, tuple(base), values)


def _vprime_scaled(v: RuleTable) -> tuple[dict[tuple[int, int], int], int]:
    """The canonical-profile table as integers over one denominator:
    ({(x, j): num}, den) with vprime_table(v)[(x, j)] == num / den."""
    values = vprime_table(v).values
    nums, den = _scaled_lottery(tuple(values.values()))
    return dict(zip(values, nums)), den


def candidate_anonymity_deviation(v: RuleTable) -> AxiomReport:
    """Spread of the canonical-profile table across candidates at fixed top count."""
    if v.m < 2:  # one candidate: nothing to compare, and no canonical table
        return AxiomReport("candidate-anonymity", ZERO, None)
    vp, den = _vprime_scaled(v)
    return _worst("candidate-anonymity", ("x", "y", "j"), (
        (abs(vp[(x, j)] - vp[(y, j)]), den, x, y, j)
        for j in range(v.n + 1)
        for x in range(v.m)
        for y in range(x + 1, v.m)
    ))


def sliding_window_deviation(v: RuleTable) -> AxiomReport:
    """How much a canonical-table increment of width l depends on its start point."""
    if v.m < 2:  # one candidate: v'(x, j) = 1 for every j, so every window is flat
        return AxiomReport("sliding-window", ZERO, None)
    vp, den = _vprime_scaled(v)
    return _worst("sliding-window", ("x", "j", "jp", "l"), (
        (abs(vp[(x, j + width)] - vp[(x, j)] - vp[(x, jp + width)] + vp[(x, jp)]), den,
         x, j, jp, width)
        for x in range(v.m)
        for width in range(1, v.n + 1)
        for j in range(v.n - width + 1)
        for jp in range(v.n - width + 1)
    ))


def vprime_sweep(v: RuleTable) -> tuple[Fraction, dict | None]:
    """Spread of the canonical-profile table over all m! base orderings (m <= 4)."""
    if v.m > 4:
        raise DomainError("base-ordering sweep is capped at m <= 4")
    tables = {base: vprime_table(v, base) for base in enumerate_orderings(v.m)}

    def spreads():
        for x in range(v.m):
            for j in range(v.n + 1):
                vals = [(vp[(x, j)], base) for base, vp in tables.items()]
                lo, hi = min(vals), max(vals)
                gap = hi[0] - lo[0]
                yield gap.numerator, gap.denominator, x, j, hi[1], lo[1]

    report = _worst("vprime-sweep", ("x", "j", "base", "base_2"), spreads())
    return report.eps, report.witness


# -- Distance to random dictatorship ----------------------------------------------


def _top_counts(v: RuleTable):
    """(key, nums, den, counts) per profile, counts[x] the voters with x on top,
    read from the profile walk."""
    _, _, counts = profile_walk(v.m, v.n)
    for (key, (nums, den)), row in zip(v._scaled().items(), counts):
        yield key, nums, den, row


def distance_to_random_dictatorship(v: RuleTable) -> DistanceReport:
    """Random dictatorship elects x with probability (voters with x on top) / n;
    its table is read that way, never built."""
    n = v.n
    close = _worst("distance", ("profile", "x"), (
        (abs(nums[x] * n - counts[x] * den), den * n, key, x)
        for key, nums, den, counts in _top_counts(v)
        for x in range(v.m)
    ))
    if v.m < 2:
        return DistanceReport(close, AxiomReport("table-vs-canonical", ZERO, None),
                              AxiomReport("canonical-vs-linear", ZERO, None))
    vp, vden = _vprime_scaled(v)
    return DistanceReport(
        close,
        _worst("table-vs-canonical", ("profile", "x", "j"), (
            (abs(nums[x] * vden - vp[(x, counts[x])] * den), den * vden, key, x, counts[x])
            for key, nums, den, counts in _top_counts(v)
            for x in range(v.m)
        )),
        _worst("canonical-vs-linear", ("x", "j"), (
            (abs(vp[(x, j)] * n - j * vden), vden * n, x, j)
            for x in range(v.m)
            for j in range(n + 1)
        )),
    )


# -- Witness replay ----------------------------------------------------------------


def replay_report(v: RuleTable, report: AxiomReport) -> Fraction:
    """Recompute a report's value from its witness alone."""
    w = report.witness
    if w is None:
        return ZERO
    name = report.axiom
    if name == "pareto":
        return v.prob_at(w["profile"], w["dominated"])
    if name in ("strong-unanimity", "weak-unanimity", "super-weak-unanimity"):
        return 1 - v.prob_at(w["profile"], w["x"])
    if name == "responsiveness":
        return abs(v.prob_at(w["swapped_profile"], w["z"]) - v.prob_at(w["profile"], w["z"]))
    if name == "isolation":
        return abs(_raise_delta(v, w["acting_rank"], w["pos"], w["others"])
                   - _raise_delta(v, w["acting_rank"], w["pos"], w["others_2"]))
    if name in ("tops-only", "times-at-top"):
        return abs(v.prob_at(w["profile"], w["x"]) - v.prob_at(w["profile_2"], w["x"]))
    if name == "candidate-anonymity":
        vp = vprime_table(v)
        return abs(vp[(w["x"], w["j"])] - vp[(w["y"], w["j"])])
    if name == "sliding-window":
        vp = vprime_table(v)
        x, j, jp, length = w["x"], w["j"], w["jp"], w["l"]
        return abs((vp[(x, j + length)] - vp[(x, j)]) - (vp[(x, jp + length)] - vp[(x, jp)]))
    if name == "distance":  # random dictatorship: the share of voters with x on top
        tops = _tops(v.m)
        share = Fraction(sum(1 for r in w["profile"] if tops[r] == w["x"]), v.n)
        return abs(v.prob_at(w["profile"], w["x"]) - share)
    if name == "table-vs-canonical":
        vp = vprime_table(v)
        return abs(v.prob_at(w["profile"], w["x"]) - vp[(w["x"], w["j"])])
    if name == "canonical-vs-linear":
        vp = vprime_table(v)
        return abs(vp[(w["x"], w["j"])] - Fraction(w["j"], v.n))
    raise DomainError(f"unknown axiom report {name!r}")


def _raise_delta(v: RuleTable, r: int, p: int, others: AnonKey) -> Fraction:
    y = enumerate_orderings(v.m)[r][p + 1]
    before = tuple(sorted(others + (r,)))
    after = tuple(sorted(others + (adjacent_swaps(v.m)[r][p],)))
    return v.prob_at(after, y) - v.prob_at(before, y)


# -- Dispatch by name --------------------------------------------------------------


def _meters() -> dict:
    """Axiom name -> meter, in report order; built per call, so wrapped meters are used."""
    return {
        "pareto": min_eps_pareto,
        "strong-unanimity": min_eps_strong_unanimity,
        "weak-unanimity": min_eps_weak_unanimity,
        "super-weak-unanimity": min_eps_super_weak_unanimity,
        "responsiveness": responsiveness_deviation,
        "isolation": isolation_deviation,
        "tops-only": tops_only_deviation,
        "times-at-top": times_at_top_deviation,
        "candidate-anonymity": candidate_anonymity_deviation,
        "sliding-window": sliding_window_deviation,
    }


AXIOM_NAMES = tuple(_meters())


def run_axiom(v: RuleTable, name: str) -> AxiomReport:
    """Dispatch a single axiom checker by name."""
    meters = _meters()
    if name not in meters:
        raise DomainError(f"unknown axiom {name!r}; expected one of {', '.join(AXIOM_NAMES)}")
    return meters[name](v)
