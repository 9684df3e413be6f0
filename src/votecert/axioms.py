"""Minimal-eps axiom checkers and deviation meters for rule tables.

Every checker returns the smallest eps for which its axiom holds, together
with a witness that replays to exactly that value.  Deviation meters return
0 exactly when the corresponding structural property (pairwise responsive,
pairwise isolated, tops-only, ...) holds.

The meters read each lottery as integers over a common denominator (the
table's `_scaled` view, the only form a table stores), so every difference
is an integer pair and every comparison a cross-multiplication; a Fraction
is built only for the reported value.  Each meter first reduces inside the
groups whose values it compares by integers (a profile's candidates for the
distance reports, a context group for isolation, a top-count group for
tops-only and times-at-top, a candidate's unanimous profiles for super-weak
unanimity), so `_worst` gets one item per group; responsiveness and the two
profile-by-profile distance reports pass on only the items that beat every
earlier one.  The first strictly largest item is the one a stream of every
(group member, candidate) would give.  The meters share their walks:
closeness and table-vs-canonical read one walk over the profiles, the three
unanimity meters one cached scan, and isolation computes each swap pair's
denominators once for both of its directions.

Each linear axiom has one generator (`responsive_pairs`, `isolation_groups`,
`unanimous_profiles`) yielding profile indices in enumeration order, as
`prefs.profile_walk` numbers them: its meter reads lottery i of the view,
and `polytope.build_polytope` names variable (i, x), from the same items.
`responsive_pairs` reads each profile's contexts off the walk, and its
order, which fixes the polytope's rows and so the simplex's pivots, is that
of set(key) within each profile.  The top-count meters group the same
walk's indices.  The canonical-profile
table v'(x, j) reads one base ordering, 0 > 1 > ... > m-1.

`replay_report` checks every witness field it reads, then that the witness
names a violation of its axiom.  It reads orderings, not the profile walk,
sorts its own profiles and computes in Fractions, so it checks the meters'
integer arithmetic and indexing, not the view itself.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul, sub

from . import AXIOM_NAMES
from .errors import DomainError
from .prefs import (
    AnonKey,
    adjacent_swaps,
    canonicalize,
    enumerate_orderings,
    enumerate_profiles,
    profile_walk,
)
from .rules import RuleTable, _scaled_lottery

ZERO = Fraction(0)


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    eps: Fraction
    witness: dict | None


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


def _extremes(nums, dens, members) -> tuple[int, int]:
    """(first argmin, first argmax) of nums[k] / dens[k] over the nonempty
    members, compared by cross-multiplication."""
    it = iter(members)
    lo = hi = next(it)
    lo_num, lo_den = hi_num, hi_den = nums[lo], dens[lo]
    for k in it:
        num, den = nums[k], dens[k]
        if num * lo_den < lo_num * den:
            lo, lo_num, lo_den = k, num, den
        elif num * hi_den > hi_num * den:
            hi, hi_num, hi_den = k, num, den
    return lo, hi


def _spread(nums, dens, lo: int, hi: int) -> tuple[int, int]:
    """nums[hi] / dens[hi] - nums[lo] / dens[lo] as (num, den)."""
    return nums[hi] * dens[lo] - nums[lo] * dens[hi], dens[hi] * dens[lo]


# -- Linear axioms: one generator each, shared with polytope.build_polytope ------


def unanimous_profiles(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per candidate x, the ascending indices of the profiles in which every
    voter ranks x first (v(i, x) >= 1 - eps), from one scan of the walk per
    (m, n): the three unanimity meters and the polytope share it."""
    profile_walk(m, n)  # the cap, checked on every call
    return _unanimous_profiles(m, n)


@lru_cache(maxsize=None)
def _unanimous_profiles(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    _, _, top_counts = profile_walk(m, n)
    found: list[list[int]] = [[] for _ in range(m)]
    for i, counts in enumerate(top_counts):
        if n in counts:
            found[counts.index(n)].append(i)
    return tuple(map(tuple, found))


def responsive_pairs(m: int, n: int):
    """Yields (i, i2, r, p, zs): a voter with ordering rank r in profile i swaps
    positions p and p+1, giving profile i2; each bystander z in zs (ascending)
    keeps v(i, z) = v(i2, z).  Each swap comes once, from the side with i < i2,
    and i2 is read from the profile walk, not sorted.  A profile's ranks come
    in set(key) order, which fixes the order of the polytope's rows.
    """
    orderings = enumerate_orderings(m)
    swaps = adjacent_swaps(m)
    _, at, top_counts = profile_walk(m, n)
    width = len(orderings)
    # rows[i * width + r]: the walk row of the context that a voter of rank r
    # leaves in profile i, read off the walk, so no context is sliced or hashed
    rows: list[tuple[int, ...] | None] = [None] * (len(top_counts) * width)
    for row in at:
        for r, i in enumerate(row):
            rows[i * width + r] = row
    bystanders = [[tuple(z for z in range(m) if z != o[p] and z != o[p + 1])
                   for p in range(m - 1)] for o in orderings]
    for i, key in enumerate(enumerate_profiles(m, n)):
        base = i * width
        for r in set(key):
            row = rows[base + r]
            for p, r2 in enumerate(swaps[r]):
                if row[r2] > i:  # else the mirror swap already yielded it from profile row[r2]
                    yield i, row[r2], r, p, bystanders[r][p]


def isolation_groups(m: int, n: int):
    """Yields (r, p, r2, y, groups): the voter with ordering rank r raises
    y = o[p+1] above x = o[p], becoming rank r2.  groups maps each count c, how
    many of the other voters rank x above y, to the indices of those contexts
    in profile_walk(m, n); context k takes profile at[k][r] to at[k][r2], and
    v(at[k][r2], y) - v(at[k][r], y) is constant within a group.

    The groups depend on the swap only through its pair (x, y), so the
    contexts are counted once per pair, not once per swap.
    """
    orderings = enumerate_orderings(m)
    swaps = adjacent_swaps(m)
    contexts, _, _ = profile_walk(m, n)
    classes: dict[tuple[int, int], dict[int, list[int]]] = {}
    for r, o in enumerate(orderings):
        for p, r2 in enumerate(swaps[r]):
            pair = o[p], o[p + 1]
            if pair not in classes:
                x_above_y = [q.index(pair[0]) < q.index(pair[1]) for q in orderings].__getitem__
                groups = classes[pair] = defaultdict(list)
                for k, others in enumerate(contexts):
                    groups[sum(map(x_above_y, others))].append(k)
            yield r, p, r2, pair[1], classes[pair]


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


def _unanimity_gaps(v: RuleTable) -> list[list[tuple[int, int, AnonKey]]]:
    """Per candidate x, [(num, den, key)] with num/den = 1 - v(key, x), over
    x's unanimous profiles in ascending order."""
    view = v._scaled()
    keys, lots = list(view), list(view.values())
    return [[(lots[i][1] - lots[i][0][x], lots[i][1], keys[i]) for i in members]
            for x, members in enumerate(unanimous_profiles(v.m, v.n))]


def min_eps_strong_unanimity(v: RuleTable) -> AxiomReport:
    return _worst("strong-unanimity", ("profile", "x"), (
        (*gap, x) for x, gaps in enumerate(_unanimity_gaps(v)) for gap in gaps
    ))


def min_eps_weak_unanimity(v: RuleTable) -> AxiomReport:
    """Strong unanimity on the profiles whose voters all cast one ordering."""
    return _worst("weak-unanimity", ("profile", "x"), (
        (*gap, x) for x, gaps in enumerate(_unanimity_gaps(v))
        for gap in gaps if len(set(gap[2])) == 1
    ))


def min_eps_super_weak_unanimity(v: RuleTable) -> AxiomReport:
    def smallest():
        for x, gaps in enumerate(_unanimity_gaps(v)):
            nums, dens, keys = zip(*gaps)
            # the gaps come in ascending key order, so the first minimum is
            # the minimum by (value, key)
            lo, _ = _extremes(nums, dens, range(len(keys)))
            yield nums[lo], dens[lo], keys[lo], x

    return _worst("super-weak-unanimity", ("profile", "x"), smallest())


# -- Swap-based deviation meters -------------------------------------------------


def responsiveness_deviation(v: RuleTable) -> AxiomReport:
    """How much an adjacent swap can move a bystander candidate's probability."""
    view = v._scaled()
    keys, lots = list(view), list(view.values())

    def gaps():
        # Only the swaps whose first largest bystander gap beats every earlier
        # one: the same first strictly largest item as one item per bystander.
        best_num, best_den = 0, 1
        for i, i2, r, p, zs in responsive_pairs(v.m, v.n):
            a, da = lots[i]
            b, db = lots[i2]
            gap = 0
            for z in zs:
                diff = abs(b[z] * da - a[z] * db)
                if diff > gap:
                    gap, worst = diff, z
            if gap * best_den > best_num * da * db:
                best_num, best_den = gap, da * db
                yield gap, best_den, keys[i], keys[i2], r, p, worst

    fields = ("profile", "swapped_profile", "acting_rank", "pos", "z")
    return _worst("responsiveness", fields, gaps())


def isolation_deviation(v: RuleTable) -> AxiomReport:
    """Spread of the raised candidate's probability change across matched contexts."""
    contexts, at, _ = profile_walk(v.m, v.n)
    lots = list(v._scaled().values())
    # columns[r] = (nums, dens): the lottery of context k completed by a voter
    # of rank r is nums[x][k] / dens[k] on each candidate x
    columns = []
    for r in range(len(at[0])):
        column = [lots[row[r]] for row in at]
        columns.append((list(zip(*map(itemgetter(0), column))), list(map(itemgetter(1), column))))
    # The swaps r -> r2 and r2 -> r share their denominators: computed at the
    # first of the two, read and dropped at the second.
    shared: dict[tuple[int, int], list[int]] = {}

    def spreads():
        for r, p, r2, y, groups in isolation_groups(v.m, v.n):
            (after, after_dens), (before, before_dens) = columns[r2], columns[r]
            # v(after, y) - v(before, y) = nums[k] / dens[k] in context k
            nums = list(map(sub, map(mul, after[y], before_dens), map(mul, before[y], after_dens)))
            dens = shared.pop((r2, r), None)
            if dens is None:
                dens = shared[r, r2] = list(map(mul, after_dens, before_dens))
            for c, members in groups.items():
                lo, hi = _extremes(nums, dens, members)
                yield *_spread(nums, dens, lo, hi), r, p, c, contexts[hi], contexts[lo]

    fields = ("acting_rank", "pos", "pair_count", "others", "others_2")
    return _worst("isolation", fields, spreads())


def _group_spreads(v: RuleTable, groups_of):
    """Per (x, groups) of groups_of, the list of (spread num, spread den, first
    argmax profile, first argmin profile, x) of v(., x) over each group of two
    or more profile indices, in group order."""
    view = v._scaled()
    keys = list(view)
    dens = [den for _, den in view.values()]
    for x, groups in groups_of:
        nums = [lot[x] for lot, _ in view.values()]  # one candidate's entries at a time
        found = []
        for members in groups:
            if len(members) >= 2:
                lo, hi = _extremes(nums, dens, members)
                found.append((*_spread(nums, dens, lo, hi), keys[hi], keys[lo], x))
        yield found


def tops_only_deviation(v: RuleTable) -> AxiomReport:
    """Spread of any candidate's probability across profiles with equal tops."""
    _, _, top_counts = profile_walk(v.m, v.n)
    groups: dict[tuple, list[int]] = defaultdict(list)
    for i, counts in enumerate(top_counts):
        groups[counts].append(i)
    per_x = list(_group_spreads(v, ((x, groups.values()) for x in range(v.m))))
    # the items go group by group, each group's candidates in order
    return _worst("tops-only", ("profile", "profile_2", "x"),
                  (item for items in zip(*per_x) for item in items))


def times_at_top_deviation(v: RuleTable) -> AxiomReport:
    """Spread of x's probability across profiles with the same x top-count."""
    _, _, top_counts = profile_walk(v.m, v.n)

    def groups(x: int):
        by_count: dict[int, list[int]] = defaultdict(list)
        for i, counts in enumerate(top_counts):
            by_count[counts[x]].append(i)
        return by_count.values()

    per_x = _group_spreads(v, ((x, groups(x)) for x in range(v.m)))
    return _worst("times-at-top", ("profile", "profile_2", "x"),
                  (item for items in per_x for item in items))


# -- Canonical-profile table -----------------------------------------------------


def canonical_profile(m: int, n: int, x: int, j: int) -> AnonKey:
    """j voters with x on top of 0 > 1 > ... > m-1, the rest with x moved to its bottom."""
    rest = tuple(c for c in range(m) if c != x)
    return canonicalize(((x,) + rest,) * j + (rest + (x,),) * (n - j))


def vprime_table(v: RuleTable) -> dict[tuple[int, int], Fraction]:
    """{(x, j): probability of x on the canonical profile with j top-x voters}."""
    if v.m < 2:
        raise DomainError("canonical-profile table needs m >= 2 (no bottom to move to)")
    return {(x, j): v.prob_at(canonical_profile(v.m, v.n, x, j), x)
            for x in range(v.m) for j in range(v.n + 1)}


def _vprime_scaled(v: RuleTable) -> tuple[dict[tuple[int, int], int], int]:
    """The canonical-profile table as integers over one denominator:
    ({(x, j): num}, den) with vprime_table(v)[(x, j)] == num / den."""
    values = vprime_table(v)
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


# -- Distance to random dictatorship ----------------------------------------------


def _profile_gaps(v: RuleTable, vden: int, rows) -> tuple[list[tuple], list[tuple]]:
    """The items of closeness and of table-vs-canonical, from one walk over the
    profiles.  The targets are t[x][j] / scale, with j the number of voters
    with x on top: random dictatorship's j / n for closeness, and the canonical
    table's rows[x][j] / vden.  For the lottery nums / den at key, an item is
    (gap, scale * den, key, x, j), where x is the first candidate with the
    largest gap = |nums[x] * scale - t[x][j] * den|.  A profile's gaps share a
    denominator, so ints compare them.  Only the items that beat every earlier
    one are kept, which gives the witness rule the same first strictly largest
    item as one item per profile."""
    _, _, top_counts = profile_walk(v.m, v.n)
    n = v.n
    close, canonical = [], []
    close_num = canonical_num = 0  # the largest gaps so far, over close_den and canonical_den
    close_den = canonical_den = 1
    for (key, (nums, den)), counts in zip(v._scaled().items(), top_counts):
        close_gap = canonical_gap = -1
        for x, num in enumerate(nums):
            j = counts[x]
            diff = abs(num * n - j * den)
            if diff > close_gap:
                close_gap, close_x = diff, x
            diff = abs(num * vden - rows[x][j] * den)
            if diff > canonical_gap:
                canonical_gap, canonical_x = diff, x
        if close_gap * close_den > close_num * n * den:
            close_num, close_den = close_gap, n * den
            close.append((close_gap, close_den, key, close_x, counts[close_x]))
        if canonical_gap * canonical_den > canonical_num * vden * den:
            canonical_num, canonical_den = canonical_gap, vden * den
            canonical.append((canonical_gap, canonical_den, key, canonical_x, counts[canonical_x]))
    return close, canonical


def distance_to_random_dictatorship(v: RuleTable) -> DistanceReport:
    """Random dictatorship elects x with probability (voters with x on top) / n;
    its table is read that way, never built."""
    if v.m < 2:  # one candidate: every table is random dictatorship
        return DistanceReport(*(AxiomReport(name, ZERO, None)
                                for name in ("distance", "table-vs-canonical", "canonical-vs-linear")))
    n = v.n
    vp, vden = _vprime_scaled(v)
    close, canonical = _profile_gaps(v, vden, [[vp[(x, j)] for j in range(n + 1)] for x in range(v.m)])
    return DistanceReport(
        _worst("distance", ("profile", "x"), close),  # the fields name (profile, x); zip drops the trailing j
        _worst("table-vs-canonical", ("profile", "x", "j"), canonical),
        _worst("canonical-vs-linear", ("x", "j"), (
            (abs(vp[(x, j)] * n - j * vden), vden * n, x, j)
            for x in range(v.m)
            for j in range(n + 1)
        )),
    )


# -- Witness replay ----------------------------------------------------------------


def replay_report(v: RuleTable, report: AxiomReport) -> Fraction:
    """Recompute a report's value from its witness alone.  A missing or
    out-of-range field raises DomainError, and so does a witness that names
    no violation: no dominated candidate, no unanimous profile, no one-voter
    adjacent swap, no equal top counts, and so on."""
    w = report.witness
    if w is None:
        return ZERO
    name, m, n = report.axiom, v.m, v.n
    orderings = enumerate_orderings(m)

    def tops(key: AnonKey) -> Counter:  # tops(key)[x]: the voters in key with x on top
        return Counter(orderings[r][0] for r in key)

    if name == "pareto":
        key, x = _profile(v, w, "profile"), _field(w, "dominator", m)
        y = _field(w, "dominated", m)
        _require(all(orderings[r].index(x) < orderings[r].index(y) for r in key),
                 "some voter does not rank 'dominator' above 'dominated'")
        return v.prob_at(key, y)
    if name in ("strong-unanimity", "weak-unanimity", "super-weak-unanimity"):
        key, x = _profile(v, w, "profile"), _field(w, "x", m)
        _require(all(orderings[r][0] == x for r in key), "'profile' is not unanimous for 'x'")
        _require(name != "weak-unanimity" or len(set(key)) == 1,
                 "'profile' is not one repeated ordering")
        return 1 - v.prob_at(key, x)
    if name == "responsiveness":
        key, swapped = _profile(v, w, "profile"), _profile(v, w, "swapped_profile")
        r, p = _field(w, "acting_rank", len(orderings)), _field(w, "pos", m - 1)
        z = _field(w, "z", m)
        # the multisets key + {r2} and swapped + {r} agree, with r != r2, exactly
        # when r is in key and swapped is key with one r recast as r2
        _require(sorted(key + (adjacent_swaps(m)[r][p],)) == sorted(swapped + (r,)),
                 "'swapped_profile' is not 'profile' with one 'acting_rank' voter swapped at 'pos'")
        _require(z not in orderings[r][p:p + 2], "'z' lies in the swapped pair")
        return abs(v.prob_at(swapped, z) - v.prob_at(key, z))
    if name == "isolation":
        return abs(_raise_delta(v, w, "others") - _raise_delta(v, w, "others_2"))
    if name in ("tops-only", "times-at-top"):
        key, key2, x = _profile(v, w, "profile"), _profile(v, w, "profile_2"), _field(w, "x", m)
        a, b = tops(key), tops(key2)
        _require(a == b if name == "tops-only" else a[x] == b[x],
                 "'profile' and 'profile_2' differ in top counts")
        return abs(v.prob_at(key, x) - v.prob_at(key2, x))
    if name == "candidate-anonymity":
        x, y, j = _field(w, "x", m), _field(w, "y", m), _field(w, "j", n + 1)
        vp = vprime_table(v)
        return abs(vp[(x, j)] - vp[(y, j)])
    if name == "sliding-window":
        x, length = _field(w, "x", m), _field(w, "l", n + 1)
        j, jp = _field(w, "j", n - length + 1), _field(w, "jp", n - length + 1)
        vp = vprime_table(v)
        return abs((vp[(x, j + length)] - vp[(x, j)]) - (vp[(x, jp + length)] - vp[(x, jp)]))
    if name == "distance":  # random dictatorship: the share of voters with x on top
        key, x = _profile(v, w, "profile"), _field(w, "x", m)
        return abs(v.prob_at(key, x) - Fraction(tops(key)[x], n))
    if name == "table-vs-canonical":
        key, x, j = _profile(v, w, "profile"), _field(w, "x", m), _field(w, "j", n + 1)
        _require(j == tops(key)[x], "'j' is not the number of voters with 'x' on top")
        return abs(v.prob_at(key, x) - vprime_table(v)[(x, j)])
    if name == "canonical-vs-linear":
        x, j = _field(w, "x", m), _field(w, "j", n + 1)
        return abs(vprime_table(v)[(x, j)] - Fraction(j, n))
    raise DomainError(f"unknown axiom report {name!r}")


def _require(holds: bool, problem: str) -> None:
    if not holds:
        raise DomainError(f"witness names no violation: {problem}")


def _field(w: dict, field: str, bound: int | None = None):
    """w[field]; given a bound, checked to be an int in range(bound)."""
    if field not in w:
        raise DomainError(f"witness has no field {field!r}")
    value = w[field]
    if bound is not None and not (type(value) is int and 0 <= value < bound):
        raise DomainError(f"witness field {field!r} = {value!r} is outside range({bound})")
    return value


def _profile(v: RuleTable, w: dict, field: str, voter: tuple[int, ...] = ()) -> AnonKey:
    """w[field], checked to be a profile of v; given a voter, the profile that
    the context w[field] makes with that voter added."""
    key = _field(w, field)
    if type(key) is tuple and all(type(r) is int for r in key):
        key = tuple(sorted(key + voter)) if voter else key
        if key in v._scaled():
            return key
    raise DomainError(f"witness field {field!r} = {w[field]!r} does not name a profile "
                      f"of the table{' with one more voter' if voter else ''}")


def _raise_delta(v: RuleTable, w: dict, others: str) -> Fraction:
    """v(after, y) - v(before, y) as the acting voter raises y = o[pos + 1] above
    x = o[pos], in a context w[others] with w["pair_count"] voters ranking x above y."""
    orderings = enumerate_orderings(v.m)
    r = _field(w, "acting_rank", len(orderings))
    p = _field(w, "pos", v.m - 1)
    x, y = orderings[r][p:p + 2]
    before = _profile(v, w, others, (r,))
    after = _profile(v, w, others, (adjacent_swaps(v.m)[r][p],))
    count = sum(1 for s in w[others] if orderings[s].index(x) < orderings[s].index(y))
    _require(count == _field(w, "pair_count", v.n),
             f"{others!r} does not have 'pair_count' voters ranking x above y")
    return v.prob_at(after, y) - v.prob_at(before, y)


# -- Dispatch by name --------------------------------------------------------------


def _meters() -> dict:
    """Axiom name -> meter, one meter per name of AXIOM_NAMES in its order;
    built per call, so wrapped meters are used."""
    return dict(zip(AXIOM_NAMES, (
        min_eps_pareto,
        min_eps_strong_unanimity,
        min_eps_weak_unanimity,
        min_eps_super_weak_unanimity,
        responsiveness_deviation,
        isolation_deviation,
        tops_only_deviation,
        times_at_top_deviation,
        candidate_anonymity_deviation,
        sliding_window_deviation,
    ), strict=True))


def run_axiom(v: RuleTable, name: str) -> AxiomReport:
    """Dispatch a single axiom checker by name."""
    meters = _meters()
    if name not in meters:
        raise DomainError(f"unknown axiom {name!r}; expected one of {', '.join(AXIOM_NAMES)}")
    return meters[name](v)
