"""Minimal-eps axiom checkers and deviation meters for rule tables.

Every checker returns the smallest eps for which its axiom holds, together
with a witness that replays to exactly that value.  Deviation meters return
0 exactly when the corresponding structural property (pairwise responsive,
pairwise isolated, tops-only, ...) holds.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import DomainError
from .prefs import (
    AnonKey,
    Ordering,
    adjacent_swaps,
    canonicalize,
    enumerate_orderings,
    enumerate_profiles,
)
from .rules import RuleTable, _tops, closeness_witness, random_dictatorship

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


def _replace_rank(key: AnonKey, old: int, new: int) -> AnonKey:
    lst = list(key)
    lst.remove(old)
    lst.append(new)
    return tuple(sorted(lst))


def _worst(axiom: str, fields: tuple[str, ...], scored) -> AxiomReport:
    """The witness rule shared by every meter.

    `scored` yields (value, *parts) in enumeration order.  The report carries
    the first strictly largest value, with its parts named by `fields`; when
    no value exceeds 0 it is eps 0 with no witness.
    """
    top = max(scored, key=itemgetter(0), default=None)
    if top is None or top[0] <= 0:
        return AxiomReport(axiom, ZERO, None)
    return AxiomReport(axiom, top[0], dict(zip(fields, top[1:])))


# -- Linear axioms: one generator each, shared with polytope.build_polytope ------


def unanimous_profiles(m: int, n: int, x: int):
    """Anonymous profiles in which every voter ranks x first (v(key, x) >= 1 - eps)."""
    ranks = [r for r, o in enumerate(enumerate_orderings(m)) if o[0] == x]
    return itertools.combinations_with_replacement(ranks, n)


def responsive_pairs(m: int, n: int):
    """Yields (key, key2, r, p, z): a voter with ordering rank r in key swaps
    positions p and p+1, giving key2; bystander z keeps v(key, z) = v(key2, z).
    Each triple comes once, from the side with key < key2.
    """
    orderings = enumerate_orderings(m)
    swaps = adjacent_swaps(m)
    for key in enumerate_profiles(m, n, anonymous=True):
        for r in set(key):
            o = orderings[r]
            for p, r2 in enumerate(swaps[r]):
                key2 = _replace_rank(key, r, r2)
                if key2 < key:  # the mirror swap already yielded it from key2
                    continue
                for z in range(m):
                    if z != o[p] and z != o[p + 1]:
                        yield key, key2, r, p, z


def isolation_groups(m: int, n: int):
    """Yields (r, p, c, [(others, before, after), ...]): the voter with ordering
    rank r raises y = o[p+1] above x = o[p]; the other voters are grouped by c,
    how many of them rank x above y; v(after, y) - v(before, y) is constant
    within a group.
    """
    orderings = enumerate_orderings(m)
    swaps = adjacent_swaps(m)
    contexts = list(itertools.combinations_with_replacement(range(len(orderings)), n - 1))
    for r, o in enumerate(orderings):
        for p, r2 in enumerate(swaps[r]):
            x, y = o[p], o[p + 1]
            x_above_y = [q.index(x) < q.index(y) for q in orderings]
            groups: dict[int, list] = defaultdict(list)
            for others in contexts:
                c = sum(x_above_y[s] for s in others)
                before = tuple(sorted(others + (r,)))
                after = tuple(sorted(others + (r2,)))
                groups[c].append((others, before, after))
            for c, members in groups.items():
                yield r, p, c, members


# -- Efficiency and unanimity ---------------------------------------------------


def min_eps_pareto(v: RuleTable) -> AxiomReport:
    """Largest probability a unanimously dominated candidate ever receives."""
    pos = [{c: i for i, c in enumerate(o)} for o in enumerate_orderings(v.m)]
    return _worst("pareto", ("profile", "dominator", "dominated"), (
        (v.prob_at(key, y), key, x, y)
        for key in v.keys()
        for x in range(v.m)
        for y in range(v.m)
        if x != y and all(pos[r][x] < pos[r][y] for r in key)
    ))


def min_eps_strong_unanimity(v: RuleTable) -> AxiomReport:
    return _worst("strong-unanimity", ("profile", "x"), (
        (1 - v.prob_at(key, x), key, x)
        for x in range(v.m)
        for key in unanimous_profiles(v.m, v.n, x)
    ))


def min_eps_weak_unanimity(v: RuleTable) -> AxiomReport:
    return _worst("weak-unanimity", ("profile", "x"), (
        (1 - v.prob_at((r,) * v.n, o[0]), (r,) * v.n, o[0])
        for r, o in enumerate(enumerate_orderings(v.m))
    ))


def min_eps_super_weak_unanimity(v: RuleTable) -> AxiomReport:
    return _worst("super-weak-unanimity", ("profile", "x"), (
        (*min((1 - v.prob_at(key, x), key) for key in unanimous_profiles(v.m, v.n, x)), x)
        for x in range(v.m)
    ))


# -- Swap-based deviation meters -------------------------------------------------


def responsiveness_deviation(v: RuleTable) -> AxiomReport:
    """How much an adjacent swap can move a bystander candidate's probability."""
    fields = ("profile", "swapped_profile", "acting_rank", "pos", "z")
    return _worst("responsiveness", fields, (
        (abs(v.prob_at(key2, z) - v.prob_at(key, z)), key, key2, r, p, z)
        for key, key2, r, p, z in responsive_pairs(v.m, v.n)
    ))


def isolation_deviation(v: RuleTable) -> AxiomReport:
    """Spread of the raised candidate's probability change across matched contexts."""
    orderings = enumerate_orderings(v.m)

    def spreads():
        for r, p, c, group in isolation_groups(v.m, v.n):
            y = orderings[r][p + 1]
            members = [(v.prob_at(after, y) - v.prob_at(before, y), others)
                       for others, before, after in group]
            lo = min(members, key=itemgetter(0))
            hi = max(members, key=itemgetter(0))
            yield hi[0] - lo[0], r, p, c, hi[1], lo[1]

    fields = ("acting_rank", "pos", "pair_count", "others", "others_2")
    return _worst("isolation", fields, spreads())


def _group_spreads(v: RuleTable, groups):
    """(spread, argmax profile, argmin profile, x) of v(., x) over each (profiles, x)."""
    for members, x in groups:
        if len(members) >= 2:
            lo = min(members, key=lambda k: v.prob_at(k, x))
            hi = max(members, key=lambda k: v.prob_at(k, x))
            yield v.prob_at(hi, x) - v.prob_at(lo, x), hi, lo, x


def tops_only_deviation(v: RuleTable) -> AxiomReport:
    """Spread of any candidate's probability across profiles with equal tops."""
    tops = _tops(v.m)
    groups: dict[tuple, list] = defaultdict(list)
    for key in v.keys():
        cnt = Counter(tops[r] for r in key)
        groups[tuple(cnt.get(x, 0) for x in range(v.m))].append(key)
    pairs = ((members, x) for members in groups.values() for x in range(v.m))
    return _worst("tops-only", ("profile", "profile_2", "x"), _group_spreads(v, pairs))


def times_at_top_deviation(v: RuleTable) -> AxiomReport:
    """Spread of x's probability across profiles with the same x top-count."""
    tops = _tops(v.m)
    groups: dict[tuple, list] = defaultdict(list)
    for x in range(v.m):
        for key in v.keys():
            groups[(x, sum(1 for r in key if tops[r] == x))].append(key)
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


def candidate_anonymity_deviation(v: RuleTable) -> AxiomReport:
    """Spread of the canonical-profile table across candidates at fixed top count."""
    vp = vprime_table(v)
    return _worst("candidate-anonymity", ("x", "y", "j"), (
        (abs(vp[(x, j)] - vp[(y, j)]), x, y, j)
        for j in range(v.n + 1)
        for x in range(v.m)
        for y in range(x + 1, v.m)
    ))


def sliding_window_deviation(v: RuleTable) -> AxiomReport:
    """How much a canonical-table increment of width l depends on its start point."""
    vp = vprime_table(v)
    return _worst("sliding-window", ("x", "j", "jp", "l"), (
        (abs(vp[(x, j + width)] - vp[(x, j)] - vp[(x, jp + width)] + vp[(x, jp)]), x, j, jp, width)
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
                yield hi[0] - lo[0], x, j, hi[1], lo[1]

    report = _worst("vprime-sweep", ("x", "j", "base", "base_2"), spreads())
    return report.eps, report.witness


# -- Distance to random dictatorship ----------------------------------------------


def distance_to_random_dictatorship(v: RuleTable) -> DistanceReport:
    eps, key, x = closeness_witness(v, random_dictatorship(v.m, v.n))
    close = AxiomReport("distance", eps, None if key is None else {"profile": key, "x": x})
    if v.m < 2:
        return DistanceReport(close, AxiomReport("table-vs-canonical", ZERO, None),
                              AxiomReport("canonical-vs-linear", ZERO, None))
    tops = _tops(v.m)
    vp = vprime_table(v)

    def table_gaps():
        for key in v.keys():
            for x in range(v.m):
                j = sum(1 for r in key if tops[r] == x)
                yield abs(v.prob_at(key, x) - vp[(x, j)]), key, x, j

    return DistanceReport(
        close,
        _worst("table-vs-canonical", ("profile", "x", "j"), table_gaps()),
        _worst("canonical-vs-linear", ("x", "j"), (
            (abs(vp[(x, j)] - Fraction(j, v.n)), x, j)
            for x in range(v.m)
            for j in range(v.n + 1)
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
    if name == "distance":
        dict_rule = random_dictatorship(v.m, v.n)
        return abs(v.prob_at(w["profile"], w["x"]) - dict_rule.prob_at(w["profile"], w["x"]))
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
