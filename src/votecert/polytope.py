"""Linear relaxation of the responsive/isolated/unanimous rules, and the
exact worst-case distance from that polytope to random dictatorship.

Variables are the lottery entries of an anonymous rule table, indexed by
(anonymous profile, candidate).  Pairwise responsiveness and pairwise
isolation are equality constraints; eps-strong unanimity gives inequality
constraints; lottery normalization and nonnegativity are always present.
The rows are emitted from the same generators in `axioms` that drive the
deviation meters, so each axiom is enumerated in one place.

`max_distance` maximizes +/-(v(x, P) - j/n) over the polytope, one linear
objective per (profile, candidate, sign).  Equalities are folded away by
exact elimination first, the parametrization is shifted so that random
dictatorship sits at the origin (making the all-slack basis feasible), and
objectives equivalent under candidate relabeling are solved once.  The
t-space rows stay sparse from the elimination's pivot rows to the simplex,
which solves over a free t.  Every optimum is checked against its dual.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .axioms import isolation_groups, responsive_pairs, unanimous_profiles
from .errors import DomainError, InternalError
from .lp import (
    Constraint,
    LinearProgram,
    REL_EQ,
    REL_GE,
    SlackBasisSimplex,
    dual_certifies,
    reduce_equalities,
)
from .prefs import AnonKey, enumerate_orderings, enumerate_profiles
from .rules import RuleTable, checked_unit, random_dictatorship

ZERO = Fraction(0)
ONE = Fraction(1)

ALL_PARTS = frozenset({"responsive", "isolated", "unanimity"})
_PART_ALIASES = {"strong-unanimity": "unanimity"}


def normalize_parts(parts) -> frozenset[str]:
    out = set()
    for p in parts:
        p = _PART_ALIASES.get(p, p)
        if p not in ALL_PARTS:
            raise DomainError(f"unknown polytope part {p!r}; expected subset of {sorted(ALL_PARTS)}")
        out.add(p)
    return frozenset(out)


def _var(pidx: int, x: int, m: int) -> int:
    return pidx * m + x


def build_polytope(m: int, n: int, eps, parts=ALL_PARTS) -> LinearProgram:
    """Constraint system over rule-table variables; the objective is zero.

    At eps = 0 the unanimity constraints are emitted as equalities pinning
    the full lottery (mass 1 on the common top, 0 elsewhere), which is the
    same feasible set once normalization and nonnegativity are in play.
    """
    if m < 2:
        raise DomainError(f"polytope construction needs m >= 2, got m={m}")
    eps = checked_unit(eps, "eps")
    parts = normalize_parts(parts)
    keys = list(enumerate_profiles(m, n, anonymous=True))
    key_index = {k: i for i, k in enumerate(keys)}
    nvars = len(keys) * m

    rows: list[Constraint] = []
    seen: set[Constraint] = set()

    def add(coeffs: dict[int, Fraction], rel: str, rhs: Fraction):
        terms = tuple(sorted((j, a) for j, a in coeffs.items() if a))
        row = Constraint(terms, nvars, rel, rhs)
        if terms and row not in seen:
            seen.add(row)
            rows.append(row)

    def var(key: AnonKey, x: int) -> int:
        return _var(key_index[key], x, m)

    for k in range(len(keys)):
        add({_var(k, x, m): ONE for x in range(m)}, REL_EQ, ONE)

    if "responsive" in parts:
        for key, key2, _r, _p, z in responsive_pairs(m, n):
            lo, hi = sorted((var(key, z), var(key2, z)))
            add({lo: ONE, hi: -ONE}, REL_EQ, ZERO)

    if "isolated" in parts:
        orderings = enumerate_orderings(m)
        for r, p, _c, members in isolation_groups(m, n):
            y = orderings[r][p + 1]
            for (_, b1, a1), (_, b2, a2) in zip(members, members[1:]):
                coeffs: dict[int, Fraction] = defaultdict(lambda: ZERO)
                for key, a in ((a1, ONE), (b1, -ONE), (a2, -ONE), (b2, ONE)):
                    coeffs[var(key, y)] += a
                add(coeffs, REL_EQ, ZERO)

    if "unanimity" in parts:
        for x in range(m):
            for key in unanimous_profiles(m, n, x):
                if eps == 0:
                    add({var(key, x): ONE}, REL_EQ, ONE)
                    for y in range(m):
                        if y != x:
                            add({var(key, y): ONE}, REL_EQ, ZERO)
                else:
                    add({var(key, x): ONE}, REL_GE, 1 - eps)

    return LinearProgram(n_vars=nvars, objective=tuple([ZERO] * nvars), constraints=tuple(rows))


# -- Candidate-relabeling symmetry ----------------------------------------------


def _relabel_maps(m: int, n: int, keys, key_index):
    """For each candidate permutation, the induced map on (profile, candidate)."""
    orderings = enumerate_orderings(m)
    rank = {o: i for i, o in enumerate(orderings)}
    maps = []
    for perm in itertools.permutations(range(m)):
        rank_map = [rank[tuple(perm[c] for c in o)] for o in orderings]
        key_map = [key_index[tuple(sorted(rank_map[r] for r in key))] for key in keys]
        maps.append((perm, key_map))
    return maps


@dataclass(frozen=True)
class ObjectiveValue:
    profile: AnonKey
    candidate: int
    sign: int  # +1 maximizes v - j/n, -1 maximizes j/n - v
    value: Fraction


@dataclass(frozen=True)
class MaxDistanceResult:
    d_star: Fraction
    witness: RuleTable
    witness_profile: AnonKey
    witness_candidate: int
    witness_sign: int
    per_objective: tuple[ObjectiveValue, ...]
    free_dim: int
    n_solves: int
    all_witnesses: tuple[RuleTable, ...] = ()


def max_distance(m: int, n: int, eps, parts=ALL_PARTS, keep_witnesses: bool = False) -> MaxDistanceResult:
    """Exact worst case of |v(x, P) - j/n| over the polytope.

    j is the number of voters ranking x first in P, so j/n is the random
    dictatorship probability; the distance of the maximizing vertex to
    random dictatorship equals the returned optimum exactly.
    """
    eps = Fraction(eps)
    lp = build_polytope(m, n, eps, parts)
    keys = list(enumerate_profiles(m, n, anonymous=True))
    key_index = {k: i for i, k in enumerate(keys)}
    nvars = lp.n_vars

    dict_rule = random_dictatorship(m, n)
    x0 = [ZERO] * nvars
    for k, key in enumerate(keys):
        lot = dict_rule.lottery_at(key)
        for x in range(m):
            x0[_var(k, x, m)] = lot[x]

    eqs = [(dict(c.terms), c.rhs) for c in lp.constraints if c.rel == REL_EQ]
    ineqs = [c for c in lp.constraints if c.rel != REL_EQ]

    for row, rhs in eqs:  # random dictatorship must satisfy every equality
        got = sum((a * x0[j] for j, a in row.items()), ZERO)
        if got != rhs:
            raise InternalError(f"random dictatorship violates an equality row: {got} != {rhs}")

    reduced = reduce_equalities(eqs, nvars)
    if reduced is None:
        raise InternalError("equality system inconsistent despite a feasible point")
    pivots, free = reduced
    d = len(free)
    free_pos = {f: i for i, f in enumerate(free)}

    # Affine parametrization x = x0 + N t with t free; N[v] is row v of N, sparse.
    N = [
        {free_pos[v]: ONE} if v in free_pos else {free_pos[f]: -a for f, a in pivots[v][0].items()}
        for v in range(nvars)
    ]

    # Inequalities in t-space as G t <= h with h >= 0 (t = 0 is the dictatorship),
    # each row keyed by its sorted nonzero (position, coefficient) terms.
    gmap: dict[tuple[tuple[int, Fraction], ...], Fraction] = {}

    def add_row(coeffs: dict[int, Fraction], slack: Fraction):
        if slack < 0:
            raise InternalError("random dictatorship violates an inequality row")
        key = tuple(sorted((i, a) for i, a in coeffs.items() if a))
        if key and (key not in gmap or slack < gmap[key]):
            gmap[key] = slack

    for var in range(nvars):  # x_var >= 0  ->  -N_var . t <= x0_var
        add_row({i: -a for i, a in N[var].items()}, x0[var])
    for c in ineqs:
        coeffs: dict[int, Fraction] = defaultdict(Fraction)
        const = ZERO
        for j, a in c.terms:
            const += a * x0[j]
            for i, b in N[j].items():
                coeffs[i] += a * b
        sign = -1 if c.rel == REL_GE else 1  # a.x >= rhs  ->  -(a.N) t <= a.x0 - rhs
        add_row({i: sign * a for i, a in coeffs.items()}, sign * (c.rhs - const))

    G = [dict(key) for key in gmap]
    h = list(gmap.values())
    simplex = SlackBasisSimplex(G, h, d)

    reps: dict[tuple[int, int], list[tuple[int, int]]] = {}
    maps = _relabel_maps(m, n, keys, key_index)
    seen_pairs = set()
    for k in range(len(keys)):
        for x in range(m):
            if (k, x) in seen_pairs:
                continue
            orbit = {(key_map[k], perm[x]) for perm, key_map in maps}
            rep = min(orbit)
            reps[rep] = sorted(orbit)
            seen_pairs |= orbit

    solved = []  # (value, rep, sign, t) in solve order
    for rep in sorted(reps):
        k, x = rep
        for sign in (1, -1):
            obj = [sign * N[_var(k, x, m)].get(i, ZERO) for i in range(d)]
            value, t = simplex.solve(obj)
            if not dual_certifies(G, h, obj, value, simplex.dual):
                raise InternalError(f"the simplex dual does not certify the optimum {value}")
            solved.append((value, rep, sign, t))
    rep_values = {(rep, sign): value for value, rep, sign, _t in solved}

    # max keeps the first of equal optima, so the witness follows solve order.
    d_star, (bk, bx), bsign, bt = max(solved, key=lambda s: s[0])
    witness = _table_from_t(m, n, keys, x0, N, bt)

    per_objective = []
    for rep, orbit in reps.items():
        for sign in (1, -1):
            value = rep_values[(rep, sign)]
            for k, x in orbit:
                per_objective.append(ObjectiveValue(keys[k], x, sign, value))
    per_objective.sort(key=lambda o: (o.profile, o.candidate, -o.sign))

    uniq = []
    if keep_witnesses:
        # t fixes the table and back, as N has a unit row for each free column.
        distinct = dict.fromkeys(tuple(t) for *_, t in solved)
        uniq = [_table_from_t(m, n, keys, x0, N, t) for t in distinct]

    return MaxDistanceResult(
        d_star=d_star,
        witness=witness,
        witness_profile=keys[bk],
        witness_candidate=bx,
        witness_sign=bsign,
        per_objective=tuple(per_objective),
        free_dim=d,
        n_solves=len(solved),
        all_witnesses=tuple(uniq),
    )


def _table_from_t(m, n, keys, x0, N, t) -> RuleTable:
    table = {}
    for k, key in enumerate(keys):
        lot = []
        for x in range(m):
            var = _var(k, x, m)
            lot.append(x0[var] + sum((a * t[i] for i, a in N[var].items()), ZERO))
        table[key] = tuple(lot)
    return RuleTable(m, n, table)


# -- The traced distance constant ------------------------------------------------


@dataclass(frozen=True)
class TracedConstant:
    value: Fraction
    links: tuple[str, ...]


def traced_constant(m: int) -> TracedConstant:
    """Explicit multiple of eps bounding the polytope's distance to random
    dictatorship, assembled link by link with exact bookkeeping.

    Needs m >= 3: the candidate-symmetry and window-shift steps each park a
    third candidate on top while two others trade places.
    """
    if m < 3:
        raise DomainError(f"the constant chain needs m >= 3 candidates, got m={m}")
    k_tops = m  # profiles with equal top vectors differ by at most m*eps
    k_count = 2 * k_tops  # equal top-count profiles: route both through a canonical one
    k_canon = k_count  # table entry vs canonical-profile entry (j tops of x)
    k_sym = 14 * m  # canonical entries across candidates at fixed top count
    k_window = 64 * m  # increment of width l vs the same width elsewhere
    # Doubling argument on r_j = |v'(x, j) - j/n| at the maximizing j:
    #   j <= n/2:        r_2j >= 2 r_j - (k_window + 1) eps, so r_j <= (k_window + 1) eps
    #   j > n/2, j'=n-j: r_j' >= r_j - (k_window + 2) eps, then double j',
    #                    so r_j <= (3 k_window + 5) eps
    #   j in {0, n}:     r_j <= eps directly from eps-strong unanimity
    k_linear = 3 * k_window + 5
    value = Fraction(k_canon + k_linear)
    links = (
        f"tops-only window: m*eps = {k_tops}*eps",
        f"equal-top-count window: 2m*eps = {k_count}*eps",
        f"table vs canonical profile: 2m*eps = {k_canon}*eps",
        f"candidate symmetry of canonical table: 14m*eps = {k_sym}*eps",
        f"window-shift bound: 64m*eps = {k_window}*eps",
        f"doubling at j <= n/2: (64m + 1)*eps = {k_window + 1}*eps",
        f"reflection plus doubling at j > n/2: (3*64m + 5)*eps = {k_linear}*eps",
        f"assembly: (2m + 192m + 5)*eps = {value}*eps",
    )
    return TracedConstant(value, links)


def verify_theorem(m: int, n: int, eps) -> dict:
    """PASS iff the polytope's worst-case distance is at most C(m)*eps."""
    eps = checked_unit(eps, "eps")
    if m < 3:
        return {
            "status": "SKIPPED",
            "reason": "hypothesis needs at least three candidates",
            "m": m,
            "n": n,
            "eps": eps,
        }
    constant = traced_constant(m)
    result = max_distance(m, n, eps)
    bound = constant.value * eps
    status = "PASS" if result.d_star <= bound else "FAIL"
    return {
        "status": status,
        "m": m,
        "n": n,
        "eps": eps,
        "d_star": result.d_star,
        "constant": constant.value,
        "bound": bound,
        "links": constant.links,
        "result": result,
    }
