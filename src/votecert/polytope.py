"""Linear relaxation of the responsive/isolated/unanimous rules, and the
exact worst-case distance from that polytope to random dictatorship.

Variables are the lottery entries of an anonymous rule table, indexed by
(anonymous profile, candidate).  Pairwise responsiveness and pairwise
isolation are equality constraints; eps-strong unanimity gives a lower
bound on one variable per unanimous profile (equalities at eps = 0);
lottery normalization and nonnegativity are always present.  The rows are
emitted from the same generators in `axioms` that drive the deviation
meters, as profile indices, so each axiom is enumerated in one place.

`max_distance` maximizes +/-(v(x, P) - j/n) over the polytope, one linear
objective per (profile, candidate, sign).  Equalities are folded away by
exact elimination, and the parametrization is centered on random
dictatorship x0, so the polytope reads x = x0 - R t >= lb over a free t:
one row R_v t <= x0_v - lb_v per variable (repeats merged), whose
all-slack basis at t = 0 is feasible.  The rows of R are the
elimination's sparse pivot rows.  Objectives equivalent under candidate
relabeling are solved once, and every optimum is checked against its dual.
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
    scaled_system,
)
from .prefs import AnonKey, enumerate_orderings, enumerate_profiles, profile_walk
from .rules import RuleTable, checked_unit

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
    _, at, top_counts = profile_walk(m, n)
    nvars = len(top_counts) * m

    rows: list[Constraint] = []
    seen: set[Constraint] = set()

    def add(coeffs: dict[int, Fraction], rel: str, rhs: Fraction):
        terms = tuple(sorted((j, a) for j, a in coeffs.items() if a))
        row = Constraint(terms, nvars, rel, rhs)
        if terms and row not in seen:
            seen.add(row)
            rows.append(row)

    for k in range(len(top_counts)):
        add({_var(k, x, m): ONE for x in range(m)}, REL_EQ, ONE)

    if "responsive" in parts:
        for i, i2, _r, _p, zs in responsive_pairs(m, n):
            for z in zs:
                add({_var(i, z, m): ONE, _var(i2, z, m): -ONE}, REL_EQ, ZERO)

    if "isolated" in parts:
        for r, _p, r2, y, groups in isolation_groups(m, n):
            for members in groups.values():
                for k1, k2 in zip(members, members[1:]):
                    coeffs: dict[int, Fraction] = defaultdict(lambda: ZERO)
                    for k, a in ((k1, ONE), (k2, -ONE)):  # a * (v(after, y) - v(before, y))
                        coeffs[_var(at[k][r2], y, m)] += a
                        coeffs[_var(at[k][r], y, m)] -= a
                    add(coeffs, REL_EQ, ZERO)

    if "unanimity" in parts:
        for x, members in enumerate(unanimous_profiles(m, n)):
            for i in members:
                if eps == 0:
                    add({_var(i, x, m): ONE}, REL_EQ, ONE)
                    for y in range(m):
                        if y != x:
                            add({_var(i, y, m): ONE}, REL_EQ, ZERO)
                else:
                    add({_var(i, x, m): ONE}, REL_GE, 1 - eps)

    return LinearProgram(n_vars=nvars, objective=tuple([ZERO] * nvars), constraints=tuple(rows))


# -- Candidate-relabeling symmetry ----------------------------------------------


def _relabel_maps(m: int, keys, key_index):
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
    keys = list(enumerate_profiles(m, n))
    key_index = {k: i for i, k in enumerate(keys)}
    nvars = lp.n_vars

    # Random dictatorship elects x with probability (voters with x on top) / n;
    # variable _var(k, x, m) = k*m + x, so x0 lists the top counts in order.
    _, _, top_counts = profile_walk(m, n)
    x0 = [Fraction(c, n) for counts in top_counts for c in counts]

    # Every inequality of the polytope is a lower bound on one variable, and
    # LinearProgram means x >= 0, so they read into one vector of bounds.
    eqs = []
    lower = [ZERO] * nvars
    for c in lp.constraints:
        if c.rel == REL_EQ:
            eqs.append((dict(c.terms), c.rhs))
        elif c.rel == REL_GE and len(c.terms) == 1 and c.terms[0][1] == 1:
            j = c.terms[0][0]
            lower[j] = max(lower[j], c.rhs)
        else:
            raise InternalError(f"not a lower bound on one variable: {c.terms} {c.rel} {c.rhs}")

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

    # Affine parametrization x = x0 - R t with t free; R[v] is row v of R, sparse,
    # read straight from the pivot row x_p = rhs - sum(a * x_f).
    R = [
        {free_pos[v]: -ONE} if v in free_pos else {free_pos[f]: a for f, a in pivots[v][0].items()}
        for v in range(nvars)
    ]

    # x_v >= lower_v reads R_v . t <= x0_v - lower_v, whose slack is >= 0 as
    # t = 0 is the dictatorship.  Rows are keyed by their sorted terms; a
    # repeated row keeps its first position and its smallest slack.
    gmap: dict[tuple[tuple[int, Fraction], ...], Fraction] = {}
    for v in range(nvars):
        slack = x0[v] - lower[v]
        if slack < 0:
            raise InternalError(f"random dictatorship violates the lower bound on variable {v}")
        key = tuple(sorted(R[v].items()))
        if key and (key not in gmap or slack < gmap[key]):
            gmap[key] = slack

    G = [dict(key) for key in gmap]
    h = list(gmap.values())
    simplex = SlackBasisSimplex(G, h, d)
    system = scaled_system(G, h)  # the dual check's own integer copy of G and h

    # An orbit is met first at its minimum, its representative, so reps is
    # built in ascending order, which fixes the solve order and the witness.
    reps: dict[tuple[int, int], set[tuple[int, int]]] = {}
    maps = _relabel_maps(m, keys, key_index)
    seen_pairs = set()
    for k in range(len(keys)):
        for x in range(m):
            if (k, x) not in seen_pairs:
                reps[k, x] = {(key_map[k], perm[x]) for perm, key_map in maps}
                seen_pairs |= reps[k, x]

    solved = []  # (value, rep, sign, t) in solve order
    per_objective = []  # one value per orbit member, sorted below by its unique key
    for rep, orbit in reps.items():
        k, x = rep
        for sign in (1, -1):
            obj = [-sign * R[_var(k, x, m)].get(i, ZERO) for i in range(d)]
            value, t = simplex.solve(obj)
            if not dual_certifies(system, obj, value, simplex.dual):
                raise InternalError(f"the simplex dual does not certify the optimum {value}")
            solved.append((value, rep, sign, t))
            per_objective += [ObjectiveValue(keys[ok], ox, sign, value) for ok, ox in orbit]
    per_objective.sort(key=lambda o: (o.profile, o.candidate, -o.sign))

    # max keeps the first of equal optima, so the witness follows solve order.
    d_star, (bk, bx), bsign, bt = max(solved, key=lambda s: s[0])
    witness = _table_from_t(m, n, keys, x0, R, bt)

    uniq = []
    if keep_witnesses:
        # t fixes the table and back, as R's row for free column i is -e_i.
        distinct = dict.fromkeys(tuple(t) for *_, t in solved)
        uniq = [_table_from_t(m, n, keys, x0, R, t) for t in distinct]

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


def _table_from_t(m, n, keys, x0, R, t) -> RuleTable:
    x = [x0[v] - sum((a * t[i] for i, a in row.items()), ZERO) for v, row in enumerate(R)]
    return RuleTable(m, n, {key: tuple(x[k * m:(k + 1) * m]) for k, key in enumerate(keys)})


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
    if m < 1:
        raise DomainError(f"need at least one candidate, got m={m}")
    if n < 1:
        raise DomainError(f"need at least one voter, got n={n}")
    if m < 3:
        return {
            "status": "SKIPPED",
            "reason": "hypothesis needs at least three candidates",
            "m": m,
            "n": n,
            "eps": eps,
        }
    constant = traced_constant(m)
    d_star = max_distance(m, n, eps).d_star
    bound = constant.value * eps
    status = "PASS" if d_star <= bound else "FAIL"
    return {
        "status": status,
        "m": m,
        "n": n,
        "eps": eps,
        "d_star": d_star,
        "constant": constant.value,
        "bound": bound,
        "links": constant.links,
    }
