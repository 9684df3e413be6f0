"""Strategy-proofness with respect to all i.i.d. beliefs, decided exactly.

For a manipulation instance (truthful ordering P, misreport P', upper-set
size k), the expected upper-set mass difference between reporting P and P'
is a homogeneous polynomial of degree n-1 in the m! belief weights.  The
rule is strategy-proof w.r.t. every i.i.d. belief exactly when all of these
polynomials are nonnegative on the belief simplex: a consistent utility is
a positive combination of upper-set indicators plus a constant, and the
constant cancels between the two reports.

A monomial is keyed by the sorted tuple of its variables, each repeated by
its exponent, so the opponents' multiset is its own key.  The opponents'
monomial carries the multinomial times their upper-set gap at that fixed
profile, so an instance passes the degree-0 certificate exactly when none
of its gaps is negative, and classic strategy-proofness (dominance at every
profile of the others) is that certificate on every instance.  Both checks
read one degree-0 stage, `_open_pairs`, decided in integers: the classic
check refutes at its first open instance, and the i.i.d. check builds
dominance polynomials for the open instances alone.

An open instance is scanned at point masses and pairwise midpoints, read
off the terms grouped by support, then climbs Polya's ladder: each rung is
the last one times the coordinate sum, built only while its degree has at
most the profile cap of monomials, and passes when no coefficient is
negative.  An instance the ladder leaves open is signed on its top rung's
grid, at the integer weights of each negative monomial (f is homogeneous);
only a hit becomes a Fraction belief.  A rung's coefficients approach f's
values on its grid (Polya), so a high enough rung decides every f but an
f >= 0 with a zero.

`_opponent_gaps` reads the gaps from the rule table's integer-scaled
lotteries, through `prefs.profile_walk` by index: at a fixed profile they
are integers over one denominator, and a Fraction is built only for a
polynomial coefficient or a refuting witness.  `replay_gain` computes in
Fractions read from the same view and sorts its own profiles.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import SPConfig
from .errors import CapExceededError, DomainError
from .prefs import AnonKey, Ordering, enumerate_orderings, max_profiles, ordering_rank, profile_walk
from .rules import RuleTable, is_consistent_utility, upper_set_utility

ZERO = Fraction(0)
ONE = Fraction(1)

Belief = tuple[Fraction, ...]

STATUS_CERTIFIED = "certified"
STATUS_REFUTED = "refuted"
STATUS_UNKNOWN = "unknown"


def validate_belief(nvars: int, weights) -> Belief:
    phi = tuple(Fraction(w) for w in weights)
    if len(phi) != nvars:
        raise DomainError(f"belief has {len(phi)} weights, expected {nvars}")
    if any(w < 0 for w in phi) or sum(phi) != 1:
        raise DomainError("belief weights must be nonnegative and sum to 1")
    return phi


@dataclass(frozen=True)
class SimplexPolynomial:
    """Sparse homogeneous polynomial over the belief variables; a monomial is
    keyed by its sorted variables, with repeats: x_0^2 x_3 is (0, 0, 3)."""

    nvars: int
    degree: int
    terms: dict[tuple[int, ...], Fraction]

    def evaluate(self, point: Belief) -> Fraction:
        if len(point) != self.nvars:
            raise DomainError(f"point has {len(point)} coordinates, expected {self.nvars}")
        return sum((c * math.prod(point[i] for i in mono) for mono, c in self.terms.items()), ZERO)

    def times_coordinate_sum(self) -> "SimplexPolynomial":
        out: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in self.terms.items():
            for i in range(self.nvars):
                bumped = tuple(sorted(mono + (i,)))
                out[bumped] = out.get(bumped, ZERO) + coeff
        out = {e: c for e, c in out.items() if c}
        return SimplexPolynomial(self.nvars, self.degree + 1, out)


def polynomial_from_terms(nvars: int, degree: int, terms) -> SimplexPolynomial:
    """A polynomial from {exponent vector: coefficient}."""
    clean = {}
    for exps, coeff in dict(terms).items():
        if len(exps) != nvars or sum(exps) != degree or any(e < 0 for e in exps):
            raise DomainError(f"exponent vector {exps} does not match nvars={nvars}, degree={degree}")
        coeff = Fraction(coeff)
        if coeff:
            clean[tuple(i for i, e in enumerate(exps) for _ in range(e))] = coeff
    return SimplexPolynomial(nvars, degree, clean)


@dataclass(frozen=True)
class ManipulationInstance:
    truthful: Ordering
    misreport: Ordering
    k: int

    def __post_init__(self):
        m = len(self.truthful)
        if sorted(self.truthful) != list(range(m)) or sorted(self.misreport) != list(range(m)):
            raise DomainError("truthful and misreport must both be orderings of 0..m-1")
        if self.truthful == self.misreport:
            raise DomainError("misreport must differ from the truthful ordering")
        if not 1 <= self.k <= m - 1:
            raise DomainError(f"upper-set size k={self.k} outside 1..{m - 1}")


@dataclass(frozen=True)
class RefutationPoint:
    belief: Belief
    value: Fraction
    stage: str  # "point-mass" | "midpoint" | "grid"


@dataclass(frozen=True)
class SPWitness:
    instance: ManipulationInstance
    utility: tuple[Fraction, ...]
    rho: Fraction
    gain: Fraction
    belief: Belief | None = None  # i.i.d. refutations
    stage: str | None = None
    others: AnonKey | None = None  # classic refutations: the fixed opponents


@dataclass(frozen=True)
class SPVerdict:
    status: str
    polya_degree: int | None = None
    witness: SPWitness | None = None
    max_degree_tried: int = 0
    instances_total: int = 0
    instances_unknown: tuple[ManipulationInstance, ...] = ()


def _misreport_pairs(m: int) -> list[tuple[Ordering, Ordering]]:
    """All (truthful, misreport) pairs, in instance order."""
    return list(itertools.permutations(enumerate_orderings(m), 2))


def enumerate_instances(m: int):
    """All (truthful, misreport, k) triples, deterministically ordered."""
    for p, q in _misreport_pairs(m):
        for k in range(1, m):
            yield ManipulationInstance(p, q, k)


@lru_cache(maxsize=None)  # keyed by the opponents' multisets: profile_walk's contexts
def _multinomial(key: tuple[int, ...]) -> int:
    total = math.factorial(len(key))
    for mult in Counter(key).values():
        total //= math.factorial(mult)
    return total


def _opponent_gaps(v: RuleTable, truthful: Ordering, misreport: Ordering):
    """Walk the opponents' multisets once for a (truthful, misreport) pair.

    Yields (others, gaps, den), in combinations_with_replacement order, for
    each multiset where the two reports' lotteries differ.  gaps[k-1] / den
    is the k-th prefix sum, along the truthful ordering, of the
    truthful-minus-misreport lottery: the two reports' difference in top-k
    upper-set mass.  The gaps are ints and den > 0.
    """
    contexts, at, _ = profile_walk(v.m, v.n)
    lots = list(v._scaled().values())
    head = truthful[:-1]
    r_true = ordering_rank(truthful)
    r_lie = ordering_rank(misreport)
    for others, row in zip(contexts, at):
        a, da = lots[row[r_true]]
        b, db = lots[row[r_lie]]
        if da == db:
            if a == b:  # equal lotteries (the view is canonical): every gap is 0
                continue
            den, diffs = da, [a[x] - b[x] for x in head]
        else:
            den, diffs = da * db, [a[x] * db - b[x] * da for x in head]
        yield others, tuple(itertools.accumulate(diffs)), den


def _dominance_siblings(
    v: RuleTable, truthful: Ordering, misreport: Ordering
) -> tuple[SimplexPolynomial, ...]:
    """The dominance polynomials of (truthful, misreport, k) for k = 1..m-1:
    the opponents' monomial carries multinomial times their k-th gap."""
    terms: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(v.m - 1)]
    for others, gaps, den in _opponent_gaps(v, truthful, misreport):
        weight = _multinomial(others)
        for k_terms, gap in zip(terms, gaps):
            if gap:
                k_terms[others] = Fraction(weight * gap, den)
    return tuple(SimplexPolynomial(math.factorial(v.m), v.n - 1, k_terms) for k_terms in terms)


def dominance_polynomial(v: RuleTable, inst: ManipulationInstance) -> SimplexPolynomial:
    """Expected truthful-minus-misreport upper-set mass, as a belief polynomial."""
    return _dominance_siblings(v, inst.truthful, inst.misreport)[inst.k - 1]


def polya_certify(f: SimplexPolynomial, boost: int) -> bool:
    """Certify f >= 0 on the simplex: scale by the coordinate sum `boost` times
    and require every coefficient to be nonnegative.  Sound but not complete."""
    if boost < 0:
        raise DomainError(f"certificate degree boost must be nonnegative, got {boost}")
    g = f
    for _ in range(boost):
        g = g.times_coordinate_sum()
    return all(c >= 0 for c in g.terms.values())


def _refute_at_point_masses_and_midpoints(f: SimplexPolynomial) -> RefutationPoint | None:
    """First point mass, then first pairwise midpoint, where f < 0.

    At e_i only the pure x_i^d term survives; at (e_i+e_j)/2 only the terms
    supported on {i, j} do, each scaled by 2^-d.  So one pass buckets the
    coefficients by support, and only pairs with a mixed term can be
    negative once every point mass is nonnegative.
    """
    nv = f.nvars
    pure = [ZERO] * nv
    mixed: dict[tuple[int, int], Fraction] = {}
    for mono, coeff in f.terms.items():
        if not mono:  # degree 0: the same constant at every point
            pure = [coeff] * nv
        elif mono[0] == mono[-1]:
            pure[mono[0]] += coeff
        elif len(set(mono)) == 2:
            pair = (mono[0], mono[-1])
            mixed[pair] = mixed.get(pair, ZERO) + coeff
    for i, val in enumerate(pure):
        if val < 0:
            phi = tuple(ONE if t == i else ZERO for t in range(nv))
            return RefutationPoint(phi, val, "point-mass")
    half = Fraction(1, 2)
    scale = half**f.degree
    for i, j in sorted(mixed):
        val = scale * (pure[i] + pure[j] + mixed[i, j])
        if val < 0:
            phi = tuple(half if t in (i, j) else ZERO for t in range(nv))
            return RefutationPoint(phi, val, "midpoint")
    return None


def _refute_on_grid(f: SimplexPolynomial, g: SimplexPolynomial) -> RefutationPoint | None:
    """First grid point alpha / N where f < 0, over the monomials alpha of g
    with a negative coefficient in sorted order; g is a rung of f, of degree N.
    f(alpha) / N^d is f(alpha / N), d = f.degree, as f is homogeneous."""
    for mono in sorted(g.terms):
        if g.terms[mono] < 0:
            alpha = [0] * g.nvars
            for i in mono:
                alpha[i] += 1
            val = f.evaluate(alpha)
            if val < 0:
                phi = tuple(Fraction(a, g.degree) for a in alpha)
                return RefutationPoint(phi, val / g.degree**f.degree, "grid")
    return None


def _refuted_verdict(
    inst: ManipulationInstance, k_values: dict[int, Fraction], total: int, max_tried: int, *,
    belief: Belief | None = None, stage: str | None = None, others: AnonKey | None = None,
) -> SPVerdict:
    """A refuted verdict whose strictly consistent witness utility gains by lying.

    k_values maps each upper-set size to the truthful-minus-misreport mass at
    the refuting belief or fixed `others`, and k_values[inst.k] < 0.  The
    utility is the upper-set indicator plus rho times a rank bonus, with rho
    small enough that the gain's sign survives the perturbation.
    """
    m = len(inst.truthful)
    f_k = k_values[inst.k]
    spill = sum(k_values.values()) / m
    rho = ONE if spill <= 0 else min(ONE, -f_k / (2 * spill))
    utility = upper_set_utility(inst.truthful, inst.k, rho)
    scale = 1 / (1 + rho * Fraction(m - 1, m))
    gain = scale * (-(f_k + rho * spill))
    witness = SPWitness(inst, utility, rho, gain, belief=belief, stage=stage, others=others)
    return SPVerdict(
        STATUS_REFUTED, witness=witness, max_degree_tried=max_tried, instances_total=total
    )


def check_weak_sp(v: RuleTable, config: SPConfig | None = None) -> SPVerdict:
    """Decide strategy-proofness w.r.t. all i.i.d. beliefs.

    Only the instances the degree-0 stage `_open_pairs` leaves open get
    dominance polynomials.  Each is scanned at point masses and midpoints,
    then climbs the ladder from rung 1 (CapExceededError at a rung past the
    profile cap), and an instance the ladder leaves open is scanned on the
    grid of its top rung.  A grid hit refutes only once every ladder has
    run, at the first such instance.  By anonymity a single manipulating
    voter index covers all of them.
    """
    config = config or SPConfig()
    if config.polya_max < 0:
        raise DomainError(f"Pólya degree cap polya_max must be nonnegative, got {config.polya_max}")
    total = len(_misreport_pairs(v.m)) * (v.m - 1)  # instances: (truthful, misreport, k)
    pending: list[tuple[ManipulationInstance, RefutationPoint | None, tuple[SimplexPolynomial, ...]]] = []
    certified_at = 0
    max_tried = 0

    def refuted(inst, siblings, hit: RefutationPoint) -> SPVerdict:
        values = {k: f.evaluate(hit.belief) for k, f in enumerate(siblings, 1)}
        return _refuted_verdict(inst, values, total, max_tried, belief=hit.belief, stage=hit.stage)

    # enumerate_instances order, with the k-siblings of each open misreport built together
    for truthful, misreport, open_ks, _ in _open_pairs(v):
        siblings = _dominance_siblings(v, truthful, misreport)
        for k in open_ks:
            inst, f = ManipulationInstance(truthful, misreport, k), siblings[k - 1]
            hit = _refute_at_point_masses_and_midpoints(f)
            if hit is not None:
                return refuted(inst, siblings, hit)
            g = f
            for boost in range(1, config.polya_max + 1):
                max_tried = max(max_tried, boost)
                if math.comb(g.nvars + g.degree, g.degree + 1) > max_profiles():  # monomials of rung boost
                    raise CapExceededError(f"Pólya rung {boost} at (m={v.m}, n={v.n}) has more monomials "
                                           f"than the profile cap {max_profiles()}")
                g = g.times_coordinate_sum()
                if polya_certify(g, 0):
                    certified_at = max(certified_at, boost)
                    break
            else:
                pending.append((inst, _refute_on_grid(f, g), siblings))
    for inst, hit, siblings in pending:
        if hit is not None:
            return refuted(inst, siblings, hit)
    unknown = tuple(inst for inst, _, _ in pending)
    return SPVerdict(
        STATUS_UNKNOWN if unknown else STATUS_CERTIFIED,
        polya_degree=None if unknown else certified_at,
        max_degree_tried=max_tried,
        instances_total=total,
        instances_unknown=unknown,
    )


def _upper_sets(m: int) -> list[tuple[int, tuple[int, ...]]]:
    """(S, T_S) for each proper nonempty candidate set S, as a bitmask: T_S
    holds the ranks of the orderings whose top |S| candidates are S."""
    groups: dict[int, list[int]] = {}
    for r, ordering in enumerate(enumerate_orderings(m)):
        mask = 0
        for x in ordering[:-1]:
            mask |= 1 << x
            groups.setdefault(mask, []).append(r)
    return [(mask, tuple(ranks)) for mask, ranks in groups.items()]


def _every_gap_nonnegative(v: RuleTable) -> bool:
    """Whether no instance has a negative gap, decided per (opponents, upper set).

    A gap of (t, q, k) at opponents c is mass(at[c][t], S) - mass(at[c][q], S)
    with S = t's top k.  So every gap is >= 0 exactly when, for each context
    c and set S, the least S-mass among the reports t in T_S is at least the
    greatest S-mass among all m! reports.  A profile's S-masses come from its
    (nums, den) view by a subset-sum recurrence, once; a context's reports
    are compared over the lcm of their denominators.  Stops at the first
    violation.
    """
    _, at, _ = profile_walk(v.m, v.n)
    lots = list(v._scaled().values())
    sets = _upper_sets(v.m)
    masks = [mask for mask, _ in sets]

    @lru_cache(maxsize=None)  # one recurrence per profile, however many contexts reach it
    def upper_masses(i: int) -> tuple[tuple[int, ...], int]:
        nums, den = lots[i]
        sums = [0]  # sums[mask] is the mass of the candidates whose bits mask sets
        for num in nums:
            sums += [s + num for s in sums]
        return tuple(map(sums.__getitem__, masks)), den

    for row in at:
        reports = list(map(upper_masses, row))
        common = math.lcm(*{den for _, den in reports})
        rows = [s if den == common else tuple(x * (common // den) for x in s) for s, den in reports]
        for col, (_, on_top) in zip(zip(*rows), sets):
            if min(map(col.__getitem__, on_top)) < max(col):
                return False
    return True


def _open_pairs(v: RuleTable):
    """The degree-0 stage of both checks, in enumerate_instances order: each
    misreport pair with a negative gap, as (truthful, misreport, open_ks,
    walk), open_ks the ascending k with a negative k-th gap and walk the
    pair's `_opponent_gaps` items that have one.  Nothing if no gap is negative."""
    if _every_gap_nonnegative(v):
        return
    for truthful, misreport in _misreport_pairs(v.m):
        walk = [item for item in _opponent_gaps(v, truthful, misreport) if min(item[1]) < 0]
        if walk:
            open_ks = sorted({k for _, gaps, _ in walk for k, gap in enumerate(gaps, 1) if gap < 0})
            yield truthful, misreport, open_ks, walk


def check_classic_sp(v: RuleTable) -> SPVerdict:
    """Classic strategy-proofness: dominance must hold at every fixed profile
    of the other voters, not just in expectation under a belief.  It is the
    degree-0 certificate on every instance: certified when `_open_pairs`
    yields nothing, else refuted at its first open instance, at the first
    opponents where that instance's gap is negative."""
    total = len(_misreport_pairs(v.m)) * (v.m - 1)
    for truthful, misreport, open_ks, walk in _open_pairs(v):
        k = open_ks[0]
        others, gaps, den = next(item for item in walk if item[1][k - 1] < 0)
        k_values = {j: Fraction(gap, den) for j, gap in enumerate(gaps, 1)}
        return _refuted_verdict(ManipulationInstance(truthful, misreport, k), k_values, total, 0, others=others)
    return SPVerdict(STATUS_CERTIFIED, polya_degree=0, instances_total=total)


def replay_gain(v: RuleTable, witness: SPWitness) -> Fraction:
    """Recompute the misreport's expected-utility gain from the witness alone.

    Independent of the polynomial path: expectations are expanded directly
    over the opponents, weighted by multinomial belief mass.
    """
    fact = math.factorial(v.m)
    if (witness.belief is None) == (witness.others is None):
        raise DomainError("a witness carries exactly one of a belief and fixed opponents")
    if len(witness.instance.truthful) != v.m:
        raise DomainError(f"the witness orders {len(witness.instance.truthful)} candidates, expected {v.m}")
    if not is_consistent_utility(witness.utility, witness.instance.truthful):
        raise DomainError("the witness utility is not strictly consistent with its ordering, in [0, 1]")
    if witness.others is not None and (
        len(witness.others) != v.n - 1 or any(s not in range(fact) for s in witness.others)
    ):
        raise DomainError(f"fixed opponents must be {v.n - 1} ordering ranks in range({fact})")
    if witness.others is None:
        belief = validate_belief(fact, witness.belief)
    r_true = ordering_rank(witness.instance.truthful)
    r_lie = ordering_rank(witness.instance.misreport)
    u = witness.utility

    def expected(report_rank: int) -> Fraction:
        if witness.others is not None:
            key = tuple(sorted(witness.others + (report_rank,)))
            lot = v.lottery_at(key)
            return sum((u[x] * lot[x] for x in range(v.m)), ZERO)
        total = ZERO
        for others in itertools.combinations_with_replacement(range(fact), v.n - 1):
            weight = Fraction(_multinomial(others))
            for s in others:
                weight *= belief[s]
            if not weight:
                continue
            lot = v.lottery_at(tuple(sorted(others + (report_rank,))))
            total += weight * sum((u[x] * lot[x] for x in range(v.m)), ZERO)
        return total

    return expected(r_lie) - expected(r_true)
