"""Exact rational linear programming.

A `Constraint` keeps only its nonzero (column, coefficient) terms and its
width; `.coeffs` gives the dense row.  `solve_lp` runs a two-phase simplex
on a fraction-free tableau of integer-scaled sparse rows, pivoted with
Bland's anti-cycling rule, so every pivot is exact and deterministic, with
infeasible/unbounded reported as statuses.  Fractions appear only at the
edges: each input row is scaled by the lcm of its denominators, and values
are read back as Fractions.  `SlackBasisSimplex` is the warm-startable core
used for the polytope sweeps, where the origin is known feasible and many
objectives are maximized over one constraint set: it takes sparse rows over
a free t and pivots in t-space, on one integer edge direction per nonbasic
quantity, yet takes exactly the Bland pivots of the tableau over t = u - w
(`solve_lp`'s tableau is its oracle in the tests).  Each solve leaves its
optimal dual in `.dual`, and `dual_certifies` checks such a dual
independently, in integers against `scaled_system(G, h)`, a copy of the
rows built apart from the solver's.
`reduce_equalities` folds equality constraints away before optimizing, by
Gauss-Jordan elimination on the tableau's integer rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DomainError, InternalError

ZERO = Fraction(0)
ONE = Fraction(1)

REL_LE = "<="
REL_EQ = "="
REL_GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    terms: tuple[tuple[int, Fraction], ...]  # nonzero (column, coefficient), by column
    width: int  # number of variables
    rel: str
    rhs: Fraction

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        row = [ZERO] * self.width
        for j, a in self.terms:
            row[j] = a
        return tuple(row)


@dataclass(frozen=True)
class LinearProgram:
    """max/min of objective . x subject to constraints and x >= 0."""

    n_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    maximize: bool = True


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: Fraction | None = None
    x: tuple[Fraction, ...] | None = None


def constraint(coeffs, rel: str, rhs) -> Constraint:
    """A constraint from a dense coefficient row."""
    if rel not in (REL_LE, REL_EQ, REL_GE):
        raise DomainError(f"unknown relation {rel!r}")
    row = [Fraction(c) for c in coeffs]
    return Constraint(tuple((j, a) for j, a in enumerate(row) if a), len(row), rel, Fraction(rhs))


# -- Integer-scaled tableau kernel ----------------------------------------------
#
# A tableau row is a dict of its nonzero entries, column -> int, holding its
# right-hand side under the key RHS.  The entry in the row's basic column is
# the row's positive scale, so the basic variable's value is rhs / scale.
# The reduced-cost row keeps its positive scale under the key Z, so the
# reduced cost of column j is red[j] / red[Z].  Rows are kept primitive (the
# gcd of their entries is 1), which is the smallest integer form of the
# Fraction row; Fractions appear only when rows are built and read back.

RHS = -1
Z = -2


def _integer_row(coeffs: dict[int, Fraction]) -> dict[int, int]:
    """The nonzero entries of coeffs, scaled by the lcm of their denominators."""
    scale = math.lcm(*(a.denominator for a in coeffs.values()))
    return {j: a.numerator * (scale // a.denominator) for j, a in coeffs.items() if a}


def _eliminate(row: dict[int, int], f: int, prow: dict[int, int], p: int) -> dict[int, int]:
    """p*row - f*prow divided by the gcd of its entries, for p > 0."""
    if p != 1:
        row = {j: p * a for j, a in row.items()}
    for j, a in prow.items():
        v = row.get(j, 0) - f * a
        if v:
            row[j] = v
        else:
            del row[j]
    g = math.gcd(*row.values())
    if g > 1:
        row = {j: a // g for j, a in row.items()}
    return row


def _tableau_pivot(rows, basis, r: int, e: int) -> None:
    """Make column e basic in row r; rows with no entry in e are not touched."""
    prow = rows[r]
    p = prow[e]
    if p < 0:
        prow = rows[r] = {j: -a for j, a in prow.items()}
        p = -p
    for i, row in enumerate(rows):
        f = row.get(e)
        if f and i != r:
            rows[i] = _eliminate(row, f, prow, p)
    basis[r] = e


def _reduced_costs(rows, basis, cost: dict[int, int]) -> dict[int, int]:
    red = cost
    for i, b in enumerate(basis):
        f = red.get(b)
        if f:
            red = _eliminate(red, f, rows[i], rows[i][b])
    return red


def _before(value: int, rate: int, col: int, best: int, best_rate: int, best_col: int) -> bool:
    """Whether (value / rate, col) < (best / best_rate, best_col), for rates > 0."""
    lhs, rhs = value * best_rate, best * rate
    return lhs < rhs or (lhs == rhs and col < best_col)


def _optimize(rows, basis, cost: dict[int, int], blocked=frozenset()) -> tuple[str, dict[int, int]]:
    """Primal simplex with Bland's rule from the current feasible basis.

    cost is the objective as a row with its scale under Z; columns in
    blocked never enter.  Returns the status and the final reduced-cost row.
    """
    red = _reduced_costs(rows, basis, cost)
    while True:
        enter = min((j for j, a in red.items() if a > 0 and j >= 0 and j not in blocked), default=-1)
        if enter < 0:
            return OPTIMAL, red
        # Smallest (rhs / a, basic column) over rows with a > 0: the row scales cancel.
        leave = -1
        for i, row in enumerate(rows):
            a = row.get(enter, 0)
            if a > 0:
                b = row.get(RHS, 0)
                if leave < 0 or _before(b, a, basis[i], best_b, best_a, basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            return UNBOUNDED, red
        _tableau_pivot(rows, basis, leave, enter)
        prow = rows[leave]
        red = _eliminate(red, red[enter], prow, prow[enter])


# -- Generic two-phase simplex -------------------------------------------------


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve an LP over x >= 0 exactly.

    Column j is variable j, followed by the slacks and then the artificials.
    Rows are normalized to nonnegative right-hand sides; equality and >= rows
    get artificial variables driven out in phase 1.
    """
    for c in lp.constraints:
        if c.width != lp.n_vars:
            raise DomainError(f"constraint has {c.width} coefficients, expected {lp.n_vars}")
        if c.rel not in (REL_LE, REL_EQ, REL_GE):
            raise DomainError(f"unknown relation {c.rel!r}")

    ncols = lp.n_vars
    # Rows with b < 0 are negated so every right-hand side is >= 0.
    flip = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}
    rels = [flip[c.rel] if c.rhs < 0 else c.rel for c in lp.constraints]
    slack_cols: dict[int, int] = {}
    art_cols: dict[int, int] = {}
    for i, rel in enumerate(rels):
        if rel in (REL_LE, REL_GE):
            slack_cols[i] = ncols
            ncols += 1
    for i, rel in enumerate(rels):
        if rel in (REL_EQ, REL_GE):
            art_cols[i] = ncols
            ncols += 1

    rows: list[dict[int, int]] = []
    basis: list[int] = []
    for i, c in enumerate(lp.constraints):
        sign = -1 if c.rhs < 0 else 1
        row = {j: sign * a for j, a in c.terms}
        row[RHS] = sign * c.rhs
        if i in slack_cols:
            row[slack_cols[i]] = ONE if rels[i] == REL_LE else -ONE
        if i in art_cols:
            row[art_cols[i]] = ONE
        rows.append(_integer_row(row))
        basis.append(art_cols.get(i, slack_cols.get(i)))

    artificial = frozenset(art_cols.values())

    if artificial:
        phase1 = {**{col: -1 for col in artificial}, Z: 1}
        status, _red = _optimize(rows, basis, phase1)
        if status != OPTIMAL:
            raise InternalError("phase 1 reported unbounded, but it is bounded below by 0")
        if any(b in artificial and rows[i].get(RHS) for i, b in enumerate(basis)):
            return LPSolution(INFEASIBLE)
        _drive_out_artificials(rows, basis, artificial)

    sign = 1 if lp.maximize else -1
    cost = _integer_row(dict(enumerate(sign * c for c in lp.objective)) | {Z: ONE})
    status, _red = _optimize(rows, basis, cost, blocked=artificial)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED)

    x = [ZERO] * ncols
    for row, b in zip(rows, basis):
        x[b] = Fraction(row.get(RHS, 0), row[b])
    x = tuple(x[:lp.n_vars])
    value = sum((c * xj for c, xj in zip(lp.objective, x)), ZERO)
    return LPSolution(OPTIMAL, value, x)


def _drive_out_artificials(rows, basis, artificial) -> None:
    for i in range(len(basis)):
        if basis[i] not in artificial:
            continue
        enter = min((j for j in rows[i] if j >= 0 and j not in artificial), default=None)
        if enter is not None:
            _tableau_pivot(rows, basis, i, enter)
        # else: the row is all zeros outside artificials (redundant constraint);
        # the artificial stays basic at level 0 and never re-enters play.


# -- Warm-startable slack-basis core, in t-space -------------------------------


class SlackBasisSimplex:
    """max c . t over {G t <= h}, t free, with h >= 0, reusing the basis
    across objective changes.

    G's rows are sparse dicts {column: coefficient} over columns
    0..width-1; `nrows` and `ncols` are G's shape.  The simplex works in
    t-space but takes the Bland pivots of the tableau over t = u - w,
    u, w >= 0, with u_j, w_j and slack_i in columns j, width + j and
    2*width + i, from the all-slack basis at t = 0 (feasible, so no phase
    1).  Its state: t and the row slacks as integers over one scale; the
    basic coordinates J with their sign (+1 for u_j, -1 for w_j); the tight
    rows K, whose slacks are nonbasic; and one primitive integer edge
    direction, a positive multiple of the move that raises it, per nonbasic
    quantity, keyed by column: t_j for j not in J and slack_i for i in K.
    The entering column is the smallest with a positive reduced cost: c .
    delta for u_j and slack_i, -c . delta for w_j (0 for the nonbasic part
    of a basic t_j).  `red` caches c . delta per direction, in the scaled
    integer cost; it is taken once per objective and each pivot updates it
    with the same rank-one step as the directions.  The leaving column has
    the smallest (value / rate, basic column) among basic variables that
    fall along the entering direction.  A basic variable at 0 that falls
    wins that tie-break at ratio 0, so these are tried first, in column
    order, and only when none falls is every loose row's rate taken; such a
    degenerate pivot moves no value.  Either way the pivots are Bland's.

    The basis is kept for the next objective.  `solve` returns the value
    and t; `dual` holds the last solve's optimal dual: one entry per row of
    G, minus the reduced cost of that row's slack.
    """

    def __init__(self, G: list[dict[int, Fraction]], h: list[Fraction], width: int):
        if any(b < 0 for b in h):
            raise DomainError("slack-basis simplex needs nonnegative right-hand sides")
        if any(not 0 <= j < width for row in G for j in row):
            raise DomainError(f"a constraint row has a column outside 0..{width - 1}")
        self.width = width
        self.nrows = len(G)
        self.ncols = width
        # Row i as (columns, coefficients), scaled to integers by scales[i].
        self.rows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.scales: list[int] = []
        self.snum: list[int] = []  # slack_i = snum[i] / den, in row i's scaled units
        for row, b in zip(G, h):
            scale = math.lcm(b.denominator, *(a.denominator for a in row.values()))
            cols = tuple(j for j, a in row.items() if a)
            self.rows.append((cols, tuple(row[j].numerator * (scale // row[j].denominator) for j in cols)))
            self.scales.append(scale)
            self.snum.append(b.numerator * (scale // b.denominator))
        self.den = 1
        self.tnum = [0] * width  # t = tnum / den
        self.signs: dict[int, int] = {}  # J
        self.tight: set[int] = set()  # K
        self.dirs = {j: [int(i == j) for i in range(width)] for j in range(width)}
        self.red: dict[int, int] = {}  # cost . dirs[key], for the objective being solved
        self.dual: list[Fraction] = []

    def solve(self, objective: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
        d = self.width
        if len(objective) != d:
            raise DomainError(f"objective has {len(objective)} entries, expected {d}")
        cscale = math.lcm(*(c.denominator for c in objective))
        cost = [c.numerator * (cscale // c.denominator) for c in objective]
        rows, tight, dirs = self.rows, self.tight, self.dirs
        red = self.red = {key: sum(map(mul, cost, x)) for key, x in dirs.items()}
        while True:
            enter = -1
            for key, r in red.items():
                col = key if r > 0 else d + key if r < 0 and key < d else -1
                if col >= 0 and (enter < 0 or col < enter):
                    enter = col
            if enter < 0:
                break
            if d <= enter < 2 * d:
                delta, red_delta = [-x for x in dirs[enter - d]], -red[enter - d]
            else:
                delta, red_delta = dirs[enter], red[enter]
            # Bland's leaving column: the least (value / rate, column).  The basic
            # t_j (columns below 2d) come first; a t_j or a loose row at 0 that
            # falls leaves at ratio 0, the least there is, and the step moves
            # nothing, so only when none does is every loose row's rate taken.
            tnum, snum, rates, leave = self.tnum, self.snum, None, -1
            for j, sign in self.signs.items():
                col, rate, tj = (j if sign > 0 else d + j), -sign * delta[j], sign * tnum[j]
                if rate > 0 and (leave < 0 or _before(tj, rate, col, value, fall, leave)):
                    leave, value, fall = col, tj, rate
            if leave < 0 or value:
                for i, s in enumerate(snum):
                    if not s and i not in tight:
                        rate = _dot(rows[i], delta)
                        if rate > 0:
                            leave, value, fall = 2 * d + i, 0, rate
                            break
                else:
                    rates = [0] * self.nrows  # how fast each loose row's slack falls along delta
                    at = delta.__getitem__
                    for i, (cols, coeffs) in enumerate(rows):
                        if i not in tight:
                            rate = rates[i] = sum(map(mul, coeffs, map(at, cols)))
                            col = 2 * d + i
                            if rate > 0 and (leave < 0 or _before(snum[i], rate, col, value, fall, leave)):
                                leave, value, fall = col, snum[i], rate
            if leave < 0:
                raise DomainError("objective is unbounded over the polytope")
            _pivot(self, delta, red_delta, rates, value, fall, leave, enter)
        # y_i = -(c . delta_i) / (G_i . delta_i) on the tight rows, where G_i . delta_i < 0
        self.dual = [ZERO] * self.nrows
        for i in tight:
            r = red[2 * d + i]
            if r:
                self.dual[i] = Fraction(r * self.scales[i], cscale * _dot(rows[i], dirs[2 * d + i]))
        t = [Fraction(x, self.den) for x in self.tnum]
        return Fraction(sum(map(mul, cost, self.tnum)), cscale * self.den), t


def _dot(row: tuple[tuple[int, ...], tuple[int, ...]], delta: list[int]) -> int:
    cols, coeffs = row
    return sum(map(mul, coeffs, map(delta.__getitem__, cols)))


def _pivot(
    core: SlackBasisSimplex, delta, red_delta: int, rates, value: int, rate: int, leave: int, enter: int
) -> None:
    """Step along delta, the entering direction (reduced cost red_delta),
    until the basic variable in column leave (value / den, falling at rate)
    reaches 0, and swap the two.

    Every other direction, and its cached reduced cost, gets the rank-one
    update that keeps the leaving variable at 0, made primitive again.  A
    step with value 0 moves nothing and reads no rates.
    """
    d = core.width
    if value:
        if enter >= 2 * d:  # the entering slack rises from 0
            rates[enter - 2 * d] = _dot(core.rows[enter - 2 * d], delta)
        den = core.den * rate
        tnum = [rate * x + value * y for x, y in zip(core.tnum, delta)]
        snum = [rate * s - value * r for s, r in zip(core.snum, rates)]
        g = math.gcd(den, *tnum, *snum)
        core.den = den // g
        core.tnum = [x // g for x in tnum]
        core.snum = [x // g for x in snum]
    dirs, red = core.dirs, core.red
    gone = enter - d if d <= enter < 2 * d else enter
    del dirs[gone], red[gone]
    if leave >= 2 * d:  # slack_l falls at G_l . x along x
        row = core.rows[leave - 2 * d]
        falls = [_dot(row, x) for x in dirs.values()]
    else:  # u_k falls at -x[k], w_k at x[k]
        k = leave % d
        falls = [x[k] if leave >= d else -x[k] for x in dirs.values()]
    for (key, other), f in zip(dirs.items(), falls):
        if f:
            other = [rate * x - f * y for x, y in zip(other, delta)]
            g = math.gcd(*other)
            dirs[key] = [x // g for x in other]
            red[key] = (rate * red[key] - f * red_delta) // g  # exact: g divides cost . the new direction
    if leave >= 2 * d:
        core.tight.add(leave - 2 * d)  # its slack is now 0
        dirs[leave], red[leave] = [-x for x in delta], -red_delta
    else:
        del core.signs[k]
        dirs[k], red[k] = (delta, red_delta) if leave >= d else ([-x for x in delta], -red_delta)
    if enter >= 2 * d:
        core.tight.discard(enter - 2 * d)
    else:
        core.signs[enter % d] = 1 if enter < d else -1


def scaled_system(G, h) -> list[tuple[dict[int, int], int, int]]:
    """(row, rhs, scale) for each row of G t <= h: the row's coefficients and
    its right-hand side times scale, the lcm of their denominators, as ints."""
    out = []
    for coeffs, b in zip(G, h):
        scale = math.lcm(b.denominator, *(a.denominator for a in coeffs.values()))
        row = {j: a.numerator * (scale // a.denominator) for j, a in coeffs.items()}
        out.append((row, b.numerator * (scale // b.denominator), scale))
    return out


def dual_certifies(system, objective, value, y) -> bool:
    """Whether y proves max objective . t over {G t <= h}, t free, is at most value.

    system is `scaled_system(G, h)`.  For such t, objective . t = y^T G t <=
    y^T h when y >= 0 and y^T G = objective, so y >= 0, y^T G = objective
    and y^T h = value make value an upper bound; a feasible point attaining
    value makes it the max.

    The identities are checked in integers: y^T G and y^T h are summed over
    the scaled rows, with y over one common denominator.  The system is built
    from G and h, not from a solver's rows, and one copy serves every dual
    checked against it.
    """
    if len(y) != len(system):
        return False
    # (i, num, d) with y_i / scale_i = num / d, over the nonzero entries of y
    support = [(i, q.numerator, q.denominator * system[i][2]) for i, q in enumerate(y) if q]
    if any(num < 0 for _, num, _ in support):
        return False
    den = math.lcm(*(d for *_, d in support))
    lhs = dict.fromkeys(range(len(objective)), 0)  # den * y^T G
    rhs = 0  # den * y^T h
    for i, num, d in support:
        row, b, _ = system[i]
        yi = num * (den // d)
        for j, a in row.items():
            lhs[j] = lhs.get(j, 0) + yi * a
        rhs += yi * b
    return (
        len(lhs) == len(objective)
        and all(lhs[j] * c.denominator == den * c.numerator for j, c in enumerate(objective))
        and rhs * value.denominator == den * value.numerator
    )


# -- Equality elimination on the tableau's integer rows --------------------------


def reduce_equalities(
    eqs: list[tuple[dict[int, Fraction], Fraction]], n_vars: int
) -> tuple[dict[int, tuple[dict[int, Fraction], Fraction]], list[int]] | None:
    """Reduced row-echelon form of a sparse equality system.

    Returns (pivots, free_cols) where pivots maps a pivot column p to
    (row, rhs) with x_p = rhs - sum(row[f] * x_f over free columns f),
    or None when the system is inconsistent.  Rows are the kernel's integer
    rows, positive at their pivot column, and become Fractions when read back.
    """
    pivots: dict[int, dict[int, int]] = {}
    for coeffs, rhs in eqs:
        row = _integer_row({**coeffs, RHS: Fraction(rhs)})
        for q in sorted(c for c in row if c in pivots):
            row = _eliminate(row, row[q], pivots[q], pivots[q][q])
        p = min((c for c in row if c >= 0), default=None)
        if p is None:
            if row:  # 0 = a nonzero right-hand side
                return None
            continue
        if row[p] < 0:
            row = {c: -a for c, a in row.items()}
        for q, prow in pivots.items():
            if p in prow:
                pivots[q] = _eliminate(prow, prow[p], row, row[p])
        pivots[p] = row
    free = [c for c in range(n_vars) if c not in pivots]
    return {
        p: ({c: Fraction(a, row[p]) for c, a in row.items() if c >= 0 and c != p},
            Fraction(row.get(RHS, 0), row[p]))
        for p, row in pivots.items()
    }, free
