"""Exact rational linear programming.

A `Constraint` keeps only its nonzero (column, coefficient) terms and its
width; `.coeffs` gives the dense row.  `solve_lp` is a two-phase simplex
over Fractions with Bland's anti-cycling rule: deterministic and exact,
with infeasible/unbounded reported as statuses.  `SlackBasisSimplex` is the
warm-startable core used for the polytope sweeps, where the origin is known
feasible and many objectives are maximized over one constraint set.
`reduce_equalities` is a sparse exact Gauss-Jordan elimination used to fold
equality constraints away before optimizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """max/min of objective . x subject to constraints; x >= 0 unless freed."""

    n_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    maximize: bool = True
    nonneg: tuple[bool, ...] | None = None  # None means every variable >= 0
    names: tuple[str, ...] | None = None

    def var_nonneg(self, j: int) -> bool:
        return True if self.nonneg is None else self.nonneg[j]


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


# -- Generic two-phase simplex -------------------------------------------------


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve an arbitrary LP exactly.

    Free variables are split into positive and negative parts; rows are
    normalized to nonnegative right-hand sides; equality and >= rows get
    artificial variables driven out in phase 1.
    """
    for c in lp.constraints:
        if c.width != lp.n_vars:
            raise DomainError(f"constraint has {c.width} coefficients, expected {lp.n_vars}")
        if c.rel not in (REL_LE, REL_EQ, REL_GE):
            raise DomainError(f"unknown relation {c.rel!r}")

    # Column map: nonneg var -> one column; free var -> (plus, minus) columns.
    col_of: list[tuple[int, int | None]] = []
    ncols = 0
    for j in range(lp.n_vars):
        if lp.var_nonneg(j):
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2

    def expand(terms) -> list[Fraction]:
        row = [ZERO] * ncols
        for j, c in terms:
            plus, minus = col_of[j]
            row[plus] += c
            if minus is not None:
                row[minus] -= c
        return row

    rows: list[list[Fraction]] = []
    rels: list[str] = []
    rhs: list[Fraction] = []
    for c in lp.constraints:
        row, rel, b = expand(c.terms), c.rel, c.rhs
        if b < 0:
            row = [-a for a in row]
            b = -b
            rel = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
        rows.append(row)
        rels.append(rel)
        rhs.append(b)

    nstruct = ncols
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

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i, row in enumerate(rows):
        full = row + [ZERO] * (ncols - nstruct) + [rhs[i]]
        if i in slack_cols:
            full[slack_cols[i]] = ONE if rels[i] == REL_LE else -ONE
        if i in art_cols:
            full[art_cols[i]] = ONE
            basis.append(art_cols[i])
        else:
            basis.append(slack_cols[i])
        tableau.append(full)

    artificial = set(art_cols.values())

    if artificial:
        phase1 = [ZERO] * (ncols + 1)
        for col in artificial:
            phase1[col] = -ONE
        status = _optimize(tableau, basis, phase1, ncols, allowed=None)
        if status != OPTIMAL:
            raise InternalError("phase 1 reported unbounded, but it is bounded below by 0")
        if _objective_value(tableau, basis, phase1, ncols) != 0:
            return LPSolution(INFEASIBLE)
        _drive_out_artificials(tableau, basis, artificial, ncols)

    allowed = [j for j in range(ncols) if j not in artificial]
    sign = 1 if lp.maximize else -1
    cost = expand(enumerate(sign * c for c in lp.objective)) + [ZERO] * (ncols - nstruct) + [ZERO]
    status = _optimize(tableau, basis, cost, ncols, allowed=allowed)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED)

    xcols = [ZERO] * ncols
    for i, b in enumerate(basis):
        xcols[b] = tableau[i][-1]
    x = []
    for j in range(lp.n_vars):
        plus, minus = col_of[j]
        x.append(xcols[plus] - (xcols[minus] if minus is not None else ZERO))
    value = sum((c * xj for c, xj in zip(lp.objective, x)), ZERO)
    return LPSolution(OPTIMAL, value, tuple(x))


def _objective_value(tableau, basis, cost, ncols) -> Fraction:
    return sum((cost[b] * tableau[i][-1] for i, b in enumerate(basis)), ZERO)


def _reduced_costs(tableau, basis, cost, ncols) -> list[Fraction]:
    red = list(cost[:ncols])
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row = tableau[i]
            for j in range(ncols):
                if row[j]:
                    red[j] -= cb * row[j]
    return red


def _pivot(tableau, basis, r: int, e: int) -> None:
    prow = tableau[r]
    piv = prow[e]
    if piv != 1:
        inv = 1 / piv
        for j, a in enumerate(prow):
            if a:
                prow[j] = a * inv
    nz = [j for j, a in enumerate(prow) if a]
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[e]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
    basis[r] = e


def _optimize(tableau, basis, cost, ncols, allowed) -> str:
    """Primal simplex with Bland's rule from the current feasible basis."""
    cols = list(allowed) if allowed is not None else list(range(ncols))
    red = _reduced_costs(tableau, basis, cost, ncols)
    while True:
        enter = -1
        for j in cols:
            if red[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tableau, basis, leave, enter)
        prow = tableau[leave]
        f = red[enter]
        for j in range(ncols):
            if prow[j]:
                red[j] -= f * prow[j]


def _drive_out_artificials(tableau, basis, artificial, ncols) -> None:
    for i in range(len(basis)):
        if basis[i] not in artificial:
            continue
        row = tableau[i]
        enter = next((j for j in range(ncols) if j not in artificial and row[j]), None)
        if enter is not None:
            _pivot(tableau, basis, i, enter)
        # else: the row is all zeros outside artificials (redundant constraint);
        # the artificial stays basic at level 0 and never re-enters play.


# -- Warm-startable slack-basis core -------------------------------------------


class SlackBasisSimplex:
    """max c . y over {G y <= h, y >= 0} with h >= 0, reusing the basis
    across objective changes.

    The all-slack basis at y = 0 is feasible by construction, so no phase 1
    is ever needed; after each solve the optimal basis is kept and the next
    objective continues from it.
    """

    def __init__(self, G: list[list[Fraction]], h: list[Fraction]):
        if any(b < 0 for b in h):
            raise DomainError("slack-basis simplex needs nonnegative right-hand sides")
        self.nrows = len(G)
        self.nstruct = len(G[0]) if G else 0
        self.ncols = self.nstruct + self.nrows
        self.tableau = []
        for i, row in enumerate(G):
            slacks = [ZERO] * self.nrows
            slacks[i] = ONE
            self.tableau.append(list(row) + slacks + [h[i]])
        self.basis = [self.nstruct + i for i in range(self.nrows)]

    def solve(self, objective: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
        if len(objective) != self.nstruct:
            raise DomainError(f"objective has {len(objective)} entries, expected {self.nstruct}")
        cost = list(objective) + [ZERO] * (self.nrows + 1)
        status = _optimize(self.tableau, self.basis, cost, self.ncols, allowed=None)
        if status == UNBOUNDED:
            raise DomainError("objective is unbounded over the polytope")
        y = [ZERO] * self.nstruct
        for i, b in enumerate(self.basis):
            if b < self.nstruct:
                y[b] = self.tableau[i][-1]
        value = sum((c * yj for c, yj in zip(objective, y)), ZERO)
        return value, y


# -- Sparse exact Gauss-Jordan over equalities ----------------------------------


def reduce_equalities(
    eqs: list[tuple[dict[int, Fraction], Fraction]], n_vars: int
) -> tuple[dict[int, tuple[dict[int, Fraction], Fraction]], list[int]] | None:
    """Reduced row-echelon form of a sparse equality system.

    Returns (pivots, free_cols) where pivots maps a pivot column p to
    (row, rhs) with x_p = rhs - sum(row[f] * x_f over free columns f),
    or None when the system is inconsistent.
    """
    pivots: dict[int, list] = {}
    for row_in, rhs_in in eqs:
        row = {c: Fraction(a) for c, a in row_in.items() if a}
        rhs = Fraction(rhs_in)
        while True:
            hit = next((c for c in sorted(row) if c in pivots), None)
            if hit is None:
                break
            f = row.pop(hit)
            prow, prhs = pivots[hit]
            for c, a in prow.items():
                nv = row.get(c, ZERO) - f * a
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            rhs -= f * prhs
        if not row:
            if rhs != 0:
                return None
            continue
        p = min(row)
        lead = row.pop(p)
        prow = {c: a / lead for c, a in row.items()}
        prhs = rhs / lead
        for other_p, (orow, orhs) in pivots.items():
            f = orow.pop(p, None)
            if f is None:
                continue
            for c, a in prow.items():
                nv = orow.get(c, ZERO) - f * a
                if nv:
                    orow[c] = nv
                else:
                    orow.pop(c, None)
            pivots[other_p][1] = orhs - f * prhs
        pivots[p] = [prow, prhs]
    free = [c for c in range(n_vars) if c not in pivots]
    return {p: (row, rhs) for p, (row, rhs) in pivots.items()}, free
