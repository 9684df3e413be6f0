"""Exact simplex solver against a brute-force vertex-enumeration oracle.

The oracle intersects every n-subset of the constraint hyperplanes (rows as
equalities plus the x_i = 0 bounds), keeps the feasible intersection points,
and takes the best objective value.  Generated programs include a simplex
bound sum(x) <= B, so every nonempty feasible region is a pointed polytope
and has an optimal vertex; unboundedness cannot occur.
"""

import hashlib
import math
import random
from fractions import Fraction as F
from operator import mul

import pytest

from votecert import lp, polytope
from votecert.errors import DomainError
from votecert.lp import (
    REL_EQ,
    LinearProgram,
    SlackBasisSimplex,
    constraint,
    dual_certifies,
    reduce_equalities,
    scaled_system,
    solve_lp,
)
from votecert.polytope import build_polytope

ZERO, ONE = F(0), F(1)


# -- independent linear solve for the oracle ------------------------------------


def solve_square(rows, rhs):
    """Gaussian elimination with partial pivoting over Fractions.
    Returns the unique solution or None if the matrix is singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def oracle_solve(lp):
    """Enumerate candidate vertices; all variables are assumed nonnegative
    and the feasible set bounded (callers must include a box/simplex row)."""
    n = lp.n_vars
    planes = [(c.coeffs, c.rhs) for c in lp.constraints]
    for j in range(n):
        bound = tuple(ONE if i == j else ZERO for i in range(n))
        planes.append((bound, ZERO))

    import itertools

    best = None
    for subset in itertools.combinations(range(len(planes)), n):
        rows = [planes[i][0] for i in subset]
        rhs = [planes[i][1] for i in subset]
        x = solve_square(rows, rhs)
        if x is None:
            continue
        if any(xi < 0 for xi in x):
            continue
        feasible = True
        for c in lp.constraints:
            lhs = sum(a * xi for a, xi in zip(c.coeffs, x))
            if c.rel == "<=" and lhs > c.rhs:
                feasible = False
            elif c.rel == ">=" and lhs < c.rhs:
                feasible = False
            elif c.rel == "=" and lhs != c.rhs:
                feasible = False
            if not feasible:
                break
        if not feasible:
            continue
        value = sum(a * xi for a, xi in zip(lp.objective, x))
        if not lp.maximize:
            value = -value
        if best is None or value > best:
            best = value
    if best is None:
        return ("infeasible", None)
    return ("optimal", best if lp.maximize else -best)


def random_lp(rng):
    n = rng.randrange(1, 7)
    rows = []
    for _ in range(rng.randrange(1, 4)):
        coeffs = [F(rng.randrange(-3, 4)) for _ in range(n)]
        rhs = F(rng.randrange(-2, 7))
        rows.append(constraint(coeffs, rng.choice(["<=", "<=", ">=", "="]), rhs))
    rows.append(constraint([1] * n, "<=", rng.randrange(1, 8)))  # keeps it bounded
    objective = tuple(F(rng.randrange(-5, 6)) for _ in range(n))
    return LinearProgram(n, objective, tuple(rows), maximize=bool(rng.randrange(2)))


# -- direct solver behavior --------------------------------------------------------


def test_simple_maximum():
    lp = LinearProgram(1, (ONE,), (constraint([1], "<=", 1),))
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.value == 1 and sol.x == (ONE,)


def test_degenerate_equality_optimum():
    lp = LinearProgram(2, (ONE, ONE), (constraint([1, 1], "=", 1),))
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.value == 1


def test_infeasible_detected():
    lp = LinearProgram(1, (ONE,), (constraint([1], "<=", -1),))
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(2, (ONE, ZERO), (constraint([0, 1], "<=", 3),))
    assert solve_lp(lp).status == "unbounded"


def test_minimization():
    lp = LinearProgram(
        2,
        (F(3), F(2)),
        (constraint([1, 1], ">=", 2), constraint([1, 0], "<=", 5), constraint([0, 1], "<=", 5)),
        maximize=False,
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.value == 4  # all weight on the cheaper variable


def test_mismatched_row_width_rejected():
    with pytest.raises(DomainError):
        solve_lp(LinearProgram(2, (ONE, ONE), (constraint([1], "<=", 1),)))


def test_oracle_agreement_seeded():
    rng = random.Random(99)
    statuses = set()
    for _ in range(200):
        lp = random_lp(rng)
        got = solve_lp(lp)
        want_status, want_value = oracle_solve(lp)
        assert got.status == want_status
        statuses.add(got.status)
        if want_status == "optimal":
            assert got.value == want_value
            for c in lp.constraints:  # returned vertex satisfies every row exactly
                lhs = sum(a * xi for a, xi in zip(c.coeffs, got.x))
                assert {"<=": lhs <= c.rhs, ">=": lhs >= c.rhs, "=": lhs == c.rhs}[c.rel]
    assert statuses == {"optimal", "infeasible"}  # the generator hits both


# -- warm-started slack-basis core ---------------------------------------------------


def test_slack_basis_multiple_objectives():
    # triangle x + y <= 1, x >= 0, y >= 0, with t = (x, y) free
    core = SlackBasisSimplex([{0: ONE, 1: ONE}, {0: -ONE}, {1: -ONE}], [ONE, ZERO, ZERO], 2)
    value, t = core.solve([ONE, ZERO])
    assert value == 1 and t == [ONE, ZERO]
    value, t = core.solve([ZERO, ONE])
    assert value == 1 and t == [ZERO, ONE]
    value, t = core.solve([-ONE, -ONE])
    assert value == 0 and t == [ZERO, ZERO]


def test_slack_basis_optimum_with_negative_component():
    # x + y <= 1, x >= -1, y >= 0: the optima sit at x = -1
    G = [{0: ONE, 1: ONE}, {0: -ONE}, {1: -ONE}]
    h = [ONE, ONE, ZERO]
    core = SlackBasisSimplex(G, h, 2)
    for c, want_value, want_t in (([ZERO, ONE], F(2), [F(-1), F(2)]), ([-ONE, -ONE], ONE, [F(-1), ZERO])):
        value, t = core.solve(c)
        assert value == want_value and t == want_t
        assert dual_certifies(scaled_system(G, h), c, value, core.dual)


def test_slack_basis_rejects_negative_rhs():
    with pytest.raises(DomainError):
        SlackBasisSimplex([{0: ONE}], [F(-1)], 1)


# -- sparse equality reduction --------------------------------------------------------


def test_reduce_equalities_parametrizes_the_solution_set():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randrange(2, 7)
        rows = []
        for _ in range(rng.randrange(1, n + 2)):
            row = {j: F(rng.randrange(-2, 3)) for j in range(n) if rng.randrange(2)}
            rows.append((row, F(rng.randrange(-3, 4))))
        # make the system consistent by construction: evaluate at a base point
        base = [F(rng.randrange(-2, 3)) for _ in range(n)]
        rows = [(row, sum(a * base[j] for j, a in row.items())) for row, _ in rows]
        reduced = reduce_equalities(rows, n)
        assert reduced is not None
        pivots, free = reduced
        for _ in range(5):  # any free assignment extends to a solution
            x = [ZERO] * n
            for f in free:
                x[f] = F(rng.randrange(-3, 4))
            for p, (prow, prhs) in pivots.items():
                x[p] = prhs - sum(a * x[f] for f, a in prow.items())
            for row, rhs in rows:
                assert sum(a * x[j] for j, a in row.items()) == rhs


def test_reduce_equalities_detects_inconsistency():
    rows = [({0: ONE, 1: ONE}, F(1)), ({0: F(2), 1: F(2)}, F(3))]
    assert reduce_equalities(rows, 2) is None


def _random_free_polytope(rng):
    """Sparse rows G t <= h with h >= 0, rows -t_j <= low_j and sum(t) <= B:
    bounded, origin feasible, and t may go negative down to -low."""
    n = rng.randrange(1, 5)
    low = [F(rng.randrange(0, 4)) for _ in range(n)]
    G, h = [], []
    for _ in range(rng.randrange(1, 5)):
        row = {j: F(rng.randrange(-6, 7), rng.choice((1, 2, 3))) for j in range(n)}
        G.append({j: a for j, a in row.items() if a})
        h.append(F(rng.randrange(0, 13), rng.choice((1, 2, 5))))
    for j in range(n):
        G.append({j: -ONE})
        h.append(low[j])
    G.append({j: ONE for j in range(n)})
    h.append(F(rng.randrange(1, 8)))
    return G, h, n, low


def test_warm_started_core_matches_oracle_with_dual_certificates():
    rng = random.Random(7)
    solves = negative = 0
    for _ in range(25):
        G, h, n, low = _random_free_polytope(rng)
        core = SlackBasisSimplex(G, h, n)
        # The oracle takes s = t + low >= 0, so G t <= h reads G s <= h + G low.
        shifted = [
            constraint([row.get(j, ZERO) for j in range(n)], "<=", b + sum(a * low[j] for j, a in row.items()))
            for row, b in zip(G, h)
        ]
        for _ in range(rng.randrange(3, 7)):  # one core, warm-started across objectives
            c = [F(rng.randrange(-5, 6), rng.choice((1, 4))) for _ in range(n)]
            value, t = core.solve(c)
            status, want = oracle_solve(LinearProgram(n, tuple(c), tuple(shifted)))
            assert status == "optimal" and value == want - sum(a * lj for a, lj in zip(c, low))
            assert sum(a * tj for a, tj in zip(c, t)) == value
            assert all(sum(a * t[j] for j, a in row.items()) <= b for row, b in zip(G, h))
            assert dual_certifies(scaled_system(G, h), c, value, core.dual)
            solves += 1
            negative += any(tj < 0 for tj in t)
    assert solves >= 75 and negative >= 10


def test_slack_basis_reports_an_unbounded_objective():
    # t0 <= 1 and t1 >= -1 leave t0 free downwards
    core = SlackBasisSimplex([{0: ONE}, {1: -ONE}], [ONE, ONE], 2)
    assert core.solve([ONE, -ONE]) == (F(2), [ONE, -ONE])
    with pytest.raises(DomainError, match="unbounded"):
        core.solve([-ONE, ZERO])


# -- the t-space sweep takes the split tableau's Bland pivots ----------------------------


class _SplitTableau:
    """The sweep's former layout, on the tableau kernel that solve_lp keeps:
    t = u - w with u_j in column j, w_j in column width + j and slack_i in
    column 2*width + i, warm-started from the all-slack basis."""

    def __init__(self, G, h, width):
        self.width = width
        self.rows = [
            lp._integer_row(self._split(row) | {2 * width + i: ONE, lp.RHS: b})
            for i, (row, b) in enumerate(zip(G, h))
        ]
        self.basis = [2 * width + i for i in range(len(G))]

    def _split(self, row):
        return row | {self.width + j: -a for j, a in row.items()}

    def solve(self, objective):
        cost = lp._integer_row(self._split(dict(enumerate(objective))) | {lp.Z: ONE})
        status, _red = lp._optimize(self.rows, self.basis, cost)
        assert status == "optimal"


def _pivot_paths(monkeypatch, G, h, width, objectives):
    """(leaving column, entering column) of every pivot of both cores."""
    t_path, split_path = [], []
    pivot, tableau_pivot = lp._pivot, lp._tableau_pivot

    def t_pivot(*args):
        t_path.append(args[-2:])
        pivot(*args)

    def split_pivot(rows, basis, r, e):
        split_path.append((basis[r], e))
        tableau_pivot(rows, basis, r, e)

    monkeypatch.setattr(lp, "_pivot", t_pivot)
    monkeypatch.setattr(lp, "_tableau_pivot", split_pivot)
    core, split = SlackBasisSimplex(G, h, width), _SplitTableau(G, h, width)
    for c in objectives:
        core.solve(c)
        split.solve(c)
    return t_path, split_path


def _sweep_program(monkeypatch, m, n, eps):
    """G, h, width and the objectives, in order, of max_distance's sweep."""
    seen = []

    class Recorded(SlackBasisSimplex):
        def __init__(self, G, h, width):
            super().__init__(G, h, width)
            seen.append((G, h, width, []))

        def solve(self, objective):
            seen[-1][3].append(objective)
            return super().solve(objective)

    with monkeypatch.context() as patch:
        patch.setattr(polytope, "SlackBasisSimplex", Recorded)
        polytope.max_distance(m, n, eps)
    (program,) = seen
    return program


@pytest.mark.parametrize(
    "m, n, eps",
    [(3, 2, F(1, 10)), (3, 3, F(1, 10)), pytest.param(4, 2, F(1, 10), marks=pytest.mark.slow)],
)
def test_sweep_takes_the_split_tableau_pivot_path(monkeypatch, m, n, eps):
    t_path, split_path = _pivot_paths(monkeypatch, *_sweep_program(monkeypatch, m, n, eps))
    assert t_path == split_path and t_path


def test_random_free_polytopes_take_the_split_tableau_pivot_path(monkeypatch):
    rng = random.Random(7)
    pivots = 0
    for _ in range(25):
        G, h, n, _low = _random_free_polytope(rng)
        objectives = [[F(rng.randrange(-5, 6), rng.choice((1, 4))) for _ in range(n)]
                      for _ in range(rng.randrange(3, 7))]
        t_path, split_path = _pivot_paths(monkeypatch, G, h, n, objectives)
        assert t_path == split_path
        pivots += len(t_path)
    assert pivots >= 100


def test_cached_reduced_costs_and_degenerate_steps(monkeypatch):
    """After every pivot each cached reduced cost is cost . direction, taken
    from scratch, and a step of value 0 leaves the vertex and slacks as they were."""
    rng = random.Random(7)
    pivot = lp._pivot
    cost = []
    steps = {"degenerate": 0, "moving": 0}

    def checked(core, delta, red_delta, rates, value, rate, leave, enter):
        assert red_delta == sum(map(mul, cost, delta))
        before = (list(core.tnum), list(core.snum), core.den)
        pivot(core, delta, red_delta, rates, value, rate, leave, enter)
        assert core.red.keys() == core.dirs.keys()
        assert all(core.red[key] == sum(map(mul, cost, x)) for key, x in core.dirs.items())
        if value:
            steps["moving"] += 1
        else:
            assert (core.tnum, core.snum, core.den) == before
            steps["degenerate"] += 1

    monkeypatch.setattr(lp, "_pivot", checked)
    for _ in range(25):
        G, h, n, _low = _random_free_polytope(rng)
        core = SlackBasisSimplex(G, h, n)
        for _ in range(rng.randrange(3, 7)):
            c = [F(rng.randrange(-5, 6), rng.choice((1, 4))) for _ in range(n)]
            scale = math.lcm(*(a.denominator for a in c))
            cost[:] = [a.numerator * (scale // a.denominator) for a in c]
            core.solve(c)
    assert steps["degenerate"] >= 20 and steps["moving"] >= 150


def test_dual_check_rejects_tampered_duals():
    # max t0 + t1 over t0 + 2 t1 <= 4, 3 t0 + t1 <= 6, t >= 0: optimum 14/5
    G = [{0: ONE, 1: F(2)}, {0: F(3), 1: ONE}, {0: -ONE}, {1: -ONE}]
    h = [F(4), F(6), ZERO, ZERO]
    c = [ONE, ONE]
    core = SlackBasisSimplex(G, h, 2)
    value, _ = core.solve(c)
    y = core.dual
    assert value == F(14, 5) and y == [F(2, 5), F(1, 5), ZERO, ZERO]
    system = scaled_system(G, h)
    assert dual_certifies(system, c, value, y)
    assert not dual_certifies(system, c, value, [y[0] + F(1, 10)] + y[1:])  # one entry shifted
    assert not dual_certifies(system, c, value, y[:2] + [F(-1), ZERO])  # one entry negative
    # y^T G = c and y^T h = 0, a false bound of 0 that only the sign check catches
    assert not dual_certifies(system, c, ZERO, [ZERO, ZERO, F(-1), F(-1)])
    assert not dual_certifies(system, c, value + 1, y)  # y^T h no longer the value
    assert not dual_certifies(system, c, value, y[:3])  # one entry short


# -- elimination on rational systems and on the polytope's equalities ------------


def _rational(rng):
    return F(rng.randrange(-6, 7), rng.randrange(1, 6))


def _check_pivot_rows_hold_no_pivot_column(pivots, free, n):
    assert sorted([*pivots, *free]) == list(range(n))
    for prow, _ in pivots.values():
        assert not set(prow) & set(pivots)


def test_reduce_equalities_on_rational_systems():
    """Coefficients and right-hand sides with denominators 1 to 5."""
    rng = random.Random(29)
    inconsistent = 0
    for _ in range(300):
        n = rng.randrange(1, 8)
        base = [_rational(rng) for _ in range(n)]
        rows = []
        for _ in range(rng.randrange(1, n + 3)):
            row = {j: _rational(rng) for j in range(n) if rng.randrange(3)}
            rows.append((row, sum((a * base[j] for j, a in row.items()), ZERO)))
        if rng.randrange(2):
            # A combination of the rows whose right-hand side is shifted: no
            # solution of the system satisfies it, even when its row cancels to 0.
            weights = [_rational(rng) for _ in rows]
            combo = {j: sum((w * row.get(j, ZERO) for w, (row, _) in zip(weights, rows)), ZERO)
                     for j in range(n)}
            shift = _rational(rng) or ONE
            rhs = sum((w * b for w, (_, b) in zip(weights, rows)), ZERO) + shift
            rows.insert(rng.randrange(len(rows) + 1), (combo, rhs))
            assert reduce_equalities(rows, n) is None
            inconsistent += 1
            continue
        reduced = reduce_equalities(rows, n)
        assert reduced is not None
        pivots, free = reduced
        _check_pivot_rows_hold_no_pivot_column(pivots, free, n)
        for _ in range(3):  # any free assignment extends to a solution
            x = [ZERO] * n
            for f in free:
                x[f] = _rational(rng)
            for p, (prow, prhs) in pivots.items():
                x[p] = prhs - sum(a * x[f] for f, a in prow.items())
            for row, rhs in rows:
                assert sum(a * x[j] for j, a in row.items()) == rhs
    assert 100 < inconsistent < 200


# Free columns and a digest of the pivots (columns in order, rows, right-hand
# sides) of the polytope's equality system, pinned from the Fraction
# Gauss-Jordan elimination that the integer-row elimination replaced.
POLYTOPE_ELIMINATIONS = {
    (3, 3, F(1, 10)): (
        [107, 110, 119, 137, 140, 146, 155, 157, 160, 163, 166, 167],
        "a89e11186b5a9432a1f39e9adfdf0f57d1b387ef1fbb88636d0c673aa7f26ac3",
    ),
    (3, 4, F(1, 10)): (
        [272, 275, 284, 302, 332, 335, 341, 350, 362, 364, 367, 370, 373, 376, 377],
        "db8a525e638bc4dd5244dcaa15b8b6c3a5f2b0a825cbbc19cf538624a61c5282",
    ),
    (3, 4, F(0)): ([], "80a0756203f0b039982765fe81294c4ecd48b23d01e186e6fc265ca0bf8d6c67"),
}


@pytest.mark.parametrize("m,n,eps", sorted(POLYTOPE_ELIMINATIONS))
def test_reduce_equalities_is_pinned_on_the_polytope(m, n, eps):
    lp = build_polytope(m, n, eps)
    eqs = [(dict(c.terms), c.rhs) for c in lp.constraints if c.rel == REL_EQ]
    pivots, free = reduce_equalities(eqs, lp.n_vars)
    _check_pivot_rows_hold_no_pivot_column(pivots, free, lp.n_vars)
    text = repr([(p, sorted(row.items()), rhs) for p, (row, rhs) in pivots.items()])
    assert (free, hashlib.sha256(text.encode()).hexdigest()) == POLYTOPE_ELIMINATIONS[(m, n, eps)]
