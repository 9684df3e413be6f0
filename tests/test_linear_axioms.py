"""Each linear axiom's meter agrees with its polytope rows.

A rule table satisfies the pairwise-responsiveness rows exactly when its
responsiveness deviation is 0, likewise for isolation, and it satisfies the
eps-strong-unanimity rows exactly when its strong-unanimity eps is at most
eps.  The meters and the rows are both built from the generators in
`votecert.axioms`, and this pins that they say the same thing.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest

from votecert.axioms import (
    isolation_deviation,
    min_eps_strong_unanimity,
    responsiveness_deviation,
)
from votecert.polytope import build_polytope
from votecert.rules import (
    mixture,
    pair_rule,
    perturb,
    plurality_fixed_tiebreak,
    plurality_uniform_tiebreak,
    random_dictatorship,
    rank_rule,
    uniform_rule,
)

SIZES = [(3, 2), (3, 3)]


def corpus(m, n):
    rd = random_dictatorship(m, n)
    un = uniform_rule(m, n)
    return {
        "random-dictatorship": rd,
        "uniform": un,
        "plurality-uniform-tiebreak": plurality_uniform_tiebreak(m, n),
        "plurality-fixed-tiebreak": plurality_fixed_tiebreak(m, n),
        "second-rank": rank_rule(m, n, 2),
        "pair-a-c": pair_rule(m, n, 0, 2),
        "perturbed-dictatorship": perturb(rd, F(1, 3), 1),
        "dictatorship-uniform-mixture": mixture([rd, un], [F(1, 4), F(3, 4)]),
    }


@lru_cache(maxsize=None)
def polytope(m, n, eps, part):
    return build_polytope(m, n, eps, {part})


def satisfies(v, lp):
    """Does the table, as a vector in build_polytope's variable order, meet every row?"""
    x = [p for key in sorted(v.keys()) for p in v.lottery_at(key)]
    for c in lp.constraints:
        lhs = sum(a * xj for a, xj in zip(c.coeffs, x) if a)
        if not {"<=": lhs <= c.rhs, ">=": lhs >= c.rhs, "=": lhs == c.rhs}[c.rel]:
            return False
    return True


def _cases():
    return [(m, n, name) for m, n in SIZES for name in corpus(m, n)]


@pytest.mark.parametrize("m,n,name", _cases())
def test_meters_match_polytope_rows(m, n, name):
    v = corpus(m, n)[name]
    responsive = satisfies(v, polytope(m, n, F(0), "responsive"))
    assert (responsiveness_deviation(v).eps == 0) == responsive
    isolated = satisfies(v, polytope(m, n, F(0), "isolated"))
    assert (isolation_deviation(v).eps == 0) == isolated
    own = min_eps_strong_unanimity(v).eps
    for eps in sorted({F(0), own, F(1, 10), F(1, 2)}):
        assert (own <= eps) == satisfies(v, polytope(m, n, eps, "unanimity")), eps


def test_corpus_exercises_both_verdicts():
    """Not vacuous: each axiom holds on some table of the corpus and fails on another."""
    seen = {"responsive": set(), "isolated": set(), "unanimity": set()}
    for m, n in SIZES:
        for v in corpus(m, n).values():
            seen["responsive"].add(responsiveness_deviation(v).eps == 0)
            seen["isolated"].add(isolation_deviation(v).eps == 0)
            seen["unanimity"].add(min_eps_strong_unanimity(v).eps <= F(1, 10))
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen
