"""Orderings, profiles, and the adjacent-swap machinery.

Claims covered:
    - enumeration counts and lexicographic conventions
    - swap_path: replay reproduces the target, never moves the forbidden
      candidate, and has exactly Kendall-tau length
    - canonicalize is invariant under all voter permutations (exhaustive)
    - caps raise resource errors that name the limit
"""

import itertools
import random

import pytest

from votecert.errors import CapExceededError, DomainError
from votecert.prefs import (
    canonicalize,
    candidate_names,
    count_anonymous_profiles,
    enumerate_orderings,
    enumerate_profiles,
    format_ordering,
    kendall_tau,
    ordering_rank,
    parse_ordering,
    swap_path,
    upper_set,
)

A, B, C = 0, 1, 2


def apply_swaps(profile, path):
    """Independent replay: exchange the named adjacent pair at each step."""
    state = [list(o) for o in profile]
    for voter, (above, below) in path:
        row = state[voter]
        i = row.index(above)
        assert row[i + 1] == below, "swapped candidates must be adjacent, above first"
        row[i], row[i + 1] = row[i + 1], row[i]
    return tuple(tuple(row) for row in state)


# -- enumeration ---------------------------------------------------------------


def test_ordering_counts():
    assert len(enumerate_orderings(3)) == 6
    assert len(enumerate_orderings(1)) == 1
    orderings = enumerate_orderings(4)
    assert len(orderings) == 24
    assert orderings[0] == (0, 1, 2, 3)
    assert len(set(orderings)) == 24


def test_ordering_cap_names_limit():
    with pytest.raises(CapExceededError, match="5"):
        enumerate_orderings(6)


def test_ordering_rank_roundtrip():
    for i, o in enumerate(enumerate_orderings(3)):
        assert ordering_rank(o) == i
    with pytest.raises(DomainError):
        ordering_rank((0, 0, 1))


def test_profile_counts():
    assert len(list(enumerate_profiles(3, 2))) == 21
    assert len(list(enumerate_profiles(2, 3))) == 4
    assert count_anonymous_profiles(3, 3) == 56
    assert len(list(enumerate_profiles(3, 3))) == 56


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 1), (3, 3), (4, 2), (4, 4)])
def test_anonymous_profiles_come_in_ascending_order(m, n):
    # rule tables store their view in this order, and the rule file writer
    # and perturb iterate it as ascending key order without sorting
    keys = list(enumerate_profiles(m, n))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(key == tuple(sorted(key)) for key in keys)


def test_profile_cap_names_limit():
    with pytest.raises(CapExceededError, match="10000000"):
        enumerate_profiles(5, 5)


# -- top / upper_set ------------------------------------------------------


def test_upper_set():
    assert upper_set((A, B, C), 1) == {A}
    assert upper_set((A, B, C), 2) == {A, B}
    assert upper_set((A, B, C), 3) == {A, B, C}
    with pytest.raises(DomainError):
        upper_set((A, B, C), 0)
    with pytest.raises(DomainError):
        upper_set((A, B, C), 4)


# -- swap_path ---------------------------------------------------------------------


def test_swap_path_identity():
    p = ((A, B, C), (C, B, A))
    assert swap_path(p, p) == []


def test_swap_path_single_inversion():
    path = swap_path(((A, B, C),), ((A, C, B),), forbidden=A)
    assert path == [(0, (B, C))]


def test_swap_path_placement_mismatch_names_voter():
    a = ((A, B, C), (B, A, C))
    b = ((A, B, C), (A, B, C))
    with pytest.raises(DomainError, match="voter 1"):
        swap_path(a, b, forbidden=A)


def test_swap_path_property_seeded():
    """Replay, forbidden immobility, intermediate validity, minimal length."""
    rng = random.Random(2024)
    top_x_orderings = [o for o in enumerate_orderings(3) if o[0] == A]
    for _ in range(500):
        pa = tuple(rng.choice(top_x_orderings) for _ in range(3))
        pb = tuple(rng.choice(top_x_orderings) for _ in range(3))
        path = swap_path(pa, pb, forbidden=A)
        assert apply_swaps(pa, path) == pb
        assert all(A not in pair for _, pair in path)
        assert len(path) == sum(kendall_tau(x, y) for x, y in zip(pa, pb))
        # forbidden stays put in every intermediate profile
        state = pa
        for step in path:
            state = apply_swaps(state, [step])
            assert all(o.index(A) == pa[i].index(A) for i, o in enumerate(state))


def test_swap_path_without_forbidden_seeded():
    rng = random.Random(7)
    orderings = enumerate_orderings(4)
    for _ in range(200):
        pa = tuple(rng.choice(orderings) for _ in range(2))
        pb = tuple(rng.choice(orderings) for _ in range(2))
        path = swap_path(pa, pb)
        assert apply_swaps(pa, path) == pb
        assert len(path) == sum(kendall_tau(x, y) for x, y in zip(pa, pb))


# -- canonicalize ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonicalize_permutation_invariance_exhaustive(n):
    for profile in itertools.product(enumerate_orderings(3), repeat=n):
        key = canonicalize(profile)
        for perm in itertools.permutations(range(n)):
            assert canonicalize(tuple(profile[i] for i in perm)) == key


def test_canonicalize_examples():
    p, q = (A, B, C), (B, A, C)
    assert canonicalize((p, q)) == canonicalize((q, p))
    assert canonicalize((p, p, p)) == (0, 0, 0)


# -- text forms ---------------------------------------------------------------------


def test_ordering_text_roundtrip():
    names = candidate_names(3)
    assert parse_ordering("a>b>c", names) == (A, B, C)
    assert format_ordering((C, A, B), names) == "c>a>b"
    with pytest.raises(DomainError):
        parse_ordering("a>b", names)
    with pytest.raises(DomainError):
        parse_ordering("a>b>z", names)
