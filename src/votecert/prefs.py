"""Candidates, strict preference orderings, profiles, and adjacent swaps.

An ordering is a tuple of candidate ids (best first) and is identified by
its lexicographic rank among all m! orderings.  An anonymous profile is the
sorted tuple of its voters' ordering ranks, which makes it a canonical
multiset key: voter permutations map to the same tuple.  Profiles are
enumerated only in this form; an ordered profile (a tuple of orderings) is
only an input, which `canonicalize` turns into its key.

`profile_walk(m, n)` indexes the anonymous profiles in enumeration order:
the profile that an (n-1)-voter context makes with one more voter of a given
rank, and each profile's top counts.  The swap meters, the polytope rows and
the SP opponent walk read these indices instead of sorting a tuple and
hashing it for every (profile, swap) pair.  The table is built once per
(m, n) and cached.

Size caps come from VOTECERT_MAX_M and VOTECERT_MAX_PROFILES; successful
enumerations are cached per m, so overrides should be set before first use
(i.e. at process start).  The profile cap is still checked on every
`profile_walk` call, cached or not.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import lru_cache

from .errors import CapExceededError, DomainError, ValidationError

Ordering = tuple[int, ...]
Profile = tuple[Ordering, ...]
AnonKey = tuple[int, ...]
ProfileWalk = tuple[tuple[AnonKey, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]

DEFAULT_MAX_M = 5
DEFAULT_MAX_PROFILES = 10_000_000

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _env_cap(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {text!r}")
    return value


def max_m() -> int:
    """Candidate-count cap; override with VOTECERT_MAX_M."""
    return _env_cap("VOTECERT_MAX_M", DEFAULT_MAX_M)


def max_profiles() -> int:
    """Profile-enumeration cap; override with VOTECERT_MAX_PROFILES."""
    return _env_cap("VOTECERT_MAX_PROFILES", DEFAULT_MAX_PROFILES)


def candidate_names(m: int) -> tuple[str, ...]:
    """Default display names a, b, c, ..."""
    if m <= len(_ALPHABET):
        return tuple(_ALPHABET[:m])
    return tuple(f"c{i}" for i in range(m))


@lru_cache(maxsize=None)
def enumerate_orderings(m: int) -> tuple[Ordering, ...]:
    """All m! strict orderings of candidates 0..m-1, in lexicographic order."""
    if m < 1:
        raise DomainError(f"need at least one candidate, got m={m}")
    cap = max_m()
    if m > cap:
        raise CapExceededError(f"m={m} exceeds the candidate cap m <= {cap}")
    return tuple(itertools.permutations(range(m)))


@lru_cache(maxsize=None)
def _rank_of(m: int) -> dict[Ordering, int]:
    return {o: i for i, o in enumerate(enumerate_orderings(m))}


@lru_cache(maxsize=None)
def adjacent_swaps(m: int) -> tuple[tuple[int, ...], ...]:
    """swaps[r][p] is the rank of ordering r with positions p and p+1 exchanged."""
    return tuple(
        tuple(ordering_rank(o[:p] + (o[p + 1], o[p]) + o[p + 2:]) for p in range(m - 1))
        for o in enumerate_orderings(m)
    )


def ordering_rank(ordering: Ordering) -> int:
    """Lexicographic rank of an ordering among all orderings of its size."""
    try:
        return _rank_of(len(ordering))[tuple(ordering)]
    except KeyError:
        raise DomainError(f"{ordering!r} is not a permutation of 0..{len(ordering) - 1}") from None


def upper_set(ordering: Ordering, k: int) -> frozenset[int]:
    """The k highest-ranked candidates."""
    if not 1 <= k <= len(ordering):
        raise DomainError(f"upper-set size k={k} outside 1..{len(ordering)}")
    return frozenset(ordering[:k])


def canonicalize(profile: Profile) -> AnonKey:
    """Anonymous-profile key: the voters' sorted ordering_rank; DomainError for no voter or two sizes."""
    if len(set(map(len, profile))) != 1:
        raise DomainError(f"need at least one ordering, all of one size, got sizes {list(map(len, profile))}")
    return tuple(sorted(map(ordering_rank, profile)))


def count_anonymous_profiles(m: int, n: int) -> int:
    """Number of size-n multisets over the m! orderings."""
    return math.comb(math.factorial(m) + n - 1, n)


def enumerate_profiles(m: int, n: int):
    """Iterate the anonymous profiles (AnonKey tuples) of (m, n), in
    combinations_with_replacement order, deterministically and without
    duplicates.  Raises CapExceededError when their number exceeds the
    profile cap.
    """
    if n < 1:
        raise DomainError(f"need at least one voter, got n={n}")
    orderings = enumerate_orderings(m)
    cap = max_profiles()
    total = count_anonymous_profiles(m, n)
    if total > cap:
        raise CapExceededError(
            f"{total} anonymous profiles at (m={m}, n={n}) exceed the profile cap {cap}"
        )
    return itertools.combinations_with_replacement(range(len(orderings)), n)


def profile_walk(m: int, n: int) -> ProfileWalk:
    """(contexts, at, top_counts): index tables over the anonymous profiles of
    (m, n) in enumeration order, built once; the profile cap is checked on
    every call.

    contexts[c] is the c-th (n-1)-voter multiset in combinations_with_replacement
    order; at[c][r] is the enumeration index of sorted(contexts[c] + (r,)), the
    profile the context makes with one more voter of ordering rank r; and
    top_counts[i][x] is the number of voters with x on top in profile i.
    """
    enumerate_profiles(m, n)  # the cap and the domain checks
    return _profile_walk(m, n)


@lru_cache(maxsize=None)
def _profile_walk(m: int, n: int) -> ProfileWalk:
    tops = [o[0] for o in enumerate_orderings(m)]
    ranks = range(len(tops))
    contexts = tuple(itertools.combinations_with_replacement(ranks, n - 1))
    context_index = {others: c for c, others in enumerate(contexts)}
    at = [[0] * len(tops) for _ in contexts]
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per distinct count vector
    top_counts = []
    # A sorted key less its first r is the sorted context that r completes to key.
    for i, key in enumerate(itertools.combinations_with_replacement(ranks, n)):
        counts = [0] * m
        for j, r in enumerate(key):
            counts[tops[r]] += 1
            if j == 0 or key[j - 1] != r:
                at[context_index[key[:j] + key[j + 1:]]][r] = i
        counts = tuple(counts)
        top_counts.append(shared.setdefault(counts, counts))
    return contexts, tuple(map(tuple, at)), tuple(top_counts)


def kendall_tau(a: Ordering, b: Ordering) -> int:
    """Number of candidate pairs ordered differently by a and b."""
    pos = {c: i for i, c in enumerate(b)}
    seq = [pos[c] for c in a]
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])


def swap_path(
    a: Profile, b: Profile, forbidden: int | None = None
) -> list[tuple[int, tuple[int, int]]]:
    """Adjacent-swap schedule turning profile a into profile b.

    Voters are processed in index order; within a voter, the candidate the
    target wants at the highest disagreeing position is bubbled up one
    adjacent swap at a time.  Each swap fixes one inversion, so the path
    length is the summed Kendall-tau distance (minimal).

    Swaps are reported as (voter, (above, below)): the two candidates
    adjacent at swap time, which exchange places.

    When `forbidden` is given, the set of candidates ranked above it must
    agree between a_i and b_i for every voter i (equal position alone does
    not admit a path that never moves it); the schedule then never touches
    the forbidden candidate.
    """
    if len(a) != len(b):
        raise DomainError(f"profiles have different sizes {len(a)} and {len(b)}")
    path: list[tuple[int, tuple[int, int]]] = []
    for voter, (src, tgt) in enumerate(zip(a, b)):
        if set(src) != set(tgt) or len(src) != len(tgt):
            raise DomainError(f"voter {voter}: orderings use different candidate sets")
        if forbidden is not None:
            if forbidden not in src:
                raise DomainError(f"forbidden candidate {forbidden} not in voter {voter}'s ordering")
            fa, fb = src.index(forbidden), tgt.index(forbidden)
            if fa != fb or set(src[:fa]) != set(tgt[:fb]):
                raise DomainError(
                    f"voter {voter}: placement of forbidden candidate {forbidden} "
                    "differs between the two profiles"
                )
        cur = list(src)
        for pos, want in enumerate(tgt):
            q = cur.index(want)
            while q > pos:
                above, below = cur[q - 1], cur[q]
                cur[q - 1], cur[q] = below, above
                path.append((voter, (above, below)))
                q -= 1
    return path


def parse_ordering(text: str, names: tuple[str, ...]) -> Ordering:
    """Parse "a>b>c" into a tuple of candidate ids."""
    ids = {name: i for i, name in enumerate(names)}
    parts = [p.strip() for p in text.split(">")]
    try:
        ordering = tuple(ids[p] for p in parts)
    except KeyError as exc:
        raise DomainError(f"unknown candidate {exc.args[0]!r} in ordering {text!r}") from None
    if sorted(ordering) != list(range(len(names))):
        raise DomainError(f"ordering {text!r} is not a permutation of all {len(names)} candidates")
    return ordering


def format_ordering(ordering: Ordering, names: tuple[str, ...]) -> str:
    return ">".join(names[c] for c in ordering)


def format_key(key: AnonKey, names: tuple[str, ...]) -> list[str]:
    """The orderings whose ranks key lists, as "a>b>c" strings in key order."""
    orderings = enumerate_orderings(len(names))
    return [format_ordering(orderings[r], names) for r in key]

