"""Exhaustive enumeration of curve classes in blow-ups of the plane.

A candidate class is ``a*h - b_1*e_1 - ... - b_N*e_N`` with the exceptional
coefficients kept as a sorted non-increasing tuple, so each multiset of
coefficients appears exactly once.  A curve in this class is a hat for
T(p,p+1)#T(2,3), the link of its two cusps, of maximal slk p^2 - p + 1: its
genus is the degree-a hat genus of :func:`hatlab.bounds.hat_genus_at_degree`
less b_i(b_i - 1)/2 for each blown-up point.  Searches keep all classes of
the requested genus in range and annotate each with the positivity
constraints of lines and conics through blown-up points (with the sentinel
coefficients b_{N+1} = p and b_{N+2} = 2, in ``_gromov``) and with the
Ohta-Ono self-intersection cap ``a^2 - sum(b_i^2) <= p^2 + 9`` for curves
with a simple cusp.

All arithmetic is exact; enumeration bounds are explicit so completeness is
auditable: positivity forces 0 <= b_i <= a for any solution with a > 0.
The walk starts at the least degree whose hat genus reaches the genus,
from ``bounds.triangular_lb``, so every degree walked visits a node and
``NODE_CAP`` bounds the whole search.

Each solution is one slotted :class:`Annotated` record that holds ``a``
and the walk's tuple ``b``; the five positivity flags are shared, one
:class:`GromovDetail` per combination.  The walk emits each degree's tuples
non-increasing and lexicographically descending, so the solutions come out
in output order and nothing is sorted.  The subtree of the last three
entries after a prefix is walked once per search and its tails are reused;
``nodes`` still counts the whole enumeration tree, each reused subtree in
full, so ``nodes`` and ``NODE_CAP`` are those of the plain walk.  The flags
depend only on ``a`` and ``b[:5]``, so they are computed once per run of
tuples with equal leading entries.  A class passes when ``all_permuted``
holds, which implies the other four flags.

The records hold no reference cycles, so ``search`` pauses the cyclic
garbage collector while it walks and builds them, and restores it on the
way out, error or not, only if it was running on entry.  The pause is
process-wide; hatlab is single-threaded.  README gives the measurements
behind these choices.
"""

from __future__ import annotations

import gc
from functools import cache
from math import isqrt
from operator import mul

from . import HatlabError, Record
from .bounds import hat_genus_at_degree, triangular_lb


class SearchError(HatlabError):
    pass


class GromovDetail(Record):
    __slots__ = (
        "line_with_cusp",     # a >= b_1 + p
        "line_two_points",    # a >= b_1 + b_2
        "conic_with_cusp",    # 2a >= b_1 + b_2 + b_3 + b_4 + p
        "conic_five_points",  # 2a >= b_1 + ... + b_5
        "all_permuted",       # with sentinels appended and re-sorted
    )

    @property
    def passes(self) -> bool:
        # the top two (five) of b and the sentinels outweigh any two (five): this implies the rest
        return self.all_permuted


_ZEROS = (0,) * 5


def _gromov(p: int, a: int, b: tuple[int, ...]) -> GromovDetail:
    """Positivity of class (a; b) against rational curves of degree 1 and 2.

    Sentinel coefficients b_{N+1} = p and b_{N+2} = 2 stand for the two
    cusps; appending them before sorting covers every index-permuted variant
    of the named inequalities.
    """
    # b is non-increasing, so the five largest of b plus the sentinels are
    # among its first five entries (zero-padded) and p, 2
    b0, b1, b2, b3, b4 = (b[:5] + _ZEROS)[:5]
    e0, e1, e2, e3, e4, _, _ = sorted((b0, b1, b2, b3, b4, p, 2), reverse=True)
    return _shared_detail(
        a >= b0 + p,                                          # line_with_cusp
        a >= b0 + b1,                                         # line_two_points
        2 * a >= b0 + b1 + b2 + b3 + p,                       # conic_with_cusp
        2 * a >= b0 + b1 + b2 + b3 + b4,                      # conic_five_points
        a >= e0 + e1 and 2 * a >= e0 + e1 + e2 + e3 + e4,     # all_permuted
    )


@cache
def _shared_detail(*flags: bool) -> GromovDetail:
    # at most 32 distinct details exist; every class with the same flags shares one
    return GromovDetail(*flags)


class Annotated(Record):
    """One search solution: the class (a; b) held inline, with ``b`` as the
    walk emits it (non-increasing), and its annotations."""

    __slots__ = ("a", "b", "gromov", "ohta_ono")

    def __init__(self, a: int, b: tuple[int, ...], gromov: GromovDetail, ohta_ono: bool):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gromov", gromov)
        object.__setattr__(self, "ohta_ono", ohta_ono)

    @property
    def self_intersection(self) -> int:
        return self.a * self.a - sum(map(mul, self.b, self.b))

    @property
    def cls(self) -> Annotated:
        # an alias for perfbench's Search.check, which reads s.cls.a, .b and .self_intersection
        return self

    @property
    def survives(self) -> bool:
        return self.gromov.passes and self.ohta_ono


class SearchReport(Record):
    # nodes counts the enumeration nodes visited
    __slots__ = ("p", "blowups", "genus", "a_min", "a_max", "solutions", "nodes")

    @property
    def surviving(self) -> list[Annotated]:
        return [s for s in self.solutions if s.survives]


# Entries at the end of the walk whose subtrees are walked once per search;
# README gives the time and memory of 2, 3 and 4.
_TAIL = 3


def _walk(n: int, hi: int, budget: int, prefix: list[int], out: list[tuple[int, ...]],
          visited: list[int], cap: int, memo: dict) -> None:
    """Append to ``out`` every non-increasing n-tuple with entries in
    [0, hi] and sum of b*(b-1) equal to the budget, each after ``prefix``.

    Tuples come out lexicographically descending.  Every call is one node
    of the enumeration and adds one to ``visited[0]``, and so does every
    leaf (a full tuple) tested in the last level's loop; the node that
    takes the count past ``cap`` raises.  The last ``_TAIL`` entries after
    a prefix come from :func:`_tail`.
    """
    visited[0] += 1
    if visited[0] > cap:
        raise _over_cap(cap)
    if n == 0:
        if budget == 0:
            out.append(tuple(prefix))
        return
    # start at the largest entry with first*(first-1) <= budget
    top = min(hi, (1 + isqrt(1 + 4 * budget)) // 2)
    if n == 1:
        # entries only shrink from here, so once one misses the budget
        # every later one does too
        for first in range(top, -1, -1):
            if first * (first - 1) != budget:
                break
            visited[0] += 1
            if visited[0] > cap:
                raise _over_cap(cap)
            out.append((*prefix, first))
        return
    # below this level's entry the last _TAIL entries are a reused subtree;
    # a degree's top call never repeats, so it is always walked
    step = _tail if n - 1 == _TAIL else _walk
    # entries below are at most `first`, so the most this level can still
    # consume is n * first*(first-1)
    for first in range(top, -1, -1):
        w = first * (first - 1)
        rest = budget - w
        if rest > (n - 1) * w:
            break  # smaller entries cannot make up the remainder
        prefix.append(first)
        step(n - 1, first, rest, prefix, out, visited, cap, memo)
        prefix.pop()


def _tail(n: int, hi: int, budget: int, prefix: list[int], out: list[tuple[int, ...]],
          visited: list[int], cap: int, memo: dict) -> None:
    """:func:`_walk` for the last ``_TAIL`` entries after a prefix, whose
    subtree is walked once per search.

    ``memo`` maps the subtree's ``(n, hi, budget)`` to its tails and its
    node count.  A later visit emits each tail after the prefix and adds
    the whole count, checking the cap after the addition.
    """
    key = (n, hi, budget)
    hit = memo.get(key)
    if hit is None:
        start = visited[0]
        tails: list[tuple[int, ...]] = []
        _walk(n, hi, budget, [], tails, visited, cap, memo)
        hit = memo[key] = (tuple(tails), visited[0] - start)
    else:
        visited[0] += hit[1]
        if visited[0] > cap:
            raise _over_cap(cap)
    head = tuple(prefix)
    out += [head + tail for tail in hit[0]]


def _over_cap(cap: int) -> SearchError:
    return SearchError(f"enumeration exceeds cap: more than {cap} nodes visited")


NODE_CAP = 10_000_000


def search(p: int, blowups: int, a_min: int, a_max: int, genus: int = 0) -> SearchReport:
    """Enumerate all adjunction solutions in range and annotate them.

    A class of degree a has the requested genus when ``sum b_i(b_i - 1) =
    2*(g_hat(a) - genus)``, with ``g_hat`` the hat genus from
    :mod:`hatlab.bounds`; the inner enumeration walks non-increasing tuples
    to that budget with exact pruning.  It emits the solutions ascending in
    a and lexicographically descending in b; results are independent of
    chunking.  Annotations share their :class:`GromovDetail` objects.
    ``NODE_CAP`` (10,000,000) bounds the work done: the search raises
    :class:`SearchError` once the enumeration has visited more than
    ``NODE_CAP`` nodes over all degrees; ``nodes`` in the report is the
    count visited.  It counts the enumeration tree: a subtree whose tails
    the walk reuses counts in full each time, so ``nodes`` and whether the
    cap trips do not depend on the reuse.  The walk nests one call per
    blow-up, so a search with more blow-ups than Python's recursion limit
    allows raises :class:`SearchError` too.  A refused argument is named by
    the ``hatlab search`` option that sets it, with the value given.

    The cyclic garbage collector is paused while the search runs, as its
    records form no cycles; on exit, after a :class:`SearchError` too, it is
    enabled again if and only if it was enabled on entry.  The pause is
    process-wide, which is safe as hatlab runs one thread.
    """
    if p < 2:
        raise SearchError(f"--p must be >= 2, got {p}")
    if blowups < 0:
        raise SearchError(f"--blowups must be >= 0, got {blowups}")
    if genus < 0:
        raise SearchError(f"--genus must be >= 0, got {genus}")
    if a_min < 0:
        raise SearchError(f"--amin must be >= 0, got {a_min}")
    if a_max < a_min:
        raise SearchError(f"--amin {a_min} > --amax {a_max}")
    # T(p,p+1)#T(2,3), the link of the two cusps, has maximal slk p^2 - p + 1
    slk = p * p - p + 1
    # a rational cuspidal curve with a simple cusp has self-intersection at
    # most 9 once its T(p,p+1) point is blown down (Ohta-Ono)
    self_int_cap = p * p + 9
    # the least degree whose hat genus reaches `genus`; below it no budget is left
    first = triangular_lb((slk + 1) // 2 + genus)[1]
    visited = [0]
    memo: dict = {}  # the walk's tails, for this search only
    found: list[Annotated] = []
    # the records form no cycles, so a collection pass would free nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        for a in range(max(a_min, first), a_max + 1):
            # twice the genus the blown-up points absorb, sum b_i(b_i - 1)/2
            budget = 2 * (hat_genus_at_degree(slk, a) - genus)
            tuples: list[tuple[int, ...]] = []
            try:
                _walk(blowups, a, budget, [], tuples, visited, NODE_CAP, memo)
            except RecursionError:  # the walk nests one call per blow-up
                raise SearchError(f"{blowups} blow-ups nest the enumeration deeper than "
                                  "Python's recursion limit") from None
            last = None  # the five largest entries of the previous tuple of this degree
            for b in tuples:
                squares = sum(map(mul, b, b))
                if squares - sum(b) != budget:
                    raise SearchError(
                        f"internal error: class ({a}; {', '.join(map(str, b)) or '-'})"
                        f" breaks adjunction at p={p}, genus={genus}")
                top = b[:5]
                if top != last:  # a run of tuples with equal leading entries starts
                    last = top
                    detail = _gromov(p, a, b)
                found.append(Annotated(a, b, detail, a * a - squares <= self_int_cap))
    finally:
        if collecting:
            gc.enable()
    return SearchReport(p, blowups, genus, a_min, a_max, tuple(found), visited[0])
