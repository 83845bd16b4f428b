"""Brute-force reference implementations that the tests compare against."""

from functools import cache
from math import isqrt

from hatlab.braid import BraidWord
from hatlab.curves import CurveClass


def brute_force_solutions(p: int, blowups: int, a_min: int, a_max: int,
                          genus: int = 0) -> list[CurveClass]:
    """Naive nested-loop oracle over all unsorted tuples; for cross-checks.

    A class is a solution when its smooth genus, after the T(p,p+1) and
    T(2,3) cusps absorb their Milnor genera p(p-1)/2 and 1, is ``genus``.
    """
    out = set()
    sing = p * (p - 1) // 2 + 1

    def rec(a, prefix, n):
        if n == 0:
            cls = CurveClass(a, tuple(prefix))
            if class_genus(cls, sing) == genus:
                out.add(cls)
            return
        for v in range(0, a + 1):
            rec(a, prefix + [v], n - 1)

    for a in range(a_min, a_max + 1):
        rec(a, [], blowups)
    return sorted(out, key=lambda c: (c.a, tuple(-x for x in c.b)))


def class_genus(c: CurveClass, sing_genus_sum: int) -> int:
    """Smooth genus of a curve in class c whose cusps contribute the given genus."""
    return (
        (c.a - 1) * (c.a - 2) // 2
        - sum(x * (x - 1) // 2 for x in c.b)
        - sing_genus_sum
    )


def gromov_flags(p: int, c: CurveClass) -> tuple[bool, bool, bool, bool, bool]:
    """The five positivity flags of ``curves.GromovDetail``, from the formulas.

    The coefficients are padded with zeros to five entries; for the permuted
    check the sentinels p and 2 are appended to all of them and the whole
    list is sorted again.
    """
    a = c.a
    b = list(c.b) + [0] * max(0, 5 - len(c.b))
    ext = sorted(list(c.b) + [p, 2], reverse=True) + [0] * 5
    return (
        a >= b[0] + p,
        a >= b[0] + b[1],
        2 * a >= b[0] + b[1] + b[2] + b[3] + p,
        2 * a >= sum(b[:5]),
        (a >= ext[0] + ext[1]) and (2 * a >= sum(ext[:5])),
    )


def count_solutions(p: int, blowups: int, a_min: int, a_max: int,
                    genus: int = 0) -> int:
    """Number of adjunction solutions in range, counted without listing them.

    A solution of degree a is a non-increasing tuple b with sum b_i(b_i - 1)
    equal to a^2 - 3a - (p^2 - p) - 2*genus.  The count recurses on the
    largest entry v, leaving tuples with entries at most v, memoized on
    (entries left, largest allowed entry, budget left).
    """

    @cache
    def count(n: int, hi: int, budget: int) -> int:
        if n == 0:
            return int(budget == 0)
        return sum(count(n - 1, v, budget - v * (v - 1))
                   for v in range(hi + 1) if v * (v - 1) <= budget)

    budgets = [(a, a * a - 3 * a - (p * p - p) - 2 * genus)
               for a in range(a_min, a_max + 1)]
    return sum(count(blowups, a, budget) for a, budget in budgets if budget >= 0)


def plain_search_walk(p: int, blowups: int, a_min: int, a_max: int,
                      genus: int = 0) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """The search's classes ``(a, b)`` in its order, and its node count,
    from the plain recursive walk that reuses no subtree.

    Degrees with a negative budget a^2 - 3a - (p^2 - p) - 2*genus are not
    walked; every other degree walks the tree of :func:`plain_walk`.
    """
    found: list[tuple[int, tuple[int, ...]]] = []
    visited = [0]
    for a in range(a_min, a_max + 1):
        budget = a * a - 3 * a - (p * p - p) - 2 * genus
        if budget >= 0:
            tuples: list[tuple[int, ...]] = []
            plain_walk(blowups, a, budget, [], tuples, visited)
            found += [(a, b) for b in tuples]
    return found, visited[0]


def plain_walk(n: int, hi: int, budget: int, prefix: list[int],
               out: list[tuple[int, ...]], visited: list[int]) -> None:
    """Append to ``out`` every non-increasing n-tuple with entries in
    [0, hi] and sum of b*(b-1) equal to the budget, each after ``prefix``.

    Tuples come out lexicographically descending.  Every call is one node
    and adds one to ``visited[0]``, and so does every leaf (a full tuple)
    tested in the last level's loop.
    """
    visited[0] += 1
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
            out.append((*prefix, first))
        return
    for first in range(top, -1, -1):
        w = first * (first - 1)
        rest = budget - w
        if rest > (n - 1) * w:
            break  # smaller entries (at most `first` each) cannot make up the rest
        prefix.append(first)
        plain_walk(n - 1, first, rest, prefix, out, visited)
        prefix.pop()


def semigroup_elements(p: int, q: int, up_to: int) -> list[int]:
    """Brute-force enumeration of <p, q> up to a bound (the oracle route)."""
    out = set()
    for i in range(0, up_to // p + 1):
        for j in range(0, (up_to - i * p) // q + 1):
            out.add(i * p + j * q)
    return sorted(out)


def _free_product(*parts: tuple[int, ...]) -> tuple[int, ...]:
    # Concatenate reduced words of the free group, cancelling x x^-1 pairs.
    out: list[int] = []
    for part in parts:
        for x in part:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def _free_inverse(u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(u))


def artin_images(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Reduced images of the free generators x_1..x_n under Artin's action.

    Free-group words are tuples of signed indices (-j is x_j^-1).  The
    letter sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i; its
    inverse sends x_i to x_{i+1} and x_{i+1} to x_{i+1}^-1 x_i x_{i+1}.  The
    action is faithful, so two words are equal in B_n iff their images
    agree.  Image lengths can grow exponentially in the word length: use
    this only on short words.
    """
    images = [(j,) for j in range(1, w.strands + 1)]
    for g in w.letters:
        i = abs(g)
        a, b = images[i - 1], images[i]
        if g > 0:
            images[i - 1], images[i] = _free_product(a, b, _free_inverse(a)), a
        else:
            images[i - 1], images[i] = b, _free_product(_free_inverse(b), a, b)
    return tuple(images)


def artin_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Braid equality decided by Artin's action on the free group."""
    return artin_images(w1) == artin_images(w2)


def closure_orbits(w: BraidWord) -> int:
    """Components of the closure of w, counted without a permutation tuple.

    Each strand is followed letter by letter from its start position; its
    start and end positions are then joined in a union-find forest, whose
    roots are the components.
    """
    parent = list(range(w.strands))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for start in range(w.strands):
        pos = start + 1  # 1-based, as the letters count positions
        for g in w.letters:
            if pos == abs(g):
                pos += 1
            elif pos == abs(g) + 1:
                pos -= 1
        parent[root(start)] = root(pos - 1)
    return sum(1 for x in range(w.strands) if root(x) == x)
