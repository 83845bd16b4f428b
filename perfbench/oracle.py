"""Independent computations the benchmark checks hatlab's answers against.

Nothing here imports hatlab.  Braid words are tuples of signed generator
indices (``+i`` is sigma_i, ``-i`` its inverse), the same convention as
the program, but every invariant, relation and count below is computed by
the benchmark itself:

* text printing and parsing of braid words in the documented letter form;
* exponent sum, the underlying permutation and closure components;
* equal pairs built from braid relations, unequal pairs separated by an
  invariant or by a commutator of sigma_1^2 and sigma_2^2;
* Artin's faithful action of B_n on the free group F_n, compared by free
  reduction, as a second decision procedure for short words;
* the number of curve classes a search must emit, and the adjunction,
  line/conic and self-intersection tests for each emitted class.
"""

from __future__ import annotations

import functools
import random
from math import isqrt

_NAMES = "xyzw"


# ---------------------------------------------------------------------------
# Braid words: text and invariants
# ---------------------------------------------------------------------------

def letter_name(g: int) -> str:
    i = abs(g)
    name = _NAMES[i - 1] if i <= 4 else f"s{i}"
    return name if g > 0 else name.upper()


def to_text(letters) -> str:
    """Letter form with runs of one letter folded into a power."""
    out = []
    j = 0
    while j < len(letters):
        k = j
        while k < len(letters) and letters[k] == letters[j]:
            k += 1
        name = letter_name(letters[j])
        out.append(name if k - j == 1 else f"{name}^{k - j}")
        j = k
    return "".join(out)


def from_text(text: str) -> tuple[int, ...]:
    """Parse the letter form (x y z w, s<k>, capitals invert, ^k powers)."""
    out: list[int] = []
    i = 0
    text = text.strip()
    while i < len(text):
        ch = text[i]
        if ch in "sS":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            g, i = int(text[i + 1:j]), j
        else:
            g, i = _NAMES.index(ch.lower()) + 1, i + 1
        if ch.isupper():
            g = -g
        power = 1
        if i < len(text) and text[i] == "^":
            j = i + 1 + (text[i + 1] == "-")
            while j < len(text) and text[j].isdigit():
                j += 1
            power, i = int(text[i + 1:j]), j
        if power < 0:
            g, power = -g, -power
        out.extend([g] * power)
    return tuple(out)


def exponent_sum(letters) -> int:
    return sum(1 if g > 0 else -1 for g in letters)


def permutation(n: int, letters) -> tuple[int, ...]:
    """Images (0-based) of each starting position under the word."""
    at = list(range(n))  # at[q] = strand now at position q
    for g in letters:
        i = abs(g)
        at[i - 1], at[i] = at[i], at[i - 1]
    images = [0] * n
    for q, s in enumerate(at):
        images[s] = q
    return tuple(images)


def components(n: int, letters) -> int:
    perm = permutation(n, letters)
    seen = [False] * n
    count = 0
    for s in range(n):
        if not seen[s]:
            count += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return count


def strands_of_knot(letters) -> int:
    """Strand count of a braid whose closure is a knot: every sigma_i with
    i < n must occur, or the closure splits, so n is the top index plus 1."""
    return max(abs(g) for g in letters) + 1


def half_twist(n: int) -> tuple[int, ...]:
    return tuple(i for top in range(n - 1, 0, -1) for i in range(1, top + 1))


def full_twist(n: int) -> tuple[int, ...]:
    return tuple(range(1, n)) * n


def flip(n: int, letters) -> tuple[int, ...]:
    """Conjugation by Delta: sigma_i -> sigma_{n-i}."""
    return tuple((n - abs(g)) * (1 if g > 0 else -1) for g in letters)


# ---------------------------------------------------------------------------
# Seeded words and pairs with a known verdict
# ---------------------------------------------------------------------------

def random_word(rng: random.Random, n: int, length: int, positive: bool) -> list[int]:
    """A random word with a few planted sigma_i sigma_j sigma_i triples
    (|i - j| = 1), so the braid relation has somewhere to act."""
    w: list[int] = []
    while len(w) < length:
        sign = 1 if positive or rng.random() < 0.5 else -1
        if n >= 3 and rng.random() < 0.1:
            i = rng.randint(1, n - 2)
            a, b = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
            w += [sign * a, sign * b, sign * a]
        else:
            w.append(sign * rng.randint(1, n - 1))
    return w[:length]


def random_knot(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A mixed-sign word whose closure is a knot.  An n-cycle has the parity
    of n - 1, so the length is bumped to that parity before sampling."""
    if (length - (n - 1)) % 2:
        length += 1
    while True:
        w = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(length)]
        if components(n, w) == 1:
            return tuple(w)


def band_knot(rng: random.Random, n: int, bands: int) -> tuple[int, ...]:
    """beta0 = sigma_1 ... sigma_{n-1} times ``bands`` conjugated squares
    u sigma_i^(+-2) u^-1 with two-letter u.  The squares are pure, so the
    closure is a knot whose permutation is already beta0's."""
    w = list(range(1, n))
    for _ in range(bands):
        u = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(2)]
        sq = [rng.randint(1, n - 1) * rng.choice((1, -1))] * 2
        w += u + sq + [-g for g in reversed(u)]
    return tuple(w)


def _far_swap(rng, w):
    for j in range(rng.randrange(max(1, len(w) - 1)), len(w) - 1):
        if abs(abs(w[j]) - abs(w[j + 1])) >= 2:
            w[j], w[j + 1] = w[j + 1], w[j]
            return


def _braid_move(rng, w):
    for j in range(rng.randrange(max(1, len(w) - 2)), len(w) - 2):
        a, b, c = w[j:j + 3]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            w[j:j + 3] = [b, a, b]
            return


def _free_pair(rng, w, n):
    g = rng.randint(1, n - 1) * rng.choice((1, -1))
    j = rng.randint(0, len(w))
    w[j:j] = [g, -g]


def _relator(rng, w, n):
    i = rng.randint(1, n - 2)
    j = rng.randint(0, len(w))
    w[j:j] = [i, i + 1, i, -(i + 1), -i, -(i + 1)]


def equal_pair(rng: random.Random, n: int, length: int, positive: bool):
    """Two words equal in B_n (n >= 3), the second rewritten from the first.

    Local moves: far commutation and the braid relation, plus free
    cancellation pairs and inserted relators on mixed words.  One global
    move may follow: Delta^2 is central (placed at two different spots, or
    inserted with its inverse elsewhere), and Delta w = flip(w) Delta.  The
    base word is shortened by what the global move inserts, so the second
    word stays near ``length``; a move that would take more than half the
    length is skipped.
    """
    ft = list(full_twist(n))
    kind = rng.randrange(3)
    extra = {0: 0, 1: len(ft) * (1 if positive else 2), 2: len(ft) // (2 if positive else 1)}[kind]
    if 2 * extra > length:
        kind, extra = 0, 0
    u = random_word(rng, n, length - extra, positive)
    v = list(u)
    local = [_far_swap, _braid_move] if positive else [_far_swap, _braid_move, None, None]
    for _ in range(max(3, length // 8)):
        move = rng.choice(local)
        if move is None:
            (_free_pair if rng.random() < 0.5 else _relator)(rng, v, n)
        else:
            move(rng, v)
    if kind == 1:  # centrality of Delta^2
        j, k = rng.randint(0, len(u)), rng.randint(0, len(v))
        if positive:
            u[j:j] = ft
            v[k:k] = ft
        else:
            v[k:k] = ft
            j = rng.randint(0, len(v))
            v[j:j] = [-g for g in reversed(ft)]
    elif kind == 2:  # Delta-conjugation
        delta = list(half_twist(n))
        if positive:
            u = delta + u
            v = list(flip(n, v)) + delta
        else:
            v = [-g for g in reversed(delta)] + list(flip(n, v)) + delta
    return tuple(u), tuple(v)


COMMUTATOR = (1, 1, 2, 2, -1, -1, -2, -2)  # [sigma_1^2, sigma_2^2], nontrivial for n >= 3


def unequal_pair(rng: random.Random, n: int, length: int, positive: bool):
    """Two words that differ in B_n, and the reason the benchmark knows it.

    Starts from an equal pair and spoils the second word: an extra letter
    changes the exponent sum, a substituted generator changes the
    permutation, and (mixed words only) an inserted commutator of
    sigma_1^2 and sigma_2^2 leaves both invariants alone.
    """
    u, v = equal_pair(rng, n, length, positive)
    v = list(v)
    kind = rng.choice(("exponent", "permutation") if positive
                      else ("exponent", "permutation", "commutator"))
    j = rng.randrange(len(v))
    if kind == "exponent":
        v.insert(j, rng.randint(1, n - 1) * (1 if positive else rng.choice((1, -1))))
    elif kind == "permutation":
        i = rng.choice([k for k in range(1, n) if k != abs(v[j])])
        v[j] = i if v[j] > 0 else -i
    else:
        v[j:j] = COMMUTATOR
    return u, tuple(v), kind


def invariants_match(n: int, u, v, kind: str) -> bool:
    """Whether the pair's invariants are what its construction promises:
    different exponent sums; equal exponent sums and different
    permutations; or, for the commutator, both equal."""
    same_sum = exponent_sum(u) == exponent_sum(v)
    if kind == "exponent":
        return not same_sum
    same_perm = permutation(n, u) == permutation(n, v)
    return same_sum and same_perm == (kind == "commutator")


# ---------------------------------------------------------------------------
# Artin's action on the free group
# ---------------------------------------------------------------------------

def _reduce_into(out: list[int], seq) -> list[int]:
    for g in seq:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return out


def artin_images(n: int, letters) -> tuple[tuple[int, ...], ...]:
    """Images of the free generators x_1..x_n under the word.

    sigma_i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i.  The action
    is faithful, so two braid words are equal iff their images agree after
    free reduction.  Each letter substitutes the current images into the
    generator's formula.
    """
    imgs = [[j] for j in range(1, n + 1)]
    for g in letters:
        i = abs(g)
        a, b = imgs[i - 1], imgs[i]
        if g > 0:
            imgs[i - 1] = _reduce_into(_reduce_into(list(a), b), [-x for x in reversed(a)])
            imgs[i] = a
        else:
            imgs[i - 1] = b
            imgs[i] = _reduce_into(_reduce_into([-x for x in reversed(b)], a), b)
    return tuple(tuple(x) for x in imgs)


# ---------------------------------------------------------------------------
# Curve classes
# ---------------------------------------------------------------------------

def search_budget(p: int, a: int, genus: int) -> int:
    """sum b_i(b_i - 1) forced by adjunction for degree a."""
    return a * a - 3 * a - (p * p - p) - 2 * genus


@functools.lru_cache(maxsize=None)
def count_tuples(n: int, hi: int, budget: int) -> int:
    """Non-increasing n-tuples in [0, hi] with sum b(b-1) == budget.

    Counted by recursion on the largest entry with memoized tails; the
    largest entry carries at least the average share of the budget.
    """
    if budget < 0:
        return 0
    if n == 0:
        return 1 if budget == 0 else 0
    if n == 1:
        if budget == 0:
            return min(hi, 1) + 1  # b = 0 and b = 1
        v = (1 + isqrt(1 + 4 * budget)) // 2
        return 1 if v <= hi and v * (v - 1) == budget else 0
    total = 0
    for v in range(min(hi, (1 + isqrt(1 + 4 * budget)) // 2), -1, -1):
        w = v * (v - 1)
        if w > budget:
            continue
        if n * w < budget:
            break
        total += count_tuples(n - 1, v, budget - w)
    return total


def expected_count(p: int, blowups: int, a_min: int, a_max: int, genus: int) -> int:
    return sum(count_tuples(blowups, a, search_budget(p, a, genus))
               for a in range(a_min, a_max + 1))


def class_tests(p: int, a: int, b: tuple[int, ...]):
    """(self-intersection, lines, conics, all permuted, cap) for one class.

    Lines through the cusp and two points, conics through the cusp and four
    points or through five points, the same tests with the cusp
    multiplicities p and 2 sorted in, and the cap a^2 - sum b^2 <= p^2 + 9.
    """
    self_int = a * a - sum(x * x for x in b)
    c = list(b) + [0] * 5
    ext = sorted(list(b) + [p, 2], reverse=True) + [0] * 5
    lines = a >= c[0] + p and a >= c[0] + c[1]
    conics = 2 * a >= sum(c[:4]) + p and 2 * a >= sum(c[:5])
    permuted = a >= ext[0] + ext[1] and 2 * a >= sum(ext[:5])
    return self_int, lines, conics, permuted, self_int <= p * p + 9
