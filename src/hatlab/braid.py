"""Braid words in B_n and a complete solution to their word problem.

A braid word is a flat sequence of signed generator indices: the letter
``+i`` is sigma_i (a positive half twist of strands i, i+1) and ``-i`` its
inverse, for 1 <= i <= n-1.  Words are never freely reduced on
construction, so rewriting scripts can refer to letter positions stably;
all simplification happens inside explicit normalization calls.

Equality of words is decided through the left Garside normal form: every
element of B_n factors uniquely as ``Delta^k A_1 ... A_m`` where Delta is
the positive half twist, each A_j is a permutation braid (a positive braid
in which any two strands cross at most once, identified with its underlying
permutation), each adjacent pair (A_j, A_{j+1}) is left-weighted (every
generator starting A_{j+1} also finishes A_j), and no A_j is the identity
or Delta.  Two words represent the same element iff their normal forms
coincide, which also makes the normal form a canonical dictionary key.

The normal form is computed in one pass.  Each sigma_i^-1 is written as
Delta^-1 * (Delta sigma_i^-1), a negative power of Delta times a
permutation braid, and every Delta^-1 is moved to the front.  Moving it
past a letter conjugates that letter by Delta, which mirrors its index
i -> n - i, so a letter followed by an odd number of negative letters is
mirrored and the power starts at minus the number of negative letters.
The positive factors are then left-weighted pair by pair, right to left, as
they arrive, which leaves Delta only at the front and identities only at the
end (Epstein et al., *Word Processing in Groups*, ch. 9); no sweep follows.
Normal forms are cached least recently used first, within a budget of
``CACHE_LETTERS`` letters of the words they belong to; a longer word is
never cached.

Every ``BraidWord`` has letters in range: ``BraidWord(...)`` checks each
letter on construction.  ``_word`` builds a word without that check; only
code that derives a word from words it was given uses it (the operations
below and the script moves in ``cobordism``), after checking whatever new
letter or index it adds.

Conventions: words act on strand positions top to bottom with letters read
left to right, and the permutation of a word maps the starting position of
a strand to its ending position.  A permutation has one representation, the
tuple of 0-based images: ``underlying_permutation`` returns it, the factors
of a ``NormalForm`` are stored as it, and ``simple_word`` turns it back into
its positive permutation braid.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from . import HatlabError


class BraidError(HatlabError):
    """Raised for malformed words, bad indices, or unmet preconditions."""


_LETTERS = "xyzw"


@dataclass(frozen=True)
class BraidWord:
    """A word in B_n: a strand count plus a sequence of signed letters.

    The empty sequence is the identity braid.  Instances are immutable and
    hashable; all operations return new words.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise BraidError(f"strand count must be >= 1, got {self.strands}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if g == 0 or abs(g) >= self.strands:
                raise BraidError(
                    f"letter {g} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return braid_text(self)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if other.strands != self.strands:
            raise BraidError("cannot multiply words with different strand counts")
        return _word(self.strands, self.letters + other.letters)


def _word(strands: int, letters: tuple[int, ...]) -> BraidWord:
    """A word whose letters are already known to be in range: no check."""
    w = object.__new__(BraidWord)
    object.__setattr__(w, "strands", strands)
    object.__setattr__(w, "letters", letters)
    return w


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse braid text into a word in B_strands.

    Grammar: ``word := term*``, ``term := letter ('^' int)?``; whitespace is
    ignored.  Letters are x, y, z, w for sigma_1..sigma_4 with capitals for
    inverses, or the numeric forms ``s<k>`` / ``S<k>`` for any index.
    Negative powers invert the letter, so ``x^-3`` equals ``X^3``.  Digits are ASCII.
    A lone ``1`` is the empty word, as :func:`braid_text` prints it.
    """
    letters: list[int] = []
    i = 0
    text = text.strip()
    if text == "1":
        return BraidWord(strands)
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch in "sS":
            j = i + 1
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j == i + 1:
                raise BraidError(f"numeric generator needs digits at column {i}: {text!r}")
            index = int(text[i + 1:j])
            sign = 1 if ch == "s" else -1
            i = j
        elif ch.lower() in _LETTERS:
            index = _LETTERS.index(ch.lower()) + 1
            sign = 1 if ch.islower() else -1
            i += 1
        else:
            raise BraidError(f"unknown letter {ch!r} at column {i} in {text!r}")
        power = 1
        if i < len(text) and text[i] == "^":
            j = i + 1
            if j < len(text) and text[j] == "-":
                j += 1
            k = j
            while k < len(text) and "0" <= text[k] <= "9":
                k += 1
            if k == j:
                raise BraidError(f"malformed power at column {i} in {text!r}")
            power = int(text[i + 1:k])
            i = k
        if index < 1 or index >= strands:
            raise BraidError(f"letter index {index} at column {start} in {text!r} is "
                             f"outside 1..{strands - 1} for {strands} strands")
        if power < 0:
            sign, power = -sign, -power
        letters.extend([sign * index] * power)
    return BraidWord(strands, tuple(letters))


def _letter_name(index: int, positive: bool) -> str:
    if index <= 4:
        name = _LETTERS[index - 1]
        return name if positive else name.upper()
    return f"s{index}" if positive else f"S{index}"


def braid_text(w: BraidWord) -> str:
    """Print a word in letter form with positive powers folded.

    Round-trips through :func:`parse_braid`; indices above 4 fall back to
    the numeric ``s<k>`` form, and the empty word prints as ``1``.
    """
    out: list[str] = []
    run_letter = 0
    run_len = 0

    def flush():
        if run_len == 0:
            return
        name = _letter_name(abs(run_letter), run_letter > 0)
        out.append(name if run_len == 1 else f"{name}^{run_len}")

    for g in w.letters:
        if g == run_letter:
            run_len += 1
        else:
            flush()
            run_letter, run_len = g, 1
    flush()
    return "".join(out) or "1"


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; the writhe of the closure diagram."""
    return sum(1 if g > 0 else -1 for g in w.letters)


def inverse(w: BraidWord) -> BraidWord:
    return _word(w.strands, tuple(-g for g in reversed(w.letters)))


def underlying_permutation(w: BraidWord) -> tuple[int, ...]:
    """The permutation sending each strand's start position to its end, 0-based."""
    # at_pos[q + 1] = strand currently at position q, so sigma_i swaps at_pos[i], at_pos[i + 1]
    at_pos = [0, *range(w.strands)]
    for i in map(abs, w.letters):
        at_pos[i], at_pos[i + 1] = at_pos[i + 1], at_pos[i]
    images = [0] * w.strands
    for q, s in enumerate(at_pos[1:]):
        images[s] = q
    return tuple(images)


def closure_components(w: BraidWord) -> int:
    """Number of components of the closure: cycles of the permutation."""
    perm = underlying_permutation(w)
    seen = [False] * w.strands
    count = 0
    for start in range(w.strands):
        if not seen[start]:
            count += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = perm[p]
    return count


def self_linking(w: BraidWord) -> int:
    """Self-linking number of the transverse closure: exponent sum minus strands.

    Only defined when the closure is a knot.
    """
    if closure_components(w) != 1:
        raise BraidError("self-linking requires the closure to be a knot")
    return exponent_sum(w) - w.strands


def conjugate(w: BraidWord, c: BraidWord) -> BraidWord:
    """Return c * w * c^-1."""
    if w.strands != c.strands:
        raise BraidError("conjugation requires equal strand counts")
    return _word(w.strands, c.letters + w.letters + inverse(c).letters)


def cyclic_permute(w: BraidWord, k: int) -> BraidWord:
    """Move the first k letters to the end; conjugation by that prefix's inverse."""
    if not w.letters:
        return w
    k %= len(w.letters)
    return _word(w.strands, w.letters[k:] + w.letters[:k])


def markov_stabilize(w: BraidWord, sign: int) -> BraidWord:
    """Send B_n to B_{n+1} by appending sigma_n^sign.

    A positive stabilization preserves the transverse closure; a negative
    one is the transverse stabilization and lowers self-linking by 2.
    """
    if sign not in (1, -1):
        raise BraidError("stabilization sign must be +1 or -1")
    n = w.strands
    return _word(n + 1, w.letters + (sign * n,))


def markov_destabilize(w: BraidWord) -> BraidWord:
    """Remove a strand when sigma_{n-1} occurs exactly once, positively.

    The occurrence is rotated to the end (a conjugation, invisible to the
    closure) and dropped.
    """
    n = w.strands
    if n < 2:
        raise BraidError("cannot destabilize a 1-strand braid")
    top = n - 1
    hits = [j for j, g in enumerate(w.letters) if abs(g) == top]
    if len(hits) != 1:
        raise BraidError(
            f"destabilization needs exactly one sigma_{top} letter, found {len(hits)}"
        )
    j = hits[0]
    if w.letters[j] < 0:
        raise BraidError("destabilization needs the last-strand letter to be positive")
    rotated = w.letters[j + 1:] + w.letters[:j]
    return _word(n - 1, rotated)


def simple_word(perm: tuple[int, ...]) -> BraidWord:
    """The positive permutation braid of ``perm``: any two strands cross at most once.

    Strands are bubbled rightwards into place, the one ending rightmost first.
    """
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise BraidError(f"not a permutation of 0..{n - 1}: {perm}")
    at_pos = list(range(n))  # at_pos[q] = strand currently at position q
    letters: list[int] = []
    for dest in range(n - 1, -1, -1):
        for q in range(at_pos.index(perm.index(dest)), dest):
            at_pos[q], at_pos[q + 1] = at_pos[q + 1], at_pos[q]
            letters.append(q + 1)
    w = BraidWord(n, tuple(letters))
    if underlying_permutation(w) != tuple(perm):
        raise BraidError("internal error: permutation braid construction failed")
    return w


def full_twist(n: int) -> BraidWord:
    """The full twist Delta_n^2 = (s1 ... s_{n-1})^n, the generator of the center."""
    if n < 1:
        raise BraidError("strand count must be >= 1")
    return BraidWord(n, tuple(range(1, n)) * n)


# ---------------------------------------------------------------------------
# Garside normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """Left Garside normal form Delta^power A_1 ... A_m.

    Factors are permutation braids stored as 0-based image tuples.  Normal
    forms are canonical: words are equal in B_n iff their normal forms are
    identical, so instances double as dictionary keys for braid elements.
    """

    strands: int
    power: int
    factors: tuple[tuple[int, ...], ...]


def _mul_sigma_right(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    # A * sigma_i: swap the values i-1 and i in the image tuple.
    q = list(p)
    a, b = q.index(i - 1), q.index(i)
    q[a], q[b] = q[b], q[a]
    return tuple(q)


def _strip_sigma_left(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    # sigma_i^-1 * B: swap the entries at positions i-1 and i.
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def _fix_pair(a: tuple[int, ...], b: tuple[int, ...]):
    """Left-weight the pair (a, b) by sliding starting letters of b into a.

    A letter sigma_i that starts b (b[i-1] > b[i]) but does not finish a
    (a puts i-1 before i) slides across: a*sigma_i swaps the values i-1, i
    of a and sigma_i^-1*b swaps the entries i-1, i of b.  A slide changes
    the descents only at i-1, i and i+1, so the scan steps back one index
    instead of starting over.  The result does not depend on the order of
    the slides: its first factor is the meet of a*b with Delta.
    """
    a, b = list(a), list(b)
    n = len(a)
    pos = [0] * n  # pos[v] = position of the value v in a
    for q, v in enumerate(a):
        pos[v] = q
    i = 1
    while i < n:
        if b[i - 1] > b[i] and pos[i - 1] < pos[i]:
            x, y = pos[i - 1], pos[i]
            a[x], a[y] = i, i - 1
            pos[i - 1], pos[i] = y, x
            b[i - 1], b[i] = b[i], b[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(a), tuple(b)


def _normal_form(strands: int, letters: tuple[int, ...]) -> NormalForm:
    n = strands
    idp = tuple(range(n))
    w0 = tuple(range(n - 1, -1, -1))
    # Each sigma_i^-1 is Delta^-1 * C_i with C_i = Delta sigma_i^-1 simple.
    # Moving a Delta^-1 left past a letter conjugates that letter by Delta,
    # which mirrors its index i -> n - i, so a letter is mirrored once per
    # negative letter to its right: only the parity of that count matters.
    power = -sum(1 for g in letters if g < 0)
    right = -power  # negative letters to the right of the current one
    fac: list[tuple[int, ...]] = []

    def append_simple(s: tuple[int, ...]):
        # An identity (C_1 when n = 2) only ever comes last; it is popped here or at the end.
        while fac and fac[-1] == idp:
            fac.pop()
        fac.append(s)
        j = len(fac) - 2
        while j >= 0:
            a2, b2 = _fix_pair(fac[j], fac[j + 1])
            if a2 == fac[j]:
                break
            fac[j], fac[j + 1] = a2, b2
            j -= 1

    for g in letters:
        i = abs(g)
        if g < 0:
            right -= 1
        if right & 1:
            i = n - i
        if g > 0:
            append_simple(_strip_sigma_left(idp, i))  # the transposition tau_i
        else:
            append_simple(_mul_sigma_right(w0, i))  # C_i

    while fac and fac[0] == w0:
        power += 1
        fac.pop(0)
    while fac and fac[-1] == idp:
        fac.pop()
    return NormalForm(n, power, tuple(fac))


class _LetterBoundedLRU:
    """Least-recently-used normal forms, bounded by the letters of their words.

    A word longer than the whole budget is never kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.letters = 0
        self._entries: OrderedDict[tuple[int, tuple[int, ...]], NormalForm] = OrderedDict()

    def get(self, key: tuple[int, tuple[int, ...]]) -> NormalForm | None:
        nf = self._entries.get(key)
        if nf is not None:
            self._entries.move_to_end(key)
        return nf

    def put(self, key: tuple[int, tuple[int, ...]], nf: NormalForm) -> None:
        size = len(key[1])
        if size > self.budget:
            return
        self._entries[key] = nf
        self.letters += size
        while self.letters > self.budget:
            (_, old), _ = self._entries.popitem(last=False)
            self.letters -= len(old)


CACHE_LETTERS = 4096
_cache = _LetterBoundedLRU(CACHE_LETTERS)


def normal_form(w: BraidWord) -> NormalForm:
    """Canonical left Garside normal form of the word."""
    key = (w.strands, w.letters)
    nf = _cache.get(key)
    if nf is None:
        nf = _normal_form(w.strands, w.letters)
        _cache.put(key, nf)
    return nf


def equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Decide whether two words represent the same element of B_n.

    Sound and complete: reduces to identity of Garside normal forms.
    """
    if w1.strands != w2.strands:
        raise BraidError("cannot compare words with different strand counts")
    return normal_form(w1) == normal_form(w2)


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs; a word-level cleanup, not a normal form."""
    out: list[int] = []
    for g in w.letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return _word(w.strands, tuple(out))
