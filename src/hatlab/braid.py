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
Each call builds two factor tables once, the transposition sigma_i and
C_i = Delta sigma_i^-1 for every i, and each letter appends its entry.
``equal`` normalizes only the letters between two words' shared ends, so
an ``eq`` step certifies only the stretch it rewrites: B_n is a group.

This module owns every spelling of a letter: ``parse_braid`` reads braid
text, ``parse_generator`` reads one generator operand of a script (a
positive letter name with no power), and ``braid_text`` prints words, all
from the one alphabet ``_LETTERS``.  ``parse_braid`` reads no word longer
than ``MAX_LETTERS`` letters and checks each power before expanding it.
No word has more than ``MAX_STRANDS`` strands: ``BraidWord(...)``,
``parse_braid`` and ``markov_stabilize`` refuse a larger count.

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
its positive permutation braid.  ``_carry`` alone moves strands through
letters and ``_cycle`` alone walks a cycle, for this module and ``cobordism``.
"""

from __future__ import annotations

import re

from . import HatlabError, Record


class BraidError(HatlabError):
    """Raised for malformed words, bad indices, or unmet preconditions."""


_LETTERS = "xyzw"
_SIGNED = {c: i for i, c in enumerate(_LETTERS, 1)}  # the signed generator of each letter
_SIGNED |= {c.upper(): -i for c, i in _SIGNED.items()}  # capitals are inverses

MAX_LETTERS = 1_000_000  # the longest word parse_braid reads
MAX_STRANDS = 1_000  # the most strands a word has; normal_form builds two n x n tables


def _check_max_strands(strands: int) -> None:
    if strands > MAX_STRANDS:
        raise BraidError(f"strand count must be <= {MAX_STRANDS}, got {strands}")


class BraidWord(Record):
    """A word in B_n: a strand count plus a sequence of signed letters.

    The empty sequence is the identity braid.  Instances are immutable and
    hashable; all operations return new words.
    """

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...] = ()):
        if strands < 1:
            raise BraidError(f"strand count must be >= 1, got {strands}")
        _check_max_strands(strands)
        letters = tuple(letters)
        for g in letters:
            if g == 0 or abs(g) >= strands:
                raise BraidError(f"letter {g} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

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

# One term of braid text; its digit runs may be empty, so parse_braid can say where.
_TERM = re.compile(rf"\s*([{_LETTERS}{_LETTERS.upper()}]|[sS]([0-9]*))(\^-?[0-9]*)?")
_GENERATOR_NAME = re.compile(rf"[{_LETTERS}]|s([0-9]+)")


def _range_error(index: int, column: int, text: str, strands: int) -> BraidError:
    return BraidError(f"letter index {index} at column {column} in {text!r} is "
                      f"outside 1..{strands - 1} for {strands} strands")


def _digits_error(column: int, text: str) -> BraidError:
    # int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
    return BraidError(f"term at column {column} in {text!r} has a number too long to read")


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse braid text into a word in B_strands.

    Grammar: ``word := term*``, ``term := letter ('^' '-'? digits)?``.
    Whitespace may separate terms but not split one, and digits are ASCII.
    Letters are x, y, z, w for sigma_1..sigma_4 with capitals for
    inverses, or the numeric forms ``s<k>`` / ``S<k>`` for any index.
    Negative powers invert the letter, so ``x^-3`` equals ``X^3``.
    A lone ``1`` is the empty word, as :func:`braid_text` prints it.
    A word longer than ``MAX_LETTERS`` letters, or on more than
    ``MAX_STRANDS`` strands, is refused; a power is checked before it is
    expanded.  Each error names its column in the stripped text.
    """
    _check_max_strands(strands)
    text = text.strip()
    if text in ("", "1"):
        return BraidWord(strands)
    letters: list[int] = []
    i = 0  # where the next term must start
    for m in _TERM.finditer(text):
        if m.start() != i:
            break
        name, digits, power = m.groups()
        if digits == "":
            raise BraidError(f"numeric generator needs digits at column {m.start(1)}: {text!r}")
        if power in ("^", "^-"):
            raise BraidError(f"malformed power at column {m.start(3)} in {text!r}")
        try:
            g = _SIGNED[name] if digits is None else (int(digits) if name[0] == "s" else -int(digits))
            count = int(power[1:]) if power else 1
        except ValueError:
            raise _digits_error(m.start(1), text) from None
        if not 0 < abs(g) < strands:
            raise _range_error(abs(g), m.start(1), text, strands)
        if power:
            if len(letters) + abs(count) > MAX_LETTERS:
                raise BraidError(f"power at column {m.start(3)} in {text!r} makes the word "
                                 f"longer than {MAX_LETTERS} letters")
            letters.extend([g if count > 0 else -g] * abs(count))
        else:
            letters.append(g)
        i = m.end()
    if i < len(text):
        i = len(text) - len(text[i:].lstrip())
        raise BraidError(f"unknown letter {text[i]!r} at column {i} in {text!r}")
    if len(letters) > MAX_LETTERS:
        raise BraidError(f"word of {len(letters)} letters is longer than {MAX_LETTERS} letters")
    return _word(strands, tuple(letters))


def parse_generator(token: str, strands: int) -> int:
    """Read a generator operand, ``x``..``w`` or ``s<k>`` with no power, as its index."""
    m = _GENERATOR_NAME.fullmatch(token)
    if m is None:
        raise BraidError(f"expected a single positive generator, got {token!r}")
    try:
        i = _SIGNED[token] if m[1] is None else int(m[1])
    except ValueError:
        raise _digits_error(0, token) from None
    if not 0 < i < strands:
        raise _range_error(i, 0, token, strands)
    return i


def _letter_name(index: int, positive: bool) -> str:
    if 0 < index <= 4:
        name = _LETTERS[index - 1]
        return name if positive else name.upper()
    return f"s{index}" if positive else f"S{index}"


def braid_text(w: BraidWord) -> str:
    """Print a word in letter form with positive powers folded.

    Round-trips through :func:`parse_braid`; indices above 4 fall back to
    the numeric ``s<k>`` form, and the empty word prints as ``1``.
    """
    out: list[str] = []
    run_letter, run_len = 0, 0
    for g in w.letters + (0,):  # the sentinel 0 ends the last run
        if g != run_letter:
            if run_len:
                name = _letter_name(abs(run_letter), run_letter > 0)
                out.append(name if run_len == 1 else f"{name}^{run_len}")
            run_letter, run_len = g, 0
        run_len += 1
    return "".join(out) or "1"


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; the writhe of the closure diagram."""
    return sum(1 if g > 0 else -1 for g in w.letters)


def inverse(w: BraidWord) -> BraidWord:
    return _word(w.strands, tuple(-g for g in reversed(w.letters)))


def _carry(at: list[int], letters) -> list[int]:
    """Carry ``at[q]``, the strand at position q, through letters: sigma_i of
    either sign swaps positions i-1 and i.  Updates ``at`` and returns it."""
    for i in map(abs, letters):
        at[i - 1], at[i] = at[i], at[i - 1]
    return at


def _cycle(perm, start: int) -> list[int]:
    """The cycle of ``perm`` through ``start``, in order from ``start``."""
    cycle = [start]
    p = perm[start]
    while p != start:
        cycle.append(p)
        p = perm[p]
    return cycle


def underlying_permutation(w: BraidWord) -> tuple[int, ...]:
    """The permutation sending each strand's start position to its end, 0-based."""
    images = [0] * w.strands
    for q, s in enumerate(_carry(list(range(w.strands)), w.letters)):
        images[s] = q
    return tuple(images)


def closure_components(w: BraidWord) -> int:
    """Number of components of the closure: cycles of the permutation."""
    perm = underlying_permutation(w)
    unseen = set(range(w.strands))
    count = 0
    while unseen:
        count += 1
        unseen.difference_update(_cycle(perm, unseen.pop()))
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
        raise BraidError("conjugation requires equal strand counts: "
                         f"the word is in B_{w.strands}, the conjugator in B_{c.strands}")
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
    _check_max_strands(n + 1)
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
    at = list(range(n))  # at[q] = strand currently at position q
    letters: list[int] = []
    for dest in range(n - 1, -1, -1):
        run = range(at.index(perm.index(dest)) + 1, dest + 1)  # bubbles that strand to dest
        _carry(at, run)
        letters += run
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

class NormalForm(Record):
    """Left Garside normal form Delta^power A_1 ... A_m.

    Factors are permutation braids stored as 0-based image tuples.  Normal
    forms are canonical: words are equal in B_n iff their normal forms are
    identical, so instances double as dictionary keys for braid elements.
    """

    __slots__ = ("strands", "power", "factors")


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
            i = i - 1 if i > 1 else 1
        else:
            i += 1
    return tuple(a), tuple(b)


def normal_form(w: BraidWord) -> NormalForm:
    """Canonical left Garside normal form of the word."""
    n, letters = w.strands, w.letters
    idp = tuple(range(n))
    w0 = tuple(range(n - 1, -1, -1))
    # tau[i] = sigma_i swaps the entries i-1, i; c[i] = C_i swaps the values i-1, i of Delta
    tau = [idp] + [idp[:i - 1] + (i, i - 1) + idp[i + 1:] for i in range(1, n)]
    c = [w0] + [w0[:n - i - 1] + (i - 1, i) + w0[n - i + 1:] for i in range(1, n)]
    # Each sigma_i^-1 is Delta^-1 * C_i.  Moving a Delta^-1 left past a
    # letter conjugates that letter by Delta, which mirrors its index
    # i -> n - i, so a letter is mirrored once per negative letter to its
    # right: only the parity of that count matters.
    power = -sum(1 for g in letters if g < 0)
    right = -power  # negative letters to the right of the current one
    fac: list[tuple[int, ...]] = []
    for g in letters:
        i = abs(g)
        if g < 0:
            right -= 1
        if right & 1:
            i = n - i
        # An identity (C_1 when n = 2) only ever comes last; it is popped here or at the end.
        while fac and fac[-1] == idp:
            fac.pop()
        fac.append(tau[i] if g > 0 else c[i])
        j = len(fac) - 2
        while j >= 0:
            a2, b2 = _fix_pair(fac[j], fac[j + 1])
            if a2 == fac[j]:
                break
            fac[j], fac[j + 1] = a2, b2
            j -= 1

    while fac and fac[0] == w0:
        power += 1
        fac.pop(0)
    while fac and fac[-1] == idp:
        fac.pop()
    return NormalForm(n, power, tuple(fac))


def equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Decide whether two words represent the same element of B_n.

    Sound and complete: reduces to identity of Garside normal forms, which
    identical letters need not compute.  Only the letters between the
    longest shared prefix and the longest shared suffix after it are
    normalized: B_n is a group, so p*x*s = p*y*s iff x = y.
    """
    if w1.strands != w2.strands:
        raise BraidError("cannot compare words with different strand counts")
    a, b = w1.letters, w2.letters
    if a == b:
        return True
    m = min(len(a), len(b))
    k = 0  # the shared prefix is a[:k]
    while k < m and a[k] == b[k]:
        k += 1
    j = 0  # the shared suffix is a[len(a) - j:], after the prefix in both words
    while j < m - k and a[-1 - j] == b[-1 - j]:
        j += 1
    n = w1.strands
    return normal_form(_word(n, a[k:len(a) - j])) == normal_form(_word(n, b[k:len(b) - j]))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs; a word-level cleanup, not a normal form."""
    out: list[int] = []
    for g in w.letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return _word(w.strands, tuple(out))
