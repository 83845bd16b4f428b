"""A certified rewriting DSL for braid moves that induce symplectic cobordisms.

``ins`` and ``cc`` attach bands to the braid closure and ``stab -``
stabilizes it; every other move keeps the transverse closure.  Replaying a
script keeps a ledger of the attached bands and the induced
Euler-characteristic / self-linking / genus accounting.

Moves are applied to the literal letter sequence; nothing is simplified
implicitly.  An ``eq`` step is certified against the Garside normal form
of the letters between the two words' shared ends (``equal``; p*x*s =
p*y*s iff x = y in a group), and replay fails loudly on an uncertifiable
step, so a script that replays is a proof of every equality it uses.
Each identity is certified once, when its script is replayed:
``to_torus_script`` neither checks its combing nor replays its script, so
the caller's replay is the one certification of every step.  Its first
``eq`` certifies the combing as one freely reduced word, not as the
letter-for-letter product of conjugated squares: the neighbouring
conjugators cancel, and ``normal_form``'s cost grows with the square of the
word's length.  Its last ``eq`` states ``beta0 * Delta^{2m}`` against a word
in which every positive square has grown into the literal full twist;
``normal_form`` lifts each such twist into the power of Delta before its
Garside loop, so that step pays for the letters between the twists, not
for the twists.

Replay records the closure's component count, the number of cycles of the
word's permutation, after every move.  ``conj`` and ``cyc`` conjugate the
permutation, a certified ``eq`` keeps it, ``cc`` keeps it because sigma_i
and its inverse are the same transposition, and the Markov moves ``stab``
and ``destab`` keep the closure, so these carry the count forward.  An
``ins`` changes it by exactly one: the new crossing splits the cycle through
its two strands or merges their two cycles.  Through a run of ``ins`` moves
replay carries the word's permutation and a cursor, the strands' positions
after the word's first q letters.  An ``ins`` at p moves the cursor from q
to p with ``braid._carry``, reads the two strands there, walks one cycle of
at most n steps with ``braid._cycle`` and swaps two images, so inserts at
neighbouring positions cost O(n) each, not a walk of the whole word.  Any
other move drops the permutation; the next ``ins`` rebuilds it with one walk.
The self-linking at either end is the exponent sum minus the strands when
the closure there is a knot.

Script files are line-oriented text::

    strands: 3
    start: xy^2x^2y^7
    ins 4 y
    ins 4 y
    cyc 13
    eq xyxyxyxyxy^5

The headers ``strands: <int>`` and ``start: <word>`` come first, once each,
then the moves.  A script has no end header: it ends at the word its replay
returns, and an ``eq`` move is the one way to state and certify a word.
A move is its line, a token and its operands; in code it is the tuple
``(token, *operands)`` with each operand read, one shape per token::

    ins <position> <generator>   ("ins", position, index)   one band
    cc <position> <generator>    ("cc", position, index)    s_i^-1 -> s_i: two bands
    conj <word>                  ("conj", word)
    cyc <shift>                  ("cyc", shift)
    eq <word>                    ("eq", word)
    stab +  or  stab -           ("stab", 1) or ("stab", -1)
    destab                       ("destab",)

Positions (0-based letter indices) and shifts are integers; a generator is
one positive letter name with no power, ``x``..``w`` or ``s<k>``, read as
its index by ``braid.parse_generator``, and a word is braid text without
spaces (``1`` is the empty word), both in the strand count current at that
line.  ``stab -`` is the transverse stabilization: the ledger flags it and
the self-linking drops by 2.  Blank lines and ``#`` comments are ignored; any
other malformed line raises ScriptError with its line number.
"""

from __future__ import annotations

from collections import Counter

from . import HatlabError, Record, decode, read_int
from .braid import (
    BraidError,
    BraidWord,
    _carry,
    _cycle,
    _letter_name,
    _word,
    braid_text,
    closure_components,
    conjugate,
    cyclic_permute,
    equal,
    exponent_sum,
    free_reduce,
    full_twist,
    inverse,
    markov_destabilize,
    markov_stabilize,
    parse_braid,
    parse_generator,
    simple_word,
    underlying_permutation,
)


class ScriptError(HatlabError):
    """A script line is malformed, or a move failed to apply or certify during replay."""


class MoveScript(Record):
    """A relative cobordism as moves: a start word and the move tuples replayed from it."""

    __slots__ = ("start", "moves")


class CobordismLedger(Record):
    """Band and self-linking bookkeeping for one replayed script.

    ``bands`` counts inserted single positive generators (a crossing change
    contributes 2), so ``euler == -bands``.  A ledger is checked when it is
    built: when both ends are knots, ``slk_end - slk_start`` must equal
    ``bands`` minus twice the negative stabilizations, or ScriptError is
    raised.  A knot's self-linking number is odd, so ``bands`` is then even
    and the cobordism genus is ``bands/2``.
    """

    __slots__ = ("crossing_changes", "insertions", "negative_stabilizations",
                 "slk_start", "slk_end", "component_trace")

    def __init__(self, crossing_changes: int, insertions: int, negative_stabilizations: int,
                 slk_start: int | None, slk_end: int | None,
                 component_trace: list[int] | tuple[int, ...]):
        object.__setattr__(self, "crossing_changes", crossing_changes)
        object.__setattr__(self, "insertions", insertions)
        object.__setattr__(self, "negative_stabilizations", negative_stabilizations)
        object.__setattr__(self, "slk_start", slk_start)
        object.__setattr__(self, "slk_end", slk_end)
        object.__setattr__(self, "component_trace", tuple(component_trace))
        if slk_start is not None and slk_end is not None:
            expect = self.bands - 2 * self.negative_stabilizations
            if slk_end - slk_start != expect:
                raise ScriptError(
                    "ledger mismatch: slk delta "
                    f"{slk_end - slk_start} != bands {expect}"
                )

    @property
    def bands(self) -> int:
        return self.insertions + 2 * self.crossing_changes

    @property
    def euler(self) -> int:
        return -self.bands

    @property
    def stabilized(self) -> bool:
        return self.negative_stabilizations > 0

    @property
    def genus(self) -> int | None:
        if self.slk_start is None or self.slk_end is None:
            return None
        return self.bands // 2


def apply_move(w: BraidWord, move: tuple) -> BraidWord:
    """Apply a single move to a word; raises ScriptError on any violation."""
    return _row(move)[2](w, *move[1:])


def run_script(script: MoveScript) -> tuple[BraidWord, CobordismLedger]:
    """Replay a script, certifying every step, and return (end, ledger).

    Raises ScriptError (with the step index) rather than skipping an
    uncertifiable step.  The ledger's genus is populated only when both
    ends are knots.
    """
    w = script.start
    trace = [closure_components(w)]
    # Through a run of ins moves, perm[s] is the end position of w's strand
    # starting at s; any other move drops it, and the next ins rebuilds it.
    perm = None
    for step, move in enumerate(script.moves):
        try:
            after = apply_move(w, move)
        except (ScriptError, BraidError) as e:
            raise ScriptError(f"step {step} ({_move_text(move)}): {e}") from e
        if move[0] != "ins":
            perm = None
            trace.append(trace[-1])
        else:
            if perm is None:
                perm, q, at = list(underlying_permutation(w)), 0, list(range(w.strands))
            # The cursor: at[k] is the strand at position k after w's first q
            # letters.  A letter's swap undoes itself, so the cursor steps
            # back by carrying the strands through the passed letters reversed.
            _, p, i = move
            _carry(at, w.letters[q:p] if q < p else reversed(w.letters[p:q]))
            q = p
            # The new crossing swaps the paths of strands x and y from here
            # on: it splits their common cycle or merges their two cycles.
            x, y = at[i - 1], at[i]
            trace.append(trace[-1] + (1 if y in _cycle(perm, x) else -1))
            perm[x], perm[y] = perm[y], perm[x]
        w = after
    # Every move is well formed now, so each has a token to count.  The
    # self-linking of a knot closure is its exponent sum minus its strands.
    kinds = Counter(m[0] for m in script.moves)
    return w, CobordismLedger(
        kinds["cc"], kinds["ins"], script.moves.count(("stab", -1)),
        exponent_sum(script.start) - script.start.strands if trace[0] == 1 else None,
        exponent_sum(w) - w.strands if trace[-1] == 1 else None, trace)


# ---------------------------------------------------------------------------
# The move table and the script file format
# ---------------------------------------------------------------------------
# Each operand kind has one reader (token, current strand count -> value), one
# writer (value -> token), one Python type and one range check (value, current
# strand count -> why its token would not read back as it, or ""); each move
# has one action (word, *operands -> word).  ``equal``, ``parse_braid`` and
# ``braid_text`` are called through the module names at call time, so a
# wrapper bound to those names sees every call.

def _read_sign(token: str, strands: int) -> int:
    if token not in ("+", "-"):
        raise ScriptError(f"expected sign '+' or '-', got {token!r}")
    return 1 if token == "+" else -1


_INT = (lambda token, strands: read_int(token), str, int, lambda i, n: "")
# The writers print an operand out of range as it is, so that an error names it.
_GENERATOR = (parse_generator, lambda i: _letter_name(i, True), int,
              lambda i, n: "" if 0 < i < n else f"must be a generator in 1..{n - 1}, got {i}")
_WORD = (lambda token, strands: parse_braid(token, strands), lambda w: braid_text(w), BraidWord,
         lambda w, n: "" if w.strands == n else f"must be a word in B_{n}, not B_{w.strands}")
_SIGN = (_read_sign, lambda sign: {1: "+", -1: "-"}.get(sign, str(sign)), int,
         lambda sign, n: "" if sign in (1, -1) else f"must be +1 or -1, got {sign}")


def _insert(w: BraidWord, position: int, index: int) -> BraidWord:
    if not (0 <= position <= len(w.letters)):
        raise ScriptError(f"insert position {position} out of range")
    if not (1 <= index < w.strands):
        raise ScriptError(f"insert index {index} out of range")
    return _word(w.strands, w.letters[:position] + (index,) + w.letters[position:])


def _crossing_change(w: BraidWord, position: int, index: int) -> BraidWord:
    if not (0 <= position < len(w.letters)):
        raise ScriptError(f"crossing-change position {position} out of range")
    if not (1 <= index < w.strands):
        raise ScriptError(f"crossing-change index {index} out of range")
    if w.letters[position] != -index:
        raise ScriptError(
            f"crossing change expects sigma_{index}^-1 at position "
            f"{position}, found letter {w.letters[position]}"
        )
    return _word(w.strands, w.letters[:position] + (index,) + w.letters[position + 1:])


def _rewrite(w: BraidWord, target: BraidWord) -> BraidWord:
    if target.strands != w.strands:
        raise ScriptError(f"rewrite target is in B_{target.strands}, the word in B_{w.strands}")
    if not equal(w, target):
        raise ScriptError(f"uncertifiable rewrite: {braid_text(w)} != {braid_text(target)}")
    return target


# token -> (operand kinds in script order, strand change, action)
_MOVES = {
    "ins": ((_INT, _GENERATOR), 0, _insert),
    "cc": ((_INT, _GENERATOR), 0, _crossing_change),
    "conj": ((_WORD,), 0, conjugate),
    "cyc": ((_INT,), 0, cyclic_permute),
    "eq": ((_WORD,), 0, _rewrite),
    "stab": ((_SIGN,), 1, markov_stabilize),
    "destab": ((), -1, markov_destabilize),
}
# Headers in the order they must appear; each appears at most once.
_HEADERS = {"strands": _INT, "start": _WORD}


def parse_script(text: str) -> MoveScript:
    """Read a script file; a malformed line raises ScriptError with its line number."""
    headers: dict = {}
    moves: list[tuple] = []
    strands = 0
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, colon, value = line.partition(":")
            if colon:
                if key not in _HEADERS:
                    raise ScriptError(f"unknown header '{key}:'")
                if key in headers:
                    raise ScriptError(f"repeated header '{key}:'")
                expected = list(_HEADERS)[len(headers)]
                if key != expected:
                    raise ScriptError(f"expected header '{expected}:', got '{key}:'")
                headers[key] = _HEADERS[key][0](value.strip(), strands)
                if key == "strands":
                    strands = headers[key]
                continue
            if len(headers) != 2:
                raise ScriptError("moves must come after 'start:'")
            token, *operands = line.split()
            if token not in _MOVES:
                raise ScriptError(f"unknown move {token!r}")
            kinds, strand_change, _ = _MOVES[token]
            if len(operands) != len(kinds):
                raise ScriptError(f"'{token}' takes {len(kinds)} operand(s), got {len(operands)}")
            moves.append((token, *(read(t, strands) for t, (read, *_) in zip(operands, kinds))))
            strands += strand_change
        except HatlabError as e:
            raise ScriptError(f"line {lineno}: {e}") from e
    if "start" not in headers:
        raise ScriptError(f"line {len(lines) + 1}: script needs 'strands:' and 'start:' headers")
    return MoveScript(headers["start"], tuple(moves))


def read_script(data: bytes, source: str) -> MoveScript:
    """Parse a script file's bytes; bytes that are not UTF-8 raise ScriptError
    naming ``source`` and their offset."""
    return parse_script(decode(data, source, ScriptError))


# token -> the types of a well-formed move (token, *operands).  Replay checks
# every move against it, so it is one comparison of type tuples.
_SHAPES = {token: (str, *(kind[2] for kind in kinds)) for token, (kinds, _, _) in _MOVES.items()}


def _row(move) -> tuple:
    """The ``_MOVES`` row of a move ``(token, *operands)``; ScriptError for anything
    else, or for an operand whose type is not its kind's (``True`` is not an int)."""
    if type(move) is tuple and move and type(move[0]) is str:
        shape = _SHAPES.get(move[0], ())
        if tuple(map(type, move)) == shape:
            return _MOVES[move[0]]
        if len(move) == len(shape):
            i = next(i for i, t in enumerate(shape) if type(move[i]) is not t)
            raise ScriptError(f"'{move[0]}' operand {i} must be {shape[i].__name__}, "
                              f"got {move[i]!r}")
    raise ScriptError(f"unknown move {move!r}")


def _line(move, strands: int | None = None) -> str:
    """A move as its script line; ScriptError for anything ``_row`` rejects and,
    given the strand count at the line, for an operand its range check refuses."""
    kinds = _row(move)[0]
    words = [move[0]]
    for i, ((_, write, _, check), v) in enumerate(zip(kinds, move[1:]), 1):
        if strands is not None and check(v, strands):
            raise ScriptError(f"'{move[0]}' operand {i} {check(v, strands)}")
        words.append(write(v))
    return " ".join(words)


def _move_text(move) -> str:
    """A move as its script line; anything else, as its repr."""
    try:
        return _line(move)
    except ScriptError:
        return repr(move)


def serialize_script(script: MoveScript) -> str:
    """The script's file text, which ``parse_script`` reads back as this script.

    It tracks the strand count as ``parse_script`` does.  A move that is not a
    well-formed move tuple, or an operand that would read back as another value
    or not at all (a word in another strand count than its line's, a generator
    outside 1..n-1, a sign other than +1 or -1), raises ScriptError naming the
    move's index.  Each check takes constant time; nothing is re-parsed.
    """
    strands = script.start.strands
    lines = [f"strands: {strands}", f"start: {braid_text(script.start)}"]
    for k, move in enumerate(script.moves):
        try:
            lines.append(_line(move, strands))
        except ScriptError as e:
            raise ScriptError(f"move {k}: {e}") from e
        strands += _MOVES[move[0]][1]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Torus-target scripts: comb a knot braid up to (s1...s_{n-1}) Delta^{2m}
# ---------------------------------------------------------------------------

def _moving_word(n: int, s: int) -> list[int]:
    # M_s = s_{n-1} s_{n-2} ... s_s: carries the last strand to position s.
    return list(range(n - 1, s - 1, -1))


def comb_pure(w: BraidWord) -> list[tuple[int, ...]]:
    """Factor a pure-braid word into conjugates of squares of generators.

    Returns letter tuples, each of the form ``u + (k, k) + u^-1`` or
    ``u + (-k, -k) + u^-1``, whose concatenation equals the input in B_n.
    The factorization unweaves one strand at a time: walking the word while
    the last strand sits parked at the right edge, a crossing that carries
    it over a neighbour emits one square conjugated by the processed prefix,
    and a crossing that carries it under is free.  The strand-free residue
    is combed recursively.

    The factors are not certified here: ``to_torus_script`` writes their
    product into an ``eq`` step, and replaying that step certifies it.
    """
    if underlying_permutation(w) != tuple(range(w.strands)):
        raise BraidError("comb_pure needs a pure braid word")
    return _comb(w.strands, list(free_reduce(w).letters))


def _comb(n: int, letters: list[int]) -> list[tuple[int, ...]]:
    if n <= 1 or not letters:
        return []
    out: list[tuple[int, ...]] = []
    d: list[int] = []  # processed residue, strand-free, indices in B_{n-1}
    s = n
    for g in letters:
        i = abs(g)
        pos = 1 if g > 0 else -1
        if i + 1 < s:
            d.append(g)
        elif i > s:
            d.append(pos * (i - 1))
        elif i == s:
            if pos > 0:
                u = d + _moving_word(n, s + 1)
                out.append(tuple(u + [s, s] + [-x for x in reversed(u)]))
            s += 1
        else:  # i == s - 1
            if pos < 0:
                u = d + _moving_word(n, s - 1)
                out.append(tuple(u + [-(s - 1), -(s - 1)] + [-x for x in reversed(u)]))
            s -= 1
    if s != n:
        raise BraidError("internal error: strand did not return home")
    reduced = free_reduce(BraidWord(n, tuple(d)))
    out.extend(_comb(n - 1, list(reduced.letters)))
    return out


def _reduced_combing(head: tuple[int, ...], factors: list[tuple[int, ...]]
                     ) -> tuple[list[int], list[int]]:
    """``head`` followed by the factors, freely reduced in one stack pass, and
    the index where each factor's square lands.

    A letter of a square is never cancelled, so no cancelled pair straddles a
    square: replacing every square by some braid, in this word and in head
    times the factors alike, leaves the two equal.
    """
    word, squares, floor = list(head), [], 0
    for f in factors:
        k = len(f) // 2 - 1  # conjugator length
        for t, g in enumerate(f):
            if t == k:
                # The square lands here; neither of its letters, nor any letter
                # below them, ever cancels.
                squares.append(len(word))
                floor = len(word) + 2
            if len(word) > floor and word[-1] == -g:
                word.pop()
            else:
                word.append(g)
    return word, squares


def to_torus_script(w: BraidWord) -> MoveScript:
    """Build a script from a knot braid to a positive torus braid.

    The script is not replayed here: replaying it with ``run_script``, as
    every caller does, certifies every step, its combing included.

    The output conjugates ``w`` by one positive permutation braid, which
    aligns its permutation with the cycle of ``beta0 = s1 s2 ... s_{n-1}``,
    rewrites the result into ``beta0`` times the conjugated squares of
    ``comb_pure``, written as one freely reduced word in which no letter of a
    square cancels, cancels the negative squares by inserting their positive
    mates, grows every positive square into the literal full twist
    ``(s1 ... s_{n-1})^n`` letter by letter, and ends at ``beta0 *
    Delta^{2m}``, whose closure is the torus knot T(n, mn+1).  The full twist
    is central and a square with its mates is trivial, so the word after the
    inserts equals the end word although the conjugators between the squares
    were reduced.
    """
    n = w.strands
    beta0 = BraidWord(n, tuple(range(1, n)))
    moves: list[tuple] = []
    cur = w
    c = _aligning_conjugator(w)
    if c.letters:
        moves.append(("conj", c))
        cur = conjugate(cur, c)

    # cur's permutation is beta0's, so beta0^-1 cur is pure.  Replaying this
    # eq step certifies cur == beta0 * factors, freely reduced: the one
    # certification of the combing.
    factors = comb_pure(inverse(beta0) * cur)
    letters, squares = _reduced_combing(beta0.letters, factors)
    moves.append(("eq", BraidWord(n, tuple(letters))))

    # Work right to left so earlier offsets survive the insertions.
    twist = full_twist(n).letters
    positive = 0
    for f, mid in zip(reversed(factors), reversed(squares)):
        k = len(f) // 2 - 1  # conjugator length
        if f[k] < 0:
            # u s^-2 u^-1: insert the cancelling square right after it.
            moves += [("ins", mid + 2, -f[k])] * 2
        else:
            # u s_j^2 u^-1: s_j^2 is the letters j-1 and n+j-2 of the full
            # twist (s1...s_{n-1})^n; insert the others in order around it.
            positive += 1
            moves += [("ins", mid + t, g) for t, g in enumerate(twist)
                      if t not in (f[k] - 1, n + f[k] - 2)]

    end = BraidWord(n, beta0.letters + twist * positive)
    moves.append(("eq", end))
    return MoveScript(start=w, moves=tuple(moves))


def _aligning_conjugator(w: BraidWord) -> BraidWord:
    """A positive permutation braid c with perm(c w c^-1) == perm(s1 ... s_{n-1}).

    perm(c w c^-1) applies perm(c), then perm(w), then perm(c)^-1, so it is
    perm(beta0) exactly when perm(c) carries the cycle of beta0 through 0,
    which is 0, n-1, ..., 1, point by point onto the cycle of w through 0.
    ``w`` must close to a knot: otherwise that cycle is shorter than n, and
    this raises BraidError.
    """
    n = w.strands
    cycle = _cycle(underlying_permutation(w), 0)
    if len(cycle) < n:
        raise BraidError("torus scripts need a knot closure")
    # sigma[-k % n] = cycle[k]
    return simple_word(tuple(cycle[:1] + cycle[:0:-1]))
