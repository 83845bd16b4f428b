"""A certified rewriting DSL for braid moves that induce symplectic cobordisms.

Each move either preserves the braid closure (conjugation, cyclic
permutation, certified rewriting, positive Markov moves) or attaches bands
to it (inserting a positive generator, switching a negative crossing to a
positive one, negative stabilization).  Replaying a script keeps a ledger of
the attached bands and the induced Euler-characteristic / self-linking /
genus accounting.

Moves are applied to the literal letter sequence; nothing is simplified
implicitly.  A ``RewriteEqual`` step is certified against the Garside
normal form and replay fails loudly on an uncertifiable step, so a script
that replays is a proof of every equality it uses.  Each identity is
certified once: ``to_torus_script`` leaves its combing unchecked and lets
the replay of its first ``eq`` step certify it.

Replay records the closure's component count after every move, which is the
number of cycles of the word's permutation.  ``conj`` and ``cyc`` conjugate
the permutation, a certified ``eq`` keeps it, and ``cc`` keeps it because
sigma_i and its inverse are the same transposition; ``stab`` and ``destab`` are
Markov moves, which keep the closure and so its component count.  Replay carries
the count forward after these six moves and recounts it only after ``ins``.
The self-linking at either end is the exponent sum minus the strands when the
closure there is a knot.

Script files are line-oriented text::

    strands: 3
    start: xy^2x^2y^7
    ins 4 y
    cc 0 x
    conj xyx
    cyc 13
    eq yxy^2xy^2xy^6
    stab +
    destab
    end: xyxyxyxyxyxyxyxyxyxyxy

The headers ``strands: <int>`` and ``start: <word>`` come first, then the
moves, then an optional ``end: <word>``; each header appears at most once.
The moves are ``ins <position> <generator>``, ``cc <position> <generator>``,
``conj <word>``, ``cyc <shift>``, ``eq <word>``, ``stab +`` or ``stab -``, and
``destab``.  Positions (0-based letter indices) and shifts are integers; a
generator is one positive letter and a word is braid text without spaces
(``1`` is the empty word), both in the strand count current at that line.
Blank lines and ``#`` comments are ignored; any other malformed line raises
ScriptError with its line number.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Optional, Union

from . import HatlabError
from .braid import (
    _LETTERS,
    BraidError,
    BraidWord,
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
    simple_word,
    underlying_permutation,
)


class ScriptError(HatlabError):
    """A script line is malformed, or a move failed to apply or certify during replay."""


@dataclass(frozen=True)
class InsertPositive:
    """Insert sigma_index at the given position: one attached band."""

    position: int
    index: int


@dataclass(frozen=True)
class CrossingChange:
    """Switch the negative letter at position to its positive mate.

    Models a positive crossing change of the closure and counts as two
    inserted crossings in the ledger.
    """

    position: int
    index: int


@dataclass(frozen=True)
class Conjugate:
    word: BraidWord


@dataclass(frozen=True)
class CyclicPermute:
    k: int


@dataclass(frozen=True)
class RewriteEqual:
    """Replace the word by an equal one; certified via normal forms."""

    target: BraidWord


@dataclass(frozen=True)
class MarkovStabilize:
    """sign=+1 keeps the transverse closure; sign=-1 is the transverse
    stabilization (flagged in the ledger, self-linking drops by 2)."""

    sign: int


@dataclass(frozen=True)
class MarkovDestabilize:
    pass


Move = Union[
    InsertPositive,
    CrossingChange,
    Conjugate,
    CyclicPermute,
    RewriteEqual,
    MarkovStabilize,
    MarkovDestabilize,
]


@dataclass(frozen=True)
class MoveScript:
    start: BraidWord
    moves: tuple[Move, ...] = ()
    declared_end: Optional[BraidWord] = None


@dataclass
class CobordismLedger:
    """Band and self-linking bookkeeping for one replayed script.

    ``bands`` counts inserted single positive generators (a crossing change
    contributes 2), so ``euler == -bands``.  When both ends are knots the
    cobordism genus is ``bands/2``, which also equals
    ``(slk_end - slk_start)/2`` in the absence of negative stabilizations.
    """

    crossing_changes: int = 0
    insertions: int = 0
    negative_stabilizations: int = 0
    slk_start: Optional[int] = None
    slk_end: Optional[int] = None
    component_trace: list[int] = field(default_factory=list)

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
    def genus(self) -> Optional[int]:
        if self.slk_start is None or self.slk_end is None:
            return None
        if self.bands % 2:
            raise ScriptError("odd band count on a knot-to-knot script")
        return self.bands // 2

    def check_consistency(self) -> None:
        if self.slk_start is not None and self.slk_end is not None:
            expect = self.bands - 2 * self.negative_stabilizations
            if self.slk_end - self.slk_start != expect:
                raise ScriptError(
                    "ledger mismatch: slk delta "
                    f"{self.slk_end - self.slk_start} != bands {expect}"
                )


def apply_move(w: BraidWord, move: Move) -> BraidWord:
    """Apply a single move to a word; raises ScriptError on any violation."""
    action = _ACTIONS.get(type(move))
    if action is None:
        raise ScriptError(f"unknown move {move!r}")
    return action(w, move)


def run_script(script: MoveScript) -> tuple[BraidWord, CobordismLedger]:
    """Replay a script, certifying every step, and return (end, ledger).

    Raises ScriptError (with the step index) rather than skipping an
    uncertifiable step.  The ledger's genus is populated only when both
    ends are knots.
    """
    w = script.start
    kinds = Counter(map(type, script.moves))
    ledger = CobordismLedger(kinds[CrossingChange], kinds[InsertPositive],
                             script.moves.count(MarkovStabilize(-1)))
    trace = ledger.component_trace
    trace.append(closure_components(w))
    for step, move in enumerate(script.moves):
        try:
            w = apply_move(w, move)
        except (ScriptError, BraidError) as e:
            raise ScriptError(f"step {step} ({move!r}): {e}") from e
        trace.append(closure_components(w) if type(move) is InsertPositive else trace[-1])
    # Self-linking of a knot closure: exponent sum minus strands.
    if trace[0] == 1:
        ledger.slk_start = exponent_sum(script.start) - script.start.strands
    if trace[-1] == 1:
        ledger.slk_end = exponent_sum(w) - w.strands
    if script.declared_end is not None:
        if script.declared_end.strands != w.strands:
            raise ScriptError(
                f"declared end lives in B_{script.declared_end.strands}, "
                f"script ends in B_{w.strands}"
            )
        if not equal(w, script.declared_end):
            raise ScriptError(
                f"final word {braid_text(w)} not equal to declared end "
                f"{braid_text(script.declared_end)}"
            )
    ledger.check_consistency()
    return w, ledger


# ---------------------------------------------------------------------------
# The move table and the script file format
# ---------------------------------------------------------------------------
# Each operand kind has one reader (token, current strand count -> value) and
# one writer (value -> token); each move has one action (word, move -> word).
# They call braid functions through the module names at call time, so a
# wrapper bound to those names sees every call.

def _read_int(token: str, strands: int) -> int:
    if not re.fullmatch(r"-?[0-9]+", token):
        raise ScriptError(f"expected an integer, got {token!r}")
    return int(token)


_GENERATOR_INDEX = {name: i for i, name in enumerate(_LETTERS, 1)}


def _read_generator(token: str, strands: int) -> int:
    i = _GENERATOR_INDEX.get(token)
    if i is not None and i < strands:
        return i
    w = parse_braid(token, strands)
    if len(w.letters) != 1 or w.letters[0] < 0:
        raise ScriptError(f"expected a single positive generator, got {token!r}")
    return w.letters[0]


def _read_sign(token: str, strands: int) -> int:
    if token not in ("+", "-"):
        raise ScriptError(f"expected sign '+' or '-', got {token!r}")
    return 1 if token == "+" else -1


def _read_word(token: str, strands: int) -> BraidWord:
    return BraidWord(strands) if token == "1" else parse_braid(token, strands)


_INT = (_read_int, str)
_GENERATOR = (_read_generator, lambda i: _letter_name(i, True))
_WORD = (_read_word, lambda w: braid_text(w) or "1")
_SIGN = (_read_sign, lambda sign: "+" if sign == 1 else "-")


def _insert(w: BraidWord, move: InsertPositive) -> BraidWord:
    if not (0 <= move.position <= len(w.letters)):
        raise ScriptError(f"insert position {move.position} out of range")
    if not (1 <= move.index < w.strands):
        raise ScriptError(f"insert index {move.index} out of range")
    letters = w.letters[:move.position] + (move.index,) + w.letters[move.position:]
    return _word(w.strands, letters)


def _crossing_change(w: BraidWord, move: CrossingChange) -> BraidWord:
    if not (0 <= move.position < len(w.letters)):
        raise ScriptError(f"crossing-change position {move.position} out of range")
    if w.letters[move.position] != -move.index:
        raise ScriptError(
            f"crossing change expects sigma_{move.index}^-1 at position "
            f"{move.position}, found letter {w.letters[move.position]}"
        )
    p = move.position
    return _word(w.strands, w.letters[:p] + (move.index,) + w.letters[p + 1:])


def _rewrite(w: BraidWord, move: RewriteEqual) -> BraidWord:
    if move.target.strands != w.strands:
        raise ScriptError("rewrite target has wrong strand count")
    if not equal(w, move.target):
        raise ScriptError(
            f"uncertifiable rewrite: {braid_text(w)} != {braid_text(move.target)}"
        )
    return move.target


# token -> (move class, operand kinds in field order, strand change, action)
_MOVES = {
    "ins": (InsertPositive, (_INT, _GENERATOR), 0, _insert),
    "cc": (CrossingChange, (_INT, _GENERATOR), 0, _crossing_change),
    "conj": (Conjugate, (_WORD,), 0, lambda w, move: conjugate(w, move.word)),
    "cyc": (CyclicPermute, (_INT,), 0, lambda w, move: cyclic_permute(w, move.k)),
    "eq": (RewriteEqual, (_WORD,), 0, _rewrite),
    "stab": (MarkovStabilize, (_SIGN,), 1, lambda w, move: markov_stabilize(w, move.sign)),
    "destab": (MarkovDestabilize, (), -1, lambda w, move: markov_destabilize(w)),
}
# A move's operands as (field name, writer) pairs, in field order.
_TOKENS = {cls: (token, [(f.name, write) for f, (_, write) in zip(fields(cls), kinds)])
           for token, (cls, kinds, _, _) in _MOVES.items()}
_ACTIONS = {cls: action for cls, _, _, action in _MOVES.values()}
# Headers in the order they must appear; each appears at most once.
_HEADERS = {"strands": _INT, "start": _WORD, "end": _WORD}


def parse_script(text: str) -> MoveScript:
    """Read a script file; a malformed line raises ScriptError with its line number."""
    headers: dict = {}
    moves: list[Move] = []
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
                read, _ = _HEADERS[key]
                headers[key] = read(value.strip(), strands)
                if key == "strands":
                    strands = headers[key]
                continue
            if len(headers) != 2:
                raise ScriptError("moves must come after 'start:' and before 'end:'")
            token, *operands = line.split()
            if token not in _MOVES:
                raise ScriptError(f"unknown move {token!r}")
            cls, kinds, strand_change, _ = _MOVES[token]
            if len(operands) != len(kinds):
                raise ScriptError(f"'{token}' takes {len(kinds)} operand(s), got {len(operands)}")
            moves.append(cls(*(read(t, strands) for t, (read, _) in zip(operands, kinds))))
            strands += strand_change
        except (ScriptError, BraidError) as e:
            raise ScriptError(f"line {lineno}: {e}") from e
    if "start" not in headers:
        raise ScriptError(f"line {len(lines) + 1}: script needs 'strands:' and 'start:' headers")
    return MoveScript(headers["start"], tuple(moves), headers.get("end"))


def serialize_script(script: MoveScript) -> str:
    lines = [f"strands: {script.start.strands}", f"start: {braid_text(script.start)}"]
    for move in script.moves:
        token, operands = _TOKENS[type(move)]
        lines.append(" ".join([token, *(write(getattr(move, name)) for name, write in operands)]))
    if script.declared_end is not None:
        lines.append(f"end: {braid_text(script.declared_end)}")
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

    The result is certified against the Garside normal form; a convention
    bug cannot silently corrupt a factorization.
    """
    if underlying_permutation(w) != tuple(range(w.strands)):
        raise BraidError("comb_pure needs a pure braid word")
    factors = _comb(w.strands, list(free_reduce(w).letters))
    produced = BraidWord(w.strands, tuple(g for f in factors for g in f))
    if not equal(produced, w):
        raise BraidError("internal error: combing failed certification")
    return factors


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


def to_torus_script(w: BraidWord) -> MoveScript:
    """Build a certified script from a knot braid to a positive torus braid.

    The output conjugates ``w`` by one positive permutation braid, which
    aligns its permutation with the cycle of ``beta0 = s1 s2 ... s_{n-1}``,
    rewrites the result into ``beta0`` times an explicit product of
    conjugated squares, cancels the negative squares by inserting their
    positive mates, grows every positive square into the literal full twist
    ``(s1 ... s_{n-1})^n`` letter by letter, and ends at ``beta0 *
    Delta^{2m}``, whose closure is the torus knot T(n, mn+1).
    """
    n = w.strands
    beta0 = BraidWord(n, tuple(range(1, n)))
    moves: list[Move] = []
    cur = w
    c = _aligning_conjugator(w)
    if c.letters:
        moves.append(Conjugate(c))
        cur = conjugate(cur, c)

    # cur's permutation is beta0's, so beta0^-1 cur is pure.  The factors are
    # not checked here: run_script below certifies cur == beta0 * factors in
    # this RewriteEqual step, the one certification of the combing.
    factors = _comb(n, list(free_reduce(inverse(beta0) * cur).letters))
    stage1 = BraidWord(n, beta0.letters + tuple(g for f in factors for g in f))
    moves.append(RewriteEqual(stage1))

    # Work right to left so earlier offsets survive the insertions.
    twist = full_twist(n).letters
    positive = 0
    off = len(stage1)
    for f in reversed(factors):
        off -= len(f)
        k = len(f) // 2 - 1  # conjugator length
        mid = off + k
        if f[k] < 0:
            # u s^-2 u^-1: insert the cancelling square right after it.
            moves += [InsertPositive(mid + 2, -f[k])] * 2
        else:
            # u s_j^2 u^-1: s_j^2 is the letters j-1 and n+j-2 of the full
            # twist (s1...s_{n-1})^n; insert the others in order around it.
            positive += 1
            moves += [InsertPositive(mid + t, g) for t, g in enumerate(twist)
                      if t not in (f[k] - 1, n + f[k] - 2)]

    end = BraidWord(n, beta0.letters + twist * positive)
    moves.append(RewriteEqual(end))
    script = MoveScript(start=w, moves=tuple(moves), declared_end=end)
    run_script(script)  # certify before handing out
    return script


def _aligning_conjugator(w: BraidWord) -> BraidWord:
    """A positive permutation braid c with perm(c w c^-1) == perm(s1 ... s_{n-1}).

    perm(c w c^-1) applies perm(c), then perm(w), then perm(c)^-1, so it is
    perm(beta0) exactly when perm(c) carries the cycle of beta0 through 0,
    which is 0, n-1, ..., 1, point by point onto the cycle of w through 0.
    ``w`` must close to a knot: otherwise that cycle is shorter than n, and
    this raises BraidError.
    """
    n = w.strands
    pw = underlying_permutation(w)
    sigma = [0] * n
    a = 0
    for k in range(n):
        if k and not a:
            raise BraidError("torus scripts need a knot closure")
        sigma[-k % n] = a
        a = pw[a]
    return simple_word(tuple(sigma))
