"""The rewriting DSL: moves, ledger accounting, script files, torus scripts."""

import itertools
import math
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from hatlab import braid, cobordism
from hatlab.braid import (
    BraidError,
    BraidWord,
    braid_text,
    closure_components,
    conjugate,
    equal,
    exponent_sum,
    full_twist,
    parse_braid,
    self_linking,
    simple_word,
    underlying_permutation,
)
from hatlab.cobordism import (
    CobordismLedger,
    MoveScript,
    ScriptError,
    _aligning_conjugator,
    apply_move,
    comb_pure,
    parse_script,
    run_script,
    serialize_script,
    to_torus_script,
)

SCRIPTS = resources.files("hatlab").joinpath("data", "scripts")
HEAD = "strands: 3\nstart: xy\n"


def test_empty_script_is_identity_cobordism():
    w = parse_braid("xy^2x^2y^7", 3)
    end, ledger = run_script(MoveScript(start=w))
    assert end == w
    assert ledger.bands == 0
    assert ledger.euler == 0
    assert ledger.genus == 0
    assert ledger.slk_start == ledger.slk_end == 9


def test_insert_positive_counts_one_band():
    w = parse_braid("x^3", 2)
    script = MoveScript(start=w, moves=(("ins", 1, 1),))
    end, ledger = run_script(script)
    assert end == parse_braid("x^4", 2)
    assert ledger.bands == 1
    assert ledger.euler == -1


def test_crossing_change_counts_two_bands():
    w = parse_braid("xXx", 2)
    script = MoveScript(start=w, moves=(("cc", 1, 1),))
    end, ledger = run_script(script)
    assert end == parse_braid("x^3", 2)
    assert ledger.bands == 2
    assert ledger.genus == 1
    assert ledger.slk_end - ledger.slk_start == 2


def test_crossing_change_requires_negative_letter():
    w = parse_braid("x^3", 2)
    with pytest.raises(ScriptError):
        apply_move(w, ("cc", 0, 1))


def test_positions_out_of_range():
    w = parse_braid("x^3", 2)
    with pytest.raises(ScriptError):
        apply_move(w, ("ins", 7, 1))
    with pytest.raises(ScriptError):
        apply_move(w, ("cc", 5, 1))


def test_apply_move_rejects_unknown_move():
    with pytest.raises(ScriptError, match="unknown move"):
        apply_move(parse_braid("x^3", 2), "ins 0 x")


def test_rewrite_equal_certifies():
    w = parse_braid("xyx", 3)
    assert apply_move(w, ("eq", parse_braid("yxy", 3))) == parse_braid("yxy", 3)
    with pytest.raises(ScriptError):
        apply_move(w, ("eq", parse_braid("xxy", 3)))


# A failing step of each move kind on xyxy in B_3, with the exact error: the
# step's index and its script line.  A cyc applies with any integer shift, so
# it only leads up to a failing eq here.
_STEP_ERRORS = [
    ([("cyc", 1), ("eq", parse_braid("x^3", 3))],
     "step 1 (eq x^3): uncertifiable rewrite: yxyx != x^3"),
    ([("eq", BraidWord(3))], "step 0 (eq 1): uncertifiable rewrite: xyxy != 1"),
    ([("eq", parse_braid("x", 2))], "step 0 (eq x): rewrite target has wrong strand count"
     " (operand 1 is in B_2, the word in B_3)"),
    ([("ins", 5, 1)], "step 0 (ins 5 x): insert position 5 out of range"),
    ([("ins", 0, 3)], "step 0 (ins 0 z): insert index 3 out of range"),
    ([("ins", 0, 0)], "step 0 (ins 0 s0): insert index 0 out of range"),
    ([("cc", 0, 1)],
     "step 0 (cc 0 x): crossing change expects sigma_1^-1 at position 0, found letter 1"),
    ([("cc", 4, 2)], "step 0 (cc 4 y): crossing-change position 4 out of range"),
    ([("cc", 0, 3)], "step 0 (cc 0 z): crossing-change index 3 out of range"),
    ([("conj", parse_braid("x", 2))], "step 0 (conj x): conjugation requires equal strand counts"
     " (operand 1 is in B_2, the word in B_3)"),
    ([("stab", 2)], "step 0 (stab 2): stabilization sign must be +1 or -1"),
    ([("destab",)], "step 0 (destab): destabilization needs exactly one sigma_2 letter, found 2"),
    ([("stab", -1), ("destab",)],
     "step 1 (destab): destabilization needs the last-strand letter to be positive"),
] + [
    # A move with an operand of the wrong type is named by its repr, and the
    # error names the operand; bool is not an int.
    ([("cyc", "x")], "step 0 (('cyc', 'x')): 'cyc' operand 1 must be int, got 'x'"),
    ([("eq", "xyx")], "step 0 (('eq', 'xyx')): 'eq' operand 1 must be BraidWord, got 'xyx'"),
    ([("ins", "4", 1)], "step 0 (('ins', '4', 1)): 'ins' operand 1 must be int, got '4'"),
    ([("ins", 4, 1.0)], "step 0 (('ins', 4, 1.0)): 'ins' operand 2 must be int, got 1.0"),
    ([("stab", True)], "step 0 (('stab', True)): 'stab' operand 1 must be int, got True"),
] + [
    # What is not one of the seven moves is named by its repr.
    ([("cyc", 1), move], f"step 1 ({move!r}): unknown move {move!r}")
    for move in [("bogus", 1), ("ins", 1), ("destab", 1), "ins 0 x", (), 5, (["ins"], 0, 1)]
]


def test_uncertifiable_step_reports_index():
    for moves, message in _STEP_ERRORS:
        with pytest.raises(ScriptError) as exc:
            run_script(MoveScript(start=parse_braid("xyxy", 3), moves=tuple(moves)))
        assert str(exc.value) == message


def test_destabilization_precondition_in_scripts():
    script = MoveScript(start=parse_braid("xyxy", 3), moves=(("destab",),))
    with pytest.raises(ScriptError):
        run_script(script)


def test_negative_stabilization_is_flagged():
    w = parse_braid("x^3", 2)
    script = MoveScript(start=w, moves=(("stab", -1),))
    end, ledger = run_script(script)
    assert end == parse_braid("x^3Y", 3)
    assert ledger.stabilized
    assert ledger.slk_end == ledger.slk_start - 2
    assert ledger.genus == 0  # no bands were attached


def test_ledger_is_checked_when_built():
    # One band between two knots of self-linking 1: the gain 0 is not 1 - 0.
    with pytest.raises(ScriptError) as exc:
        CobordismLedger(0, 1, 0, 1, 1, [1, 2, 1])
    assert str(exc.value) == "ledger mismatch: slk delta 0 != bands 1"
    # A negative stabilization takes 2 off the expected gain.
    assert CobordismLedger(1, 0, 1, 1, 1, [1, 1, 1]).genus == 1
    # With a link at either end nothing is compared and there is no genus.
    assert CobordismLedger(0, 1, 0, 1, None, [1, 2]).genus is None


def test_replay_is_deterministic():
    text = """
strands: 3
start: xy^2x^2y^7
ins 4 y
ins 4 y
cyc 13
eq xyxyxyxyxy^5
"""
    script = parse_script(text)
    end1, led1 = run_script(script)
    end2, led2 = run_script(script)
    assert end1 == end2
    assert led1 == led2


def test_script_file_round_trip():
    text = (
        "strands: 3\n"
        "start: xy^2x^2y^7\n"
        "ins 4 y\n"
        "ins 4 y\n"
        "cc 0 x\n"
        "conj xyx\n"
        "conj 1\n"
        "cyc 3\n"
        "cyc -3\n"
        "eq yxy^2xy^2xy^6\n"
        "stab +\n"
        "stab -\n"
        "destab\n"
        "destab\n"
    )
    # not a runnable script (the cc has no negative letter); parse/serialize only
    script = parse_script(text)
    assert script.moves == (
        ("ins", 4, 2), ("ins", 4, 2), ("cc", 0, 1), ("conj", parse_braid("xyx", 3)),
        ("conj", BraidWord(3)), ("cyc", 3), ("cyc", -3), ("eq", parse_braid("yxy^2xy^2xy^6", 3)),
        ("stab", 1), ("stab", -1), ("destab",), ("destab",),
    )
    assert serialize_script(script) == text
    for path in SCRIPTS.iterdir():
        corpus_text = path.read_text()
        assert serialize_script(parse_script(corpus_text)) == corpus_text, path.name


@pytest.mark.parametrize("moves, message", [
    ((("cyc", "x"),), "move 0: 'cyc' operand 1 must be int, got 'x'"),
    ((("ins", 0, 1), ("stab", True)), "move 1: 'stab' operand 1 must be int, got True"),
    ((("cyc", 1), ("bogus", 1)), "move 1: unknown move ('bogus', 1)"),
    ((("cyc", 1), ("destab",), "ins 0 x"), "move 2: unknown move 'ins 0 x'"),
])
def test_serialize_refuses_what_parse_script_cannot_read(moves, message):
    with pytest.raises(ScriptError) as exc:
        serialize_script(MoveScript(parse_braid("xy", 3), moves))
    assert str(exc.value) == message


# Moves from xyx in B_3 whose text would read back as another script or not at
# all; serialize refuses each, and replay keeps its own error for the tuples.
@pytest.mark.parametrize("moves, message, replay", [
    # conj x would read in B_3 and replay to xyxyX
    ((("eq", parse_braid("yxy", 3)), ("conj", BraidWord(2, (1,)))),
     "move 1: 'conj' operand 1 must be a word in B_3, not B_2",
     "step 1 (conj x): conjugation requires equal strand counts"
     " (operand 1 is in B_2, the word in B_3)"),
    ((("eq", BraidWord(4, (1, 2, 1))),),
     "move 0: 'eq' operand 1 must be a word in B_3, not B_4",
     "step 0 (eq xyx): rewrite target has wrong strand count"
     " (operand 1 is in B_4, the word in B_3)"),
    ((("ins", 0, 5),), "move 0: 'ins' operand 2 must be a generator in 1..2, got 5",
     "step 0 (ins 0 s5): insert index 5 out of range"),
    ((("cc", 0, 0),), "move 0: 'cc' operand 2 must be a generator in 1..2, got 0",
     "step 0 (cc 0 s0): crossing-change index 0 out of range"),
    ((("stab", 2),), "move 0: 'stab' operand 1 must be +1 or -1, got 2",
     "step 0 (stab 2): stabilization sign must be +1 or -1"),
    # the strand count moves with stab and destab, as parse_script's does
    ((("stab", 1), ("ins", 0, 3), ("destab",), ("ins", 0, 3)),
     "move 3: 'ins' operand 2 must be a generator in 1..2, got 3",
     "step 2 (destab): destabilization needs exactly one sigma_3 letter, found 2"),
])
def test_serialize_refuses_operands_that_would_not_read_back(moves, message, replay):
    script = MoveScript(parse_braid("xyx", 3), moves)
    with pytest.raises(ScriptError) as exc:
        serialize_script(script)
    assert str(exc.value) == message
    with pytest.raises(ScriptError) as exc:
        run_script(script)
    assert str(exc.value) == replay


@st.composite
def _move_scripts(draw):
    n = draw(st.integers(1, 6))

    def word(strands):
        letters = [g for g in range(1 - strands, strands) if g]
        return BraidWord(strands, tuple(draw(st.lists(st.sampled_from(letters), max_size=8))
                                        if letters else ()))

    start = word(n)
    moves = []
    for _ in range(draw(st.integers(0, 10))):
        kinds = ["conj", "cyc", "eq", "stab"] + (["ins", "cc", "destab"] if n > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind in ("ins", "cc"):
            moves.append((kind, draw(st.integers(0, 40)), draw(st.integers(1, n - 1))))
        elif kind == "conj":
            moves.append(("conj", word(n)))
        elif kind == "cyc":
            moves.append(("cyc", draw(st.integers(-40, 40))))
        elif kind == "eq":
            moves.append(("eq", word(n)))
        elif kind == "stab":
            moves.append(("stab", draw(st.sampled_from([1, -1]))))
            n += 1
        else:
            moves.append(("destab",))
            n -= 1
    return MoveScript(start=start, moves=tuple(moves))


@given(_move_scripts())
@settings(max_examples=200, deadline=None)
def test_script_round_trip_property(script):
    assert parse_script(serialize_script(script)) == script


# Generator operands that do not read, with the exact error each one raises.
_GENERATOR_ERRORS = [
    ("strands: 2\nstart: x\nins 0 y\n",
     "line 3: letter index 2 at column 0 in 'y' is outside 1..1 for 2 strands"),
    ("strands: 1\nstart: 1\nins 0 x\n",
     "line 3: letter index 1 at column 0 in 'x' is outside 1..0 for 1 strands"),
    (HEAD + "cc 1 w\n", "line 3: letter index 4 at column 0 in 'w' is outside 1..2 for 3 strands"),
    (HEAD + "ins 0 X\n", "line 3: expected a single positive generator, got 'X'"),
    (HEAD + "ins 0 xy\n", "line 3: expected a single positive generator, got 'xy'"),
    (HEAD + "ins 0 x^2\n", "line 3: expected a single positive generator, got 'x^2'"),
    (HEAD + "ins 0 s0\n", "line 3: letter index 0 at column 0 in 's0' is outside 1..2 for 3 strands"),
    (HEAD + "ins 0 s3\n", "line 3: letter index 3 at column 0 in 's3' is outside 1..2 for 3 strands"),
    # A generator is a letter name with no power: a power of one, an inverse
    # or anything that is not a name does not read.
    (HEAD + "ins 0 x^1\n", "line 3: expected a single positive generator, got 'x^1'"),
    (HEAD + "cc 0 X^-1\n", "line 3: expected a single positive generator, got 'X^-1'"),
    ("strands: 6\nstart: x\nins 0 s5^1\n",
     "line 3: expected a single positive generator, got 's5^1'"),
    (HEAD + "ins 0 q\n", "line 3: expected a single positive generator, got 'q'"),
    (HEAD + "ins 0 S9\n", "line 3: expected a single positive generator, got 'S9'"),
    (HEAD + "ins 0 s\n", "line 3: expected a single positive generator, got 's'"),
]


@pytest.mark.parametrize("text, lineno", [
    (HEAD + "stab q\n", 3),
    (HEAD + "stab\n", 3),
    (HEAD + "ins\n", 3),
    (HEAD + "ins x y\n", 3),
    (HEAD + "cyc\n", 3),
    (HEAD + "cyc 1 2\n", 3),
    (HEAD + "destab extra\n", 3),
    (HEAD + "eq q\n", 3),
    (HEAD + "bogus 1\n", 3),
    ("strands: x\nstart: xy\n", 1),
    ("strands: 3\nstrands: 3\nstart: xy\n", 2),
    (HEAD + "start: xy\n", 3),
    ("strands: 3\n# no start\n", 3),
    ("cyc 1\n" + HEAD, 1),
] + [(text, 3) for text, _ in _GENERATOR_ERRORS])
def test_malformed_script_lines_name_their_line(text, lineno):
    with pytest.raises(ScriptError, match=rf"\bline {lineno}\b"):
        parse_script(text)


@pytest.mark.parametrize("text, message", _GENERATOR_ERRORS)
def test_malformed_generators_keep_their_errors(text, message):
    # braid.parse_generator reads every generator operand; its range error
    # is the one parse_braid raises.
    with pytest.raises(ScriptError) as exc:
        parse_script(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", [
    ("strands: 3\nfoo: 1\n", "line 2: unknown header 'foo:'"),
    # A script ends where its moves end; there is no end header.
    ("strands: 3\nstart: xy\nend: xy\n", "line 3: unknown header 'end:'"),
    ("strands: 3\ncyc 1\n", "line 2: moves must come after 'start:'"),
    ("start: xy\nstrands: 3\n", "line 1: expected header 'strands:', got 'start:'"),
])
def test_header_errors_keep_their_messages(text, message):
    with pytest.raises(ScriptError) as exc:
        parse_script(text)
    assert str(exc.value) == message


def test_script_comments_and_blanks_ignored():
    text = "strands: 2\n\n# a comment\nstart: xXx\ncc 1 x  # switch\n"
    script = parse_script(text)
    end, ledger = run_script(script)
    assert end == parse_braid("x^3", 2)


# ---------------------------------------------------------------------------
# ledger consistency on random scripts
# ---------------------------------------------------------------------------

def _random_script(rng):
    n = rng.randint(2, 4)
    base = list(range(1, n))  # beta0 keeps the closure a knot
    for _ in range(rng.randint(0, 8)):
        base.append(rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)]))
    w = BraidWord(n, tuple(base))
    moves = []
    cur = w
    for _ in range(rng.randint(0, 10)):
        kind = rng.randint(0, 3)
        if kind == 0:
            pos = rng.randint(0, len(cur.letters))
            idx = rng.randint(1, cur.strands - 1)
            moves.append(("ins", pos, idx))
        elif kind == 1:
            negs = [j for j, g in enumerate(cur.letters) if g < 0]
            if not negs:
                continue
            j = rng.choice(negs)
            moves.append(("cc", j, -cur.letters[j]))
        elif kind == 2:
            moves.append(("cyc", rng.randint(0, max(1, len(cur.letters)))))
        else:
            c = BraidWord(cur.strands, tuple(
                rng.choice([i for i in range(1, cur.strands)]
                           + [-i for i in range(1, cur.strands)])
                for _ in range(rng.randint(0, 3))
            ))
            moves.append(("conj", c))
        cur = apply_move(cur, moves[-1])
    return MoveScript(start=w, moves=tuple(moves))


def test_ledger_slk_euler_consistency_random():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        script = _random_script(rng)
        end, ledger = run_script(script)
        assert ledger.euler == -ledger.bands
        assert ledger.bands == ledger.insertions + 2 * ledger.crossing_changes
        assert exponent_sum(end) == exponent_sum(script.start) + ledger.bands
        if ledger.slk_start is not None and ledger.slk_end is not None:
            assert ledger.slk_end - ledger.slk_start == ledger.bands
            checked += 1
        assert ledger.component_trace[0] == closure_components(script.start)
        assert ledger.component_trace[-1] == closure_components(end)
    assert checked > 50


# ---------------------------------------------------------------------------
# pure-braid combing and torus-target scripts
# ---------------------------------------------------------------------------

def _pure_word(n, rng, blocks):
    letters = []
    for _ in range(blocks):
        L = rng.randint(0, 4)
        u = [rng.choice([k for k in range(1, n)] + [-k for k in range(1, n)])
             for _ in range(L)]
        i = rng.randint(1, n - 1)
        s = rng.choice([1, -1])
        letters += u + [s * i, s * i] + [-x for x in reversed(u)]
    return BraidWord(n, tuple(letters))


def test_comb_pure_certifies_factorizations():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(2, 4)
        w = _pure_word(n, rng, rng.randint(0, 4))
        factors = comb_pure(w)
        assert equal(BraidWord(n, tuple(g for f in factors for g in f)), w)
        for f in factors:
            k = (len(f) - 2) // 2
            assert abs(f[k]) == abs(f[k + 1])
            assert f[k] == f[k + 1]


# (word, strands, factors).  The strand-free residue is freely reduced before
# it is combed, so s2^-1 s4^-1 s2 s4 in B_5 combs to 2 factors, not 4.
@pytest.mark.parametrize("text, n, count", [
    ("YWyw", 5, 2),
    ("YWywxzXZ", 5, 2),
    ("XXyyXX", 3, 3),
    ("ZYXXyz", 4, 5),
    ("x^2y^2z^2", 4, 3),
])
def test_comb_pure_factor_counts(text, n, count):
    w = parse_braid(text, n)
    factors = comb_pure(w)
    assert len(factors) == count
    assert equal(BraidWord(n, tuple(g for f in factors for g in f)), w)


def test_comb_pure_rejects_non_pure():
    with pytest.raises(Exception):
        comb_pure(parse_braid("x", 2))


def test_to_torus_trivial_for_torus_braid():
    script = to_torus_script(BraidWord(2, (1,)))
    end, ledger = run_script(script)
    assert end == BraidWord(2, (1,))
    assert ledger.bands == 0


def test_to_torus_negative_generator():
    script = to_torus_script(BraidWord(2, (-1,)))
    end, ledger = run_script(script)
    assert equal(end, BraidWord(2, (1,)))
    assert ledger.bands == 2
    assert ledger.genus == 1
    assert ledger.slk_start == -3 and ledger.slk_end == -1


def test_to_torus_requires_knot():
    for w in (BraidWord(3), BraidWord(3, (2,)), BraidWord(3, (1,)), BraidWord(4, (1, 3)),
              BraidWord(2, (1, 1))):
        with pytest.raises(BraidError, match="torus scripts need a knot closure"):
            to_torus_script(w)


def test_to_torus_script_walks_its_inputs_permutation_once(monkeypatch):
    # To align it, which also finds that the closure is a knot.  Building a
    # script does not replay it, so the start's components are not counted.
    calls = []
    real = braid.underlying_permutation
    spy = lambda w: calls.append(w) or real(w)
    monkeypatch.setattr(braid, "underlying_permutation", spy)
    monkeypatch.setattr(cobordism, "underlying_permutation", spy)
    w = parse_braid("yX^3", 3)
    assert to_torus_script(w).moves[0][0] == "conj"
    assert calls.count(w) == 1


def test_to_torus_script_applies_no_move(monkeypatch):
    # The caller's replay is the one certification of a torus script.
    calls = []
    real = cobordism.apply_move
    monkeypatch.setattr(cobordism, "apply_move", lambda w, m: calls.append(m) or real(w, m))
    script = to_torus_script(parse_braid("xY^3XY", 3))
    assert calls == []
    run_script(script)
    assert len(calls) == len(script.moves) == 15


def test_to_torus_random_property():
    rng = random.Random(9)
    done = 0
    while done < 60:
        n = rng.randint(2, 4)
        w = BraidWord(n, tuple(range(1, n)) + _pure_word(n, rng, rng.randint(0, 3)).letters)
        if len(w.letters) > 22 or closure_components(w) != 1:
            continue
        script = to_torus_script(w)
        end, ledger = run_script(script)
        beta0 = BraidWord(end.strands, tuple(range(1, end.strands)))
        n_ = end.strands
        num = exponent_sum(end) - (n_ - 1)
        if n_ > 1:
            assert num % (n_ * (n_ - 1)) == 0
            m = num // (n_ * (n_ - 1))
        else:
            m = 0
        assert m >= 0
        target = BraidWord(n_, beta0.letters + full_twist(n_).letters * m)
        assert equal(end, target)
        # closure of the end is the torus knot T(n, mn+1)
        assert closure_components(end) == 1
        assert ledger.genus == ledger.bands // 2
        done += 1


def test_to_torus_aligns_permutation():
    # a knot braid whose permutation is not the standard cycle
    w = parse_braid("yx", 3)  #perm differs from beta0's by conjugation
    script = to_torus_script(w)
    end, _ = run_script(script)
    assert closure_components(end) == 1


@pytest.mark.parametrize("n", range(2, 10))
def test_positive_square_grows_into_the_literal_full_twist(n):
    beta0, twist = tuple(range(1, n)), full_twist(n).letters
    for k in range(1, n):
        start = BraidWord(n, beta0 + (k, k))
        stage1, *inserts, last = to_torus_script(start).moves
        assert stage1 == ("eq", start)
        assert len(inserts) == n * (n - 1) - 2
        w = start
        for move in inserts:
            assert move[0] == "ins"
            w = apply_move(w, move)
        assert w.letters == beta0 + twist, (n, k)
        assert last == ("eq", w)


# (braid, strands, full twists m in the end word, bands, moves) of seeded braids.
@pytest.mark.parametrize("text, n, m, bands, moves", [
    ("xYyxyx", 3, 3, 16, 19),
    ("XYXxYy", 3, 0, 4, 6),
    ("xY^3XY", 3, 1, 12, 15),
    ("yYzXY", 4, 1, 16, 19),
    ("YXzYX^2Z^2y", 4, 1, 20, 23),
    ("WXzwYZxX", 5, 1, 26, 29),
    ("xs5WZy", 6, 3, 94, 97),
    ("wYxS5z", 6, 3, 94, 97),
    ("S6yxzs5W", 7, 4, 172, 175),
    ("xzyws6s7s5", 8, 7, 392, 395),
])
def test_to_torus_script_pinned(text, n, m, bands, moves):
    script = to_torus_script(parse_braid(text, n))
    end, ledger = run_script(script)
    assert end == script.moves[-1][1]
    assert end.letters == tuple(range(1, n)) + full_twist(n).letters * m
    assert (ledger.bands, ledger.genus, len(script.moves)) == (bands, bands // 2, moves)


# Seeded knot braids of the least length n - 1, twelve per n, and the full
# twists m of each torus script's end word; the sums are 32, 42 and 52.
_MINIMAL_KNOTS = {
    6: ("wYxS5z xwys5Z S5xWZY xzS5Wy ys5xzw S5XyWZ "
        "XZs5WY zS5xwy S5WyZX s5YXwz S5xwzy xS5zYW",
        (3, 4, 1, 3, 5, 1, 1, 4, 1, 3, 4, 2)),
    7: ("S6yxzs5W WzXS6yS5 S5wS6Zyx s6XZyws5 yWzXS5S6 xzws6YS5 "
        "S6zs5wyx s6WXyZS5 wS6zxs5Y S5wxzs6y s6Ywxs5Z yZXs6s5W",
        (4, 2, 3, 4, 2, 4, 5, 2, 4, 5, 4, 3)),
    8: ("xzyws6s7s5 Wzs5YXS6S7 S7zYxws6S5 ys7Zs5ws6x Ws5ZxS6ys7 S6ZS7WXs5y "
        "Ys7s6zs5Xw yS7zS5Wxs6 Ws6zs5s7Xy s5S7Wzs6xy s6zyXs5Ws7 xwZS5S6s7Y",
        (7, 2, 4, 6, 4, 2, 5, 4, 5, 5, 5, 3)),
}


@pytest.mark.parametrize("n", sorted(_MINIMAL_KNOTS))
def test_to_torus_script_m_on_minimal_knot_braids(n):
    texts, ms = _MINIMAL_KNOTS[n]
    scripts = [to_torus_script(parse_braid(t, n)) for t in texts.split()]
    ends = [run_script(s)[0] for s in scripts]  # each script replays, so it is certified
    assert ends == [s.moves[-1][1] for s in scripts]
    assert [(len(e.letters) - (n - 1)) // (n * (n - 1)) for e in ends] == list(ms)


@pytest.mark.parametrize("n", range(1, 7))
def test_aligning_conjugator_is_a_positive_permutation_braid(n):
    beta0 = underlying_permutation(BraidWord(n, tuple(range(1, n))))
    cycles = 0
    for perm in itertools.permutations(range(n)):
        orbit, p = 1, perm[0]
        while p != 0:
            orbit, p = orbit + 1, perm[p]
        if orbit != n:
            continue
        cycles += 1
        w = simple_word(perm)
        c = _aligning_conjugator(w)
        pc = underlying_permutation(c)
        crossings = sum(pc[i] > pc[j] for i, j in itertools.combinations(range(n), 2))
        assert all(g > 0 for g in c.letters) and len(c.letters) == crossings, perm
        assert underlying_permutation(conjugate(w, c)) == beta0, perm
    assert cycles == math.factorial(n - 1)


def test_run_script_takes_each_words_permutation_once(monkeypatch):
    calls = []
    real = braid.underlying_permutation
    monkeypatch.setattr(braid, "underlying_permutation", lambda w: calls.append(w) or real(w))
    script = parse_script(SCRIPTS.joinpath("m8_20.txt").read_text(encoding="utf-8"))
    run_script(script)
    # The start, then one per ins: m8_20 has none, so its two cc moves, its
    # eq and its destab all carry the start's count forward.
    assert calls == [script.start]


# ---------------------------------------------------------------------------
# the component trace and the words each move returns
# ---------------------------------------------------------------------------

def _adaptive_script(rng):
    """A random script that replays, using every kind of move."""
    n = rng.randint(2, 4)
    cur = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                             for _ in range(rng.randint(0, 8))))
    start, moves = cur, []
    for _ in range(rng.randint(1, 14)):
        n = cur.strands
        kind = rng.choice(["ins", "cc", "conj", "cyc", "eq", "stab", "destab"] if n > 1 else ["stab"])
        if kind == "ins":
            move = ("ins", rng.randint(0, len(cur)), rng.randint(1, n - 1))
        elif kind == "cc":
            negs = [j for j, g in enumerate(cur.letters) if g < 0]
            if not negs:
                continue
            j = rng.choice(negs)
            move = ("cc", j, -cur.letters[j])
        elif kind == "conj":
            move = ("conj", BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                                               for _ in range(rng.randint(0, 3)))))
        elif kind == "cyc":
            move = ("cyc", rng.randint(-5, 5))
        elif kind == "eq":
            # insert a cancelling pair: the same braid, spelled differently
            j, g = rng.randint(0, len(cur)), rng.randint(1, n - 1)
            move = ("eq", BraidWord(n, cur.letters[:j] + (g, -g) + cur.letters[j:]))
        elif kind == "stab":
            move = ("stab", rng.choice([1, -1]))
        elif sum(g == n - 1 for g in cur.letters) == 1 and -(n - 1) not in cur.letters:
            move = ("destab",)
        else:
            continue
        cur = apply_move(cur, move)
        moves.append(move)
    return MoveScript(start=start, moves=tuple(moves))


def _trace_scripts():
    """Corpus scripts, seeded torus scripts at n = 3..8 and adaptive random scripts."""
    scripts = [parse_script(path.read_text(encoding="utf-8")) for path in sorted(SCRIPTS.iterdir())]
    rng = random.Random(41)
    for n in range(3, 9):
        for _ in range(3):
            while True:
                w = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                                       for _ in range(n - 1 + 2 * rng.randint(0, 2))))
                if closure_components(w) == 1:
                    break
            scripts.append(to_torus_script(w))
    scripts += [_adaptive_script(rng) for _ in range(150)]
    return scripts


def test_component_trace_matches_every_intermediate_word():
    # Also: every word a move returns passes the public constructor's check.
    kinds = set()
    for script in _trace_scripts():
        w = script.start
        expect = [closure_components(w)]
        for move in script.moves:
            w = apply_move(w, move)
            assert type(w.letters) is tuple and BraidWord(w.strands, w.letters) == w
            expect.append(closure_components(w))
            kinds.add(move if move[0] == "stab" else move[0])
        end, ledger = run_script(script)
        assert end == w
        assert ledger.component_trace == expect, serialize_script(script)
    assert len(kinds) == 8, kinds  # all seven moves, and stab with both signs


def _zigzag_script(rng, n):
    """Long ins runs whose positions jump forwards and backwards, to both ends
    of the word and back to the same place, broken by the other moves."""
    cur = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                             for _ in range(rng.randint(0, 2 * n))))
    start, moves, p = cur, [], 0
    for _ in range(8):
        for _ in range(rng.randint(5, 30)):
            n, length = cur.strands, len(cur)
            p = rng.choice([0, length, p, p + 1, max(0, p - rng.randint(1, 6)),
                            rng.randint(0, length)])
            p = min(p, length)
            # While the top generator occurs once, insert below it, so that
            # destab can apply.
            top_once = sum(abs(g) == n - 1 for g in cur.letters) == 1
            move = ("ins", p, rng.randint(1, n - 2 if top_once and n > 2 else n - 1))
            cur = apply_move(cur, move)
            moves.append(move)
        n = cur.strands
        breakers = [("cyc", rng.randint(-len(cur), len(cur))), ("stab", rng.choice([1, -1])),
                    ("conj", BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                                                for _ in range(rng.randint(1, 4)))))]
        breakers += [("cc", j, -g) for j, g in enumerate(cur.letters) if g < 0][:1]
        if [g for g in cur.letters if abs(g) == n - 1] == [n - 1] and n > 2:
            breakers += [("destab",)] * 3
        move = rng.choice(breakers)
        cur = apply_move(cur, move)
        moves.append(move)
    return MoveScript(start=start, moves=tuple(moves))


def test_component_trace_follows_the_insert_cursor_both_ways():
    # Replay moves a cursor between insert positions; recount the closure
    # after every move of zig-zag scripts on 2..8 strands.
    rng = random.Random(19)
    kinds = set()
    for n in range(2, 9):
        for _ in range(6):
            script = _zigzag_script(rng, n)
            w = script.start
            expect = [closure_components(w)]
            for move in script.moves:
                w = apply_move(w, move)
                expect.append(closure_components(w))
                kinds.add(move if move[0] == "stab" else move[0])
            assert run_script(script)[1].component_trace == expect, serialize_script(script)
    assert len(kinds) == 7, kinds  # every move but eq, and stab with both signs


@given(_move_scripts())
@settings(max_examples=200, deadline=None)
def test_moves_on_arbitrary_scripts_return_words_in_range(script):
    # Moves that do not apply raise; every word a move returns must still
    # pass the public constructor's letter check.
    w = script.start
    for move in script.moves:
        try:
            w = apply_move(w, move)
        except (ScriptError, BraidError):
            return
        assert BraidWord(w.strands, w.letters) == w
