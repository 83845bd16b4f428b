"""Braid words, invariants, and the word-problem decision procedure."""

import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hatlab import braid
from hatlab.braid import (
    BraidError,
    BraidWord,
    NormalForm,
    braid_text,
    closure_components,
    conjugate,
    cyclic_permute,
    equal,
    exponent_sum,
    full_twist,
    inverse,
    markov_destabilize,
    markov_stabilize,
    normal_form,
    parse_braid,
    parse_generator,
    self_linking,
    simple_word,
    underlying_permutation,
)
from hatlab.cobordism import _move_text
from oracles import artin_equal, closure_orbits, regex_parse_braid, regex_parse_generator


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_letter_form():
    w = parse_braid("xy^2x^2y^7", 3)
    assert w.strands == 3
    assert len(w.letters) == 12
    assert exponent_sum(w) == 12


def test_parse_empty_is_identity():
    assert parse_braid("", 3) == BraidWord(3)
    assert parse_braid("   ", 5) == BraidWord(5)


def test_identity_is_spelled_1():
    for n in (1, 2, 5):
        assert parse_braid("1", n) == parse_braid(" 1 ", n) == BraidWord(n)
        assert braid_text(BraidWord(n)) == "1"
        assert parse_braid(braid_text(BraidWord(n)), n) == BraidWord(n)
    # 1 is a word on its own, not a letter.
    for text in ("x1", "1x", "11", "x^1 1"):
        with pytest.raises(BraidError, match="unknown letter '1'"):
            parse_braid(text, 3)


def test_parse_capitals_are_inverses():
    assert parse_braid("xyXY", 3).letters == (1, 2, -1, -2)


def test_parse_numeric_form():
    assert parse_braid("s1S1s5", 6).letters == (1, -1, 5)
    assert parse_braid("s1 s3 s2", 6) == parse_braid("s1s3s2", 6)


def test_parse_negative_power():
    assert parse_braid("x^-3", 3) == parse_braid("X^3", 3)


def test_parse_rejects_out_of_range_letter():
    with pytest.raises(BraidError):
        parse_braid("xyXY", 2)  # y needs 3 strands


@pytest.mark.parametrize("text, strands, message", [
    ("s0", 3, "letter index 0 at column 0 in 's0' is outside 1..2 for 3 strands"),
    ("x S0^2", 4, "letter index 0 at column 2 in 'x S0^2' is outside 1..3 for 4 strands"),
    ("xy s3", 3, "letter index 3 at column 3 in 'xy s3' is outside 1..2 for 3 strands"),
    ("xY", 2, "letter index 2 at column 1 in 'xY' is outside 1..1 for 2 strands"),
])
def test_parse_range_error_names_column_and_valid_range(text, strands, message):
    with pytest.raises(BraidError) as exc:
        parse_braid(text, strands)
    assert str(exc.value) == message


def test_parse_rejects_unknown_letter():
    with pytest.raises(BraidError):
        parse_braid("xqy", 3)


def test_parse_rejects_malformed_power():
    with pytest.raises(BraidError):
        parse_braid("x^", 3)
    with pytest.raises(BraidError):
        parse_braid("x^-", 3)


@pytest.mark.parametrize("text, message", [
    # Digits outside ASCII 0-9 are rejected, not read as their numeric value.
    ("x^²", "malformed power at column 1 in 'x^²'"),
    ("x^٣", "malformed power at column 1 in 'x^٣'"),
    ("s²", "numeric generator needs digits at column 0: 's²'"),
    ("s١", "numeric generator needs digits at column 0: 's١'"),
])
def test_parse_rejects_non_ascii_digits(text, message):
    with pytest.raises(BraidError) as exc:
        parse_braid(text, 3)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, strands, expected", [
    # Any Unicode whitespace separates terms; columns count in the stripped text.
    ("x　Y\t z", 4, (1, -2, 3)),
    ("x\x1cy", 3, (1, 2)),
    ("x^-0", 3, ()),
    # Whitespace may not split a term.
    ("x ^2", 3, "unknown letter '^' at column 2 in 'x ^2'"),
    ("s 3", 4, "numeric generator needs digits at column 0: 's 3'"),
    ("", 0, "strand count must be >= 1, got 0"),
    ("  ", 0, "strand count must be >= 1, got 0"),
    # A zero power still checks its letter's index.
    ("z^0", 3, "letter index 3 at column 0 in 'z^0' is outside 1..2 for 3 strands"),
])
def test_parse_edge_cases(text, strands, expected):
    if isinstance(expected, tuple):
        assert parse_braid(text, strands).letters == expected
    else:
        with pytest.raises(BraidError) as exc:
            parse_braid(text, strands)
        assert str(exc.value) == expected


def test_parse_bounds_the_word_by_max_letters():
    assert braid.MAX_LETTERS == 1_000_000
    assert len(parse_braid("x^999999X", 2)) == braid.MAX_LETTERS
    for text, message in [
        ("x^1000001", "power at column 1 in 'x^1000001' makes the word longer than 1000000 letters"),
        ("xX^1000000", "power at column 2 in 'xX^1000000' makes the word longer than 1000000 letters"),
        ("x^-99999999999999999999",
         "power at column 1 in 'x^-99999999999999999999' makes the word longer than 1000000 letters"),
        ("x^1000000x", "word of 1000001 letters is longer than 1000000 letters"),
    ]:
        with pytest.raises(BraidError) as exc:
            parse_braid(text, 2)
        assert str(exc.value) == message


def test_strand_count_is_bounded_by_max_strands():
    # normal_form builds two n x n tables, so a word has at most MAX_STRANDS strands.
    assert braid.MAX_STRANDS == 1_000
    assert not equal(parse_braid("s999", 1000), BraidWord(1000, (1,)))
    assert markov_stabilize(BraidWord(999), 1).strands == 1000
    for make in (lambda: BraidWord(1001), lambda: parse_braid("x", 1001),
                 lambda: parse_braid("", 1001), lambda: markov_stabilize(BraidWord(1000), -1)):
        with pytest.raises(BraidError) as exc:
            make()
        assert str(exc.value) == "strand count must be <= 1000, got 1001"


@pytest.mark.parametrize("text, column", [
    ("x^" + "9" * 5000, 0), ("xs" + "9" * 5000, 1), ("xS" + "0" * 5000 + "1", 1),
], ids=["power", "index", "leading-zeros"])
def test_parse_refuses_numbers_too_long_to_read(text, column):
    # int() reads at most 4300 digits; a longer run is an input error naming its term.
    with pytest.raises(BraidError) as exc:
        parse_braid(text, 3)
    assert str(exc.value) == f"term at column {column} in {text!r} has a number too long to read"


def test_printer_round_trip():
    for text, n in [("xy^2x^2y^7", 3), ("xyXY", 3), ("X^3yx^3yzYz", 4), ("", 2)]:
        w = parse_braid(text, n)
        assert parse_braid(braid_text(w), n) == w
    w = BraidWord(7, (6, -6, 5, 5))
    assert parse_braid(braid_text(w), 7) == w


@pytest.mark.parametrize("n", range(2, 13))
def test_generator_names_read_back(n):
    # Every generator's printed name reads back as its index, and nothing
    # but a bare positive name reads as a generator.
    for i in range(1, n):
        name = braid._letter_name(i, True)
        assert parse_generator(name, n) == i
        assert braid_text(BraidWord(n, (i,))) == name
    for token in ("x^1", "X^-1", "q", "S5", "s", "s٥"):
        with pytest.raises(BraidError, match="expected a single positive generator"):
            parse_generator(token, n)
    assert braid._letter_name(0, True) == "s0"
    assert _move_text(("ins", 0, 0)) == "ins 0 s0"


# Pieces of text for the readers: letters, ASCII and other digits, the power
# syntax, the lone 1, Unicode whitespace and junk.
_PIECES = list("xyzwXYZWsS0123456789^-1 \t\n") + [
    "３", "²", "٣", "\u00a0", "\u0085", "\u3000", "\x1c", "q", "#", "+", "_", "é", "^-", "s1"]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join) | st.text(max_size=12)


def _outcome(read, text, strands):
    """What a reader gives: its value, or the text of its BraidError."""
    try:
        return read(text, strands)
    except BraidError as e:
        return str(e)


@settings(max_examples=500, deadline=None)
@given(_TEXTS, st.integers(min_value=0, max_value=12))
@example("s" + "9" * 5000 + "^", 3)  # a malformed power comes before a number too long to read
@example("S" + "0" * 5000 + "1^-", 3)
@example("x^-" + "9" * 5000, 3)
@example("s" + "9" * 5000 + "^2 q", 3)
@example("x^" + "9" * 5000 + " s", 3)  # a number too long to read comes before a later term
@example("s3 s", 3)  # an index out of range comes before a later term's missing digits
@example("x^1000001 q", 2)
@example("xy", 1001)
def test_parse_braid_agrees_with_the_regex_reader(text, strands):
    assert _outcome(parse_braid, text, strands) == _outcome(regex_parse_braid, text, strands)


@settings(max_examples=500, deadline=None)
@given(_TEXTS, st.integers(min_value=0, max_value=12))
@example("s" + "9" * 5000, 3)
@example("s３", 5)
@example("s٣", 5)
@example("s²", 5)
@example("s" + "0" * 4, 5)
def test_parse_generator_agrees_with_the_regex_reader(token, strands):
    assert _outcome(parse_generator, token, strands) == _outcome(regex_parse_generator, token, strands)


# ---------------------------------------------------------------------------
# exponent sum, permutation, components, self-linking
# ---------------------------------------------------------------------------

def test_exponent_sum_examples():
    assert exponent_sum(parse_braid("xy^2x^2y^7", 3)) == 12
    assert exponent_sum(BraidWord(4)) == 0
    assert exponent_sum(BraidWord(3, (1, 2) * 11)) == 22


def test_permutation_examples():
    # the strand starting at 0 ends at 2, the others move one place left: a 3-cycle
    assert underlying_permutation(parse_braid("xy", 3)) == (2, 0, 1)
    assert closure_components(parse_braid("xy", 3)) == 1
    assert closure_components(BraidWord(3)) == 3
    assert underlying_permutation(BraidWord(3)) == (0, 1, 2)
    assert closure_components(parse_braid("xy^2x^2y^7", 3)) == 1


def test_carry_and_cycle():
    # at[q] is the strand at position q; sigma_i of either sign swaps positions i-1 and i.
    at = [0, 1, 2]
    assert braid._carry(at, (1, -2)) is at and at == [1, 2, 0]
    assert braid._carry([0, 1, 2, 3], ()) == [0, 1, 2, 3]
    # a cycle is listed in order from its start
    assert braid._cycle((2, 0, 1), 0) == [0, 2, 1]
    assert braid._cycle((2, 0, 1), 1) == [1, 0, 2]
    assert braid._cycle((1, 0, 2), 2) == [2]


def test_closure_components_against_orbit_oracle():
    rng = random.Random(29)
    counts = set()
    for _ in range(400):
        n = rng.randint(2, 9)
        w = _mixed_word(rng, n, rng.randint(0, 24))
        counts.add(closure_components(w))
        assert closure_components(w) == closure_orbits(w), w
    assert counts == set(range(1, 10))


def _sample_permutations():
    # every permutation for n <= 5, then seeded ones up to n = 9
    for n in range(1, 6):
        yield from itertools.permutations(range(n))
    rng = random.Random(5)
    for n in range(6, 10):
        for _ in range(60):
            yield tuple(rng.sample(range(n), n))


def test_simple_word_realizes_its_permutation():
    for p in _sample_permutations():
        w = simple_word(p)
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        assert underlying_permutation(w) == p
        # positive, and each pair of strands crosses at most once
        assert all(g > 0 for g in w.letters) and len(w) == inversions


def test_simple_word_is_one_normal_form_factor():
    for p in _sample_permutations():
        n = len(p)
        if p in (tuple(range(n)), tuple(range(n - 1, -1, -1))):
            continue
        assert normal_form(simple_word(p)) == NormalForm(n, 0, (p,))


def test_simple_word_rejects_non_permutations():
    for bad in [(0, 0), (1, 2), (0, 2, 1, 4)]:
        with pytest.raises(BraidError):
            simple_word(bad)


def test_self_linking_examples():
    assert self_linking(parse_braid("xy^2x^2y^7", 3)) == 9
    assert self_linking(BraidWord(3, (1, 2) * 11)) == 19
    assert self_linking(BraidWord(1)) == -1


def test_self_linking_requires_knot():
    with pytest.raises(BraidError):
        self_linking(BraidWord(3))


def test_torus_braid_slk():
    # slk of the positive (p,q) torus braid is pq - p - q
    from math import gcd
    for p in range(2, 11):
        for q in range(p + 1, 11):
            if gcd(p, q) != 1:
                continue
            w = BraidWord(p, tuple(range(1, p)) * q)
            assert self_linking(w) == p * q - p - q


# ---------------------------------------------------------------------------
# equality
# ---------------------------------------------------------------------------

def test_braid_relation():
    assert equal(parse_braid("xyx", 3), parse_braid("yxy", 3))


def test_far_commutation():
    assert equal(parse_braid("xz", 4), parse_braid("zx", 4))


def test_free_cancellation():
    assert normal_form(parse_braid("xX", 3)) == NormalForm(3, 0, ())
    assert normal_form(parse_braid("Xx", 3)) == NormalForm(3, 0, ())


def test_inequality():
    assert not equal(parse_braid("x", 3), parse_braid("y", 3))
    assert not equal(parse_braid("xy", 3), parse_braid("yx", 3))


def test_strand_mismatch_raises():
    with pytest.raises(BraidError):
        equal(BraidWord(3), BraidWord(4))
    with pytest.raises(BraidError, match=r"^cannot multiply words with different strand counts$"):
        BraidWord(3, (1,)) * BraidWord(2, (1,))


def test_a_word_multiplies_only_by_a_word():
    w = BraidWord(3, (1,))
    assert w.__mul__(3) is NotImplemented
    with pytest.raises(TypeError):
        w * 3
    with pytest.raises(TypeError):
        3 * w


@pytest.mark.parametrize("strands, letters, message", [
    (0, (), "strand count must be >= 1, got 0"),
    (3, (3,), "letter 3 out of range for 3 strands"),
    (3, (1, 0), "letter 0 out of range for 3 strands"),
    (3, (-3,), "letter -3 out of range for 3 strands"),
])
def test_braid_word_checks_its_letters(strands, letters, message):
    with pytest.raises(BraidError) as exc:
        BraidWord(strands, letters)
    assert str(exc.value) == message


def test_five_twist_identity_b6():
    lhs = BraidWord(6, tuple([1, 2, 3, 4, 5] * 5))
    rhs = parse_braid(
        "s1s3s2s3s4s5 s1s3s2s3s3s4s5 s1s3s2s3s4s3s5 s1s2s3s4s5", 6
    )
    assert equal(lhs, rhs)
    # the identity is sensitive: any single-letter change breaks it
    broken = list(rhs.letters)
    broken[7] = 1
    assert not equal(lhs, BraidWord(6, tuple(broken)))


def test_b2_exponent_oracle():
    rng = random.Random(2)
    for _ in range(1000):
        a = BraidWord(2, tuple(rng.choice([1, -1]) for _ in range(rng.randint(0, 40))))
        b = BraidWord(2, tuple(rng.choice([1, -1]) for _ in range(rng.randint(0, 40))))
        assert equal(a, b) == (exponent_sum(a) == exponent_sum(b))


def test_normal_form_is_canonical_key():
    w1 = parse_braid("xyx", 3)
    w2 = parse_braid("yxy", 3)
    assert normal_form(w1) == normal_form(w2)
    assert hash(normal_form(w1)) == hash(normal_form(w2))


def _mixed_word(rng, n, length):
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                              for _ in range(length)))


def _mirror(w):
    # sigma_i^e -> sigma_{n-i}^e: conjugation by Delta, letter by letter
    return BraidWord(w.strands, tuple(w.strands - g if g > 0 else -w.strands - g
                                      for g in w.letters))


def _insert(w, pos, letters):
    return BraidWord(w.strands, w.letters[:pos] + tuple(letters) + w.letters[pos:])


def _same_invariant_spoilers(w, rng):
    """Unequal words with the exponent sum and permutation of w.

    Each inserts a nontrivial pure braid of exponent sum 0: the commutator
    [sigma_i^2, sigma_{i+1}^2] or sigma_i^2 sigma_j^-2 with i != j.
    """
    n = w.strands
    if n < 3:
        return []
    pos = rng.randint(0, len(w))
    i = rng.randint(1, n - 2)
    j = rng.choice([k for k in range(1, n) if k != i])
    return [_insert(w, pos, (i, i, i + 1, i + 1, -i, -i, -i - 1, -i - 1)),
            _insert(w, pos, (i, i, -j, -j))]


def test_equal_agrees_with_artin_action():
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(2, 6)
        w = _mixed_word(rng, n, rng.randint(0, 28))
        rewritten = w
        for _ in range(rng.randint(1, 4)):
            rewritten = _random_rewrite(rewritten, rng)
        spoilt = _same_invariant_spoilers(w, rng)
        for v in [rewritten, _mirror(w), _mixed_word(rng, n, len(w))] + spoilt:
            assert len(v) <= 40
            same = artin_equal(w, v)
            assert equal(w, v) == same, (w, v)
            outcomes[same] += 1
        for v in spoilt:
            assert exponent_sum(v) == exponent_sum(w)
            assert underlying_permutation(v) == underlying_permutation(w)
            assert not artin_equal(w, v)
    assert min(outcomes.values()) > 100


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_equal_agrees_with_artin_on_generated_words(n, data):
    gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
    words = st.lists(st.sampled_from(gens), max_size=16).map(tuple)
    w = BraidWord(n, data.draw(words))
    u = BraidWord(n, data.draw(words))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    pairs = [(w, u), (w, _insert(w, rng.randint(0, len(w)), u.letters + inverse(u).letters)),
             (_delta(n) * w, _mirror(w) * _delta(n))]
    pairs += [(w, v) for v in _same_invariant_spoilers(w, rng)]
    for a, b in pairs:
        assert equal(a, b) == artin_equal(a, b), (a, b)


@pytest.mark.parametrize("n", [3, 8, 16])
@pytest.mark.parametrize("parity", [0, 1])
def test_delta_conjugation_mirrors_indices(n, parity):
    rng = random.Random(10 * n + parity)
    delta = _delta(n)
    for length in (20, 41, 60):
        w = _mixed_word(rng, n, length)
        if sum(g < 0 for g in w.letters) % 2 != parity:
            w = w * BraidWord(n, (-rng.randint(1, n - 1),))
        assert equal(delta * w, _mirror(w) * delta)
        assert not equal(delta * w, w * delta)  # the mirror is not w itself


def test_equal_answers_identical_letters_without_a_normal_form(monkeypatch):
    calls = []
    real = braid.normal_form
    monkeypatch.setattr(braid, "normal_form", lambda w: calls.append(w) or real(w))
    w = _mixed_word(random.Random(11), 5, 300)
    assert equal(w, w) and equal(w, BraidWord(5, w.letters))
    assert calls == []
    with pytest.raises(BraidError, match="different strand counts"):
        equal(w, BraidWord(6, w.letters))  # strand counts are checked first
    assert not equal(w, w * BraidWord(5, (1,)))
    assert len(calls) == 2


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_equal_cancels_shared_ends(n, data):
    # B_n is a group, so p*x*s = p*y*s exactly when x = y
    p, x, y, s = (data.draw(_letters(n)) for _ in range(4))
    assert equal(BraidWord(n, p + x + s), BraidWord(n, p + y + s)) == equal(
        BraidWord(n, x), BraidWord(n, y))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_a_cancelling_pair_leaves_the_normal_form(n, data):
    # NF(p g g^-1 s) = NF(p s), whether or not normal_form cancels the pair itself
    p, s, u = (data.draw(_letters(n)) for _ in range(3))
    g = data.draw(st.sampled_from([i for i in range(1, n)] + [-i for i in range(1, n)]))
    w, v, u = BraidWord(n, p + (g, -g) + s), BraidWord(n, p + s), BraidWord(n, u)
    assert normal_form(w) == normal_form(v)
    assert equal(w, v) and equal(v, w)
    assert equal(w, u) == equal(v, u) == (normal_form(v) == normal_form(u))


@pytest.mark.parametrize("a, b, same", [
    ("xy", "xyxy", False),  # the first word is all prefix; its suffix is empty
    ("x", "xx", False),  # the suffix scan must not reuse the prefix's letter
    ("xyxy", "xyx", False),
    ("xyZx", "xyZyYx", True),  # a free pair inserted between shared ends
    ("yZX", "xXyZX", True),  # and at the front
    ("yZX", "yZXzZ", True),  # and at the back
])
def test_equal_on_overlapping_ends(a, b, same):
    u, v = parse_braid(a, 4), parse_braid(b, 4)
    assert equal(u, v) == equal(v, u) == artin_equal(u, v) == same


def test_equal_normalizes_only_the_letters_between_shared_ends(monkeypatch):
    calls = []
    real = braid.normal_form
    monkeypatch.setattr(braid, "normal_form", lambda w: calls.append(w.letters) or real(w))
    for a, b, middles, same in [
        ("x^50yxyx^50", "x^50xyxx^50", [(2, 1, 2), (1, 2, 1)], True),
        ("x^50yxyx^50", "x^50yyxx^50", [(1, 2), (2, 1)], False),
        ("xyxYz", "xyXyz", [(1, -2), (-1, 2)], False),
        ("xy", "xyxy", [(), (1, 2)], False),
        ("x", "xx", [(), (1,)], False),
    ]:
        calls.clear()
        assert equal(parse_braid(a, 4), parse_braid(b, 4)) == same
        assert calls == middles, (a, b)


def test_equal_with_shared_ends_agrees_with_artin_action():
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(2, 6)
        p, s = (_mixed_word(rng, n, rng.randint(0, 12)).letters for _ in range(2))
        x = _mixed_word(rng, n, rng.randint(0, 8))
        for y in [_random_rewrite(x, rng), _mixed_word(rng, n, len(x))] + \
                _same_invariant_spoilers(x, rng):
            u, v = BraidWord(n, p + x.letters + s), BraidWord(n, p + y.letters + s)
            same = artin_equal(u, v)
            assert equal(u, v) == same, (u, v)
            outcomes[same] += 1
    assert min(outcomes.values()) > 100


def _left_weighted(a, b):
    # Every sigma_i that starts b (b puts a larger value at i-1 than at i)
    # also finishes a (a puts the value i before the value i-1).
    return all(a.index(i) < a.index(i - 1) for i in range(1, len(b)) if b[i - 1] > b[i])


def _check_normal_form_shape(nf):
    n = nf.strands
    for f in nf.factors:
        assert f != tuple(range(n)) and f != tuple(range(n - 1, -1, -1)), f
    for a, b in zip(nf.factors, nf.factors[1:]):
        assert _left_weighted(a, b), (a, b)


def test_normal_form_pairs_are_left_weighted():
    rng = random.Random(17)
    for t in range(400):
        n = rng.randint(2, 16)
        w = _mixed_word(rng, n, rng.randint(0, 120))
        if t % 3 < 2:  # also all-positive and all-negative words
            w = BraidWord(n, tuple(abs(g) if t % 3 == 0 else -abs(g) for g in w.letters))
        _check_normal_form_shape(normal_form(w))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=16), st.data())
def test_normal_form_pairs_are_left_weighted_property(n, data):
    _check_normal_form_shape(normal_form(BraidWord(n, data.draw(_letters(n)))))


# ---------------------------------------------------------------------------
# conjugation, cyclic permutation, Markov moves
# ---------------------------------------------------------------------------

def test_conjugate_identity():
    c = parse_braid("xyzXY", 4)
    assert normal_form(conjugate(BraidWord(4), c)) == NormalForm(4, 0, ())


def test_cyclic_permute_is_conjugation():
    w = parse_braid("yxzyXyz", 4)
    r = cyclic_permute(w, 1)
    assert closure_components(r) == closure_components(w)
    prefix = BraidWord(4, w.letters[:1])
    assert equal(r, conjugate(w, inverse(prefix)))


def test_full_twist_is_central():
    for n in range(2, 6):
        ft = full_twist(n)
        for i in range(1, n):
            g = BraidWord(n, (i,))
            assert equal(conjugate(ft, g), ft)


def test_markov_destabilize_example():
    w = parse_braid("x^4yx", 3)
    d = markov_destabilize(w)
    assert d == parse_braid("x^5", 2)


def test_markov_destabilize_preconditions():
    with pytest.raises(BraidError):
        markov_destabilize(parse_braid("xyxy", 3))  # two last-strand letters
    with pytest.raises(BraidError):
        markov_destabilize(parse_braid("x^3Y", 3))  # negative occurrence
    with pytest.raises(BraidError):
        markov_destabilize(BraidWord(1))


def test_markov_round_trip():
    w = parse_braid("x^3", 2)
    s = markov_stabilize(w, 1)
    assert s.strands == 3
    assert equal(markov_destabilize(s), w)


def test_stabilization_slk():
    w = BraidWord(1)
    assert self_linking(markov_stabilize(w, -1)) == -3
    assert self_linking(markov_stabilize(w, 1)) == -1
    k = parse_braid("xy^2x^2y^7", 3)
    assert self_linking(markov_stabilize(k, 1)) == self_linking(k)
    assert self_linking(markov_stabilize(k, -1)) == self_linking(k) - 2


# ---------------------------------------------------------------------------
# half twist and full twist
# ---------------------------------------------------------------------------

def _delta(n: int) -> BraidWord:
    """The Garside half twist: the positive permutation braid of the reversal."""
    return simple_word(tuple(range(n - 1, -1, -1)))


def test_simple_word_of_the_reversal_is_delta():
    for n in range(1, 12):
        spelled = tuple(i for top in range(n - 1, 0, -1) for i in range(1, top + 1))
        assert _delta(n) == BraidWord(n, spelled)
        assert normal_form(_delta(n)) == NormalForm(n, 1 if n > 1 else 0, ())


def test_each_letter_is_one_table_factor():
    # sigma_i is the factor tau_i; sigma_i^-1 is Delta^-1 C_i with C_i = Delta sigma_i^-1.
    assert normal_form(BraidWord(2, (1,))) == NormalForm(2, 1, ())
    assert normal_form(BraidWord(2, (-1,))) == NormalForm(2, -1, ())
    for n in range(3, 9):
        for i in range(1, n):
            tau = underlying_permutation(BraidWord(n, (i,)))
            c = underlying_permutation(_delta(n) * BraidWord(n, (-i,)))
            assert normal_form(BraidWord(n, (i,))) == NormalForm(n, 0, (tau,))
            assert normal_form(BraidWord(n, (-i,))) == NormalForm(n, -1, (c,))


def test_delta_squares_to_full_twist():
    for n in range(2, 7):
        assert equal(_delta(n) * _delta(n), full_twist(n))


def test_full_twist_small_cases():
    assert full_twist(2) == parse_braid("x^2", 2)
    assert equal(parse_braid("x^2yx^2y", 3), parse_braid("xyxyxy", 3))
    with pytest.raises(BraidError, match=r"^strand count must be >= 1$"):
        full_twist(0)


# ---------------------------------------------------------------------------
# literal full twists lifted out of the normal form
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_a_literal_full_twist_adds_two_to_the_power(n, data):
    # Delta^2 is central, so NF(p Delta^2 s) = Delta^2 NF(p s); in B_1 Delta is the identity
    p, s = (data.draw(_letters(n)) if n > 1 else () for _ in range(2))
    nf = normal_form(BraidWord(n, p + s))
    lifted = normal_form(BraidWord(n, p + full_twist(n).letters + s))
    assert lifted == NormalForm(n, nf.power + (2 if n > 1 else 0), nf.factors)


def _garside_steps(monkeypatch):
    """Count the calls of ``_fix_pair``, the Garside loop's one step."""
    calls = [0]
    real = braid._fix_pair

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(braid, "_fix_pair", counted)
    return calls


@pytest.mark.parametrize("n", range(2, 10))
def test_only_the_spelling_of_full_twist_is_lifted(monkeypatch, n):
    calls = _garside_steps(monkeypatch)
    twist = full_twist(n).letters
    assert twist == tuple(range(1, n)) * n  # sigma_1^2 at n = 2
    assert normal_form(BraidWord(n, twist * 3)) == NormalForm(n, 6, ())
    assert calls[0] == 0  # each block is lifted: the Garside loop sees no letter
    # Delta * Delta spells Delta^2 too, but only at n = 2 is it the same spelling
    assert normal_form(_delta(n) * _delta(n)) == NormalForm(n, 2, ())
    assert (calls[0] == 0) == (n == 2)
    # a block one letter short is Delta^2 sigma_{n-1}^-1 = Delta C_{n-1}
    c = underlying_permutation(_delta(n) * BraidWord(n, (1 - n,)))
    assert normal_form(BraidWord(n, twist[:-1])) == NormalForm(n, 1, (c,) if n > 2 else ())


def test_a_twist_completed_after_an_inner_twist_is_lifted(monkeypatch):
    calls = _garside_steps(monkeypatch)
    # xy . xyxyxy . xyxy: once the inner twist is lifted, xy and xyxy close the outer one
    assert normal_form(parse_braid("xy xyxyxy xyxy", 3)) == NormalForm(3, 4, ())
    assert normal_form(parse_braid("xyzx xyzxyzxyzxyz yzxyzxyz", 4)) == NormalForm(4, 4, ())
    assert calls[0] == 0


@pytest.mark.parametrize("a, b, same", [
    ("xxyxyxy", "xyxyxyx", True),  # a twist moved past a letter
    ("XYXYXYxyxyxyx", "x", True),  # a twist cancelled against its inverse
    ("xyxx", "xxyx", False),  # Delta = xyx is not central in B_3
    ("xyxy", "yxyx", False),
])
def test_normal_forms_of_moved_and_cancelled_twists(a, b, same):
    u, v = parse_braid(a, 3), parse_braid(b, 3)
    assert (normal_form(u) == normal_form(v)) == equal(u, v) == artin_equal(u, v) == same


def test_equal_agrees_with_artin_on_moved_and_cancelled_twists():
    rng = random.Random(36)
    outcomes = {True: 0, False: 0}
    for _ in range(120):
        n = rng.randint(2, 4)
        twist, untwist = full_twist(n).letters, inverse(full_twist(n)).letters
        delta = _delta(n).letters
        p, q, s = (_mixed_word(rng, n, rng.randint(0, 6)).letters for _ in range(3))
        g = _mixed_word(rng, n, 1).letters
        pairs = [(p + twist + s, twist + p + s),  # moved past a word
                 (p + g + twist + s, p + twist + g + s),  # moved past a letter
                 (p + twist + s + untwist, p + s),  # cancelled against its inverse
                 (p + untwist + q + twist + s, p + q + s),
                 (p + twist + s, p + s),  # inserted: the power differs
                 (p + delta + g + s, p + g + delta + s),  # Delta is central only in B_2
                 (p + twist[1:] + g + s, p + g + twist[1:] + s)]
        for a, b in pairs:
            u, v = BraidWord(n, a), BraidWord(n, b)
            same = artin_equal(u, v)
            assert equal(u, v) == same, (u, v)
            outcomes[same] += 1
    assert min(outcomes.values()) > 150


def _pinned_words():
    """Seeded words at n = 1..16, positive, negative and mixed, each with 0, 1
    or 2 literal full twists or their inverses inserted at seeded places."""
    rng = random.Random(3600)
    for n in range(1, 17):
        twists = (full_twist(n).letters, inverse(full_twist(n)).letters)
        for signs in ((1,), (-1,), (1, -1)):
            for inserted in range(3):
                letters = [rng.choice(signs) * rng.randint(1, n - 1)
                           for _ in range(rng.randint(0, 40) if n > 1 else 0)]
                for _ in range(inserted):
                    at = rng.randint(0, len(letters))
                    letters[at:at] = twists[rng.random() < 0.3]
                yield BraidWord(n, tuple(letters))


def test_normal_forms_of_seeded_words_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for w in _pinned_words():
        nf = normal_form(w)
        digest.update(f"{nf.strands} {nf.power} {nf.factors}\n".encode())
        count += 1
    assert count == 144
    assert digest.hexdigest() == "99d893ec100d09f86ebeb1c5ad6213fdd3a505011f0d922ddfdd118d25e2d114"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

def _letters(n):
    gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
    return st.lists(st.sampled_from(gens), max_size=60).map(tuple)


@st.composite
def _word_and_rewrites(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    letters = draw(_letters(n))
    w = BraidWord(n, letters)
    steps = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    v = w
    for _ in range(steps):
        v = _random_rewrite(v, rng)
    return w, v


def _random_rewrite(w, rng):
    letters = list(w.letters)
    n = w.strands
    kind = rng.randint(0, 2)
    if kind == 0:
        pos = rng.randint(0, len(letters))
        i = rng.randint(1, n - 1)
        pair = [i, -i] if rng.random() < 0.5 else [-i, i]
        letters[pos:pos] = pair
    elif kind == 1 and len(letters) >= 3:
        idxs = list(range(len(letters) - 2))
        rng.shuffle(idxs)
        for j in idxs:
            a, b, c = letters[j:j + 3]
            if a == c and a > 0 and b > 0 and abs(a - b) == 1:
                letters[j:j + 3] = [b, a, b]
                break
    elif len(letters) >= 2:
        idxs = list(range(len(letters) - 1))
        rng.shuffle(idxs)
        for j in idxs:
            a, b = letters[j:j + 2]
            if abs(abs(a) - abs(b)) >= 2:
                letters[j], letters[j + 1] = b, a
                break
    return BraidWord(n, tuple(letters))


@settings(max_examples=120, deadline=None)
@given(_word_and_rewrites())
def test_equal_invariant_under_rewrites(pair):
    w, v = pair
    assert equal(w, v)
    assert exponent_sum(w) == exponent_sum(v)
    assert underlying_permutation(w) == underlying_permutation(v)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_closure_invariants_under_conjugation(n, data):
    letters = data.draw(_letters(n))
    conj = data.draw(_letters(n))
    w = BraidWord(n, letters)
    c = BraidWord(n, conj)
    v = conjugate(w, c)
    assert closure_components(v) == closure_components(w)
    if closure_components(w) == 1:
        assert self_linking(v) == self_linking(w)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_equivalence_relation_on_samples(n, data):
    a = BraidWord(n, data.draw(_letters(n)))
    b = BraidWord(n, data.draw(_letters(n)))
    assert equal(a, a)
    assert equal(a, b) == equal(b, a)
