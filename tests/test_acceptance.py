"""Acceptance suite: one test per shipping criterion, with stated budgets.

Each test prints a single ok line so the suite doubles as a checklist when
run with ``pytest -s tests/test_acceptance.py``.
"""

import random
import time
from math import gcd

from hatlab.braid import (
    BraidWord,
    closure_components,
    conjugate,
    cyclic_permute,
    equal,
    exponent_sum,
    parse_braid,
    self_linking,
    underlying_permutation,
)
from hatlab.bounds import (
    hat_genus_at_degree,
    milnor_genus,
    semigroup_lb,
    t2_table,
    triangular_lb,
)
from hatlab.corpus import verify_corpus
from hatlab.covers import cy_cover_test, double_cover_books
from hatlab.curves import search
from hatlab.db import load_db
from oracles import brute_force_solutions, semigroup_elements


def _ok(line):
    print(f"PASS  {line}")


def test_criterion_1_braid_identity_and_fuzz():
    """B6 half-twist-power identity by equal(); 200 fuzzed rewrite cases; < 5 s."""
    t0 = time.time()
    lhs = BraidWord(6, tuple([1, 2, 3, 4, 5] * 5))
    rhs = parse_braid("s1s3s2s3s4s5 s1s3s2s3s3s4s5 s1s3s2s3s4s3s5 s1s2s3s4s5", 6)
    assert equal(lhs, rhs)

    rng = random.Random(20260808)
    for case in range(200):
        n = rng.randint(2, 8)
        gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
        letters = [rng.choice(gens) for _ in range(rng.randint(0, 60))]
        w = BraidWord(n, tuple(letters))
        v = list(letters)
        for _ in range(rng.randint(1, 10)):
            kind = rng.randint(0, 2)
            if kind == 0:
                pos = rng.randint(0, len(v))
                i = rng.randint(1, n - 1)
                v[pos:pos] = [i, -i] if rng.random() < 0.5 else [-i, i]
            elif kind == 1 and len(v) >= 3:
                for j in rng.sample(range(len(v) - 2), len(v) - 2):
                    a, b, c = v[j:j + 3]
                    if a == c and a > 0 and b > 0 and abs(a - b) == 1:
                        v[j:j + 3] = [b, a, b]
                        break
            elif len(v) >= 2:
                for j in rng.sample(range(len(v) - 1), len(v) - 1):
                    a, b = v[j:j + 2]
                    if abs(abs(a) - abs(b)) >= 2:
                        v[j], v[j + 1] = b, a
                        break
        assert equal(w, BraidWord(n, tuple(v))), case
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _ok(f"criterion 1: B6 identity + 200 fuzz cases in {elapsed:.2f}s")


def test_criterion_2_corpus_replay():
    """All 21 scripts replay; pretzel ledger genus 5; stated ends; < 10 s."""
    t0 = time.time()
    report = verify_corpus()
    assert report.ok and len(report.results) == 21
    by_name = {r.name: r for r in report.results}
    pretzel = by_name["12n_242"]
    assert pretzel.ledger.genus == 5
    assert pretzel.end == parse_braid("xyxyxyxyxyxyxyxyxyxyxy", 3)  # (xy)^11
    assert by_name["m(9_46)"].end == parse_braid("x^3", 2)
    # the 7-crossing positive 2-braid: T(2,7), printed y^7 upstream of the
    # final destabilization
    assert by_name["10_140"].end == parse_braid("x^7", 2)
    # (sigma_1 sigma_2)^5 in B3: T(3,5)
    assert by_name["m(12n_318)"].end == parse_braid("xyxyxyxyxy", 3)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    _ok(f"criterion 2: 21/21 scripts, pretzel genus 5, stated ends, {elapsed:.2f}s")


def test_criterion_3_self_linking_values():
    """slk 9 and 19 for the pretzel chain ends; torus braids give pq - p - q."""
    assert self_linking(parse_braid("xy^2x^2y^7", 3)) == 9
    assert self_linking(BraidWord(3, (1, 2) * 11)) == 19
    for p in range(2, 11):
        for q in range(p + 1, 11):
            if gcd(p, q) != 1:
                continue
            w = BraidWord(p, tuple(range(1, p)) * q)
            slk = self_linking(w)
            assert slk == p * q - p - q
            assert slk == 2 * milnor_genus(p, q) - 1
    _ok("criterion 3: slk 9 / 19 and torus slk = pq-p-q = 2g-1 for p<q<=10")


def test_criterion_4_hat_genus_degree_relation():
    """Degree-q torus hats have genus (q-1)(q-p-1)/2; slk 19 at degree 6 gives 0."""
    for p in range(2, 13):
        for q in range(p + 1, 13):
            if gcd(p, q) != 1:
                continue
            assert hat_genus_at_degree(p * q - p - q, q) == (q - 1) * (q - p - 1) // 2
    assert hat_genus_at_degree(19, 6) == 0
    _ok("criterion 4: torus hat genus identity for p<q<=12 and the degree-6 disk")


def test_criterion_5_t2_table_exact():
    """T(2,2k+1) hat-genus row for k = 1..11, exactly."""
    rows = t2_table(11)
    assert [v for *_, v in rows] == [0, 1, 0, 2, 1, 0, 3, 2, 1, 5, 4]
    _ok("criterion 5: t2 table row 0,1,0,2,1,0,3,2,1,5,4 exact")


def test_criterion_6_curve_searches():
    """The four recorded searches with their filters; oracle match; < 30 s."""
    t0 = time.time()

    rep = search(3, 1, 0, 20, genus=0)
    assert [(s.a, s.b) for s in rep.solutions] == [(6, (4,))]
    sol = rep.solutions[0]
    assert sol.self_intersection == 20 and not sol.ohta_ono  # 20 > 18

    rep = search(4, 1, 0, 30, genus=1)
    assert [(s.a, s.b) for s in rep.solutions] == [(10, (8,))]
    assert not rep.solutions[0].gromov.line_with_cusp  # 10 < 8 + 4

    rep = search(6, 4, 0, 9, genus=0)
    passing = [s for s in rep.solutions if s.gromov.passes]
    assert [(s.a, s.b) for s in passing] == [(9, (3, 3, 3, 3))]
    assert passing[0].self_intersection == 45

    rep = search(7, 5, 9, 16, genus=0)
    assert not [s for s in rep.solutions if s.gromov.passes]

    for p in (2, 3, 4):
        for blowups in (1, 2):
            fast = [(s.a, s.b) for s in search(p, blowups, 0, 12, genus=0).solutions]
            assert fast == brute_force_solutions(p, blowups, 0, 12, genus=0)

    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.2f}s"
    _ok(f"criterion 6: searches + oracle match in {elapsed:.2f}s")


def test_criterion_7_cover_bookkeeping():
    """Four K3 presentations; pretzel and T(3,7) double-cover books; exact."""
    for r, surface, degree in ((2, "CP2", 6), (4, "CP2", 4),
                               (2, "P1xP1", (4, 4)), (3, "P1xP1", (3, 3))):
        assert cy_cover_test(r, surface, degree), (r, surface, degree)
    books = double_cover_books(5, -8)
    assert (books.b2_filling, books.b2_cap, books.form) == (10, 12, "E8+2H")
    books = double_cover_books(6, -8)
    assert (books.b2_filling, books.b2_cap, books.form) == (12, 10, "E8+H")
    _ok("criterion 7: 4 K3 presentations chi=24; books (10,12,E8+2H) and (12,10,E8+H)")


def test_criterion_8_offline_property_suites():
    """Self-contained property checks; external facts are data, not claims."""
    rng = random.Random(7)

    # normal-form invariance under conjugation and positive Markov moves
    for _ in range(50):
        n = rng.randint(2, 5)
        gens = [i for i in range(1, n)] + [-i for i in range(1, n)]
        w = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 30))))
        c = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 8))))
        v = conjugate(w, c)
        assert closure_components(v) == closure_components(w)
        assert exponent_sum(cyclic_permute(w, 3)) == exponent_sum(w)
        assert sorted(underlying_permutation(cyclic_permute(w, 3))) == list(range(n))

    # ledger slk/euler consistency on random crossing-change scripts
    from hatlab.cobordism import MoveScript, run_script

    for _ in range(50):
        n = rng.randint(2, 4)
        base = list(range(1, n))
        for _ in range(rng.randint(0, 6)):
            base.append(rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)]))
        w = BraidWord(n, tuple(base))
        moves = []
        cur = w
        for _ in range(rng.randint(0, 6)):
            negs = [j for j, g in enumerate(cur.letters) if g < 0]
            if negs and rng.random() < 0.5:
                j = rng.choice(negs)
                moves.append(("cc", j, -cur.letters[j]))
            else:
                moves.append(("ins", rng.randint(0, len(cur.letters)), rng.randint(1, n - 1)))
            from hatlab.cobordism import apply_move
            cur = apply_move(cur, moves[-1])
        end, ledger = run_script(MoveScript(start=w, moves=tuple(moves)))
        assert ledger.euler == -ledger.bands
        if ledger.slk_start is not None and ledger.slk_end is not None:
            assert ledger.slk_end - ledger.slk_start == ledger.bands

    # search order-independence
    whole = search(5, 2, 0, 14, genus=0).solutions
    parts = []
    for lo, hi in [(8, 14), (0, 7)]:
        parts.extend(search(5, 2, lo, hi, genus=0).solutions)
    parts.sort(key=lambda s: (s.a, tuple(-x for x in s.b)))
    assert list(whole) == parts

    # triangular / semigroup oracle equivalence
    for g in range(0, 60):
        m, d, lb = triangular_lb(g)
        assert m == min(c for c in ((e - 2) * (e - 1) // 2 for e in range(1, 30))
                        if c >= g)
    for p in range(2, 21):
        for q in range(p + 1, 21):
            if gcd(p, q) == 1:
                assert semigroup_lb(p, q) == semigroup_elements(p, q, p * q)[2]

    # facts that are recorded rather than recomputed stay provenance-tagged
    from hatlab.bounds import load_witnesses

    sections = load_witnesses()
    for name in ("t2_witnesses", "t2_lower_bound_upgrades", "hirzebruch_hats", "cover_targets"):
        assert all(row["source"] for row in sections[name]), name
    for rec in load_db():
        assert rec.slk == 2 * rec.slice_genus - 1
    _ok("criterion 8: offline property suites + provenance-tagged record facts")
