"""Curve-class enumeration: adjunction, positivity filters, searches."""

import gc
import random
import tracemalloc
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hatlab import curves
from hatlab.bounds import BoundsError, hat_genus_at_degree, triangular_lb
from hatlab.curves import CurveClass, SearchError, search
from oracles import (brute_force_solutions, class_genus, count_solutions, gromov_flags,
                     plain_search_walk)


def test_curve_class_canonical_form():
    c = CurveClass(9, (3, 3, 1, 2))
    assert c.b == (3, 3, 2, 1)
    assert CurveClass(9, (3, 3, 2, 1)) == c
    assert c.self_intersection == 81 - 23


def test_curve_class_rejects_negatives():
    with pytest.raises(SearchError):
        CurveClass(-1)
    with pytest.raises(SearchError):
        CurveClass(2, (1, -1))


def test_adjunction_examples():
    assert CurveClass(9, (3, 3, 3, 3)) in [s.cls for s in search(6, 4, 9, 9).solutions]
    assert [s.cls for s in search(2, 0, 0, 0).solutions] == []
    assert CurveClass(10, (8,)) not in [s.cls for s in search(4, 1, 10, 10, genus=0).solutions]
    assert [s.cls for s in search(4, 1, 10, 10, genus=1).solutions] == [CurveClass(10, (8,))]


def test_class_genus_examples():
    assert class_genus(CurveClass(6, (4,)), 4) == 0
    assert class_genus(CurveClass(1), 0) == 0
    assert class_genus(CurveClass(10, (8,)), 7) == 1


def test_adjunction_agrees_with_class_genus():
    # the rearranged equation says: smooth genus g once the two cusps absorb
    # milnor(p, p+1) + milnor(2, 3)
    from hatlab.bounds import milnor_genus

    rng = random.Random(5)
    for _ in range(300):
        p = rng.randint(2, 7)
        a = rng.randint(0, 14)
        b = tuple(rng.randint(0, a) for _ in range(rng.randint(0, 4))) if a else ()
        g = rng.randint(0, 3)
        c = CurveClass(a, b)
        sing = milnor_genus(p, p + 1) + milnor_genus(2, 3)
        found = [s.cls for s in search(p, len(b), a, a, genus=g).solutions]
        assert (c in found) == (class_genus(c, sing) == g), (p, c, g)


def _hat_genus(slk, d):
    try:
        return hat_genus_at_degree(slk, d)
    except BoundsError:  # below the least degree of a hat
        return None


def test_search_reads_its_genus_from_bounds():
    # T(p,p+1)#T(2,3) has slk p^2 - p + 1; each blown-up point of
    # multiplicity b lowers the degree-a hat genus by b(b-1)/2
    emitted = 0
    for p in range(2, 9):
        slk = p * p - p + 1
        for genus in range(4):
            d0 = triangular_lb((slk + 1) // 2 + genus)[1]
            for a_min, a_max in [(0, d0 + 5), (d0 - 1, d0 + 3), (d0 + 2, d0 + 6)]:
                rep = search(p, 0, a_min, a_max, genus=genus)
                assert [s.a for s in rep.solutions] == [
                    d for d in range(a_min, a_max + 1) if _hat_genus(slk, d) == genus]
                # one node per degree walked, from the least degree d0 on
                assert rep.nodes == a_max - max(a_min, d0) + 1, (p, genus, a_min)
                for blowups in range(4):
                    for s in search(p, blowups, a_min, a_max, genus=genus).solutions:
                        assert (hat_genus_at_degree(slk, s.a)
                                - sum(b * (b - 1) // 2 for b in s.b)) == genus, (p, s)
                        emitted += 1
    assert emitted > 1000
    rep = search(2, 0, 0, 12, genus=1)
    assert (rep.nodes, [(s.a, s.b) for s in rep.solutions]) == (9, [(4, ())])


def test_gromov_examples():
    d = curves._gromov(4, 10, (8,))
    assert not d.line_with_cusp           # 10 < 8 + 4
    assert not d.passes
    d = curves._gromov(3, 6, (4,))
    assert not d.line_with_cusp           # 6 < 4 + 3: per-inequality detail
    assert not d.passes
    # sentinel-only classes: a >= p + 2 suffices
    assert curves._gromov(5, 7, ()).passes
    assert not curves._gromov(5, 6, ()).passes


def test_search_k3_case():
    rep = search(3, 1, 0, 20, genus=0)
    assert [s.cls for s in rep.solutions] == [CurveClass(6, (4,))]
    sol = rep.solutions[0]
    assert sol.cls.self_intersection == 20
    assert not sol.ohta_ono  # 20 > 3^2 + 9


def test_search_k4_genus1_case():
    rep = search(4, 1, 0, 30, genus=1)
    assert [s.cls for s in rep.solutions] == [CurveClass(10, (8,))]
    assert not rep.solutions[0].gromov.line_with_cusp


def test_search_k6_case():
    rep = search(6, 4, 0, 9, genus=0)
    passing = [s for s in rep.solutions if s.gromov.passes]
    assert [s.cls for s in passing] == [CurveClass(9, (3, 3, 3, 3))]
    assert passing[0].cls.self_intersection == 45
    assert passing[0].ohta_ono  # 45 <= 6^2 + 9: the cap is not strict
    # beyond a = 9 every positivity-compatible solution breaks the cusp cap
    rep = search(6, 4, 10, 25, genus=0)
    assert not [s for s in rep.solutions if s.gromov.passes and s.ohta_ono]
    for s in rep.solutions:
        if s.gromov.passes:
            assert 3 * s.cls.a - sum(s.cls.b) >= s.cls.a + 6


def test_search_k7_case():
    rep = search(7, 5, 9, 16, genus=0)
    assert not [s for s in rep.solutions if s.gromov.passes]


def test_search_annotations_match_the_formulas():
    rep = search(8, 7, 0, 34)
    assert (len(rep.solutions), len(rep.surviving), rep.nodes) == (35_919, 1_162, 139_312)
    # fewer than five blow-ups exercise the zero-padding of the positivity flags
    small = [search(2, 0, 0, 30, genus=1), search(4, 0, 0, 30, genus=3),
             search(2, 1, 0, 30), search(3, 2, 0, 20), search(6, 3, 0, 20),
             search(4, 4, 0, 14)]
    assert [len(r.solutions) for r in small] == [1, 1, 1, 11, 41, 78]
    # the flags are computed once per run of tuples with equal b[:5]: at N = 5
    # each run is one tuple, and at N = 6 and 8 runs share b[:4] with their
    # neighbours but not the flags
    runs = [search(6, 5, 0, 18), search(5, 5, 0, 20), search(6, 6, 0, 20),
            search(5, 8, 0, 16)]
    assert [len(r.solutions) for r in runs] == [313, 597, 1_139, 1_706]
    for r in [rep, *small, *runs]:
        for s in r.solutions:
            c = s.cls
            # the walk's tuples are canonical: the class's sort changes nothing
            assert (c.a, c.b) == (s.a, s.b)
            assert astuple(s.gromov) == gromov_flags(r.p, c)
            self_int = c.a * c.a - sum(x * x for x in c.b)
            assert c.self_intersection == self_int == s.self_intersection
            assert s.ohta_ono == (self_int <= r.p * r.p + 9)
            assert s.survives == (s.gromov.passes and s.ohta_ono)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=24),
    st.lists(st.integers(min_value=0, max_value=12), max_size=9),
)
def test_gromov_matches_the_formulas_on_any_class(p, a, b):
    # any length, N < 5 included, and entries above p; entries up to half
    # the largest a keep each sum near its bound 2a
    c = CurveClass(a, tuple(b))
    assert astuple(curves._gromov(p, c.a, c.b)) == gromov_flags(p, c)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=40),
    st.lists(st.integers(min_value=0, max_value=70), max_size=9),
)
def test_all_permuted_implies_the_named_inequalities(p, a, b):
    # entries above p and above a included, so no hypothesis of a search is assumed
    d = curves._gromov(p, a, tuple(sorted(b, reverse=True)))
    if d.all_permuted:
        assert d.line_with_cusp and d.line_two_points
        assert d.conic_with_cusp and d.conic_five_points
    assert d.passes == d.all_permuted


def test_search_solutions_reverify():
    rep = search(5, 3, 0, 14, genus=0)
    assert rep.solutions
    for s in rep.solutions:
        assert class_genus(s.cls, 5 * 4 // 2 + 1) == 0
        assert astuple(s.gromov) == gromov_flags(5, s.cls)
        assert s.ohta_ono == (s.cls.self_intersection <= 5 * 5 + 9)


def test_search_oracle_equivalence():
    for p in (2, 3, 4):
        for blowups in (0, 1, 2):
            for genus in (0, 1):
                fast = [s.cls for s in search(p, blowups, 0, 12, genus=genus).solutions]
                slow = brute_force_solutions(p, blowups, 0, 12, genus=genus)
                assert fast == slow, (p, blowups, genus)


def test_search_order_independence():
    full = search(6, 4, 0, 12, genus=0)
    chunks = []
    for lo, hi in [(7, 12), (0, 3), (4, 6)]:
        chunks.extend(search(6, 4, lo, hi, genus=0).solutions)
    chunks.sort(key=lambda s: (s.cls.a, tuple(-x for x in s.cls.b)))
    assert list(full.solutions) == chunks


def test_search_rejects_an_empty_degree_range():
    with pytest.raises(SearchError, match=r"^bad search parameters$"):
        search(3, 1, 5, 4)


def test_search_refuses_more_blowups_than_the_walk_can_nest():
    # The walk nests one call per blow-up: a deeper search is an input error.
    with pytest.raises(SearchError, match=r"^5000 blow-ups nest the enumeration deeper than "):
        search(3, 5000, 0, 6)
    assert len(search(3, 200, 0, 6).solutions) == 990


def test_search_cap(monkeypatch):
    monkeypatch.setattr(curves, "NODE_CAP", 1000)
    with pytest.raises(SearchError):
        search(3, 6, 0, 500, genus=0)


def test_search_pauses_the_collector_and_restores_it(monkeypatch):
    assert gc.isenabled()
    seen = []
    gromov = curves._gromov

    def recording(*args):
        seen.append(gc.isenabled())
        return gromov(*args)

    monkeypatch.setattr(curves, "_gromov", recording)
    search(6, 4, 0, 12)
    assert seen and not any(seen)  # paused while the records are built
    assert gc.isenabled()
    with pytest.raises(SearchError, match="blow-ups nest the enumeration"):
        search(3, 5000, 0, 6)
    assert gc.isenabled()
    monkeypatch.setattr(curves, "NODE_CAP", 50)
    with pytest.raises(SearchError, match="exceeds cap"):
        search(6, 4, 0, 12)
    assert gc.isenabled()


def test_search_leaves_a_paused_collector_paused(monkeypatch):
    gc.disable()
    try:
        search(6, 4, 0, 12)
        assert not gc.isenabled()
        monkeypatch.setattr(curves, "NODE_CAP", 50)
        with pytest.raises(SearchError, match="exceeds cap"):
            search(6, 4, 0, 12)
        assert not gc.isenabled()
    finally:
        gc.enable()


# Leaves of the last level count as nodes: every cap below the count trips,
# on an inner node or on a leaf.  The last node of (3,1,0,6) is the leaf
# (6; 4), so there only the leaf's own check can trip.  (2,8,0,4) and
# (5,6,0,9) reuse walked tails 3 and 7 times; the last nodes of (2,8,0,4)
# are a reused tail's, so there only the check after its count can trip.
@pytest.mark.parametrize("args, nodes, solutions", [
    ((5, 3, 0, 14), 103, 29),
    ((3, 1, 0, 6), 3, 1),
    ((2, 8, 0, 4), 37, 8),
    ((5, 6, 0, 9), 133, 39),
])
def test_search_cap_trips_at_every_node(args, nodes, solutions, monkeypatch):
    assert search(*args).nodes == nodes
    for cap in range(0, nodes + 2):
        monkeypatch.setattr(curves, "NODE_CAP", cap)
        if cap >= nodes:
            assert len(search(*args).solutions) == solutions
        else:
            with pytest.raises(SearchError, match="exceeds cap"):
                search(*args)


WALK_GRID = [(p, blowups, 0, triangular_lb((p * p - p + 2) // 2 + genus)[1] + 8, genus)
             for p in range(2, 9) for blowups in range(9) for genus in range(3)]


def test_search_walk_matches_the_plain_walk_on_a_grid():
    # p 2..8, N 0..8, genus 0..2, eight degrees past the least one: the same
    # tuples in the same order, and `nodes` counts every reused subtree in full
    for args in WALK_GRID:
        rep = search(*args)
        want, nodes = plain_search_walk(*args)
        assert [(s.a, s.b) for s in rep.solutions] == want, args
        assert rep.nodes == nodes, args


def _calls(module, name, run):
    # how many times run() calls module.name, recursive calls included
    count = [0]
    fn = getattr(module, name)

    def counted(*args):
        count[0] += 1
        return fn(*args)

    setattr(module, name, counted)
    try:
        run()
    finally:
        setattr(module, name, fn)
    return count[0]


def test_search_walks_each_tail_subtree_once():
    # (8,7,0..34): the plain walk's tuples and its 139,312 nodes from under
    # a third of its 103,393 calls, once the tails of three entries are reused
    args = (8, 7, 0, 34)
    rep = search(*args)
    assert ([(s.a, s.b) for s in rep.solutions], rep.nodes) == plain_search_walk(*args)
    assert rep.nodes == 139_312
    plain = _calls(oracles, "plain_walk", lambda: plain_search_walk(*args))
    assert plain == 103_393
    assert 3 * _calls(curves, "_walk", lambda: search(*args)) < plain


def test_search_rejects_a_class_off_the_adjunction_budget(monkeypatch):
    def off_budget(n, hi, budget, prefix, out, visited, cap, memo):
        visited[0] += 1
        out.append((hi - 1,) * n)  # (5, 5): 2 * 20 = 40, not the budget 12

    monkeypatch.setattr(curves, "_walk", off_budget)
    with pytest.raises(SearchError, match=r"internal error: class \(6; 5, 5\) breaks adjunction"):
        search(3, 2, 6, 6)


# Each search visits exactly `nodes` enumeration nodes: the cap admits it at
# that count and refuses it one below.  An estimate of the range used to
# refuse all four at the default cap.
@pytest.mark.parametrize("args, nodes, solutions", [
    ((3, 1, 0, 4000), 3_997, 1),
    ((5, 2, 0, 300), 13_458, 195),
    ((6, 3, 0, 60), 4_955, 380),
    ((7, 4, 0, 56), 26_359, 3_000),
])
def test_search_cap_counts_nodes_visited(args, nodes, solutions, monkeypatch):
    rep = search(*args)
    assert len(rep.solutions) == solutions
    assert rep.nodes == nodes
    assert ([(s.a, s.b) for s in rep.solutions], rep.nodes) == plain_search_walk(*args)
    monkeypatch.setattr(curves, "NODE_CAP", nodes)
    assert len(search(*args).solutions) == solutions
    monkeypatch.setattr(curves, "NODE_CAP", nodes - 1)
    with pytest.raises(SearchError, match="exceeds cap"):
        search(*args)


@pytest.mark.parametrize("args, genus", [
    ((5, 3, 0, 14), 0), ((6, 4, 0, 12), 0), ((4, 2, 0, 30), 1),
    ((7, 6, 0, 26), 0), ((8, 6, 0, 30), 0),
])
def test_search_emits_solutions_in_order(args, genus):
    # ascending in a, lexicographically descending in b, each class once
    keys = [(s.cls.a, tuple(-x for x in s.cls.b))
            for s in search(*args, genus=genus).solutions]
    assert keys
    assert all(k < k_next for k, k_next in zip(keys, keys[1:]))


@pytest.mark.parametrize("args", [(7, 6, 0, 26), (6, 7, 0, 24)])
def test_search_count_matches_memoized_count(args):
    assert len(search(*args).solutions) == count_solutions(*args)


def test_search_objects_are_compact():
    rep = search(8, 6, 0, 30)
    sol = rep.solutions[0]
    for obj in (sol, sol.cls, sol.gromov):
        assert not hasattr(obj, "__dict__")
    # one shared detail per combination of the five booleans
    assert len({id(s.gromov) for s in rep.solutions}) <= 32


def test_search_holds_one_record_per_solution():
    # A solution is one slotted record, its tuple b and its slot in the
    # report's tuple: 168 bytes at N = 7 on CPython 3.11.  The bound refuses
    # a second object per solution, such as a wrapped CurveClass (208).
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = search(8, 7, 0, 34)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rep.solutions) == 35_919
    assert held <= 176 * len(rep.solutions), held / len(rep.solutions)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=18),
    st.lists(st.integers(min_value=0, max_value=18), max_size=6),
)
def test_sentinels_never_weaken(p, a, b):
    """Appending the sentinel coefficients only tightens the constraints."""
    b = tuple(x for x in b if x <= a)
    c = CurveClass(a, b)
    d = curves._gromov(p, c.a, c.b)
    bare = sorted(b, reverse=True) + [0] * 5
    bare_pair = a >= bare[0] + bare[1]
    bare_five = 2 * a >= sum(bare[:5])
    if d.all_permuted:
        assert bare_pair and bare_five
