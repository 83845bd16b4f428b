"""Hat genus/degree calculators, lower bounds, and the T(2,2k+1) table."""

import re
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from hatlab import bounds as bounds_mod
from hatlab.bounds import (
    T2_KMAX,
    BoundsError,
    bounds_report,
    hat_genus_at_degree,
    load_witnesses,
    milnor_genus,
    negative_torus_max_slk,
    plane_curve_genus,
    semigroup_lb,
    singular_genus_budget,
    t2_table,
    triangular_lb,
    twist_knot_max_slk,
)
from oracles import semigroup_elements


def test_hat_genus_at_degree_examples():
    assert hat_genus_at_degree(19, 6) == 0   # disk hat for the (3,11) torus knot
    assert hat_genus_at_degree(-1, 1) == 0   # unknot, degree-1 disk
    assert hat_genus_at_degree(5, 7) == 12   # (2,7): (7-1)(7-2-1)/2


def test_hat_genus_infeasible_degree():
    with pytest.raises(BoundsError):
        hat_genus_at_degree(19, 2)


def test_hat_genus_at_degree_refuses_an_even_slk():
    # bounds_report refuses an even slk first, so no command reaches this check
    for slk, d in ((0, 6), (4, 6), (-2, 1)):
        with pytest.raises(BoundsError, match=r"^self-linking numbers of knots are odd$"):
            hat_genus_at_degree(slk, d)


@pytest.mark.parametrize("fn, args, message", [
    (negative_torus_max_slk, (3, 3), "need 2 <= p < q"),
    (negative_torus_max_slk, (1, 2), "need 2 <= p < q"),
    (twist_knot_max_slk, (0,), "not a twist knot for n in {0, -1, -2}"),
    (twist_knot_max_slk, (-1,), "not a twist knot for n in {0, -1, -2}"),
    (twist_knot_max_slk, (-2,), "not a twist knot for n in {0, -1, -2}"),
    (semigroup_lb, (3, 2), "need 2 <= p < q"),
    (semigroup_lb, (1, 2), "need 2 <= p < q"),
    (milnor_genus, (2, 4), "p and q must be coprime"),
])
def test_closed_forms_refuse_their_bad_arguments(fn, args, message):
    with pytest.raises(BoundsError) as exc:
        fn(*args)
    assert str(exc.value) == message


def test_torus_hat_genus_identity():
    # at degree q, the maximal-slk T(p,q) hat has genus (q-1)(q-p-1)/2
    for p in range(2, 13):
        for q in range(p + 1, 13):
            if gcd(p, q) != 1:
                continue
            slk = p * q - p - q
            assert hat_genus_at_degree(slk, q) == (q - 1) * (q - p - 1) // 2


def test_degree_genus_inverse_relation():
    for slk in range(-9, 20, 2):
        # the least degree with (d-1)(d-2)/2 >= (slk+1)/2, i.e. a genus >= 0
        d0 = triangular_lb(max(0, (slk + 1) // 2))[1]
        with pytest.raises(BoundsError):
            hat_genus_at_degree(slk, d0 - 1)
        for d in range(d0, d0 + 8):
            g = hat_genus_at_degree(slk, d)
            assert (d * d - 3 * d + 1) - 2 * g == slk


def test_triangular_lb_examples():
    assert triangular_lb(4) == (6, 5, 2)     # smallest triangular >= 4 is 6
    assert triangular_lb(0) == (0, 1, 0)
    assert triangular_lb(10) == (10, 6, 0)   # 10 is triangular
    with pytest.raises(BoundsError, match=r"^slice genus must be >= 0$"):
        triangular_lb(-1)


def test_triangular_lb_zero_iff_triangular():
    tris = {d * (d + 1) // 2 for d in range(0, 30)}
    for g in range(0, 200):
        _, _, lb = triangular_lb(g)
        assert (lb == 0) == (g in tris)


def test_triangular_lb_brute_force_oracle():
    for g in range(0, 120):
        m, d, lb = triangular_lb(g)
        candidates = [(e - 2) * (e - 1) // 2 for e in range(1, 40)]
        expect_m = min(c for c in candidates if c >= g)
        assert m == expect_m
        assert lb == m - g
        assert (d - 2) * (d - 1) // 2 == m


def test_negbraid_hat_genus():
    # A knot that unknots through positive crossing changes, e.g. the closure
    # of a negative braid, has a degree-1 hat of genus -(slk+1)/2.
    assert hat_genus_at_degree(-1, 1) == 0
    assert hat_genus_at_degree(-7, 1) == 3
    with pytest.raises(BoundsError):
        hat_genus_at_degree(3, 1)


def test_negative_torus_knots():
    # max slk of T(p,-q) is -pq + q - p; the hat genus follows from the
    # positive-crossing-unknotting formula (equals (p-1)(q+1)/2)
    for p in range(2, 9):
        for q in range(p + 1, 12):
            if gcd(p, q) != 1:
                continue
            slk = negative_torus_max_slk(p, q)
            assert slk == -p * q + q - p
            assert hat_genus_at_degree(slk, 1) == (p - 1) * (q + 1) // 2


def test_twist_knots():
    def hat_genus(n):
        return hat_genus_at_degree(twist_knot_max_slk(n), 1)

    assert hat_genus(-3) == 1
    assert hat_genus(-5) == 1
    assert hat_genus(1) == 2    # (n+3)/2
    assert hat_genus(3) == 3
    assert hat_genus(2) == 1    # n/2
    assert hat_genus(4) == 2
    with pytest.raises(BoundsError):
        twist_knot_max_slk(-4)  # open: representatives not unique


def test_semigroup_lb_examples():
    assert semigroup_lb(2, 3) == 3
    assert semigroup_lb(3, 11) == 6
    for p in range(2, 12):
        q = 2 * p - 1
        if gcd(p, q) == 1:
            assert semigroup_lb(p, q) == 2 * p - 1


def test_semigroup_lb_brute_force_oracle():
    for p in range(2, 21):
        for q in range(p + 1, 21):
            if gcd(p, q) != 1:
                continue
            elements = semigroup_elements(p, q, p * q)
            assert elements[0] == 0
            assert semigroup_lb(p, q) == elements[2]


def test_semigroup_lb_rejects_non_coprime():
    with pytest.raises(BoundsError):
        semigroup_lb(4, 6)


def test_milnor_and_plane_genus():
    assert milnor_genus(2, 21) == 10
    assert milnor_genus(3, 7) == 6
    assert plane_curve_genus(6) == 10
    assert plane_curve_genus(1) == 0


def test_singular_genus_budget():
    assert singular_genus_budget(5, [milnor_genus(3, 5)]) == 2
    # the classical quintic carries both a (2,5) and a (3,5) cusp
    assert plane_curve_genus(5) == milnor_genus(2, 5) + milnor_genus(3, 5)
    assert singular_genus_budget(5, [milnor_genus(2, 5), milnor_genus(3, 5)]) == 0
    with pytest.raises(BoundsError):
        singular_genus_budget(4, [10])


def test_recorded_cusp_curves_fit_the_genus_budget():
    curves = load_witnesses()["cusp_curves"]
    numeric = [c for c in curves if isinstance(c["degree"], int)]
    symbolic = [c for c in curves if not isinstance(c["degree"], int)]
    assert len(numeric) == 4
    for c in numeric:
        cusps = [re.fullmatch(r"T\((\d+),(\d+)\)", t).groups() for t in c["cusps"]]
        genera = [milnor_genus(int(p), int(q)) for p, q in cusps]
        assert singular_genus_budget(c["degree"], genera) == c["genus"], c["curve"]
    # the two families, checked for small p < q against the formulas spelled out here
    assert [(c["degree"], c["cusps"], c["genus"]) for c in symbolic] == [
        ("p+1", ["T(p,p+1)"], 0),
        ("q", ["T(p,q)"], "(q-p-1)(q-1)/2"),
    ]
    for p in range(2, 10):
        assert singular_genus_budget(p + 1, [milnor_genus(p, p + 1)]) == 0
        for q in range(p + 1, 20):
            if gcd(p, q) == 1:
                genus = (q - p - 1) * (q - 1) // 2
                assert singular_genus_budget(q, [milnor_genus(p, q)]) == genus


def test_t2_table_lower_bound_rule():
    # k between consecutive triangular numbers d(d-1)/2 and d(d+1)/2 gives d-l
    bounds = [lb for _, lb, _, _ in t2_table(11)]
    assert bounds[:9] == [0, 1, 0, 2, 1, 0, 3, 2, 1]
    assert bounds[9] == 5   # k = 10, upgraded past the triangular value 0
    assert bounds[10] == 4


def test_t2_table_matches_recorded_row():
    rows = t2_table(11)
    assert [k for k, *_ in rows] == list(range(1, 12))
    assert [v for *_, v in rows] == [0, 1, 0, 2, 1, 0, 3, 2, 1, 5, 4]
    for _, lb, wg, _ in rows:
        assert wg == lb  # sharp through k = 11


def test_t2_table_refuses_a_witness_below_its_bound(monkeypatch):
    # a recorded hat of genus 0 at k = 1 against a recorded upgrade of the bound to 1
    sections = {"t2_witnesses": [{"k": 1, "degree": 3}],
                "t2_lower_bound_upgrades": [{"k": 1, "bound": 1}]}
    monkeypatch.setattr(bounds_mod, "load_witnesses", lambda: sections)
    with pytest.raises(BoundsError, match=r"^k=1: witness genus 0 below bound 1$"):
        t2_table(1)


def test_t2_table_witnesses_satisfy_relation():
    for row in load_witnesses()["t2_witnesses"]:
        assert row["source"]


def test_t2_table_unknown_rows_flagged():
    rows = t2_table(13)
    assert rows[11] == (12, triangular_lb(12)[2], None, None)  # "?" in the CLI
    with pytest.raises(BoundsError, match=r"^need k_max >= 1$"):
        t2_table(0)
    # Each row costs memory, so the table has at most T2_KMAX rows.
    assert T2_KMAX == 1_000_000
    with pytest.raises(BoundsError, match=r"^need k_max <= 1000000, got 1000001$"):
        t2_table(T2_KMAX + 1)


def test_bounds_report():
    rep = bounds_report(9)
    assert rep.slice_genus == 5
    assert rep.degree_lb == 5
    assert rep.genus_lb == 1  # smallest triangular >= 5 is 6
    assert rep.genus_by_degree[1] == (6, 5)
    rep = bounds_report(-7)
    assert rep.genus_lb == 3
    assert rep.genus_by_degree[0] == (1, 3)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=-25, max_value=25), st.integers(min_value=1, max_value=20))
def test_relation_identity_property(k, d):
    slk = 2 * k - 1
    try:
        g = hat_genus_at_degree(slk, d)
    except BoundsError:
        return
    assert slk == (d * d - 3 * d + 1) - 2 * g


def test_recorded_exclusions_and_open_flags():
    sections = load_witnesses()
    (excl,) = sections["curve_class_exclusions"]
    assert excl["p"] == 6
    assert excl["class"] == {"a": 9, "b": [3, 3, 3, 3]}
    assert excl["source"]
    assert sections["open_flags"]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**40))
@example(10**14)
@example(10**30 + 7)
@example(10**40)
def test_least_degree_property(g):
    m, d, lb = triangular_lb(g)
    assert (d - 2) * (d - 3) // 2 < g <= (d - 1) * (d - 2) // 2
    assert m == (d - 1) * (d - 2) // 2 and lb == m - g


def test_t2_table_bound_is_the_triangular_bound_unless_upgraded():
    ups = {row["k"]: row["bound"] for row in load_witnesses()["t2_lower_bound_upgrades"]}
    for k, lb, _, _ in t2_table(299):
        tri = triangular_lb(k)[2]  # T(2,2k+1) is quasipositive of slice genus k
        assert lb == (max(tri, ups[k]) if k in ups else tri)


def test_bounds_report_degree_lb_is_the_least_feasible_degree():
    for slk in range(-61, 200, 2):
        for g_s in [None] + list(range(0, 40)):
            if g_s is None and slk >= -1:
                g_s = (slk + 1) // 2
            if g_s is not None and 2 * g_s < slk + 1:
                # Slice-Bennequin: no knot with this slk has so small a slice genus.
                with pytest.raises(BoundsError, match=r"slice-Bennequin: g_s >= \(slk\+1\)/2"):
                    bounds_report(slk, g_s)
                continue
            rep = bounds_report(slk, g_s)
            d = triangular_lb(g_s)[1] if g_s is not None else 1
            while (d * d - 3 * d + 2) < slk + 1:
                d += 1
            assert rep.degree_lb == d
            degrees = [deg for deg, _ in rep.genus_by_degree]
            assert degrees == list(range(rep.degree_lb, rep.degree_lb + len(degrees)))
            assert rep.genus_lb == rep.genus_by_degree[0][1] == min(
                genus for _, genus in rep.genus_by_degree)
            if g_s is None or 2 * g_s == slk + 1:
                assert rep.genus_lb == (triangular_lb(g_s)[2] if g_s is not None
                                        else -(slk + 1) // 2)
            for deg, genus in rep.genus_by_degree:
                assert (deg * deg - 3 * deg + 1) - 2 * genus == slk
