"""Branched-cover Euler characteristics and intersection-form bookkeeping."""

import pytest
from hypothesis import given, settings, strategies as st

from hatlab.bounds import load_witnesses
from hatlab.covers import (
    CoverError,
    bidegree_genus,
    branched_cover_euler,
    cy_cover_test,
    double_cover_books,
    form_label,
)
from hatlab.db import load_db

# (r, surface, degree) in the order the cover-books report prints them
K3_PRESENTATIONS = (
    (2, "CP2", 6),
    (4, "CP2", 4),
    (2, "P1xP1", (4, 4)),
    (3, "P1xP1", (3, 3)),
)


def test_euler_examples():
    # double cover of the plane over a smooth sextic (genus 10)
    assert branched_cover_euler(2, 3, 2 - 2 * 10) == 24
    # trivial cover
    assert branched_cover_euler(1, 3, -18) == 3
    # triple cover of the quadric over a (3,3) curve (genus 4)
    assert branched_cover_euler(3, 4, 2 - 2 * bidegree_genus(3, 3)) == 24


def test_euler_linearity():
    for r in range(1, 5):
        for cb in (-3, 0, 4):
            for cB in (-6, 0, 2):
                assert (
                    branched_cover_euler(r, cb + 1, cB)
                    - branched_cover_euler(r, cb, cB)
                    == r
                )
                assert (
                    branched_cover_euler(r, cb, cB + 1)
                    - branched_cover_euler(r, cb, cB)
                    == -(r - 1)
                )


def test_cy_cover_examples():
    assert cy_cover_test(2, "CP2", 6)
    assert cy_cover_test(4, "CP2", 4)
    assert not cy_cover_test(2, "CP2", 4)   # canonical class does not vanish
    assert not cy_cover_test(2, "CP2", 8)
    assert not cy_cover_test(3, "P1xP1", (3, 6))


def test_cy_cover_divisibility_error():
    with pytest.raises(CoverError):
        cy_cover_test(2, "CP2", 5)
    with pytest.raises(CoverError):
        cy_cover_test(3, "P1xP1", (3, 4))


def test_all_four_presentations_are_k3():
    for r, surface, degree in K3_PRESENTATIONS:
        assert cy_cover_test(r, surface, degree), (r, surface, degree)


def test_recorded_cover_targets_in_report_order():
    targets = load_witnesses()["cover_targets"]
    # JSON spells the bidegree (4, 4) as the list [4, 4].
    assert [(t["r"], t["surface"], t["degree"]) for t in targets] == [
        (r, surface, list(d) if isinstance(d, tuple) else d) for r, surface, d in K3_PRESENTATIONS
    ]


def test_recorded_filling_signatures():
    rows = load_witnesses()["filling_signatures"]
    assert [(r["knot"], r["genus"], r["signature"], r["cap_form"]) for r in rows] == [
        ("12n_242", 5, -8, "E8+2H"),
        ("T(3,7)", 6, -8, "E8+H"),
    ]
    assert all(r["source"] for r in rows)
    # a row naming a database knot records that knot's slice genus
    genera = {rec.name: rec.slice_genus for rec in load_db()}
    assert genera["12n_242"] == 5
    for r in rows:
        assert r["knot"] not in genera or r["genus"] == genera[r["knot"]], r["knot"]


def test_books_pretzel():
    books = double_cover_books(5, -8)
    assert (books.b2_filling, books.b2_cap, books.sigma_cap) == (10, 12, -8)
    assert books.form == "E8+2H"


def test_books_t37():
    books = double_cover_books(6, -8)
    assert (books.b2_filling, books.b2_cap, books.sigma_cap) == (12, 10, -8)
    assert books.form == "E8+H"


def test_books_rational_ball_case():
    books = double_cover_books(0, 0)
    assert (books.b2_filling, books.b2_cap, books.sigma_cap) == (0, 22, -16)
    assert books.form == "2E8+3H"  # the whole K3 lattice


def test_books_conserve_rank_and_signature():
    for g in range(0, 11):
        for sigma in range(-2 * g, 2 * g + 1, 2):
            if abs(-16 - sigma) > 22 - 2 * g:
                with pytest.raises(CoverError):
                    double_cover_books(g, sigma)
                continue
            books = double_cover_books(g, sigma)
            assert books.b2_filling + books.b2_cap == 22
            assert sigma + books.sigma_cap == -16


def test_books_impossible_pair():
    with pytest.raises(CoverError):
        double_cover_books(2, -40)  # |sigma_cap| would exceed the rank


def test_form_labels():
    assert form_label(12, -8) == "E8+2H"
    assert form_label(10, -8) == "E8+H"
    assert form_label(8, -8) == "E8"
    assert form_label(4, 0) == "2H"
    assert form_label(2, 0) == "H"
    assert form_label(1, -1) == "undetermined"  # odd: never the form of a K3 cap
    assert form_label(22, -16) == "2E8+3H"
    assert form_label(0, 0) == "0"
    assert form_label(8, 0) == "4H"
    assert form_label(16, -16) == "undetermined"  # E8+E8 and D16+ share rank and signature
    assert form_label(10, 2) == "undetermined"  # odd
    with pytest.raises(CoverError):
        form_label(3, -8)
    with pytest.raises(CoverError):
        form_label(3, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=-10, max_value=10),
       st.integers(min_value=-10, max_value=10))
def test_euler_r1_identity(r, cb, cB):
    assert branched_cover_euler(1, cb, cB) == cb
    assert branched_cover_euler(r, cb, cb) == cb  # branch chi equal base chi
