"""Closed-form calculators and lower bounds for projective hat genus/degree.

For a transverse knot with self-linking number ``slk``, a degree-d
projective hat has genus exactly

    g_hat(d) = (d^2 - 3d + 2)/2 - (slk + 1)/2,

equivalently ``slk = (d^2 - 3d + 1) - 2 g_hat``, so genus and degree
determine each other.  This is the one home of that formula: a hat in a
blow-up loses m(m-1)/2 of it for each blown-up point of multiplicity m,
which ``curves.search`` reads from here.  Everything here is exact integer
arithmetic.  Every degree bound is the least d with (d-1)(d-2)/2 >= g for
some g, solved in closed form by ``triangular_lb`` through an integer
square root of the discriminant 8g + 1, never floats or a search.

Upper bounds come from recorded witness constructions (external curves and
crossing-change upgrades of them); those are declarative rows with
provenance strings in ``data/witnesses.json``.  ``load_witnesses`` only
reads: it returns the file's sections as their JSON rows, reading the file
on every call, which a command does at most twice, so each caller gets rows
of its own.  A T(2,2k+1) witness records its degree, not its genus:
``t2_table`` derives the genus from the degree and the knot's slk 2k - 1.
The bounds code never hard-codes a witness.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Optional

from . import HatlabError, Record


class BoundsError(HatlabError):
    pass


T2_KMAX = 1_000_000  # the most rows t2_table builds, ~220 bytes each


def hat_genus_at_degree(slk: int, d: int) -> int:
    """The genus of a degree-d projective hat for a knot with given slk."""
    smooth = plane_curve_genus(d)
    if slk % 2 == 0:
        raise BoundsError("self-linking numbers of knots are odd")
    g2 = 2 * smooth - (slk + 1)
    if g2 < 0:
        raise BoundsError(f"degree {d} is below the minimum for slk {slk}")
    return g2 // 2


def triangular_lb(g_s: int) -> tuple[int, int, int]:
    """(m, d, genus_lb): least m = (d-2)(d-1)/2 >= g_s and the bound m - g_s.

    For a quasipositive knot of slice genus g_s, every projective hat has
    degree >= d and genus >= m - g_s.
    """
    if g_s < 0:
        raise BoundsError("slice genus must be >= 0")
    # (d-1)(d-2)/2 >= g_s iff 2d - 3 >= sqrt(8 g_s + 1), whose ceiling is 1 + isqrt(8 g_s).
    d = 1 if g_s == 0 else (isqrt(8 * g_s) + 5) // 2
    m = plane_curve_genus(d)
    return m, d, m - g_s


def negative_torus_max_slk(p: int, q: int) -> int:
    """Maximal self-linking number -pq + q - p of T(p,-q), for 2 <= p < q."""
    if not (2 <= p < q):
        raise BoundsError("need 2 <= p < q")
    return -p * q + q - p


def twist_knot_max_slk(n: int) -> int:
    """Maximal self-linking number of the n-twist knot (n != 0, -1, -2)."""
    if n in (0, -1, -2):
        raise BoundsError("not a twist knot for n in {0, -1, -2}")
    if n < 0:
        if n % 2:
            return -3
        raise BoundsError("maximal slk representatives are not unique for "
                          "negative even twists")
    return -(n + 4) if n % 2 else -(n + 1)


def semigroup_lb(p: int, q: int) -> int:
    """Third-smallest element of the numerical semigroup <p, q>.

    The semigroup starts 0, p, min(2p, q), so this is min(2p, q); it lower
    bounds the hat degree of the maximal-slk torus knot T(p,q).
    """
    if gcd(p, q) != 1:
        raise BoundsError("p and q must be coprime")
    if not (2 <= p < q):
        raise BoundsError("need 2 <= p < q")
    return min(2 * p, q)


def milnor_genus(p: int, q: int) -> int:
    """Genus (p-1)(q-1)/2 of the Milnor fiber of the T(p,q) singularity."""
    if gcd(p, q) != 1:
        raise BoundsError("p and q must be coprime")
    return (p - 1) * (q - 1) // 2


def plane_curve_genus(d: int) -> int:
    """Genus (d-1)(d-2)/2 of a smooth degree-d plane curve."""
    if d < 1:
        raise BoundsError("degree must be >= 1")
    return (d - 1) * (d - 2) // 2


def singular_genus_budget(d: int, sing_genera: list[int]) -> int:
    """Smooth genus left for a degree-d curve whose cusps absorb the given genera."""
    g = plane_curve_genus(d) - sum(sing_genera)
    if g < 0:
        raise BoundsError(
            f"cusp genera {sum(sing_genera)} exceed the degree-{d} budget "
            f"{plane_curve_genus(d)}"
        )
    return g


# ---------------------------------------------------------------------------
# Witness records and the T(2,2k+1) table
# ---------------------------------------------------------------------------

def load_witnesses() -> dict[str, list]:
    """The sections of ``data/witnesses.json`` as their JSON rows, read anew on each call."""
    import json  # here, not at the top: a search imports this module and reads no JSON
    from importlib import resources

    return json.loads(
        resources.files("hatlab").joinpath("data", "witnesses.json").read_text(encoding="utf-8")
    )


def t2_table(k_max: int) -> list[tuple[int, int, Optional[int], Optional[int]]]:
    """Rows ``(k, lower_bound, witness_genus, value)`` for the maximal-slk
    T(2,2k+1), k = 1..k_max, for 1 <= k_max <= ``T2_KMAX``.

    T(2,2k+1) is quasipositive of slice genus k, so the triangular bound
    applies: writing k = d(d-1)/2 + l with 1 <= l <= d, it is d - l.
    Recorded obstruction upgrades (stored with provenance) may raise it.
    ``witness_genus`` is the genus of the recorded hat (derived from its
    degree) or None, and ``value`` is the hat genus when the bound meets
    that witness, else None.
    """
    if k_max < 1:
        raise BoundsError("need k_max >= 1")
    if k_max > T2_KMAX:
        raise BoundsError(f"need k_max <= {T2_KMAX}, got {k_max}")
    sections = load_witnesses()
    degree = {row["k"]: row["degree"] for row in sections["t2_witnesses"]}
    upgrade = {row["k"]: row["bound"] for row in sections["t2_lower_bound_upgrades"]}
    rows = []
    for k in range(1, k_max + 1):
        lb = triangular_lb(k)[2]
        if k in upgrade:
            lb = max(lb, upgrade[k])
        # T(2,2k+1) has maximal slk 2k - 1, which fixes the genus of a hat of each degree
        g = hat_genus_at_degree(2 * k - 1, degree[k]) if k in degree else None
        if g is not None and g < lb:
            raise BoundsError(f"k={k}: witness genus {g} below bound {lb}")
        rows.append((k, lb, g, lb if g == lb else None))
    return rows


REPORT_DEGREES = 6


class HatBoundReport(Record):
    __slots__ = ("slk", "slice_genus", "degree_lb", "genus_lb", "genus_by_degree")


def bounds_report(slk: int, slice_genus: Optional[int] = None) -> HatBoundReport:
    """Per-knot hat bounds from slk (and slice genus when quasipositive).

    The slice genus defaults to (slk+1)/2 when slk >= -1; one below that is an error.
    """
    if slk % 2 == 0:
        raise BoundsError("self-linking numbers of knots are odd")
    if slice_genus is None and slk >= -1:
        slice_genus = (slk + 1) // 2
    if slice_genus is None:  # slk < -1: degree 1 has hat genus -(slk+1)/2 >= 0
        d0 = 1
    else:
        # Slice-Bennequin gives 2 g_s >= slk + 1, so every degree d with
        # (d-1)(d-2)/2 >= g_s has a non-negative hat genus.
        d0 = triangular_lb(slice_genus)[1]
        if 2 * slice_genus < slk + 1:
            raise BoundsError(f"slice genus {slice_genus} violates slice-Bennequin: "
                              f"g_s >= (slk+1)/2 = {(slk + 1) // 2}")
    # The hat genus at a degree is fixed by slk and never falls as the degree
    # grows, so the least one is at degree_lb.
    table = {d: hat_genus_at_degree(slk, d) for d in range(d0, d0 + REPORT_DEGREES)}
    return HatBoundReport(slk, slice_genus, d0, table[d0], table)
