"""Euler-characteristic and intersection-form bookkeeping for cyclic
branched covers used in the K3 cap constructions.

The ramification formula for an r-fold cyclic cover branched over a curve B
in a surface S reads chi = r*chi(S) - (r-1)*chi(B).  A cover of the plane
or the quadric is a K3 surface exactly when its canonical class vanishes
and chi = 24; four presentations qualify and are recorded under
``cover_targets`` in ``data/witnesses.json``.

Signatures of fillings are inputs here (recorded facts under
``filling_signatures`` in ``data/witnesses.json``), never computed from
Seifert matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import HatlabError
from .bounds import load_witnesses, plane_curve_genus


class CoverError(HatlabError):
    pass


K3_B2 = 22
K3_SIGNATURE = -16


def branched_cover_euler(r: int, chi_base: int, chi_branch: int) -> int:
    """chi of the r-fold cyclic cover: r*chi_base - (r-1)*chi_branch."""
    if r < 1:
        raise CoverError("need r >= 1")
    return r * chi_base - (r - 1) * chi_branch


def bidegree_genus(a: int, b: int) -> int:
    """Genus (a-1)(b-1) of a smooth (a,b) curve on the quadric."""
    if a < 1 or b < 1:
        raise CoverError("bidegree entries must be >= 1")
    return (a - 1) * (b - 1)


Degree = Union[int, tuple[int, int]]


def cy_cover_test(r: int, surface: str, degree: Degree) -> bool:
    """True iff the r-fold cover branched over a smooth curve of the given
    (bi)degree has vanishing canonical class and chi = 24, i.e. is a K3.

    Existence of the cyclic cover needs the (bi)degree divisible by r;
    indivisible input is an error, not a False.
    """
    if r < 2:
        raise CoverError("need r >= 2")
    if surface == "CP2":
        if not isinstance(degree, int):
            raise CoverError("CP2 takes a single degree")
        d = degree
        if d % r:
            raise CoverError(f"no cyclic {r}-fold cover: {r} does not divide {d}")
        canonical_vanishes = d * (r - 1) == 3 * r
        g = plane_curve_genus(d)
        chi = branched_cover_euler(r, 3, 2 - 2 * g)
    elif surface == "P1xP1":
        if isinstance(degree, int):
            raise CoverError("P1xP1 takes a bidegree pair")
        a, b = degree
        if a % r or b % r:
            raise CoverError(f"no cyclic {r}-fold cover: {r} does not divide ({a},{b})")
        canonical_vanishes = (a == b) and a * (r - 1) == 2 * r
        g = bidegree_genus(a, b)
        chi = branched_cover_euler(r, 4, 2 - 2 * g)
    else:
        raise CoverError(f"unknown surface {surface!r}")
    return canonical_vanishes and chi == 24


def form_label(rank: int, signature: int) -> str:
    """Label of the even unimodular form with this rank and a signature <= 0,
    when the two determine it; otherwise 'undetermined'.

    Only K3 caps are labelled.  A cap bounded by an integral homology sphere
    is an orthogonal summand of the even K3 lattice, so its form is even.  An
    even unimodular form has signature divisible by 8.  An indefinite one is
    (-signature/8) E8 + ((rank+signature)/2) H, with E8 negative definite
    (Serre, *A Course in Arithmetic*, ch. V), and so is the definite one of
    rank 8, E8; from rank 16 on, a definite rank holds more than one form.
    """
    if abs(signature) > rank or (rank - signature) % 2:
        raise CoverError(f"no unimodular form has rank {rank}, signature {signature}")
    if rank == 0:
        return "0"
    definite = -signature == rank
    if signature > 0 or signature % 8 or (definite and rank != 8):
        return "undetermined"
    e8, h = -signature // 8, (rank + signature) // 2
    return "+".join(f"{'' if n == 1 else n}{name}" for n, name in ((e8, "E8"), (h, "H")) if n)


@dataclass(frozen=True)
class DoubleCoverBooks:
    b2_filling: int
    b2_cap: int
    sigma_cap: int
    form: str


def double_cover_books(g_s: int, sigma_filling: int) -> DoubleCoverBooks:
    """Second Betti numbers and forms when the closed double cover is a K3.

    The double cover of the 4-ball branched over a genus-g quasipositive
    surface has b2 = 2g; inside the K3 (b2 = 22, signature -16) the cap
    takes up the rest, and for integral homology sphere boundaries both
    pieces carry unimodular forms.
    """
    if g_s < 0:
        raise CoverError("slice genus must be >= 0")
    b2_filling = 2 * g_s
    b2_cap = K3_B2 - b2_filling
    if b2_cap < 0:
        raise CoverError("filling rank exceeds the K3 lattice")
    sigma_cap = K3_SIGNATURE - sigma_filling
    return DoubleCoverBooks(b2_filling, b2_cap, sigma_cap, form_label(b2_cap, sigma_cap))


def cover_line(name: str, g_s: int, r: int) -> str:
    """Human bookkeeping line for the r-fold cover of a knot's double branch."""
    if r == 2:
        filling = {r["knot"]: r for r in load_witnesses()["filling_signatures"]}.get(name)
        if filling is None:
            b2 = 2 * g_s
            return (f"{name}\tr=2\tfilling b2={b2}\tcap b2={K3_B2 - b2}\t"
                    "sigma undetermined")
        sigma = filling["signature"]
        books = double_cover_books(g_s, sigma)
        return (f"{name}\tr=2\tfilling b2={books.b2_filling} sigma={sigma}\t"
                f"cap b2={books.b2_cap} sigma={books.sigma_cap}\tform {books.form}")
    if r in (3, 4):
        b2 = 2 * g_s * (r - 1)
        return (f"{name}\tr={r}\tfilling b2={b2}\tcap b2={K3_B2 - b2}\t"
                f"spin rational homology ball expected iff b2=0")
    raise CoverError("r must be 2, 3, or 4")
