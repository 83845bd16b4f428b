"""Brute-force reference implementations that the tests compare against."""

from hatlab.curves import CurveClass, adjunction_at_genus


def brute_force_solutions(p: int, blowups: int, a_min: int, a_max: int,
                          genus: int = 0) -> list[CurveClass]:
    """Naive nested-loop oracle over all unsorted tuples; for cross-checks."""
    out = set()

    def rec(a, prefix, n):
        if n == 0:
            cls = CurveClass(a, tuple(prefix))
            if adjunction_at_genus(p, cls, genus):
                out.add(cls)
            return
        for v in range(0, a + 1):
            rec(a, prefix + [v], n - 1)

    for a in range(a_min, a_max + 1):
        rec(a, [], blowups)
    return sorted(out, key=lambda c: (c.a, tuple(-x for x in c.b)))


def semigroup_elements(p: int, q: int, up_to: int) -> list[int]:
    """Brute-force enumeration of <p, q> up to a bound (the oracle route)."""
    out = set()
    for i in range(0, up_to // p + 1):
        for j in range(0, (up_to - i * p) // q + 1):
            out.add(i * p + j * q)
    return sorted(out)
