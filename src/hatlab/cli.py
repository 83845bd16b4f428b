"""Command-line surface: braid utilities, script replay, bounds, searches,
cover bookkeeping, and reproduction reports.

Human-readable TSV by default; ``--json`` where structured output makes
sense.  Report commands exit nonzero iff any line fails.  An input error
(any ``HatlabError``, or an ``OSError`` reading a file) prints one
``hatlab: error:`` line to stderr and exits 2.  An integer option takes
exactly ASCII ``-?[0-9]+``, the grammar of a script integer, read by
``hatlab.read_int``; anything else (``３``, ``1_0``, ``+3``, `` 3 ``, or more
digits than ``int()`` reads) is a usage error, and argparse exits 2.

Each command runs in a fresh interpreter, so importing is part of its
cost.  The rule: this module imports only ``argparse``, ``sys``,
``HatlabError`` and ``read_int`` at the top, and each ``_cmd_*`` handler and
``_reproduce_*`` report imports the hatlab modules it runs (and ``json``
where it prints JSON).  So ``eq`` and ``slk`` load ``braid`` alone,
``bounds`` and ``t2-table`` load ``bounds``, ``search`` loads ``curves`` and
the ``bounds`` it reads (no ``json`` unless it prints JSON),
``run-script`` loads ``braid`` and ``cobordism``, and ``verify-corpus``
loads ``braid``, ``cobordism``, ``corpus`` and ``db``.  No hatlab module
imports ``dataclasses``, whose import loads ``inspect`` and whose decorator
compiles code for each class: value classes derive from ``hatlab.Record``.
Nor does one import ``typing``, for annotations are ``X | None``, or
``importlib.resources``, which loads ``pathlib`` and ``zipfile``: package
data is read by ``hatlab.read_data``.
"""

from __future__ import annotations

import argparse
import sys

from . import HatlabError, read_int


def _integer(text: str) -> int:
    """An integer option, read as a script integer is, by ``hatlab.read_int``."""
    try:
        return read_int(text)
    except HatlabError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _cmd_slk(args) -> int:
    from .braid import parse_braid, self_linking

    w = parse_braid(args.braid, args.strands)
    print(self_linking(w))
    return 0


def _cmd_eq(args) -> int:
    from .braid import equal, parse_braid

    w1 = parse_braid(args.braid1, args.strands)
    w2 = parse_braid(args.braid2, args.strands)
    same = equal(w1, w2)
    print("equal" if same else "different")
    return 0 if same else 1


def _cmd_run_script(args) -> int:
    from .braid import braid_text
    from .cobordism import read_script, run_script

    with open(args.file, "rb") as fh:
        script = read_script(fh.read(), args.file)
    end, ledger = run_script(script)
    print(f"end: {braid_text(end)} (B_{end.strands})")
    print(f"bands: {ledger.bands}\teuler: {ledger.euler}")
    print(f"slk: {ledger.slk_start} -> {ledger.slk_end}")
    print(f"genus: {ledger.genus if ledger.genus is not None else '-'}")
    if ledger.stabilized:
        print("stabilized: yes (contains negative stabilizations)")
    print("components: " + " ".join(map(str, ledger.component_trace)))
    return 0


def _cmd_verify_corpus(args) -> int:
    from .braid import braid_text
    from .corpus import verify_corpus

    report = verify_corpus()
    print("name\tstatus\tbands\tgenus\tslk_start\tslk_end\tend\tdetail")
    for r in report.results:
        lg = r.ledger
        if lg is None:
            print(f"{r.name}\tFAIL\t0\t-\tNone\tNone\t\t{r.detail}")
            continue
        genus = "-" if lg.genus is None else lg.genus
        print(f"{r.name}\tPASS\t{lg.bands}\t{genus}\t{lg.slk_start}\t{lg.slk_end}\t"
              f"{braid_text(r.end)}\t")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_bounds(args) -> int:
    from . import bounds as bounds_mod

    rep = bounds_mod.bounds_report(args.slk, args.slice_genus)
    print(f"slk\t{rep.slk}")
    print(f"slice_genus\t{rep.slice_genus if rep.slice_genus is not None else '?'}")
    print(f"degree_lb\t{rep.degree_lb}")
    print(f"genus_lb\t{rep.genus_lb}")
    for d, genus in rep.genus_by_degree:
        print(f"genus_at_degree_{d}\t{genus}")
    return 0


def _cmd_t2_table(args) -> int:
    from . import bounds as bounds_mod

    rows = bounds_mod.t2_table(args.kmax)
    if args.json:
        import json

        payload = [{"k": k, "lower_bound": lb, "witness_genus": wg} for k, lb, wg, _ in rows]
        print(json.dumps(payload, indent=2))
        return 0
    print("k\t" + "\t".join(str(row[0]) for row in rows))
    print("g_hat\t" + "\t".join("?" if v is None else str(v) for *_, v in rows))
    return 0


def _cmd_search(args) -> int:
    from . import curves as curves_mod

    rep = curves_mod.search(args.p, args.blowups, args.amin, args.amax, args.genus)
    # a generator: no row list is held; each row reads the record's own fields
    rows = ((s, s.gromov.line_with_cusp and s.gromov.line_two_points,
             s.gromov.conic_with_cusp and s.gromov.conic_five_points) for s in rep.solutions)
    if args.json:
        _print_search_json(rep, rows)
        return 0
    write = sys.stdout.write
    write("a\tb\tself_int\tlines\tconics\tohta_ono\tsurvives\n")
    for s, lines, conics in rows:
        write(f"{s.a}\t{','.join(map(str, s.b)) or '-'}\t"
              f"{s.self_intersection}\t{lines}\t{conics}\t{s.ohta_ono}\t{s.survives}\n")
    write(f"{len(rep.solutions)} solutions, {sum(s.survives for s in rep.solutions)} surviving\n")
    return 0


# one solution in json.dumps(..., indent=2) layout, at its depth in the payload
_SOLUTION_JSON = """    {
      "a": %d,
      "b": %s,
      "self_int": %d,
      "passes": {
        "lines": %s,
        "conics": %s,
        "ohta_ono": %s
      }
    }"""
_JSON_BOOL = {False: "false", True: "true"}


def _print_search_json(rep, rows) -> None:
    """Print the search report as ``json.dumps(payload, indent=2)`` would,
    one solution at a time, so no payload or output string is held whole."""
    import json

    head = json.dumps({"params": {"p": rep.p, "blowups": rep.blowups, "genus": rep.genus,
                                  "a_min": rep.a_min, "a_max": rep.a_max},
                       "nodes": rep.nodes}, indent=2)
    write = sys.stdout.write
    # the head ends in "\n}": the solutions list goes in before that brace
    write(head[:-2] + ',\n  "solutions": [')
    sep = "\n"
    for s, lines, conics in rows:
        b = "[\n        " + ",\n        ".join(map(str, s.b)) + "\n      ]" if s.b else "[]"
        write(sep + _SOLUTION_JSON % (s.a, b, s.self_intersection, _JSON_BOOL[lines],
                                      _JSON_BOOL[conics], _JSON_BOOL[s.ohta_ono]))
        sep = ",\n"
    # json.dumps prints an empty list as []
    write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def _cmd_covers(args) -> int:
    from . import covers as covers_mod
    from .db import get_knot

    rec = get_knot(args.knot)
    print(covers_mod.cover_line(rec.name, rec.slice_genus, args.r))
    return 0


def _reproduce_t2() -> list[tuple[str, bool]]:
    from . import bounds as bounds_mod

    k_max = max(row["k"] for row in bounds_mod.load_witnesses()["t2_witnesses"])
    rows = bounds_mod.t2_table(k_max)
    return [(f"t2 k={k}: value {v} expected {wg}", wg is not None and v == wg)
            for k, _, wg, v in rows]


def _reproduce_k3() -> list[tuple[str, bool]]:
    from . import curves as curves_mod

    out = []
    rep = curves_mod.search(3, 1, 0, 20, genus=0)
    ok = [(s.a, s.b) for s in rep.solutions] == [(6, (4,))]
    sol = rep.solutions[0] if rep.solutions else None
    out.append(("p=3 N=1 genus 0: unique (6; 4)", ok))
    out.append((
        "p=3 (6; 4) has self-intersection 20, caught by the cusp cap",
        sol is not None and sol.self_intersection == 20 and not sol.ohta_ono,
    ))
    rep = curves_mod.search(4, 1, 0, 30, genus=1)
    ok = [(s.a, s.b) for s in rep.solutions] == [(10, (8,))]
    out.append(("p=4 N=1 genus 1: unique (10; 8)", ok))
    out.append((
        "p=4 (10; 8) fails the line through the cusp",
        bool(rep.solutions) and not rep.solutions[0].gromov.line_with_cusp,
    ))
    rep = curves_mod.search(6, 4, 0, 9, genus=0)
    passing = [s for s in rep.solutions if s.gromov.passes]
    ok = [(s.a, s.b) for s in passing] == [(9, (3, 3, 3, 3))]
    out.append(("p=6 N=4 genus 0, a <= 9: unique constrained class (9; 3,3,3,3)", ok))
    out.append((
        "p=6 (9; 3,3,3,3) has self-intersection 45",
        bool(passing) and passing[0].self_intersection == 45,
    ))
    rep = curves_mod.search(7, 5, 9, 16, genus=0)
    passing = [s for s in rep.solutions if s.gromov.passes]
    out.append(("p=7 N=5 genus 0, 9 <= a <= 16: no constrained solutions",
                not passing))
    return out


def _reproduce_scripts() -> list[tuple[str, bool]]:
    from .corpus import verify_corpus

    report = verify_corpus()
    out = [(f"script {r.name}", r.ok) for r in report.results]
    out.append((report.summary(), report.ok))
    return out


def _reproduce_covers() -> list[tuple[str, bool]]:
    from . import bounds as bounds_mod
    from . import covers as covers_mod

    sections = bounds_mod.load_witnesses()
    out = []
    for t in sections["cover_targets"]:
        # A bidegree prints as (4, 4), not as its JSON list.
        d = tuple(t["degree"]) if isinstance(t["degree"], list) else t["degree"]
        ok = covers_mod.cy_cover_test(t["r"], t["surface"], d)
        out.append((f"{t['r']}-fold cover of {t['surface']} over degree {d} is K3", ok))
    for row in sections["filling_signatures"]:
        books = covers_mod.double_cover_books(row["genus"], row["signature"])
        out.append((
            f"{row['knot']} books: filling {books.b2_filling} / cap {books.b2_cap} / "
            f"{row['cap_form']}",
            books.form == row["cap_form"],
        ))
    return out


_REPORTS = {
    "t2-table": _reproduce_t2,
    "k3-searches": _reproduce_k3,
    "appendix-scripts": _reproduce_scripts,
    "cover-books": _reproduce_covers,
}


def _cmd_reproduce(args) -> int:
    lines = _REPORTS[args.report]()
    bad = 0
    for label, ok in lines:
        print(f"{'PASS' if ok else 'FAIL'}\t{label}")
        bad += not ok
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hatlab",
        description="braid cobordism scripts, hat-genus bounds, curve-class "
                    "searches, and branched-cover bookkeeping",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slk", help="self-linking number of a braid closure")
    p.add_argument("braid")
    p.add_argument("--strands", type=_integer, required=True)
    p.set_defaults(fn=_cmd_slk)

    p = sub.add_parser("eq", help="decide equality of two braid words")
    p.add_argument("braid1")
    p.add_argument("braid2")
    p.add_argument("--strands", type=_integer, required=True)
    p.set_defaults(fn=_cmd_eq)

    p = sub.add_parser("run-script", help="replay a rewriting script file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_run_script)

    p = sub.add_parser("verify-corpus", help="replay every built-in script")
    p.set_defaults(fn=_cmd_verify_corpus)

    p = sub.add_parser("bounds", help="hat genus/degree bounds from slk")
    p.add_argument("--slk", type=_integer, required=True)
    p.add_argument("--slice-genus", type=_integer, default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("t2-table", help="hat genus table for T(2,2k+1)")
    p.add_argument("--kmax", type=_integer, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_t2_table)

    p = sub.add_parser("search", help="curve-class search in a blow-up")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--blowups", type=_integer, required=True)
    p.add_argument("--genus", type=_integer, default=0)
    p.add_argument("--amin", type=_integer, required=True)
    p.add_argument("--amax", type=_integer, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("covers", help="branched-cover bookkeeping for a knot")
    p.add_argument("--knot", required=True)
    p.add_argument("--r", type=_integer, choices=(2, 3, 4), required=True)
    p.set_defaults(fn=_cmd_covers)

    p = sub.add_parser("reproduce", help="re-run a recorded table or claim")
    p.add_argument("report", choices=sorted(_REPORTS))
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HatlabError, OSError) as e:
        print(f"hatlab: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
