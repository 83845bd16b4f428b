"""Reference timings of single layers, for the table in perfbench/README.md.

Usage, from the root of a checkout:  python3 perfbench/reference.py [--seed N]

Prints one markdown row per figure: normal_form over strands x length,
corpus replay cold and warm, to_torus_script for n = 3..6,
search(8, 8, 0, 40), and the wall time of whole CLI commands.  Every
figure is one timing of one seeded input, so it is a reference point, not
a benchmark result; the benchmark itself is perfbench/run.py.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
from time import perf_counter

import oracle as O


def row(what, value, note=""):
    print(f"| {what} | {value} | {note} |")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    from hatlab import braid, cobordism, corpus, curves

    rng = random.Random(seed)
    print("| figure | value | note |\n| --- | --- | --- |")
    for n in (3, 4, 8, 16):
        for length in (100, 400, 800):
            w = braid.BraidWord(n, tuple(O.random_word(rng, n, length, positive=False)))
            t = perf_counter()
            braid.normal_form(w)
            row(f"normal_form n={n} L={length}", f"{1000 * (perf_counter() - t):.1f} ms",
                "mixed signs")
    for label in ("cold", "warm"):
        t = perf_counter()
        rep = corpus.verify_corpus()
        row(f"verify_corpus {label}", f"{1000 * (perf_counter() - t):.1f} ms",
            f"{len(rep.results)} scripts, in-process")
    for n in range(3, 7):
        w = braid.BraidWord(n, O.random_knot(rng, n, 31))
        t = perf_counter()
        script = cobordism.to_torus_script(w)
        build = perf_counter() - t
        t = perf_counter()
        cobordism.run_script(script)
        replay = perf_counter() - t
        row(f"to_torus_script n={n} L={len(w)}", f"{1000 * build:.0f} ms",
            f"{len(script.moves)} moves; replay {1000 * replay:.0f} ms with warm normal forms")
    t = perf_counter()
    rep = curves.search(8, 8, 0, 40)
    row("search(8, 8, 0, 40)", f"{perf_counter() - t:.2f} s", f"{len(rep.solutions)} solutions")
    del rep
    env = {k: v for k, v in os.environ.items() if k != "HATLAB_DB"}
    env["PYTHONPATH"] = src
    for args in (["verify-corpus"], ["reproduce", "t2-table"], ["reproduce", "k3-searches"],
                 ["reproduce", "appendix-scripts"], ["reproduce", "cover-books"]):
        t = perf_counter()
        subprocess.run([sys.executable, "-m", "hatlab.cli", *args], env=env,
                       stdout=subprocess.DEVNULL, check=True)
        row(f"hatlab {' '.join(args)}", f"{perf_counter() - t:.3f} s", "wall, fresh interpreter")
    return 0


if __name__ == "__main__":
    sys.exit(main())
