"""Traced stand-in for the ``hatlab`` command.

Usage: python3 perfbench/cli_driver.py SPANS.json ARGS...

Times the import of ``hatlab.cli``, wraps hatlab's public functions with
the benchmark's tracer, runs ``hatlab.cli.main(ARGS)`` inside a
``cli.main`` span and writes the spans and counts to SPANS.json before
exiting with main's code.
"""

import sys
from time import perf_counter


def main() -> int:
    t0 = perf_counter()
    import hatlab.cli

    t1 = perf_counter()
    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    tracer.spans.append((0, "cli.import", t0, t1, -1))
    try:
        return tracer.spanned("cli.main", hatlab.cli.main)(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
