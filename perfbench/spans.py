"""Spans and counts recorded around calls into hatlab's public functions.

The tracer wraps module attributes from outside: every ``hatlab.*`` module
attribute that is one of the traced functions is replaced by a wrapper, so
calls between modules (``cobordism`` calling ``braid.equal``, ``cli``
calling ``corpus.verify_corpus``) are seen too.  The program's files are
not changed.  Spans are kept in memory as
``(op, name, start, end, parent)`` tuples and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span.  apply_move is only counted:
# it runs once per script move, and a span there would dominate the cost.
SPANNED = [
    ("braid", "parse_braid"),
    ("braid", "braid_text"),
    ("braid", "normal_form"),
    ("braid", "equal"),
    ("cobordism", "to_torus_script"),
    ("cobordism", "comb_pure"),
    ("cobordism", "run_script"),
    ("cobordism", "parse_script"),
    ("cobordism", "serialize_script"),
    ("corpus", "verify_corpus"),
    ("db", "load_db"),
    ("bounds", "t2_table"),
    ("covers", "cy_cover_test"),
    ("curves", "search"),
]
COUNTED = [("cobordism", "apply_move")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_words: set = set()
        self._stack: list[int] = []
        self.op = None  # id of the operation being traced; None records nothing

    def _after(self, name, args, result):
        c = self.counts
        if name == "braid.normal_form":
            w = args[0]
            c["braid.normal_form.letters"] += len(w.letters)
            key = (w.strands, w.letters)
            if key in self.seen_words:
                c["braid.normal_form.repeat_calls"] += 1
            else:
                self.seen_words.add(key)
        elif name == "curves.search":
            c["curves.solutions"] += len(result.solutions)
            c["curves.surviving"] += len(result.surviving)
        elif name == "corpus.verify_corpus":
            c["corpus.scripts"] += len(result.results)

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if name == "curves.search" and "exceeds cap" in str(e):
                    self.counts["curves.search.refused"] += 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (self.op, name, t0, t1, parent)
            self._after(name, args, result)
            return result
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever a hatlab module binds them."""
        import importlib

        mods = [m for k, m in list(sys.modules.items()) if k.startswith("hatlab")]
        for kind, table in ((self.spanned, SPANNED), (self.counted, COUNTED)):
            for mod_name, fn_name in table:
                orig = getattr(importlib.import_module(f"hatlab.{mod_name}"), fn_name)
                name = "cobordism.moves" if fn_name == "apply_move" else f"{mod_name}.{fn_name}"
                wrapped = kind(name, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    def adopt(self, op, spans, counts) -> None:
        """Merge spans and counts recorded by a child process."""
        base = len(self.spans)
        for _, name, t0, t1, parent in spans:
            self.spans.append((op, name, t0, t1, parent + base if parent >= 0 else -1))
        for k, v in counts.items():
            self.counts[k] += v

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_totals(spans, counts) -> dict[str, float]:
    """Calls and seconds per span name, run_script self time, and counts.

    ``cobordism.run_script.self_s`` is run_script time outside the
    ``braid.equal`` calls nested in it.
    """
    out: dict[str, float] = defaultdict(float)
    equal_inside: dict[int, float] = defaultdict(float)
    for s in spans:
        _, name, t0, t1, parent = s
        out[name + ".calls"] += 1
        out[name + ".s"] += t1 - t0
        if name == "braid.equal":
            p = parent
            while p >= 0 and spans[p][1] != "cobordism.run_script":
                p = spans[p][4]
            if p >= 0:
                equal_inside[p] += t1 - t0
    out["cobordism.run_script.self_s"] = sum(
        s[3] - s[2] - equal_inside[i]
        for i, s in enumerate(spans) if s[1] == "cobordism.run_script"
    )
    for k, v in counts.items():
        out[k] += v
    return out
