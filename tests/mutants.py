"""Mutation gate: each entry is a deliberate bug that one test module must catch.

Run it from anywhere with ``python tests/mutants.py``; pytest does not collect
this file.  For each entry the gate copies ``src/`` to a temporary directory,
replaces the entry's exact old text with its new text in one file, runs the
entry's test module against that copy with ``pytest -x``, and requires the run
to fail.  An old text that does not occur exactly once fails the gate, so an
entry cannot silently stop applying after the code around it changes.  Each
test module is first run once against an unmutated copy, which must pass, so
that a mutant is not counted as killed by a failure it did not cause.  A run
that has not finished after ``TIMEOUT_S`` seconds is stopped and counts as
failed, so a mutant that makes the code loop forever is killed, not waited on.

A mutant that survives needs a test that kills it; it is never dropped.  The
exit status is 0 when every mutant is killed and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # the longest module takes about 5 s against the unmutated copy

# (file under src/hatlab/, exact old text, new text, test module under tests/)
MUTANTS = [
    # normal_form: a letter followed by an odd number of negative letters is not mirrored
    ("braid.py", "if right & 1:", "if False:", "test_braid.py"),
    # normal_form: the power of Delta starts at plus, not minus, the negative letters
    ("braid.py", "power = -sum(1 for g in letters if g < 0)",
     "power = sum(1 for g in letters if g < 0)", "test_braid.py"),
    # _fix_pair: after a slide the scan moves on instead of stepping back
    ("braid.py", "i = i - 1 if i > 1 else 1", "i += 1", "test_braid.py"),
    # _fix_pair: the step back reaches index 0, which compares the last entry with the first
    ("braid.py", "i = i - 1 if i > 1 else 1", "i = i - 1 if i > 0 else 1", "test_braid.py"),
    # equal: the shared suffix may reuse the last letter of the shared prefix
    ("braid.py", "while j < m - k and", "while j <= m - k and", "test_braid.py"),
    # equal: the shared prefix scan reads past the end of the shorter word
    ("braid.py", "while k < m and", "while k <= m and", "test_braid.py"),
    # _fix_pair: a letter that starts b slides even when a already finishes with it
    ("braid.py", "if b[i - 1] > b[i] and pos[i - 1] < pos[i]:", "if b[i - 1] > b[i]:",
     "test_braid.py"),
    # _fix_pair: a letter that does not finish a slides even when it does not start b
    ("braid.py", "if b[i - 1] > b[i] and pos[i - 1] < pos[i]:", "if pos[i - 1] < pos[i]:",
     "test_braid.py"),
    # braid_text: a run of one letter prints with the power ^1
    ("braid.py", 'out.append(name if run_len == 1 else f"{name}^{run_len}")',
     'out.append(f"{name}^{run_len}")', "test_braid.py"),
    # braid_text: the empty word prints as nothing
    ("braid.py", 'return "".join(out) or "1"', 'return "".join(out)', "test_braid.py"),
    # parse_generator: the index strands itself is in range
    ("braid.py", "    if not 0 < i < strands:\n        raise _range_error(i, 0, token, strands)",
     "    if not 0 < i <= strands:\n        raise _range_error(i, 0, token, strands)",
     "test_cobordism.py"),
    # parse_braid: a power is checked alone, not with the letters before it
    ("braid.py", "if len(letters) + abs(count) > MAX_LETTERS:", "if abs(count) > MAX_LETTERS:",
     "test_braid.py"),
    # parse_braid: the word is one letter longer than MAX_LETTERS allows
    ("braid.py", "    if len(letters) > MAX_LETTERS:\n",
     "    if len(letters) > MAX_LETTERS + 1:\n", "test_braid.py"),
    # self_linking: the strand count is not subtracted
    ("braid.py", "return exponent_sum(w) - w.strands", "return exponent_sum(w)", "test_braid.py"),
    # simple_word: strands are bubbled into place leftmost first
    ("braid.py", "for dest in range(n - 1, -1, -1):", "for dest in range(n):", "test_braid.py"),
    # replay: the insert cursor steps forward through the passed letters in reverse order
    ("cobordism.py", "w.letters[q:p] if q < p", "w.letters[q:p][::-1] if q < p",
     "test_cobordism.py"),
    # replay: the insert cursor steps back through the passed letters in forward order
    ("cobordism.py", "else reversed(w.letters[p:q])", "else w.letters[p:q]", "test_cobordism.py"),
    # replay: cyc keeps the permutation of the word before it
    ("cobordism.py", '            perm = None\n            trace.append(trace[-1])',
     '            perm = perm if move[0] == "cyc" else None\n            trace.append(trace[-1])',
     "test_cobordism.py"),
    # replay: stab and destab keep the permutation of the word before them
    ("cobordism.py", '            perm = None\n            trace.append(trace[-1])',
     '            perm = perm if move[0] in ("stab", "destab") else None\n'
     '            trace.append(trace[-1])', "test_cobordism.py"),
    # bounds_report: a slice genus below (slk+1)/2 is accepted
    ("bounds.py", "if 2 * slice_genus < slk + 1:", "if 2 * slice_genus < slk - 1:",
     "test_bounds.py"),
    # triangular_lb: the least degree is one too high whenever isqrt(8 g_s) is even
    ("bounds.py", "(isqrt(8 * g_s) + 5) // 2", "(isqrt(8 * g_s) + 6) // 2", "test_bounds.py"),
    # hat_genus_at_degree: an even slk is not refused
    ("bounds.py", "    smooth = plane_curve_genus(d)\n    if slk % 2 == 0:\n"
     '        raise BoundsError("self-linking numbers of knots are odd")\n',
     "    smooth = plane_curve_genus(d)\n", "test_bounds.py"),
    # _carry: a negative letter swaps the positions counted from the right
    ("braid.py", "for i in map(abs, letters):", "for i in letters:", "test_braid.py"),
    # _cycle: the walk stops one point short of closing the cycle
    ("braid.py", "while p != start:", "while perm[p] != start:", "test_braid.py"),
    # underlying_permutation: the inverse permutation, end position to start
    ("braid.py", "images[s] = q", "images[q] = s", "test_braid.py"),
    # closure_components: each cycle counts twice
    ("braid.py", "count += 1", "count += 2", "test_braid.py"),
    # the ledger: a negative stabilization is not charged against the slk delta
    ("cobordism.py", "expect = self.bands - 2 * self.negative_stabilizations",
     "expect = self.bands", "test_cobordism.py"),
    # _comb: an under-crossing of the parked strand emits the square, an over-crossing not
    ("cobordism.py", "if pos < 0:", "if pos > 0:", "test_cobordism.py"),
    # to_torus_script: the second letter of the square skipped in the twist is one too far right
    ("cobordism.py", "n + f[k] - 2)", "n + f[k] - 1)", "test_cobordism.py"),
    # to_torus_script: the first letter of the square skipped in the twist is one too far right
    ("cobordism.py", "(f[k] - 1, ", "(f[k], ", "test_cobordism.py"),
    # to_torus_script: each letter of the twist is inserted one position too far right
    ("cobordism.py", '("ins", mid + t, g)', '("ins", mid + t + 1, g)', "test_cobordism.py"),
    # _reduced_combing: a square's letters cancel like any other
    ("cobordism.py", "floor = len(word) + 2", "floor = 0", "test_cobordism.py"),
    # _reduced_combing: a square's index is recorded at its second letter
    ("cobordism.py", "squares.append(len(word))", "squares.append(len(word) + 1)",
     "test_cobordism.py"),
    # _reduced_combing: nothing cancels, so the first eq is beta0 and the factors letter for letter
    ("cobordism.py", "if len(word) > floor and word[-1] == -g:", "if False:", "test_cobordism.py"),
    # _comb: the strand-free residue is combed before its free reduction
    ("cobordism.py", "_comb(n - 1, list(reduced.letters))", "_comb(n - 1, list(d))",
     "test_cobordism.py"),
    # _comb: the strand-free residue is not combed at all
    ("cobordism.py", "    out.extend(_comb(n - 1, list(reduced.letters)))\n", "",
     "test_cobordism.py"),
    # _crossing_change: a generator outside B_n is not refused before the letter is read
    ("cobordism.py", '    if not (1 <= index < w.strands):\n'
     '        raise ScriptError(f"crossing-change index {index} out of range")\n', "",
     "test_cobordism.py"),
    # _aligning_conjugator: a 2-strand link passes the knot check
    ("cobordism.py", "if len(cycle) < n:", "if n > 2 and len(cycle) < n:", "test_cobordism.py"),
    # check_record: a negative slice genus is accepted
    ("db.py", "if rec.slice_genus < 0:", "if rec.slice_genus < -1:", "test_db_cli.py"),
    # double_cover_books: a filling one genus too large gets a cap of rank -2
    ("covers.py", "if b2_cap < 0:", "if b2_cap < -2:", "test_covers.py"),
    # form_label: a positive signature divisible by 8 gets a label such as -1E8+8H
    ("covers.py", "if signature > 0 or signature % 8", "if signature % 8", "test_covers.py"),
    # form_label: the form of rank 0 is not labelled 0
    ("covers.py", "if rank == 0:", "if False:", "test_covers.py"),
    # form_label: a single summand is written with its count, as 1E8 or 1H
    ("covers.py", "{'' if n == 1 else n}", "{n}", "test_covers.py"),
    # form_label: a rank and a signature of different parity are accepted
    ("covers.py", " or (rank - signature) % 2:", ":", "test_covers.py"),
    # cover_line: a 5-fold cover is booked
    ("covers.py", "if r not in (2, 3, 4):", "if r not in (2, 3, 4, 5):", "test_covers.py"),
    # search: the Ohta-Ono cap on the self-intersection is one too low
    ("curves.py", "self_int_cap = p * p + 9", "self_int_cap = p * p + 8", "test_curves.py"),
    # search: the slk of T(p,p+1)#T(2,3) is off by two
    ("curves.py", "slk = p * p - p + 1", "slk = p * p - p - 1", "test_curves.py"),
    # search: the budget leaves out the requested genus
    ("curves.py", "hat_genus_at_degree(slk, a) - genus)", "hat_genus_at_degree(slk, a))",
     "test_curves.py"),
    # search: the budget charges half the requested genus
    ("curves.py", "hat_genus_at_degree(slk, a) - genus)",
     "hat_genus_at_degree(slk, a) - genus // 2)", "test_curves.py"),
    # _walk: a leaf's last entry comes first, so its tuple is not non-increasing
    ("curves.py", "out.append((*prefix, first))", "out.append((first, *prefix))", "test_curves.py"),
    # _walk: the prune lets through a remainder the n - 1 entries cannot hold
    ("curves.py", "if rest > (n - 1) * w:", "if rest > n * w:", "test_curves.py"),
    # _tail: a reused tail subtree is looked up without its largest allowed entry
    ("curves.py", "key = (n, hi, budget)", "key = (n, budget)", "test_curves.py"),
    # _tail: a reused tail subtree adds no nodes to the count
    ("curves.py", "visited[0] += hit[1]", "visited[0] += 0", "test_curves.py"),
    # search: a run of equal flags is keyed by four leading entries, not five
    ("curves.py", "top = b[:5]", "top = b[:4]", "test_curves.py"),
    # search: the flags of a degree's first tuple are given to all its tuples
    ("curves.py", "if top != last:", "if last is None:", "test_curves.py"),
    # search: the collector, paused during the search, is left paused
    ("curves.py", "        if collecting:\n            gc.enable()",
     "        if collecting:\n            pass", "test_curves.py"),
    # Annotated: the self-intersection adds the squares of the b_i
    ("curves.py", "return self.a * self.a - sum(map(mul, self.b, self.b))",
     "return self.a * self.a + sum(map(mul, self.b, self.b))", "test_curves.py"),
    # SearchReport.surviving: the Ohta-Ono cap is left out
    ("curves.py", "return [s for s in self.solutions if s.survives]",
     "return [s for s in self.solutions if s.gromov.passes]", "test_curves.py"),
    # _gromov: the sentinel 2 is dropped from the sorted entries
    ("curves.py", "b4, p, 2), reverse=True)", "b4, p, 0), reverse=True)", "test_curves.py"),
    # _gromov: the sentinel p is dropped from the sorted entries
    ("curves.py", "b4, p, 2), reverse=True)", "b4, 0, 2), reverse=True)", "test_curves.py"),
    # Record.__eq__: records of different classes with equal fields are equal
    ("__init__.py", "        if other.__class__ is not self.__class__:\n"
     "            return NotImplemented\n", "", "test_records.py"),
    # Record.__setattr__: a field is assigned instead of refused
    ("__init__.py", 'raise AttributeError(f"cannot assign to field {name!r}")',
     "object.__setattr__(self, name, value)", "test_records.py"),
    # Record: equality and hashing leave out the last field
    ("__init__.py", "get = attrgetter(*cls.__slots__)", "get = attrgetter(*cls.__slots__[:-1])",
     "test_records.py"),
    # read_data: package files are looked for beside the package, not under its data/
    ("__init__.py", 'os.path.dirname(__file__), "data", *parts', "os.path.dirname(__file__), *parts",
     "test_corpus.py"),
    # decode: bytes that are not UTF-8 raise the base HatlabError, not the caller's error
    ("__init__.py", 'raise error(f"{source}: not UTF-8', 'raise HatlabError(f"{source}: not UTF-8',
     "test_corpus.py"),
    # BraidWord: construction does not check the letters
    ("braid.py", "        for g in letters:\n            if g == 0 or abs(g) >= strands:",
     "        for g in ():\n            if g == 0 or abs(g) >= strands:", "test_braid.py"),
    # read_int: a leading plus sign is read
    ("__init__.py", 'digits = text[1:] if text.startswith("-") else text',
     'digits = text[1:] if text.startswith(("-", "+")) else text', "test_db_cli.py"),
    # read_int: non-ASCII digits such as the fullwidth 3 are read
    ("__init__.py", "if not (digits.isascii() and digits.isdigit()):",
     "if not digits.isdigit():", "test_db_cli.py"),
    # reproduce: a report with a failing line exits 0
    ("cli.py", "    return 1 if bad else 0\n", "    return 0\n", "test_db_cli.py"),
    # main: an OSError reading a file escapes as a traceback instead of exit 2
    ("cli.py", "except (HatlabError, OSError) as e:", "except HatlabError as e:", "test_db_cli.py"),
    # verify_corpus: results keep the database's order instead of sorting by name
    ("corpus.py", "    results.sort(key=lambda r: r.name)\n", "", "test_corpus.py"),
    # replay_record: a script replays even when its start differs from the stored braid
    ("corpus.py", "if not equal(script.start, rec.braid):", "if False:", "test_corpus.py"),
]


def _copy_src(tmp: str) -> Path:
    dst = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", dst, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dst


def _run_tests(src: Path, module: str, tmp: str) -> int | None:
    """The test run's exit code, or None when it is stopped at ``TIMEOUT_S``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    # the copy, not an installed hatlab, must be the one the tests import
    where = subprocess.run([sys.executable, "-c", "import hatlab; print(hatlab.__file__)"],
                           env=env, cwd=tmp, capture_output=True, text=True, check=True)
    if not where.stdout.startswith(str(src)):
        sys.exit(f"mutants: hatlab imported from {where.stdout.strip()}, not {src}")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           str(ROOT / "tests" / module)]
    try:
        return subprocess.run(cmd, env=env, cwd=tmp, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    bad = 0
    for module in sorted({m[3] for m in MUTANTS}):
        with tempfile.TemporaryDirectory() as tmp:
            if _run_tests(_copy_src(tmp), module, tmp) != 0:
                print(f"BASELINE FAILS\t{module}")
                bad += 1
    for k, (file, old, new, module) in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            path = src / "hatlab" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"NO MATCH\t{k}\t{file}: old text occurs {text.count(old)} times: {old!r}")
                bad += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            code = _run_tests(src, module, tmp)
        killed = code != 0
        verdict = "SURVIVED" if not killed else "killed" if code is not None else "timed out"
        print(f"{verdict}\t{k}\t{file}\t{module}\t{new!r}")
        bad += not killed
    print(f"{len(MUTANTS)} mutants, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
