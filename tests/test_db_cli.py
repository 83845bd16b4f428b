"""The command-line surface: outputs, exit codes, JSON schema."""

import io
import json
import os
import subprocess
import sys

import pytest

import hatlab
from hatlab import HatlabError
from hatlab import bounds as bounds_mod
from hatlab.braid import BraidError
from hatlab.cli import main
from hatlab.cobordism import ScriptError, parse_script, serialize_script
from hatlab.corpus import load_script
from hatlab.covers import CoverError
from hatlab.curves import SearchError
from hatlab.db import DatabaseError, load_db


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_slk(capsys):
    rc, out = run_cli(capsys, "slk", "xy^2x^2y^7", "--strands", "3")
    assert rc == 0
    assert out.strip() == "9"


def test_eq_exit_codes(capsys):
    rc, out = run_cli(capsys, "eq", "xyx", "yxy", "--strands", "3")
    assert rc == 0 and out.strip() == "equal"
    rc, out = run_cli(capsys, "eq", "xy", "yx", "--strands", "3")
    assert rc == 1 and out.strip() == "different"
    # 1 is the identity wherever braid text is read.
    rc, out = run_cli(capsys, "eq", "1", "x", "--strands", "2")
    assert rc == 1 and out.strip() == "different"
    rc, out = run_cli(capsys, "eq", "1", "xX", "--strands", "2")
    assert rc == 0 and out.strip() == "equal"


def test_run_script_file(capsys, tmp_path):
    script = load_script("m8_20.txt")
    path = tmp_path / "s.txt"
    path.write_text(serialize_script(script))
    rc, out = run_cli(capsys, "run-script", str(path))
    assert rc == 0
    assert "end: x^5 (B_2)" in out
    assert "genus: 2" in out


def test_run_script_ending_in_a_link_after_a_negative_stabilization(capsys, tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("strands: 2\nstart: x\nstab -\nins 0 x\n")
    rc, out = run_cli(capsys, "run-script", str(path))
    assert rc == 0
    assert out.splitlines() == [
        "end: x^2Y (B_3)",
        "bands: 1\teuler: -1",
        "slk: -1 -> None",
        "genus: -",
        "stabilized: yes (contains negative stabilizations)",
        "components: 1 1 2",
    ]


def test_run_script_zigzag_inserts(capsys, tmp_path):
    # Inserts at positions that jump back and forth, across stab and cyc.
    path = tmp_path / "s.txt"
    path.write_text("strands: 3\nstart: xy\nins 2 x\nins 0 y\nins 3 x\nstab +\n"
                    "ins 1 z\nins 5 y\ncyc 2\nins 0 x\n")
    rc, out = run_cli(capsys, "run-script", str(path))
    assert rc == 0
    assert out.splitlines() == [
        "end: x^2yxyxzyz (B_4)",
        "bands: 6\teuler: -6",
        "slk: -1 -> 5",
        "genus: 3",
        "components: 1 2 1 2 2 1 2 2 1",
    ]


def test_verify_corpus(capsys):
    rc, out = run_cli(capsys, "verify-corpus")
    assert rc == 0
    assert "21/21 scripts replayed" in out
    assert out.count("PASS") == 21


def test_bounds(capsys):
    rc, out = run_cli(capsys, "bounds", "--slk", "9")
    assert rc == 0
    assert "slice_genus\t5" in out
    assert "genus_at_degree_6\t5" in out


def test_bounds_without_slice_genus_below_minus_one(capsys):
    rc, out = run_cli(capsys, "bounds", "--slk", "-7")
    assert rc == 0
    assert out == (
        "slk\t-7\nslice_genus\t?\ndegree_lb\t1\ngenus_lb\t3\n"
        "genus_at_degree_1\t3\ngenus_at_degree_2\t3\ngenus_at_degree_3\t4\n"
        "genus_at_degree_4\t6\ngenus_at_degree_5\t9\ngenus_at_degree_6\t13\n"
    )


def test_bounds_with_given_slice_genus(capsys):
    rc, out = run_cli(capsys, "bounds", "--slk", "9", "--slice-genus", "6")
    assert rc == 0
    assert out == (
        "slk\t9\nslice_genus\t6\ndegree_lb\t5\ngenus_lb\t1\n"
        "genus_at_degree_5\t1\ngenus_at_degree_6\t5\ngenus_at_degree_7\t10\n"
        "genus_at_degree_8\t16\ngenus_at_degree_9\t23\ngenus_at_degree_10\t31\n"
    )


def test_t2_table_layout(capsys):
    rc, out = run_cli(capsys, "t2-table", "--kmax", "11")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k\t" + "\t".join(str(k) for k in range(1, 12))
    assert lines[1] == "g_hat\t0\t1\t0\t2\t1\t0\t3\t2\t1\t5\t4"


def test_t2_table_json(capsys):
    rc, out = run_cli(capsys, "t2-table", "--kmax", "3", "--json")
    rows = json.loads(out)
    assert rows[0] == {"k": 1, "lower_bound": 0, "witness_genus": 0}


def test_search_json_schema(capsys):
    rc, out = run_cli(capsys, "search", "--p", "3", "--blowups", "1",
                      "--amin", "0", "--amax", "20", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["params"] == {"p": 3, "blowups": 1, "genus": 0,
                                 "a_min": 0, "a_max": 20}
    assert list(payload) == ["params", "nodes", "solutions"]
    assert payload["nodes"] == 17  # enumeration nodes visited
    (sol,) = payload["solutions"]
    assert sol["a"] == 6 and sol["b"] == [4]
    assert sol["self_int"] == 20
    assert set(sol["passes"]) == {"lines", "conics", "ohta_ono"}
    assert sol["passes"]["ohta_ono"] is False


@pytest.mark.parametrize("p, blowups, a_min, a_max, genus", [
    (6, 4, 0, 12, 0), (3, 1, 0, 5, 0), (2, 0, 0, 12, 1), (5, 3, 0, 14, 2), (4, 4, 0, 14, 0),
])
def test_search_json_prints_what_json_dumps_prints(capsys, p, blowups, a_min, a_max, genus):
    # the streamed output has the bytes of one json.dumps of the whole payload,
    # for empty results and empty b lists too
    from hatlab.curves import search

    rep = search(p, blowups, a_min, a_max, genus)
    payload = {
        "params": {"p": p, "blowups": blowups, "genus": genus, "a_min": a_min, "a_max": a_max},
        "nodes": rep.nodes,
        "solutions": [
            {"a": s.a, "b": list(s.b), "self_int": s.self_intersection,
             "passes": {"lines": s.gromov.line_with_cusp and s.gromov.line_two_points,
                        "conics": s.gromov.conic_with_cusp and s.gromov.conic_five_points,
                        "ohta_ono": s.ohta_ono}}
            for s in rep.solutions],
    }
    rc, out = run_cli(capsys, "search", "--p", str(p), "--blowups", str(blowups), "--amin",
                      str(a_min), "--amax", str(a_max), "--genus", str(genus), "--json")
    assert rc == 0
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("p, blowups, a_min, a_max, genus", [
    (6, 4, 0, 12, 0), (2, 0, 0, 12, 1), (5, 3, 0, 14, 2), (3, 1, 0, 4, 0),
])
def test_search_tsv_prints_what_one_print_per_row_prints(capsys, p, blowups, a_min, a_max,
                                                          genus):
    # the rows written one string each have the bytes of one print per row,
    # for an empty result and empty b lists too
    from hatlab.curves import search

    rep = search(p, blowups, a_min, a_max, genus)
    want = io.StringIO()
    print("a\tb\tself_int\tlines\tconics\tohta_ono\tsurvives", file=want)
    for s in rep.solutions:
        g = s.gromov
        print(f"{s.a}\t{','.join(map(str, s.b)) or '-'}\t{s.self_intersection}\t"
              f"{g.line_with_cusp and g.line_two_points}\t"
              f"{g.conic_with_cusp and g.conic_five_points}\t{s.ohta_ono}\t{s.survives}",
              file=want)
    print(f"{len(rep.solutions)} solutions, {sum(s.survives for s in rep.solutions)} surviving",
          file=want)
    rc, out = run_cli(capsys, "search", "--p", str(p), "--blowups", str(blowups), "--amin",
                      str(a_min), "--amax", str(a_max), "--genus", str(genus))
    assert rc == 0
    assert out == want.getvalue()


def test_search_tsv(capsys):
    rc, out = run_cli(capsys, "search", "--p", "3", "--blowups", "1",
                      "--amin", "0", "--amax", "20")
    assert rc == 0
    assert out.splitlines() == [
        "a\tb\tself_int\tlines\tconics\tohta_ono\tsurvives",
        "6\t4\t20\tFalse\tTrue\tFalse\tFalse",
        "1 solutions, 0 surviving",
    ]


def test_search_far_below_the_first_degree_returns_at_once():
    # Degrees below the first with a non-negative budget are skipped in closed
    # form, so a range of 10^12 degrees below it returns at once.
    env = {k: v for k, v in os.environ.items() if k != "HATLAB_DB"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hatlab.__file__))
    proc = subprocess.run([sys.executable, "-m", "hatlab.cli", "search", "--p", str(10**12),
                           "--blowups", "1", "--amin", "0", "--amax", str(10**12)],
                          env=env, capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "0 solutions, 0 surviving"


def test_covers_command(capsys):
    rc, out = run_cli(capsys, "covers", "--knot", "12n_242", "--r", "2")
    assert rc == 0
    assert "E8+2H" in out
    rc, out = run_cli(capsys, "covers", "--knot", "m(8_20)", "--r", "3")
    assert rc == 0
    assert "r=3" in out
    # 10_124 has no recorded filling signature.
    rc, out = run_cli(capsys, "covers", "--knot", "10_124", "--r", "2")
    assert rc == 0
    assert out == "10_124\tr=2\tfilling b2=8\tcap b2=14\tsigma undetermined\n"


def test_reproduce_reports(capsys):
    for report in ("t2-table", "k3-searches", "appendix-scripts", "cover-books"):
        rc, out = run_cli(capsys, "reproduce", report)
        assert rc == 0, (report, out)
        assert "FAIL" not in out
        assert "PASS" in out


def test_reproduce_t2_table_output(capsys):
    rc, out = run_cli(capsys, "reproduce", "t2-table")
    assert rc == 0
    values = [0, 1, 0, 2, 1, 0, 3, 2, 1, 5, 4]
    assert out == "".join(
        f"PASS\tt2 k={k}: value {v} expected {v}\n" for k, v in enumerate(values, 1)
    )


def test_reproduce_t2_table_fails_a_row_without_witness(capsys, monkeypatch):
    sections = bounds_mod.load_witnesses()
    witnesses = [row for row in sections["t2_witnesses"] if row["k"] != 5]
    monkeypatch.setattr(bounds_mod, "load_witnesses",
                        lambda: {**sections, "t2_witnesses": witnesses})
    rc, out = run_cli(capsys, "reproduce", "t2-table")
    assert rc == 1
    assert out.splitlines()[4] == "FAIL\tt2 k=5: value None expected None"
    assert out.count("FAIL") == 1


def test_reproduce_cover_books_output(capsys):
    rc, out = run_cli(capsys, "reproduce", "cover-books")
    assert rc == 0
    assert out.splitlines() == [
        "PASS\t2-fold cover of CP2 over degree 6 is K3",
        "PASS\t4-fold cover of CP2 over degree 4 is K3",
        "PASS\t2-fold cover of P1xP1 over degree (4, 4) is K3",
        "PASS\t3-fold cover of P1xP1 over degree (3, 3) is K3",
        "PASS\t12n_242 books: filling 10 / cap 12 / E8+2H",
        "PASS\tT(3,7) books: filling 12 / cap 10 / E8+H",
    ]


@pytest.mark.parametrize("argv, message", [
    (["slk", "xyxyx", "--strands", "3"], "knot"),
    (["bounds", "--slk", "4"], "odd"),
    (["covers", "--knot", "m9_46", "--r", "2"], "m9_46"),
    (["run-script", "{missing}"], "No such file"),
    (["run-script", "{malformed}"], "line 3"),
    (["eq", "s0", "x", "--strands", "3"],  # BraidError
     "letter index 0 at column 0 in 's0' is outside 1..2 for 3 strands"),
    (["bounds", "--slk", "10"], "self-linking numbers of knots are odd"),  # BoundsError
    (["search", "--p", "1", "--blowups", "1", "--amin", "0", "--amax", "5"],
     "p must be >= 2, got 1"),  # SearchError
    (["run-script", "{latin1}"],  # ScriptError
     "latin1.txt: not UTF-8 at byte 19: invalid continuation byte"),
    (["slk", "x^²", "--strands", "3"], "malformed power at column 1 in 'x^²'"),
    (["run-script", "{bad_step}"], "step 0 (ins 5 x): insert position 5 out of range"),
    (["run-script", "{bad_eq}"], "step 0 (eq 1): uncertifiable rewrite: xyxy != 1"),
    (["bounds", "--slk", "9", "--slice-genus", "2"],
     "slice genus 2 violates slice-Bennequin: g_s >= (slk+1)/2 = 5"),
    # Numbers in text are input errors, however long.
    (["slk", "x^99999999999999999999", "--strands", "2"],
     "power at column 1 in 'x^99999999999999999999' makes the word longer than 1000000 letters"),
    (["slk", "x^1000001", "--strands", "2"],
     "power at column 1 in 'x^1000001' makes the word longer than 1000000 letters"),
    (["slk", "x^" + "9" * 5000, "--strands", "2"], "term at column 0 in 'x^999"),
    (["slk", "s" + "9" * 5000, "--strands", "2"], "term at column 0 in 's999"),
    (["run-script", "{big_cyc}"], "line 3: integer of 5000 characters is too long to read"),
    (["run-script", "{big_ins}"], "line 3: term at column 0 in 's999"),
    (["run-script", "{power_one}"], "line 3: expected a single positive generator, got 'x^1'"),
    (["search", "--p", "3", "--blowups", "5000", "--amin", "0", "--amax", "6"],
     "5000 blow-ups nest the enumeration deeper than Python's recursion limit"),
    # Counts that would cost memory without bound are input errors past their bound.
    (["eq", "x", "y", "--strands", "1001"], "strand count must be <= 1000, got 1001"),
    (["run-script", "{wide}"], "line 2: strand count must be <= 1000, got 1001"),
    (["t2-table", "--kmax", "1000001"], "need k_max <= 1000000, got 1000001"),
])
def test_input_errors_exit_2_with_one_line(capsys, tmp_path, argv, message):
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("strands: 3\nstart: xy\nstab q\n")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"strands: 3\nstart: x\xe9\n")
    bad_step = tmp_path / "bad_step.txt"
    bad_step.write_text("strands: 3\nstart: xy\nins 5 x\n")
    bad_eq = tmp_path / "bad_eq.txt"
    bad_eq.write_text("strands: 3\nstart: xyxy\neq 1\n")
    big_cyc = tmp_path / "big_cyc.txt"
    big_cyc.write_text("strands: 3\nstart: xy\ncyc " + "9" * 5000 + "\n")
    big_ins = tmp_path / "big_ins.txt"
    big_ins.write_text("strands: 3\nstart: xy\nins 0 s" + "9" * 5000 + "\n")
    power_one = tmp_path / "power_one.txt"
    power_one.write_text("strands: 3\nstart: xy\nins 0 x^1\n")
    wide = tmp_path / "wide.txt"
    wide.write_text("strands: 1001\nstart: x\n")
    paths = {"missing": tmp_path / "missing.txt", "malformed": malformed, "latin1": latin1,
             "bad_step": bad_step, "bad_eq": bad_eq, "big_cyc": big_cyc, "big_ins": big_ins,
             "power_one": power_one, "wide": wide}
    rc = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("hatlab: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv, line", [
    # An integer option is ASCII -?[0-9]+, as in a script; argparse refuses the rest.
    (["slk", "x", "--strands", "３"], None),
    (["slk", "x", "--strands", "1_0"], None),
    (["slk", "x", "--strands", "+3"], None),
    (["slk", "x", "--strands", " 3 "], None),
    (["slk", "x", "--strands", "3.0"], None),
    (["slk", "x", "--strands", ""], None),
    (["slk", "x", "--strands", "9" * 5000], None),
    (["eq", "x", "y", "--strands", "٣"], None),
    (["bounds", "--slk", "9", "--slice-genus", "0x6"], None),
    (["t2-table", "--kmax", "1e3"], None),
    (["search", "--p", "３", "--blowups", "1", "--amin", "0", "--amax", "２０"], None),
    (["search", "--p", "4", "--blowups", "1", "--amin", "0", "--amax", "30", "--genus", "１"],
     None),
    (["covers", "--knot", "12n_242", "--r", "２"], None),
    (["slk", "x", "--strands", "02"], "-1"),
    (["bounds", "--slk", "-7"], "genus_lb\t3"),
    (["search", "--p", "4", "--blowups", "1", "--amin", "0", "--amax", "30", "--genus", "1"],
     "10\t8\t36\tFalse\tTrue\tFalse\tFalse"),
])
def test_integer_options_read_the_script_grammar(capsys, argv, line):
    if line is None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument --" in capsys.readouterr().err
    else:
        assert main(argv) == 0
        assert line in capsys.readouterr().out.splitlines()


def test_an_over_long_integer_option_is_a_short_usage_error(capsys):
    # More digits than int() reads: one usage line and one error line, without
    # the value or the reader's name.
    with pytest.raises(SystemExit) as exc:
        main(["slk", "x", "--strands", "9" * 5000])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.encode()) < 300
    assert err.splitlines()[-1] == (
        "hatlab slk: error: argument --strands: integer of 5000 characters is too long to read")


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("007", 7), ("-12", -12),
    ("+3", "expected an integer, got '+3'"),
    ("-", "expected an integer, got '-'"),
    ("３", "expected an integer, got '３'"),
    ("1_0", "expected an integer, got '1_0'"),
    (" 3", "expected an integer, got ' 3'"),
    ("", "expected an integer, got ''"),
    ("9" * 5000, "integer of 5000 characters is too long to read"),
    ("-" + "9" * 5000, "integer of 5001 characters is too long to read"),
])
def test_one_integer_grammar(text, value):
    # Script lines and integer options read integers with the same function.
    if isinstance(value, int):
        assert hatlab.read_int(text) == value
        return
    with pytest.raises(HatlabError) as exc:
        hatlab.read_int(text)
    assert str(exc.value) == value
    if text.split() == [text]:  # a script token has no spaces
        with pytest.raises(ScriptError) as exc:
            parse_script(f"strands: 3\nstart: xy\ncyc {text}\n")
        assert str(exc.value) == f"line 3: {value}"


def test_cover_error_exits_2_with_one_line(capsys, tmp_path, monkeypatch):
    # 12n_242 has recorded books; a slice genus of 12 asks for b2 = 24 > 22.
    record = {"name": "12n_242", "strands": 2, "braid": "x^25", "slice_genus": 12,
              "determinant_one": True, "script": None, "target": None, "note": ""}
    path = tmp_path / "knots.json"
    path.write_text(json.dumps({"knots": [record]}))
    monkeypatch.setenv("HATLAB_DB", str(path))
    rc = main(["covers", "--knot", "12n_242", "--r", "2"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "hatlab: error: filling rank exceeds the K3 lattice\n"


def test_every_input_error_is_a_hatlab_error():
    for cls in (BraidError, ScriptError, DatabaseError, bounds_mod.BoundsError,
                SearchError, CoverError):
        assert issubclass(cls, HatlabError), cls
    assert issubclass(HatlabError, ValueError)


def test_other_value_errors_are_not_input_errors(monkeypatch):
    def broken(slk, slice_genus):
        raise ValueError("a bug, not an input error")

    monkeypatch.setattr(bounds_mod, "bounds_report", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["bounds", "--slk", "9"])


_LOADED = "import sys; from hatlab.cli import main; rc = main(sys.argv[1:]); " \
          "print(' '.join(sorted(m for m in sys.modules if m.startswith('hatlab.')))); " \
          "sys.exit(rc)"


@pytest.mark.parametrize("argv, modules", [
    (["eq", "xyx", "yxy", "--strands", "3"], {"braid"}),
    (["search", "--p", "3", "--blowups", "1", "--amin", "0", "--amax", "20"],
     {"curves", "bounds"}),
    (["bounds", "--slk", "9"], {"bounds"}),
    (["covers", "--knot", "12n_242", "--r", "2"], {"braid", "db", "covers", "bounds"}),
    (["verify-corpus"], {"braid", "cobordism", "corpus", "db"}),
])
def test_each_command_imports_only_its_modules(argv, modules):
    env = {k: v for k, v in os.environ.items() if k != "HATLAB_DB"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hatlab.__file__))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert loaded == {"hatlab.cli"} | {f"hatlab.{m}" for m in modules}


def test_a_tsv_search_loads_json_only_if_a_bare_interpreter_does():
    # search reads bounds, whose only JSON reader imports json when it runs
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hatlab.__file__))}
    probe = "print('json' in sys.modules)"
    loaded = []
    for code in (f"import sys; {probe}",
                 f"import sys; from hatlab.cli import main; main(sys.argv[1:]); {probe}"):
        proc = subprocess.run([sys.executable, "-c", code, "search", "--p", "3", "--blowups",
                               "1", "--amin", "0", "--amax", "20"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        loaded.append(proc.stdout.splitlines()[-1] == "True")
    bare, search = loaded
    assert bare or not search


@pytest.mark.parametrize("argv", [
    ["verify-corpus"],
    ["reproduce", "cover-books"],
    ["t2-table", "--kmax", "3"],
])
def test_commands_read_package_data_as_utf8(argv):
    # A text read in the locale's encoding raises EncodingWarning, an error here.
    env = {k: v for k, v in os.environ.items() if k not in ("HATLAB_DB", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(hatlab.__file__))
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-m", "hatlab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


# One valid record of the database; the cases below spoil copies of it.
_RECORD = {"name": "m(8_20)", "strands": 3, "braid": "x^3yX^3y", "slice_genus": 0,
           "determinant_one": False, "script": None, "target": None, "note": ""}


def _database(*records):
    return json.dumps({"knots": list(records)}, indent=2, ensure_ascii=False)


_LATIN1 = _database({**_RECORD, "note": "café"}).encode("latin-1")


@pytest.mark.parametrize("text, message", [
    ('{"knots": [\n  {"name": "a",}\n]}\n', "invalid JSON at line 2, column 16"),
    (_database(_RECORD, {k: v for k, v in _RECORD.items() if k != "strands"}),
     "knots[1] (m(8_20)): field 'strands' is missing"),
    (_database({**_RECORD, "strands": "3"}),
     "knots[0] (m(8_20)): field 'strands' is a string, expected an integer"),
    (_database(_RECORD, _RECORD, {**_RECORD, "determinant_one": 0}),
     "knots[2] (m(8_20)): field 'determinant_one' is an integer, expected a boolean"),
    (_LATIN1, f"not UTF-8 at byte {_LATIN1.index(b'caf') + 3}: invalid continuation byte"),
    (_database(_RECORD, {**{k: v for k, v in _RECORD.items() if k != "slice_genus"},
                         "slcie_genus": 0}),
     "knots[1] (m(8_20)): unknown field 'slcie_genus'"),
    (_database({**_RECORD, "target": {"label": "T(2,3)", "degree": 3, "genus": 1}}),
     "knots[0] (m(8_20)): field 'target': unknown field 'genus'"),
    (_database({**_RECORD, "name": "a"}, _RECORD, {**_RECORD, "name": "b"}, _RECORD),
     "knots[3] (m(8_20)): name already used by knots[1]"),
    # A script names a file under data/scripts/ and nothing outside it.
    (_database({**_RECORD, "script": "../../../../../../../../usr/bin/env"}),
     "knots[0] (m(8_20)): field 'script' is '../../../../../../../../usr/bin/env', "
     "expected a bare file name"),
    (_database(_RECORD, {**_RECORD, "name": "b", "script": "../knots.json"}),
     "knots[1] (b): field 'script' is '../knots.json', expected a bare file name"),
    (_database(_RECORD, 3), "knots[1]: expected an object, got an integer"),
    (_database({**_RECORD, "braid": "xq"}),
     "knots[0] (m(8_20)): field 'braid': unknown letter 'q' at column 1 in 'xq'"),
    (json.dumps({"records": [_RECORD]}), "expected an object with a 'knots' array"),
    (_database({**_RECORD, "name": "bogus", "strands": 2, "braid": "X", "slice_genus": -1,
                "determinant_one": True}),
     "knots[0] (bogus): slice genus -1 is negative"),
    (json.dumps([_RECORD]), "expected an object with a 'knots' array"),
    pytest.param(_database(_RECORD).replace('"strands": 3', '"strands": ' + "9" * 5000),
                 "invalid number: ", id="integer-too-long-to-read"),
    pytest.param('{"knots": ' + "[" * 100_000, "JSON nested too deeply to read",
                 id="nested-too-deep"),
    (_database({**_RECORD, "strands": 1001}),
     "knots[0] (m(8_20)): field 'braid': strand count must be <= 1000, got 1001"),
])
def test_malformed_database_fails_loudly(capsys, tmp_path, monkeypatch, text, message):
    path = tmp_path / "knots.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    monkeypatch.setenv("HATLAB_DB", str(path))
    with pytest.raises(DatabaseError) as exc:
        load_db()
    assert str(exc.value).startswith(f"{path}: {message}")
    rc = main(["covers", "--knot", "m(8_20)", "--r", "2"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith(f"hatlab: error: {path}: {message}") and err.count("\n") == 1


def test_database_record_with_a_negative_slice_genus(capsys, tmp_path, monkeypatch):
    # slk -3 = 2*(-1) - 1 would pass the adjunction check; the negative genus fails first.
    path = tmp_path / "knots.json"
    path.write_text(_database({**_RECORD, "name": "bogus", "strands": 2, "braid": "X",
                               "slice_genus": -1, "determinant_one": True}))
    monkeypatch.setenv("HATLAB_DB", str(path))
    rc = main(["covers", "--knot", "bogus", "--r", "2"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (
        2, "", f"hatlab: error: {path}: knots[0] (bogus): slice genus -1 is negative\n")


def test_database_record_whose_braid_closes_to_a_link(capsys, tmp_path, monkeypatch):
    # A failed invariant names the file, the record's index and its name.
    path = tmp_path / "knots.json"
    path.write_text(_database({**_RECORD, "braid": "x^3yX^3"}))
    monkeypatch.setenv("HATLAB_DB", str(path))
    message = f"{path}: knots[0] (m(8_20)): braid closure is not a knot"
    with pytest.raises(DatabaseError) as exc:
        load_db()
    assert str(exc.value) == message
    rc = main(["covers", "--knot", "m(8_20)", "--r", "2"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", f"hatlab: error: {message}\n")
