"""The built-in corpus: database invariants and script replay."""

import importlib.resources as resources
import json
import os

import pytest

import hatlab
from hatlab.braid import braid_text, closure_components, equal, parse_braid
from hatlab.cli import main
from hatlab.corpus import load_script, replay_record, verify_corpus
from hatlab.db import (
    DatabaseError,
    KnotRecord,
    check_record,
    get_knot,
    load_db,
)


def test_database_loads_and_has_enough_records():
    records = load_db()
    assert len(records) >= 21
    names = {r.name for r in records}
    assert {"12n_242", "m(8_20)", "m(9_46)", "10_124", "10_140", "8_21"} <= names


def test_every_record_satisfies_quasipositive_adjunction():
    for rec in load_db():
        assert closure_components(rec.braid) == 1, rec.name
        assert rec.slk == 2 * rec.slice_genus - 1, rec.name


def test_specific_records():
    m820 = get_knot("m(8_20)")
    assert m820.slice_genus == 0
    assert m820.slk == -1
    t35 = get_knot("10_124")
    assert t35.slice_genus == 4
    assert t35.determinant_one
    assert equal(t35.braid, parse_braid("xyxyxyxyxy", 3))
    assert get_knot("m(12n_121)").slice_genus == 1
    assert get_knot("12n_242").determinant_one


def test_determinant_one_list():
    det1 = {r.name for r in load_db() if r.determinant_one}
    assert det1 == {"12n_242", "10_124", "m(12n_121)", "12n_292", "m(12n_318)", "12n_473"}


def test_bad_record_aborts_with_name():
    rec = KnotRecord("bogus", parse_braid("x^3", 2), 0, False, None, None, "")
    with pytest.raises(DatabaseError) as exc:
        check_record(rec, "knots[0] (bogus)")
    assert str(exc.value) == "knots[0] (bogus): slk 1 != 2*0 - 1 (quasipositive adjunction violated)"


def _raw_knots() -> list[dict]:
    text = resources.files("hatlab").joinpath("data", "knots.json").read_text(encoding="utf-8")
    return json.loads(text)["knots"]


def test_database_records_match_their_json():
    raw = _raw_knots()
    records = load_db()
    assert len(records) == len(raw)
    for rec, obj in zip(records, raw):
        target = None if rec.target is None else {"label": rec.target[0],
                                                  "degree": rec.target[1]}
        assert obj == {
            "name": rec.name,
            "strands": rec.braid.strands,
            "braid": braid_text(rec.braid),
            "slice_genus": rec.slice_genus,
            "determinant_one": rec.determinant_one,
            "script": rec.script_ref,
            "target": target,
            "note": rec.note,
        }, rec.name


def test_env_override(tmp_path, monkeypatch):
    alt = [obj for obj in _raw_knots() if obj["script"] is None]
    assert alt
    path = tmp_path / "mini.json"
    path.write_text(json.dumps({"knots": alt}), encoding="utf-8")
    monkeypatch.setenv("HATLAB_DB", str(path))
    assert [r.name for r in load_db()] == [obj["name"] for obj in alt]


def test_corpus_replays_21_of_21():
    report = verify_corpus()
    assert len(report.results) == 21
    assert report.ok
    assert report.summary() == "21/21 scripts replayed"


def test_failing_script_is_named(tmp_path):
    rec = get_knot("m(8_20)")
    broken = KnotRecord(rec.name, parse_braid("x^3yX^3y^3", 3), 1, False, rec.script_ref,
                        None, "")
    result = replay_record(broken)
    assert not result.ok
    assert "start" in result.detail or "step" in result.detail


def test_script_file_that_is_not_utf8_fails_with_its_offset(tmp_path, monkeypatch):
    # load_script reads a script's bytes with the reader run-script uses.
    rec = get_knot("m(8_20)")
    scripts = tmp_path / "data" / "scripts"
    scripts.mkdir(parents=True)
    (scripts / "latin1.txt").write_bytes(b"strands: 3\nstart: x\xe9\n")
    # hatlab.read_data finds data/ beside the package's __file__
    monkeypatch.setattr(hatlab, "__file__", str(tmp_path / "__init__.py"))
    result = replay_record(KnotRecord(rec.name, rec.braid, 0, False, "latin1.txt", None, ""))
    assert result.detail == "latin1.txt: not UTF-8 at byte 19: invalid continuation byte"


def test_bad_records_become_fail_rows(tmp_path, monkeypatch, capsys):
    good = next(obj for obj in _raw_knots() if obj["name"] == "m(8_20)")
    records = [
        good,
        {**good, "name": "wrong_start", "braid": "xy"},
        {**good, "name": "missing", "script": "no_such_script.txt"},
        {**good, "name": "wrong_strands", "strands": 2, "braid": "x^3", "slice_genus": 1},
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"knots": records}), encoding="utf-8")
    monkeypatch.setenv("HATLAB_DB", str(path))
    report = verify_corpus()
    status = {r.name: r.ok for r in report.results}
    assert status == {"m(8_20)": True, "wrong_start": False, "missing": False,
                      "wrong_strands": False}
    assert all(r.end is None for r in report.results if not r.ok)
    assert report.summary() == "1/4 scripts replayed"

    missing = resources.files("hatlab").joinpath("data", "scripts", "no_such_script.txt")
    assert main(["verify-corpus"]) == 1
    assert capsys.readouterr().out == (
        "name\tstatus\tbands\tgenus\tslk_start\tslk_end\tend\tdetail\n"
        "m(8_20)\tPASS\t4\t2\t-1\t3\tx^5\t\n"
        "missing\tFAIL\t0\t-\tNone\tNone\t\t"
        f"[Errno 2] No such file or directory: {str(missing)!r}\n"
        "wrong_start\tFAIL\t0\t-\tNone\tNone\t\tscript start differs from stored braid\n"
        "wrong_strands\tFAIL\t0\t-\tNone\tNone\t\t"
        "cannot compare words with different strand counts\n"
        "1/4 scripts replayed\n"
    )


EXPECTED = {
    # name: (end text, end strands, genus, slk_start, slk_end)
    "12n_242": ("xyxyxyxyxyxyxyxyxyxyxy", 3, 5, 9, 19),
    "m(8_20)": ("x^5", 2, 2, -1, 3),
    "m(9_46)": ("x^3", 2, 1, -1, 1),
    "10_140": ("x^7", 2, 3, -1, 5),
    "m(10_155)": ("yxyxyxyxyxyxyx", 3, 6, -1, 11),
    "m(11n_50)": ("x^7", 2, 3, -1, 5),
    "m(11n_132)": ("yxyxyxyx", 3, 3, -1, 5),
    "11n_139": ("yxyxyxyxyx", 3, 4, -1, 7),
    "m(11n_172)": ("xyxyxyxy", 3, 3, -1, 5),
    "m(12n_121)": ("yxyxyxyxyxyxyx", 3, 5, 1, 11),
    "m(12n_145)": ("xyxyxyxyxyxyxy", 3, 6, -1, 11),
    "12n_292": ("xyxyxyxyxyxyxyxyxyxyxy", 3, 6, 7, 19),
    "m(12n_318)": ("xyxyxyxyxy", 3, 4, -1, 7),
    "m(12n_393)": ("xyxyxyxyxyxyxy", 3, 6, -1, 11),
    "12n_473": ("xyxyxyxyxyxyxyxyxyxyxy", 3, 6, 7, 19),
    "12n_582": ("xyxyxyxyxyxyxyxyxyxyxy", 3, 10, -1, 19),
    "12n_708": ("xyxyxyxy", 3, 3, -1, 5),
    "m(12n_721)": ("yxyxyxyxyxyxyx", 3, 6, -1, 11),
    "m(12n_768)": ("x^3y^5", 3, 3, -1, 5),
    "12n_838": ("yxyxyxyxyx", 3, 4, -1, 7),
    "8_21": ("x^3y^3", 3, 1, 1, 3),
}


def test_per_script_ledgers_match_expected():
    report = verify_corpus()
    seen = {}
    for r in report.results:
        assert r.ok, (r.name, r.detail)
        seen[r.name] = r
    assert set(seen) == set(EXPECTED)
    for name, (end, strands, genus, s0, s1) in EXPECTED.items():
        r = seen[name]
        assert r.end == parse_braid(end, strands), name
        assert braid_text(r.end) == end, name
        assert r.ledger.genus == genus, name
        assert (r.ledger.slk_start, r.ledger.slk_end) == (s0, s1), name


def test_cobordism_genus_matches_slice_genus_gap():
    # genus of each scripted cobordism equals g(target) - g_s(knot)
    target_genus = {
        "T(2,3)": 1, "T(2,5)": 2, "T(2,7)": 3, "T(3,4)": 3, "T(3,5)": 4,
        "T(3,7)": 6, "T(3,11)": 10,
        "T(2,3)#T(2,5)": 3, "T(2,3)#T(2,3)": 2,
    }
    report = {r.name: r for r in verify_corpus().results}
    for rec in load_db():
        if rec.script_ref is None:
            continue
        res = report[rec.name]
        assert res.ledger.genus == target_genus[rec.target[0]] - rec.slice_genus, rec.name


def test_script_start_matches_database_braid():
    for rec in load_db():
        if rec.script_ref is None:
            continue
        script = load_script(rec.script_ref)
        assert script.start == rec.braid, rec.name


def test_end_slk_matches_target_closure():
    # the final closure's slk equals the value the target braid forces
    # (19 for the 22-crossing full-twist word, etc.)
    report = {r.name: r for r in verify_corpus().results}
    assert report["12n_242"].ledger.slk_end == 19
    assert report["m(9_46)"].ledger.slk_end == 1  # T(2,3) at maximal self-linking


def test_10_140_uses_three_crossing_changes():
    from hatlab.cobordism import run_script

    script = load_script("10_140.txt")
    _, ledger = run_script(script)
    assert ledger.crossing_changes == 3
    assert ledger.genus == 3


def test_m9_46_uses_one_crossing_change():
    from hatlab.cobordism import run_script

    script = load_script("m9_46.txt")
    _, ledger = run_script(script)
    assert ledger.crossing_changes == 1
    assert ledger.bands == 2
