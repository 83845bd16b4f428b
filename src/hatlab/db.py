"""The built-in knot corpus: quasipositive braid words with their invariants.

Knot names follow the usual tables but are opaque labels here; braid words
are the ground truth for every computation (naming conventions elsewhere may
agree only up to mirroring).  Each record is invariant-checked on load: the
closure must be a knot, ``slice_genus >= 0``, and the self-linking number of
the braid must equal 2 * slice_genus - 1, which is the adjunction identity
for quasipositive braid closures.

The database lives in ``data/knots.json``, one JSON object per record,
and :func:`load_db` is its only reader; hatlab never writes it.  Setting
``HATLAB_DB`` to an external UTF-8 file with the same layout is the only way
to read another database; a record field outside that layout is an error, not
ignored, and so is a repeated knot name or a ``script`` that is not a bare
file name under ``data/scripts/``.
"""

from __future__ import annotations

import json
import os

from . import HatlabError, Record, decode, read_data
from .braid import BraidError, closure_components, parse_braid, self_linking


class DatabaseError(HatlabError):
    pass


class KnotRecord(Record):
    # script_ref is a bare file name under data/scripts/; target is a (label, hat degree) pair
    __slots__ = ("name", "braid", "slice_genus", "determinant_one", "script_ref", "target", "note")

    @property
    def slk(self) -> int:
        return self_linking(self.braid)


_NULL = type(None)
_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               dict: "an object", list: "an array", _NULL: "null"}
# The JSON types each record field may take; a field that may be null may be left out.
_FIELDS = {"name": (str,), "strands": (int,), "braid": (str,), "slice_genus": (int,),
           "determinant_one": (bool,), "script": (str, _NULL), "target": (dict, _NULL),
           "note": (str, _NULL)}


def _check_fields(obj, spec: dict, where: str) -> None:
    if type(obj) is not dict:
        raise DatabaseError(f"{where}: expected an object, got {_JSON_TYPES[type(obj)]}")
    for key in obj:
        if key not in spec:
            raise DatabaseError(f"{where}: unknown field {key!r}")
    for key, kinds in spec.items():
        got = type(obj.get(key))  # exact types: JSON true is not an integer
        if got not in kinds:
            expected = " or ".join(map(_JSON_TYPES.get, kinds))
            problem = f"is {_JSON_TYPES[got]}, expected {expected}" if key in obj else "is missing"
            raise DatabaseError(f"{where}: field {key!r} {problem}")


def _record_from_json(obj, where: str) -> KnotRecord:
    if type(obj) is dict and type(obj.get("name")) is str:
        where += f" ({obj['name']})"
    _check_fields(obj, _FIELDS, where)
    script = obj.get("script")
    if script is not None and (script in ("", ".", "..") or "/" in script or "\\" in script):
        raise DatabaseError(f"{where}: field 'script' is {script!r}, expected a bare file name")
    target = obj.get("target")
    if target is not None:
        _check_fields(target, {"label": (str,), "degree": (int,)}, f"{where}: field 'target'")
        target = (target["label"], target["degree"])
    try:
        braid = parse_braid(obj["braid"], obj["strands"])
    except BraidError as e:
        raise DatabaseError(f"{where}: field 'braid': {e}") from e
    return KnotRecord(obj["name"], braid, obj["slice_genus"], obj["determinant_one"],
                      script, target, obj.get("note") or "")


def check_record(rec: KnotRecord, where: str) -> None:
    """Check a record's invariants; a failure raises DatabaseError naming ``where``."""
    if closure_components(rec.braid) != 1:
        raise DatabaseError(f"{where}: braid closure is not a knot")
    if rec.slice_genus < 0:
        raise DatabaseError(f"{where}: slice genus {rec.slice_genus} is negative")
    if rec.slk != 2 * rec.slice_genus - 1:
        raise DatabaseError(
            f"{where}: slk {rec.slk} != 2*{rec.slice_genus} - 1 "
            "(quasipositive adjunction violated)"
        )


def load_db() -> list[KnotRecord]:
    """Load and invariant-check the knot database.

    Reads the file ``HATLAB_DB`` names if it is set, the embedded database
    otherwise, as UTF-8.  Bytes that are not UTF-8 abort the load with their
    offset, bad JSON with its line and column, an integer too long for
    ``int()`` or JSON nested deeper than Python's recursion limit with the
    file's name, a missing, mistyped or unknown field with the record's
    index, name and field, a failed invariant with the record's index and
    name, a repeated name with both records' indices.
    """
    path = os.environ.get("HATLAB_DB")
    if path is not None:
        with open(path, "rb") as fh:
            data = fh.read()
    else:
        data = read_data("knots.json")
    source = path or "knots.json"
    text = decode(data, source, DatabaseError)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatabaseError(f"{source}: invalid JSON at line {e.lineno}, "
                            f"column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer longer than int() reads
        raise DatabaseError(f"{source}: invalid number: {e}") from e
    except RecursionError:  # json.loads recurses once per nesting level
        raise DatabaseError(f"{source}: JSON nested too deeply to read") from None
    if type(payload) is not dict or type(payload.get("knots")) is not list:
        raise DatabaseError(f"{source}: expected an object with a 'knots' array")
    records = [_record_from_json(obj, f"{source}: knots[{i}]")
               for i, obj in enumerate(payload["knots"])]
    first: dict[str, int] = {}  # name -> index of the record that has it
    for i, rec in enumerate(records):
        where = f"{source}: knots[{i}] ({rec.name})"
        check_record(rec, where)
        if first.setdefault(rec.name, i) != i:
            raise DatabaseError(f"{where}: name already used by knots[{first[rec.name]}]")
    return records


def get_knot(name: str) -> KnotRecord:
    for rec in load_db():
        if rec.name == name:
            return rec
    raise DatabaseError(f"no knot named {name!r} in the database")
