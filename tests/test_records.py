"""Value classes: every one is a slotted, frozen ``hatlab.Record``."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import hatlab
from hatlab import Record
from hatlab.bounds import HatBoundReport
from hatlab.braid import BraidWord, NormalForm
from hatlab.cobordism import CobordismLedger, MoveScript
from hatlab.corpus import CorpusReport, ScriptResult
from hatlab.covers import DoubleCoverBooks
from hatlab.curves import Annotated, GromovDetail, SearchReport
from hatlab.db import KnotRecord


def _detail():
    return GromovDetail(True, False, True, True, False)


def _solution():
    return Annotated(5, (2, 1), _detail(), True)


def _replay():
    return ScriptResult("m9_46", "", BraidWord(3, (1, 1, -2)), None)


# Each class with a function that builds fresh field values, in field order.
_CASES = [
    (BraidWord, lambda: [3, (1, -2)]),
    (NormalForm, lambda: [3, -1, ((0, 2, 1), (1, 2, 0))]),
    (MoveScript, lambda: [BraidWord(3, (1,)), (("cyc", 1), ("stab", -1))]),
    (CobordismLedger, lambda: [0, 2, 0, 1, 3, [1, 2, 1]]),
    (ScriptResult, lambda: ["m9_46", "", BraidWord(3, (1, 1, -2)), None]),
    (CorpusReport, lambda: [(_replay(), _replay())]),
    (KnotRecord, lambda: ["8_21", BraidWord(3, (1, 1, 1)), 1, False, "8_21.txt",
                          ("T(2,5)", 3), "a note"]),
    (HatBoundReport, lambda: [9, 5, 4, 2, {4: 2, 5: 5}]),
    (DoubleCoverBooks, lambda: [4, 18, -12, "undetermined"]),
    (GromovDetail, lambda: [True, False, True, True, False]),
    (Annotated, lambda: [5, (2, 1), _detail(), True]),
    (SearchReport, lambda: [3, 1, 0, 0, 20, (_solution(),), 7]),
]


def _bypass(cls, values):
    """An instance with the given fields, built without running ``__init__``."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


@pytest.mark.parametrize("cls, make", _CASES, ids=[c.__name__ for c, _ in _CASES])
def test_record_behaviour(cls, make):
    names = cls.__slots__
    values = make()
    assert issubclass(cls, Record) and len(names) == len(values)
    a, b = cls(*values), cls(**dict(zip(names, make())))
    assert [getattr(a, n) for n in names] == values
    assert a == b and not a != b
    if not any(isinstance(v, (dict, list)) for v in values):
        assert hash(a) == hash(b) == hash(tuple(values))
    # every field takes part in equality, the last one too
    for i in range(len(names)):
        changed = values[:i] + [object()] + values[i + 1:]
        assert a != _bypass(cls, changed)
    # a record of another class is never equal, whatever its fields
    other = type("Other", (Record,), {"__slots__": names})(*values)
    assert a != other and other != a
    assert a.__eq__(other) is NotImplemented
    assert a != tuple(values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, n) for n in names] == values
    assert not hasattr(a, "__dict__")
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], values[1:])))  # the first field is missing
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})  # the first field twice


def test_record_reprs_print_every_field():
    assert repr(BraidWord(3, (1, -2))) == "BraidWord(strands=3, letters=(1, -2))"
    assert repr(NormalForm(3, -1, ((0, 2, 1), (1, 2, 0)))) == \
        "NormalForm(strands=3, power=-1, factors=((0, 2, 1), (1, 2, 0)))"
    assert repr(KnotRecord("8_21", BraidWord(3, (1, 1, 1)), 1, False)) == (
        "KnotRecord(name='8_21', braid=BraidWord(strands=3, letters=(1, 1, 1)), "
        "slice_genus=1, determinant_one=False, script_ref=None, target=None, note='')")


def test_no_module_imports_dataclasses():
    # dataclasses costs each command its import and a generated __init__ per class
    code = ("import sys, hatlab.cli, hatlab.bounds, hatlab.braid, hatlab.cobordism, "
            "hatlab.corpus, hatlab.covers, hatlab.curves, hatlab.db; "
            "print('dataclasses' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hatlab.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")
