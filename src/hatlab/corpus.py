"""Replay and report on the built-in rewriting scripts.

Every database record with a script reference replays from its stored
braid to the declared torus (or connected-sum) target.  The verifier is
deterministic: scripts may be replayed in any order and the results are
always sorted by name.  A result carries the replay's end word and ledger,
or, when the replay failed, why.
"""

from __future__ import annotations

from . import Record, read_data
from .braid import BraidError, equal
from .cobordism import MoveScript, ScriptError, read_script, run_script
from .db import KnotRecord, load_db


class ScriptResult(Record):
    """One replay: its end word and ledger, or in ``detail`` why it failed."""

    __slots__ = ("name", "detail", "end", "ledger")

    @property
    def ok(self) -> bool:
        return self.ledger is not None


class CorpusReport(Record):
    __slots__ = ("results",)  # tuple[ScriptResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        passed = sum(r.ok for r in self.results)
        return f"{passed}/{len(self.results)} scripts replayed"


def load_script(ref: str) -> MoveScript:
    """Parse ``data/scripts/<ref>``; ``load_db`` has checked that ref is a bare file name."""
    return read_script(read_data("scripts", ref), ref)


def replay_record(rec: KnotRecord) -> ScriptResult:
    """Replay a scripted record's script from the record's braid."""
    try:
        script = load_script(rec.script_ref)
        if not equal(script.start, rec.braid):
            return ScriptResult(rec.name, "script start differs from stored braid", None, None)
        end, ledger = run_script(script)
    except (ScriptError, BraidError, OSError) as e:
        return ScriptResult(rec.name, str(e), None, None)
    return ScriptResult(rec.name, "", end, ledger)


def verify_corpus() -> CorpusReport:
    """Replay every scripted record and report per-script ledgers."""
    results = [replay_record(rec) for rec in load_db() if rec.script_ref is not None]
    results.sort(key=lambda r: r.name)
    return CorpusReport(tuple(results))
