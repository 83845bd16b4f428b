"""Replay and report on the built-in rewriting scripts.

Every database record with a script reference replays from its stored
braid to the declared torus (or connected-sum) target.  The verifier is
deterministic: scripts may be replayed in any order and the report rows
are always sorted by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .braid import BraidError, braid_text, equal
from .cobordism import MoveScript, ScriptError, parse_script, run_script
from .db import KnotRecord, load_db


@dataclass(frozen=True)
class ScriptResult:
    name: str
    ok: bool
    detail: str
    bands: int = 0
    genus: Optional[int] = None
    slk_start: Optional[int] = None
    slk_end: Optional[int] = None
    end: str = ""
    end_strands: int = 0


@dataclass(frozen=True)
class CorpusReport:
    results: tuple[ScriptResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> str:
        passed = sum(r.ok for r in self.results)
        return f"{passed}/{len(self.results)} scripts replayed"

    def rows(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            genus = "-" if r.genus is None else str(r.genus)
            out.append(
                f"{r.name}\t{status}\t{r.bands}\t{genus}\t"
                f"{r.slk_start}\t{r.slk_end}\t{r.end}\t{r.detail}"
            )
        return out


def load_script(ref: str) -> MoveScript:
    path = resources.files("hatlab").joinpath("data", "scripts", ref)
    return parse_script(path.read_text(encoding="utf-8"))


def replay_record(rec: KnotRecord) -> ScriptResult:
    if rec.script_ref is None:
        return ScriptResult(rec.name, True, "no script (already at target)")
    try:
        script = load_script(rec.script_ref)
        if not equal(script.start, rec.braid):
            return ScriptResult(rec.name, False, "script start differs from stored braid")
        end, ledger = run_script(script)
    except (ScriptError, BraidError, OSError) as e:
        return ScriptResult(rec.name, False, str(e))
    return ScriptResult(
        name=rec.name,
        ok=True,
        detail="",
        bands=ledger.bands,
        genus=ledger.genus,
        slk_start=ledger.slk_start,
        slk_end=ledger.slk_end,
        end=braid_text(end),
        end_strands=end.strands,
    )


def verify_corpus(records: Optional[list[KnotRecord]] = None) -> CorpusReport:
    """Replay every scripted record and report per-script ledgers."""
    records = records if records is not None else load_db()
    results = [replay_record(rec) for rec in records if rec.script_ref is not None]
    results.sort(key=lambda r: r.name)
    return CorpusReport(tuple(results))
