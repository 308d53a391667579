"""Journaled checkpoint/resume for experiment campaigns.

A paper campaign (``repro all``, or one full-scale figure) is a long
sequence of independent *units* — one (experiment, trial/die, policy)
measurement each. A crash mid-campaign used to throw all completed
units away. This module gives every campaign an append-only JSONL
*run journal* (``results/<run>/journal.jsonl``) recording each
completed unit under a content key, so an interrupted run resumes
from the last completed unit instead of starting over.

Crash-safety model:

* the journal is a :class:`repro.storage.AppendLog`: each unit is one
  checksummed line, written and fsynced before ``record`` returns, so
  a unit is either fully journaled or not journaled at all;
* replay stops at the first torn, malformed or checksum-failing line
  (a crash mid-append, or a bit-flipped result) and the next append
  truncates it away — a corrupt result is recomputed, never replayed;
* unit keys are content hashes over everything that determines the
  unit's result (experiment, trial, policy, seeds, tech/arch, the
  protocol parameters), so a journal can never resurrect a stale
  result after a parameter change — the key simply won't match;
* results are stored as JSON floats (``repr`` round-trips IEEE-754
  doubles exactly), so a resumed figure is bitwise-identical to an
  uninterrupted one;
* a figure is only emitted from a journal that passes
  :meth:`RunJournal.require_complete` — a partial journal raises
  :class:`IncompleteJournalError` instead of producing partial tables.

Resume is opt-in: the CLI's ``--resume``/``--fresh`` flags or
``REPRO_RESUME=1`` (see :mod:`repro.settings`). Without it the
runners never touch the journal and behave exactly as before.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil
import time
from typing import Any, Dict, Iterable, List, Optional, Union

from ..settings import settings
from ..storage import AppendLog

#: Bump whenever the journal line format or unit-key recipe changes;
#: part of every unit key, so old journals simply stop matching.
JOURNAL_TAG = "journal-v2"

JOURNAL_FILENAME = "journal.jsonl"


class IncompleteJournalError(RuntimeError):
    """A figure was about to be emitted from a partial journal."""


def unit_key(**fields: Any) -> str:
    """Content hash identifying one campaign unit's result.

    Callers pass everything the unit's result depends on (experiment
    tag, trial index, policy/algorithm name, seeds, ``repr`` of tech
    and arch, protocol parameters). The journal tag is mixed in so a
    format change invalidates every old key at once.
    """
    parts = [f"tag={JOURNAL_TAG}"]
    parts += [f"{name}={fields[name]!r}" for name in sorted(fields)]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


class RunJournal:
    """Append-only JSONL record of completed campaign units.

    One journal per campaign run, at ``<root>/<run>/journal.jsonl``.
    Open it with :meth:`open` (replays existing entries), look up
    units with :meth:`lookup`, and append completed units with
    :meth:`record`. A torn or corrupt line, and everything after it,
    is ignored on replay and truncated away by the next append.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self._log = AppendLog(self.path)
        self._entries: Dict[str, Any] = {}
        for entry in self._log.replay():
            try:
                # Other kinds (the ``complete`` scope markers older
                # journals carry) are skipped.
                if entry.get("kind", "unit") == "unit":
                    self._entries[entry["key"]] = entry["result"]
            except (AttributeError, KeyError, TypeError):
                break  # malformed: stop trusting anything after it

    @classmethod
    def open(cls, root: Union[str, pathlib.Path],
             run_name: str) -> "RunJournal":
        """The journal for campaign ``run_name`` under ``root``."""
        if not run_name or "/" in run_name or run_name in (".", ".."):
            raise ValueError(f"bad run name {run_name!r}")
        return cls(pathlib.Path(root) / run_name / JOURNAL_FILENAME)

    # -- queries -----------------------------------------------------

    def lookup(self, key: str) -> Optional[Any]:
        """The journaled result for ``key``, or None."""
        return self._entries.get(key)

    def completed(self) -> List[str]:
        """Keys of every journaled unit (replay + this process)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def require_complete(self, keys: Iterable[str],
                         scope: str = "") -> None:
        """Refuse to emit a figure unless every unit is journaled."""
        missing = [k for k in keys if k not in self._entries]
        if missing:
            raise IncompleteJournalError(
                f"journal {self.path} is missing {len(missing)} of the "
                f"units required"
                + (f" by {scope!r}" if scope else "")
                + " — refusing to emit a figure from a partial journal")

    # -- appends -----------------------------------------------------

    def record(self, key: str, unit: Dict[str, Any],
               result: Any) -> None:
        """Journal one completed unit (atomic, durable, idempotent).

        ``result`` must be JSON-representable; floats round-trip
        bitwise. Re-recording an already-journaled key is a no-op.
        """
        if key in self._entries:
            return
        self._log.append({
            "kind": "unit",
            "key": key,
            "unit": unit,
            "result": result,
            "t_unix_s": time.time(),
        })
        self._entries[key] = result


def merge_journals(dest: RunJournal,
                   sources: Iterable[Union[str, pathlib.Path,
                                           RunJournal]]) -> int:
    """Merge unit entries from several journals into ``dest``.

    The multi-host primitive: each host of a fleet manifest journals
    its own die slice; merging replays every source's units into the
    destination journal (append-only, durable), after which the
    merged journal resumes/validates exactly like a single-host run
    over the full range would. Content keys make this safe — a unit's
    key pins everything its result depends on, so the same key
    appearing in two sources must carry the same result, and a
    *conflicting* duplicate means two hosts disagreed about identical
    work (clock-skewed code versions, corrupt transfer) and the merge
    refuses rather than silently picking a winner.

    Only units are merged: a source covers only its own slice, so
    completeness of the merged campaign must be established against
    the full unit-key set (``RunJournal.require_complete``) by the
    caller.

    Returns the number of newly merged units.
    """
    merged = 0
    for src in sources:
        journal = (src if isinstance(src, RunJournal)
                   else RunJournal(src))
        for key in journal.completed():
            result = journal.lookup(key)
            existing = dest.lookup(key)
            if existing is not None:
                if existing != result:
                    raise ValueError(
                        f"journal merge conflict on unit {key[:16]}…: "
                        f"{journal.path} disagrees with already-merged "
                        "results for the same content key")
                continue
            dest.record(key, {"merged_from": str(journal.path)}, result)
            merged += 1
    return merged


def active_journal(run_name: str) -> Optional[RunJournal]:
    """The campaign journal for ``run_name``, or None when resume is
    off — callers skip all journaling in that case."""
    current = settings()
    if not current.resume:
        return None
    return RunJournal.open(current.journal_root, run_name)


def discard_journal(run_name: str) -> None:
    """Delete a campaign's journal directory (the ``--fresh`` flag)."""
    if not run_name or "/" in run_name or run_name in (".", ".."):
        raise ValueError(f"bad run name {run_name!r}")
    shutil.rmtree(settings().journal_root / run_name, ignore_errors=True)
