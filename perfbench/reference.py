"""Reference outputs and the exact comparison every run makes against them.

``references.json`` holds, for every campaign in
:func:`perfbench.workloads.all_campaigns`, the oracle digest, the
classification counts, ``total_cycles`` and ``emulation_ms`` that the
independent ``bigint`` grading engine produced (``record_references.py``
regenerates the file). Its ``paper`` section holds the same values for the
paper's b14 campaign under each emulation technique.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional

REFERENCE_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "references.json"
)

#: the fields of a campaign result that must match the reference exactly
CHECKED_FIELDS = ("oracle_digest", "classification", "total_cycles", "emulation_ms")


def load_references(path: str = REFERENCE_FILE) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def trailing_json(text: str) -> Dict:
    """The last JSON object in ``text``.

    ``repro run --json`` prints human-readable lines before its JSON
    document; only the trailing document is parsed, so moving the human
    lines to stderr later does not break the check. The document is
    pretty-printed, so it starts at the last line that begins with ``{``.
    """
    start = text.rfind("\n{")
    start = 0 if start < 0 else start + 1
    payload = json.loads(text[start:])
    if not isinstance(payload, dict):
        raise ValueError("trailing JSON document is not an object")
    return payload


def outcome(payload: Dict) -> Dict:
    """The checked fields of one campaign result.

    Accepts ``repro run --json`` output and ``GET /campaigns/<id>/results``
    bodies (which name the classification ``classes``).
    """
    classification = payload.get("classification", payload.get("classes"))
    return {
        "oracle_digest": payload.get("oracle_digest"),
        "classification": dict(classification or {}),
        "total_cycles": payload.get("total_cycles"),
        "emulation_ms": payload.get("emulation_ms"),
    }


def mismatch(expected: Optional[Dict], observed: Dict) -> Optional[str]:
    """``None`` when ``observed`` equals ``expected`` on every checked field,
    else a one-line description of the first difference."""
    if expected is None:
        return "no reference output recorded for this campaign"
    for field in CHECKED_FIELDS:
        if observed.get(field) != expected.get(field):
            return (
                f"{field}: expected {expected.get(field)!r}, "
                f"got {observed.get(field)!r}"
            )
    return None


class Checker:
    """Counts operations and the ones that failed; thread-safe.

    An operation fails when it raises, when the program answers with an
    error, or when its output differs from the reference.
    """

    #: failure descriptions kept for the run's info line
    MAX_PROBLEMS = 10

    def __init__(self, references: Dict):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._lock = threading.Lock()

    def _record(self, problem: Optional[str]) -> bool:
        with self._lock:
            self.attempted += 1
            if problem is None:
                return True
            self.failed += 1
            if len(self.problems) < self.MAX_PROBLEMS:
                self.problems.append(problem)
            return False

    def check(self, key: str, payload: Dict, expected: Optional[Dict] = None) -> bool:
        """One campaign output against its reference (``campaigns[key]``
        unless ``expected`` is given)."""
        if expected is None:
            expected = self.references["campaigns"].get(key)
        problem = mismatch(expected, outcome(payload))
        return self._record(None if problem is None else f"{key}: {problem}")

    def ok(self, what: str, passed: bool, detail: str = "") -> bool:
        """An operation whose correctness the caller decided."""
        return self._record(None if passed else f"{what}: {detail or 'failed'}")

    def error(self, what: str, error: BaseException) -> None:
        self._record(f"{what}: {type(error).__name__}: {error}")
