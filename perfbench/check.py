"""Output check on the report.json a run writes."""
from __future__ import annotations

import hashlib


class ReportCheck:
    """Accepts a report when its sha256 is the expected one and it re-parses.

    ``expected`` is the digest recorded for the workload and seed; without
    one, the first report checked sets it, so that every later run of the
    same code must write the same bytes.
    """

    def __init__(self, expected: str | None = None):
        self.expected = expected
        self._parsed: set[str] = set()

    def __call__(self, path: str) -> bool:
        from smoothbench.errors import SmoothbenchError
        from smoothbench.reportio import read_reports

        try:
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            return False
        if self.expected is None:
            self.expected = digest
        if digest != self.expected:
            return False
        if digest not in self._parsed:
            try:
                if not read_reports(path):
                    return False
            except (SmoothbenchError, ValueError, KeyError, TypeError):
                return False
            self._parsed.add(digest)
        return True
