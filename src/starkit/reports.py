"""Pass/fail bookkeeping shared by the verification routines.

A Report is an ordered list of named boolean checks.  Verifiers append one
entry per identity they test, with a short detail string (usually the
residual that should have been zero) when a check fails.
"""

from __future__ import annotations

from .errors import Record


class CheckEntry(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


class Report:
    """A title and its entries; reports compare by value and, being
    mutable, do not hash (defining __eq__ alone leaves __hash__ None)."""

    def __init__(self, title: str = "", entries: list | None = None):
        self.title = title
        self.entries = [] if entries is None else entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.title, self.entries) == (other.title, other.entries)

    def __repr__(self):
        return f"Report(title={self.title!r}, entries={self.entries!r})"

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append(CheckEntry(name, bool(passed), detail))

    def add_equal(self, name: str, left, right) -> None:
        """A check that left equals right; on failure the detail is the
        difference left - right, which should have been zero."""
        ok = left == right
        self.add(name, ok, "" if ok else f"difference {left - right}")

    def extend(self, other: "Report", prefix: str = "") -> None:
        for entry in other.entries:
            name = f"{prefix}{entry.name}" if prefix else entry.name
            self.entries.append(CheckEntry(name, entry.passed, entry.detail))

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> list:
        return [entry for entry in self.entries if not entry.passed]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {"name": e.name, "passed": e.passed, "detail": e.detail}
                for e in self.entries
            ],
        }

    def summary_lines(self) -> list:
        lines = []
        for e in self.entries:
            mark = "ok" if e.passed else "FAIL"
            line = f"[{mark}] {e.name}"
            if e.detail and not e.passed:
                line += f": {e.detail}"
            lines.append(line)
        return lines
