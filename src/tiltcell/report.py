"""Structured pass/fail reports shared by the verification operations.

A report never raises on a mathematical failure: each checked item records
both sides of its equality so the CLI can render exactly what disagreed.

What a report lists is decided by its type, once: a `Report` lists every
item added to it, and a `FailureReport` lists only the failing ones and
counts each passing one in `unlisted`.  A sweep that knows a whole run of
candidates passes may skip them, and count them, only where its report's
`lists_passes` is false.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class ReportItem(NamedTuple):
    """One checked equality; a tuple, so a sweep of many items stays cheap."""

    input: Any
    lhs: Any
    rhs: Any
    passed: bool

    def to_dict(self) -> dict:
        return {"input": self.input, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


class Report:
    """The items of one named check, in the order they were checked, and the
    count of passing items checked but not listed."""

    __slots__ = ("check", "context", "items", "unlisted")
    lists_passes = True

    def __init__(self, check: str, context: dict) -> None:
        self.check = check
        self.context = context
        self.items: list[ReportItem] = []
        self.unlisted = 0

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, input: Any, lhs: Any, rhs: Any, passed: bool | None = None) -> None:
        if passed is None:
            passed = lhs == rhs
        if passed and not self.lists_passes:
            self.unlisted += 1
        else:
            self.items.append(ReportItem(input, lhs, rhs, passed))

    def extend(self, other: "Report") -> None:
        """Add the items of other, as `add` adds them, and its unlisted
        count."""
        for item in other.items:
            self.add(*item)
        self.unlisted += other.unlisted

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "context": self.context,
            "pass": self.all_pass,
            "items": [item.to_dict() for item in self.items],
        }


class FailureReport(Report):
    """A report that lists only its failing items; `verify` prints one per
    check, with the count of every item checked."""

    __slots__ = ()
    lists_passes = False
