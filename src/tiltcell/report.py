"""Structured pass/fail reports shared by the verification operations.

A report never raises on a mathematical failure: each checked item records
both sides of its equality so the CLI can render exactly what disagreed.
A sweep that reports only its failures adds those as items and counts the
items that passed without listing them.
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

    def __init__(self, check: str, context: dict, items: list[ReportItem] | None = None) -> None:
        self.check = check
        self.context = context
        self.items = [] if items is None else items
        self.unlisted = 0

    @property
    def all_pass(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def failures(self) -> list[ReportItem]:
        return [item for item in self.items if not item.passed]

    def add(self, input: Any, lhs: Any, rhs: Any, passed: bool | None = None) -> None:
        if passed is None:
            passed = lhs == rhs
        self.items.append(ReportItem(input, lhs, rhs, passed))

    def extend(self, other: "Report") -> None:
        """Append the items of other and add its unlisted count.  No sweep
        calls it any more; perfbench/child.py wraps it by name."""
        self.items.extend(other.items)
        self.unlisted += other.unlisted

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "context": self.context,
            "pass": self.all_pass,
            "items": [item.to_dict() for item in self.items],
        }
