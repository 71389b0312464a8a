"""What a report lists is decided by its type: a `Report` lists every item,
a `FailureReport` only the failing ones, counting the rest in `unlisted`."""

from __future__ import annotations

import ast
import pathlib

import pytest

from tiltcell import deltafilt
from tiltcell.report import FailureReport, Report, ReportItem
from tiltcell.weights import Context


def test_failure_report_counts_a_pass_and_lists_a_failure():
    rep = FailureReport("demo", {"p": 3})
    rep.add({"k": 0}, 1, 1)
    rep.add({"k": 1}, 1, 2)
    rep.add({"k": 2}, 5, "odd", passed=True)
    assert rep.items == [ReportItem({"k": 1}, 1, 2, False)]
    assert rep.unlisted == 2
    assert rep.to_dict() == {
        "check": "demo",
        "context": {"p": 3},
        "pass": False,
        "items": [{"input": {"k": 1}, "lhs": 1, "rhs": 2, "pass": False}],
    }


def test_report_lists_every_item():
    rep = Report("demo", {"p": 3})
    rep.add({"k": 0}, 1, 1)
    rep.add({"k": 1}, 1, 2)
    assert rep.items == [ReportItem({"k": 0}, 1, 1, True), ReportItem({"k": 1}, 1, 2, False)]
    assert rep.unlisted == 0
    assert list(rep.to_dict()) == ["check", "context", "pass", "items"]
    assert [item["pass"] for item in rep.to_dict()["items"]] == [True, False]


def test_extend_adds_as_the_receiver_lists():
    full = Report("demo", {})
    for k in range(4):
        full.add({"k": k}, k, k if k % 2 else 0)
    full.unlisted = 3
    failures = FailureReport("demo", {})
    failures.extend(full)
    failed = [it for it in full.items if not it.passed]
    assert failures.items == failed
    assert failures.unlisted == 3 + len(full.items) - len(failed)
    copy = Report("demo", {})
    copy.extend(full)
    assert copy.items == full.items and copy.unlisted == 3


CTX = Context(3, 2)
LO, HI = -20, 19
# each sweep, the check its report names, and its calls over the window
SWEEPS = [
    ("reciprocity", deltafilt.verify_reciprocity, [(lam,) for lam in range(LO, HI + 1)]),
    ("bounds", deltafilt.verify_bounds, [(lam,) for lam in range(LO, HI + 1)]),
    ("strong-linkage", deltafilt.verify_strong_linkage, [(lam,) for lam in range(LO, HI + 1)]),
    ("steinberg-equivalence", deltafilt.verify_steinberg_equivalence, [(m,) for m in range(-7, 8)]),
    ("mult-free", deltafilt.verify_mult_free, [(LO, HI)]),
    ("linkage-necessity", deltafilt.verify_linkage_necessity, [(LO, HI)]),
]


@pytest.mark.parametrize("check,sweep,calls", SWEEPS, ids=[s[0] for s in SWEEPS])
def test_a_report_target_lists_what_no_target_lists(check, sweep, calls):
    # a plain Report given as target lists every item, as a new one does,
    # and a FailureReport counts each of them (every item passes here)
    listed = [item for args in calls for item in sweep(*args, CTX).items]
    target = Report(check, CTX._asdict())
    failures = FailureReport(check, CTX._asdict())
    for args in calls:
        assert sweep(*args, CTX, target) is target
        assert sweep(*args, CTX, failures) is failures
    assert target.items == listed and target.unlisted == 0
    assert all(item.passed for item in listed)
    assert failures.items == [] and failures.unlisted == len(listed)


def test_only_verify_builds_a_failure_report():
    # the sweeps read a report's type; which report lists only failures is
    # decided in one place, the suite runner of `verify`
    src = pathlib.Path(deltafilt.__file__).parent
    builders = {
        (path.name, func.name)
        for path in sorted(src.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FailureReport"
    }
    assert builders == {("cli.py", "_run_suite")}
