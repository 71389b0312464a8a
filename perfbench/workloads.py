"""Seeded operation lists for the three workloads, and the check of each
operation's answer.

A workload is a fixed list of slots; the seed draws what varies inside a
slot (scalars, weight windows, path elements) and the order of the list.
Every slot appears once per round on every seed, so a round costs about the
same whatever the seed, while the program still sees different inputs.

Each operation is a dict:

    id      workload prefix and position in the round, e.g. "la03"
    kind    "cli" (argv for `tiltcell`) or "rewrite" (spec for child.py)
    argv / spec
    expect  {"exit": 0 or 1, "check": "quiver" | "verify" | "generators"
            | "rewrite", ...}; the expectation is fixed here, at generation
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

DEFAULT_SEED = 20191202

# ---------------------------------------------------------------------------
# ladder-quotient: quiver-check through the linear engine
# ---------------------------------------------------------------------------


def p2_scalar_names(p: int) -> tuple[list[str], list[str], list[str]]:
    """The ladder's square scalars m<x>, n<x> (x mod 2p, x not 0 or -1 mod
    p) and its chain-top scalars theta0, theta<p>, as the README names them."""
    res = [x for x in range(2 * p) if x % p not in (0, p - 1)]
    return [f"m{x}" for x in res], [f"n{x}" for x in res], ["theta0", f"theta{p}"]


def _nonzero_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def balanced_scalars(p: int, rng: random.Random) -> dict[str, Fraction]:
    """A point of the balanced locus: one magnitude for every m/n scalar,
    one sign for the m family and one for the n family, free nonzero
    thetas.  Per-scalar signs or magnitudes leave the locus."""
    ms, ns, thetas = p2_scalar_names(p)
    mag = abs(_nonzero_fraction(rng))
    sm, sn = rng.choice((-1, 1)), rng.choice((-1, 1))
    out = {m: sm * mag for m in ms}
    out.update({n: sn * mag for n in ns})
    out.update({t: _nonzero_fraction(rng) for t in thetas})
    return out


def _scalar_arg(scalars: dict[str, Fraction]) -> list[str]:
    return ["--scalars", ",".join(f"{k}={v}" for k, v in sorted(scalars.items()))]


def p2_core_size(p: int, window: int) -> int:
    """Core columns of the ladder: |j| <= 2p*window."""
    return 4 * p * window + 1


def _quiver_check(p: int, window: int, scalars: dict | None, direction=None, extra=()):
    argv = ["quiver-check", "--preset", "p2", "--p", str(p), "--window", str(window)]
    argv += _scalar_arg(scalars) if scalars else []
    argv += list(extra)
    return {
        "kind": "cli",
        "argv": argv,
        "expect": {
            "check": "quiver",
            "exit": 1 if direction else 0,
            "items": p2_core_size(p, window) ** 2,
            "direction": direction,
        },
    }


def ladder_quotient(rng: random.Random) -> list[dict]:
    # eight cheap p=3 checks and three sl3 checks of similar cost: the median
    # latency falls inside the first group and the tail percentile inside
    # the second, not on the edge between two groups
    ops = [
        _quiver_check(3, 1, None),
        _quiver_check(3, 1, balanced_scalars(3, rng)),
        _quiver_check(3, 1, balanced_scalars(3, rng)),
        _quiver_check(3, 2, None),
        _quiver_check(3, 2, balanced_scalars(3, rng)),
        _quiver_check(3, 2, balanced_scalars(3, rng)),
        _quiver_check(5, 1, balanced_scalars(5, rng)),
        _quiver_check(7, 1, balanced_scalars(7, rng)),
    ]
    sl3_scalars = [(1, 1)] + [(_nonzero_fraction(rng), _nonzero_fraction(rng)) for _ in range(2)]
    for a, b in sl3_scalars:
        ops.append(
            {
                "kind": "cli",
                "argv": ["quiver-check", "--preset", "sl3", "--scalars", f"a={a},b={b},r=0"],
                "expect": {"check": "quiver", "exit": 0, "items": 36, "direction": None},
            }
        )
    # negative controls: without the chain-top relation the quotient is too
    # big; one unbalanced square scalar collapses it
    ops.append(_quiver_check(3, 1, balanced_scalars(3, rng), "excess", ["--no-boundary-loops"]))
    unbalanced = balanced_scalars(3, rng)
    victim = rng.choice(p2_scalar_names(3)[0])
    unbalanced[victim] *= rng.choice((2, 3, Fraction(1, 2), -2))
    ops.append(_quiver_check(3, 1, unbalanced, "collapse"))
    return ops


# ---------------------------------------------------------------------------
# weight-sweeps: verify suites and generator families, never the quiver
# ---------------------------------------------------------------------------


def _window(rng: random.Random, q: int, periods: int) -> list[str]:
    """A window of `periods` full periods 2q of the factor tables, at a
    seeded offset: every residue mod 2q is swept the same number of times,
    so the cost hardly depends on the offset."""
    lo = rng.randint(-4 * q, 2 * q)
    return ["--lo", str(lo), "--hi", str(lo + 2 * q * periods - 1)]


def _verify(suite: str, p: int, r: int, window: list[str]) -> dict:
    return {
        "kind": "cli",
        "argv": ["verify", "--suite", suite, "--p", str(p), "--r", str(r), *window],
        "expect": {"check": "verify", "exit": 0},
    }


def weight_sweeps(rng: random.Random) -> list[dict]:
    # the reciprocity sweep at (3, 5) is split into two half-period ops so
    # that the costliest ops form a group of four of similar cost, and the
    # tail percentile falls inside it
    q = 3**5
    lo = rng.randint(-4 * q, 2 * q)
    ops = [
        _verify("reciprocity", 3, 5, ["--lo", str(lo), "--hi", str(lo + q - 1)]),
        _verify("reciprocity", 3, 5, ["--lo", str(lo + q), "--hi", str(lo + 2 * q - 1)]),
    ]
    # three reciprocity sweeps at (7, 2) of equal cost sit in the middle of
    # the cost order, where the median latency falls
    for suite, p, r, periods in (
        ("reciprocity", 3, 4, 2),
        ("reciprocity", 5, 3, 1),
        ("reciprocity", 5, 2, 2),
        ("reciprocity", 7, 2, 2),
        ("reciprocity", 7, 2, 2),
        ("reciprocity", 7, 2, 2),
        ("bounds", 3, 5, 2),
        ("bounds", 5, 3, 2),
        ("linkage", 3, 4, 2),
        ("linkage", 5, 3, 1),
        ("linkage", 7, 2, 2),
        ("multfree", 3, 5, 2),
        ("multfree", 5, 2, 2),
    ):
        ops.append(_verify(suite, p, r, _window(rng, p**r, periods)))
    # the steinberg sweep spans max(|lo|, |hi|), so its window stays centred
    for p, r in ((3, 5), (5, 3), (7, 2)):
        h = p**r + rng.randrange(p)
        ops.append(_verify("steinberg", p, r, ["--lo", str(-h), "--hi", str(h)]))
    for argv in (["3", "--r", "5"], ["5", "--r", "3"], ["7", "--r", "2", "--principal-block"]):
        ops.append(
            {
                "kind": "cli",
                "argv": ["generators", "--p", *argv],
                "expect": {"check": "generators", "exit": 0},
            }
        )
    return ops


# ---------------------------------------------------------------------------
# rewrite-cells: the rewriting engine and cell filtration, via child.py
# ---------------------------------------------------------------------------

REWRITE_SLOTS = (
    ("p2", 7, 1, 5),
    ("p2", 11, 1, 5),
    ("p2", 13, 1, 5),
    ("p2", 7, 2, 5),
    ("p2", 7, 3, 5),
    ("p2", 11, 2, 5),
    ("p2", 13, 2, 5),
    ("p1", 3, 12, 4),
    ("sl3", None, None, 7),
    ("sl3", None, None, 8),
    ("sl3", None, None, 9),
)
ELEMENTS_PER_OP = 400


def _random_element(q, outs: dict, rng: random.Random, max_len: int) -> dict:
    """A rational combination of up to three parallel random walks inside
    the core, of one length between 1 and 2 * max_len."""
    core = sorted(q.core, key=str)
    length = rng.randint(1, 2 * max_len)
    while True:
        src = rng.choice(core)
        walks = []
        for _ in range(6):
            at, path = src, []
            for _ in range(length):
                if not outs[at]:
                    break
                arrow = rng.choice(outs[at])
                path.append(arrow.name)
                at = arrow.target
            else:
                walks.append((at, path))
        if walks:
            break
    tgt = walks[0][0]
    paths = []
    for at, path in walks:
        if at == tgt and path not in paths:
            paths.append(path)
    terms = [[path, str(_nonzero_fraction(rng))] for path in paths[:3]]
    return {"source": src, "target": tgt, "terms": terms}


def rewrite_cells(rng: random.Random) -> list[dict]:
    from tiltcell import quiver

    ops = []
    for preset, p, window, max_len in REWRITE_SLOTS:
        if preset == "p1":
            q, _ = quiver.build_p1_quiver(p, window=window)
        elif preset == "p2":
            q, _ = quiver.build_p2_quiver(p, window=window)
        else:
            q, _ = quiver.build_sl3_quiver()
        outs = {v: [a for a in q.arrows if a.source == v and a.target in q.core] for v in q.core}
        spec = {
            "preset": preset,
            "p": p,
            "window": window,
            "max_len": max_len,
            "elements": [_random_element(q, outs, rng, max_len) for _ in range(ELEMENTS_PER_OP)],
        }
        ops.append({"kind": "rewrite", "spec": spec, "expect": {"check": "rewrite", "exit": 0}})
    return ops


WORKLOADS = {
    "ladder-quotient": ladder_quotient,
    "weight-sweeps": weight_sweeps,
    "rewrite-cells": rewrite_cells,
}


def generate(name: str, seed: int) -> list[dict]:
    """The workload's round of operations for this seed, in seeded order."""
    rng = random.Random(f"{name}/{seed}")
    ops = WORKLOADS[name](rng)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"{name[:2]}{i:02d}"
        op["key"] = digest(op.get("argv") or op["spec"])
    return ops


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def semantic(op: dict, doc: dict):
    """The part of an answer that must not change: per-pair lhs/rhs for
    quiver-check, counts for verify, the list for generators, the summary
    for rewrite ops.  Extra fields (a later failure witness, say) are not
    compared."""
    check = op["expect"]["check"]
    if check == "quiver":
        return [doc["pass"], [[it["input"], it["lhs"], it["rhs"]] for it in doc["items"]]]
    if check == "verify":
        return [doc["pass"], doc["counts"]]
    if check == "generators":
        return doc.get("generators", doc.get("pairs"))
    return {
        k: doc[k]
        for k in ("irreducible_words", "filtration_pass", "filtration_items", "normal_form_digest")
    }


def check(op: dict, code: int, stdout: bytes, reference: dict | None) -> str | None:
    """None if the operation's answer is right, else the reason it is not."""
    exp = op["expect"]
    if code != exp["exit"]:
        return f"exit status {code}, expected {exp['exit']}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    kind = exp["check"]
    if kind == "quiver":
        if doc.get("pass") is not (exp["exit"] == 0):
            return f"pass is {doc.get('pass')!r}"
        if len(doc["items"]) != exp["items"]:
            return f"{len(doc['items'])} items, expected {exp['items']}"
        fails = [it for it in doc["items"] if not it["pass"]]
        if exp["direction"] == "excess" and not (fails and all(it["lhs"] > it["rhs"] for it in fails)):
            return "control did not fail by excess"
        if exp["direction"] == "collapse" and not (fails and all(it["lhs"] < it["rhs"] for it in fails)):
            return "control did not fail by collapse"
    elif kind == "verify":
        if doc.get("pass") is not True:
            return "verify did not pass"
        if not doc.get("counts") or any(c["items"] == 0 for c in doc["counts"]):
            return "verify counts are empty"
    elif kind == "generators":
        if not semantic(op, doc):
            return "empty generator list"
    else:
        if doc["filtration_pass"] is not True or doc["filtration_items"] == 0:
            return "cell filtration check failed"
        if doc["nonterminating"]:
            return f"{doc['nonterminating']} elements raised NonTerminating"
        if doc["not_idempotent"]:
            return f"normal_form not idempotent on {doc['not_idempotent']} elements"
    if reference is not None:
        want = reference.get(op["key"])
        if want is None:
            return "no reference answer recorded for this operation"
        if digest(semantic(op, doc)) != want:
            return "answer differs from the recorded reference"
    return None
