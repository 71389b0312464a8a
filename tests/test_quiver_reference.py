"""`quotient_dims` against a plain reference that does all the work: every
alive pair is eliminated with every relation row, every top-length core
path is reduced, and `boundary_nonzero` is read off the dimensions.  The
engine decides boundary pairs by a length certificate, stops eliminating at
full rank and reads saturation from pivot counts; none of that may change
an answer."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tiltcell.quiver import (
    Arrow,
    NotSaturated,
    PathElement,
    Quiver,
    RelationSet,
    _alive_paths,
    _contains_subword,
    _pair_key,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
    p2_scalar_names,
    quotient_dims,
)
from tiltcell.ratlinalg import SparseEchelon


def reference_quotient_dims(quiver, rels, max_len):
    """(dims of every alive pair, boundary_nonzero, unsaturated, witness)."""
    zeros = rels.zero_redexes()
    zlens = sorted({len(z) for z in zeros})
    alive = _alive_paths(quiver, max_len, zeros)
    into: dict = {}  # vertex -> alive pairs ending there
    out_of: dict = {}  # vertex -> alive pairs starting there
    for s, t in alive:
        into.setdefault(t, []).append((s, t))
        out_of.setdefault(s, []).append((s, t))
    rows: dict = {}
    for rel in rels.relations:
        if len(rel.terms) == 1:
            continue
        span = max(len(term) for term in rel.terms)
        for s, _ in into.get(rel.source, ()):
            for _, t in out_of.get(rel.target, ()):
                for x in alive[(s, rel.source)]:  # alive lists are in length order
                    if len(x) + span > max_len:
                        break
                    for y in alive[(rel.target, t)]:
                        if len(x) + span + len(y) > max_len:
                            break
                        row = {
                            x + term + y: c
                            for term, c in rel.terms.items()
                            if not _contains_subword(x + term + y, zeros, zlens)
                        }
                        if row:
                            rows.setdefault((s, t), []).append(row)

    dims, unsaturated, witness = {}, [], []
    core = quiver.core
    for pair in sorted(alive, key=_pair_key):
        plist = alive[pair]
        ech = SparseEchelon(
            {path: i for i, path in enumerate(sorted(plist, key=lambda q: (-len(q), q)))}
        )
        for row in rows.get(pair, ()):
            ech.add(row)
        dims[pair] = len(plist) - ech.rank
        if pair[0] in core and pair[1] in core:
            for path in plist:
                if len(path) != max_len:
                    continue
                top = [k for k in ech.reduce({path: 1}) if len(k) == max_len]
                if top:
                    if not unsaturated:
                        witness = sorted(map(quiver.format_path, top))
                    unsaturated.append(pair)
                    break
    boundary_nonzero = [
        pair for pair, d in dims.items() if d and not (pair[0] in core and pair[1] in core)
    ]
    return dims, boundary_nonzero, unsaturated, witness


def _p5_balanced():
    scalars = {k: Fraction(2, 3) * (1 if k[0] == "m" else -1) for k in p2_scalar_names(5)[:-2]}
    scalars["theta0"] = Fraction(-5, 7)
    return scalars


def _toy():
    """A loop c at 0 with c*c = 0 and an arrow a: 0 -> 1 with a = a*c*c.  The
    long term dies, so the boundary pair (0, 1) is zero although its shortest
    path is as long as the shortest live relation term."""
    quiver = Quiver(
        "p1", [0, 1], [Arrow("c", 0, 0, "u", "c"), Arrow("a", 0, 1, "u", "a")],
        {0: 0, 1: 1}, frozenset({0}), None,
    )
    c, a = 0, 1
    relations = [
        PathElement(0, 0, {(c, c): Fraction(1)}),
        PathElement(0, 1, {(a,): Fraction(1), (c, c, a): Fraction(-1)}),
    ]
    return quiver, RelationSet(relations, {}, {}, {})


CASES = {
    "toy": (_toy, 4),
    "p1": (lambda: build_p1_quiver(3), 4),
    "p2-p3-unit": (lambda: build_p2_quiver(3), 5),
    "p2-p3-balanced": (
        lambda: build_p2_quiver(
            3, scalars={"m1": -2, "m4": -2, "n1": 2, "n4": 2, "theta0": Fraction(1, 2), "theta3": 3}
        ),
        5,
    ),
    "p2-p3-unbalanced": (lambda: build_p2_quiver(3, scalars={"m1": 2}), 5),
    "p2-p3-no-boundary-loops": (lambda: build_p2_quiver(3, boundary_loops=False), 5),
    "p2-p5-balanced-fractional": (lambda: build_p2_quiver(5, scalars=_p5_balanced()), 5),
    "p2-p3-len4": (lambda: build_p2_quiver(3), 4),
    "p2-p3-len6": (lambda: build_p2_quiver(3), 6),
    "sl3": (lambda: build_sl3_quiver(1, 1, 0), 7),
    "sl3-fractional": (lambda: build_sl3_quiver(Fraction(2, 3), 3, 0), 7),
    "sl3-r1-unsaturated": (lambda: build_sl3_quiver(1, 1, 1), 7),
}
UNSATURATED = {"p2-p3-len4", "sl3-r1-unsaturated"}


@pytest.mark.parametrize("case", list(CASES))
def test_quotient_dims_matches_reference(case):
    build, max_len = CASES[case]
    quiver, rels = build()
    dims, boundary_nonzero, unsaturated, witness = reference_quotient_dims(quiver, rels, max_len)
    core = quiver.core
    boundary = [pair for pair in dims if not (pair[0] in core and pair[1] in core)]
    # the cases cover both saturation verdicts, and on the ladders boundary
    # pairs that only elimination shows to be zero
    assert bool(unsaturated) == (case in UNSATURATED)
    if case.startswith("p2"):
        assert any(dims[pair] == 0 for pair in boundary)

    res = quotient_dims(quiver, rels, max_len, require_saturation=False)
    assert res.dims == {pair: d for pair, d in dims.items() if pair not in boundary}
    assert res.boundary_nonzero == boundary_nonzero
    assert res.unsaturated == unsaturated
    if unsaturated:
        with pytest.raises(NotSaturated) as exc:
            quotient_dims(quiver, rels, max_len)
        assert str(exc.value) == (
            f"{len(unsaturated)} core pair(s) have irreducible length-{max_len} paths; "
            f"first: {unsaturated[0]}, residue words: {', '.join(witness)}"
        )
