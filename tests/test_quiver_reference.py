"""`quotient_dims` against a plain reference that does all the work: every
alive pair is eliminated with every relation row, and every top-length core
path is reduced.  The engine decides core pairs only (a boundary pair, with
a vertex outside the core, is listed and never eliminated), stops
eliminating at full rank, reads saturation from pivot counts and eliminates
one core pair per class of certified symmetries; none of that may change an
answer, also where a relation set breaks a symmetry the engine would
otherwise use."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest

from tiltcell import linear
from tiltcell.linear import (
    NotSaturated,
    _Fold,
    _echelon,
    _linear_setup,
    _pair_map,
    _relation_rows,
    quotient_dims,
)
from tiltcell.quiver import (
    PRESETS,
    Arrow,
    PathElement,
    Quiver,
    RelationSet,
    _alive_paths,
    _pair_key,
    _rule_to_relation,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
    p2_scalar_names,
    right_neighbor,
)
from tiltcell.ratlinalg import SparseEchelon


def contains_subword(path, words, lengths):
    """Plain full scan over every position, kept apart from the engine's
    windowed scanner; `lengths` are the word lengths, ascending."""
    for i in range(len(path)):
        for L in lengths:
            if i + L > len(path):
                break
            if path[i : i + L] in words:
                return True
    return False


def reference_quotient_dims(quiver, rels, max_len):
    """(dims of every alive pair, unsaturated, witness)."""
    zeros = rels.zero_redexes
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
                            if not contains_subword(x + term + y, zeros, zlens)
                        }
                        if row:
                            rows.setdefault((s, t), []).append(row)

    dims, unsaturated, witness = {}, [], []
    core = quiver.core
    for pair in sorted(alive, key=_pair_key):
        plist = alive[pair]
        # columns in priority order: longer paths first
        order = sorted(plist, key=lambda q: (-len(q), q))
        col = {path: i for i, path in enumerate(order)}
        ech = SparseEchelon()
        for row in rows.get(pair, ()):
            # the echelon takes integer rows: clear the row's denominators
            scale = lcm(*(c.denominator for c in row.values()))
            ech.add({col[path]: int(c * scale) for path, c in row.items()})
        dims[pair] = len(plist) - ech.rank
        if pair[0] in core and pair[1] in core:
            for path in plist:
                if len(path) != max_len:
                    continue
                residue = ech.reduce({col[path]: 1})
                top = [order[k] for k in residue if len(order[k]) == max_len]
                if top:
                    if not unsaturated:
                        witness = sorted(map(quiver.format_path, top))
                    unsaturated.append(pair)
                    break
    return dims, unsaturated, witness


def _p5_balanced():
    scalars = {k: Fraction(2, 3) * (1 if k[0] == "m" else -1) for k in p2_scalar_names(5)[:-2]}
    scalars["theta0"] = Fraction(-5, 7)
    return scalars


def _balanced(p):
    """A point of the balanced locus: one magnitude for every square scalar,
    one sign per family, free loop scalars."""
    scalars = {k: 2 if k[0] == "n" else -2 for k in p2_scalar_names(p)[:-2]}
    scalars.update({"theta0": Fraction(1, 2), f"theta{p}": 3})
    return scalars


def _toy():
    """A loop c at 0 with c*c = 0 and an arrow a: 0 -> 1 with a = a*c*c.  The
    long term dies, so the boundary pair (0, 1) is zero; it is listed all
    the same, as every boundary pair with an alive path is."""
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


def _toy_duals(duals):
    """Arrows a: 0 -> 1 and b: 1 -> 0 and a loop c at 0, naming the duals
    `duals` in that order, with c*c = 0, b*a = 2c and a*c*b = 0.  The
    relations are closed under duality when the duals are ("b", "a", "c")."""
    names = ("a", "b", "c")
    ends = ((0, 1), (1, 0), (0, 0))
    arrows = [Arrow(n, s, t, "u", d) for n, (s, t), d in zip(names, ends, duals)]
    quiver = Quiver("p1", [0, 1], arrows, {0: 0, 1: 1}, frozenset({0, 1}), None)
    a, b, c = 0, 1, 2
    relations = [
        PathElement(0, 0, {(c, c): Fraction(1)}),
        PathElement(0, 0, {(a, b): Fraction(1), (c,): Fraction(-2)}),
        PathElement(1, 1, {(b, c, a): Fraction(1)}),
    ]
    return quiver, RelationSet(relations, {}, {}, {})


def _rescaled(quiver, rels, redexes, factor):
    """`rels` with the replacement of each rule in `redexes` (lists of arrow
    names) multiplied by `factor`."""
    keys = {tuple(map(quiver.arrow_id, names)) for names in redexes}
    rules = {
        redex: tuple((path, c * factor) for path, c in repl) if redex in keys else repl
        for redex, repl in rels.rules.items()
    }
    relations = [_rule_to_relation(quiver, redex, repl) for redex, repl in rules.items()]
    return quiver, RelationSet(relations, rules, rels.derived_rules, rels.scalars)


def _square_at_one_column(x=1, p=3):
    """The ladder with both commuting squares of scalar m at column x, and at
    no other column of its residue, scaled by 2: duality still holds, while
    translation fails there."""
    quiver, rels = build_p2_quiver(p)
    rn1 = right_neighbor(x, p) - 1
    return _rescaled(quiver, rels, [[f"u'{x}", f"d{rn1}"], [f"u{rn1}", f"d'{x}"]], 2)


def _one_sided_square(x=1, p=3):
    """The ladder with one commuting square at column x scaled by 2 and not
    its dual: neither duality nor translation there holds."""
    quiver, rels = build_p2_quiver(p)
    return _rescaled(quiver, rels, [[f"u'{x}", f"d{right_neighbor(x, p) - 1}"]], 2)


def _sl3_unmirrored():
    """sl3 with the loop u6*d6 = 2a d2*u2 against u3*d3 = a d1*u1."""
    quiver, rels = build_sl3_quiver(1, 1, 0)
    return _rescaled(quiver, rels, [["u6", "d6"]], 2)


CASES = {
    "toy": (_toy, 4),
    "toy-dangling-dual": (lambda: _toy_duals(("b", "z", "c")), 4),
    "toy-shared-dual": (lambda: _toy_duals(("b", "b", "c")), 4),
    "p1": (lambda: build_p1_quiver(3), 4),
    "p1-p5-w3": (lambda: build_p1_quiver(5, window=3), 4),
    "p2-p3-unit": (lambda: build_p2_quiver(3), 5),
    "p2-p3-balanced": (
        lambda: build_p2_quiver(
            3, scalars={"m1": -2, "m4": -2, "n1": 2, "n4": 2, "theta0": Fraction(1, 2), "theta3": 3}
        ),
        5,
    ),
    "p2-p3-unbalanced": (lambda: build_p2_quiver(3, scalars={"m1": 2}), 5),
    "p2-p3-no-boundary-loops": (lambda: build_p2_quiver(3, boundary_loops=False), 5),
    "p2-p3-len4": (lambda: build_p2_quiver(3), 4),
    "p2-p3-len6": (lambda: build_p2_quiver(3), 6),
    "p2-p3-w2": (lambda: build_p2_quiver(3, window=2), 5),
    "p2-p3-w2-balanced-len6": (lambda: build_p2_quiver(3, window=2, scalars=_balanced(3)), 6),
    "p2-p3-w2-unbalanced": (lambda: build_p2_quiver(3, window=2, scalars={"n4": 3}), 5),
    "p2-p3-w2-no-boundary-loops": (lambda: build_p2_quiver(3, window=2, boundary_loops=False), 5),
    "p2-p5-unit": (lambda: build_p2_quiver(5), 5),
    "p2-p5-balanced-fractional": (lambda: build_p2_quiver(5, scalars=_p5_balanced()), 5),
    "p2-p5-unbalanced-len4": (lambda: build_p2_quiver(5, scalars={"m8": -1}), 4),
    "p2-p5-w2": (lambda: build_p2_quiver(5, window=2), 5),
    "p2-p7-unit": (lambda: build_p2_quiver(7), 5),
    "p2-p7-balanced-len4": (lambda: build_p2_quiver(7, scalars=_balanced(7)), 4),
    "p2-p7-no-boundary-loops": (lambda: build_p2_quiver(7, boundary_loops=False), 5),
    "p2-p3-square-at-one-column": (_square_at_one_column, 5),
    "p2-p3-one-sided-square": (_one_sided_square, 5),
    "sl3": (lambda: build_sl3_quiver(1, 1, 0), 7),
    "sl3-fractional": (lambda: build_sl3_quiver(Fraction(2, 3), 3, 0), 7),
    "sl3-r1-unsaturated": (lambda: build_sl3_quiver(1, 1, 1), 7),
    "sl3-free-r-len8": (lambda: build_sl3_quiver(Fraction(-1, 2), 2, 3), 8),
    "sl3-unmirrored": (_sl3_unmirrored, 7),
}
UNSATURATED = {
    "p2-p3-len4",
    "p2-p5-unbalanced-len4",
    "p2-p7-balanced-len4",
    "sl3-r1-unsaturated",
    "sl3-free-r-len8",
}


@pytest.mark.parametrize("case", list(CASES))
def test_quotient_dims_matches_reference(case):
    build, max_len = CASES[case]
    quiver, rels = build()
    dims, unsaturated, witness = reference_quotient_dims(quiver, rels, max_len)
    core = quiver.core
    boundary = sorted(
        (pair for pair in dims if not (pair[0] in core and pair[1] in core)), key=_pair_key
    )
    # the cases cover both saturation verdicts, and on the ladders boundary
    # pairs whose quotient is zero, which are listed all the same
    assert bool(unsaturated) == (case in UNSATURATED)
    if case.startswith("p2"):
        assert any(dims[pair] == 0 for pair in boundary)

    res = quotient_dims(quiver, rels, max_len, require_saturation=False)
    assert res.dims == {pair: d for pair, d in dims.items() if pair not in boundary}
    assert res.boundary == boundary
    assert res.unsaturated == unsaturated
    if unsaturated:
        with pytest.raises(NotSaturated) as exc:
            quotient_dims(quiver, rels, max_len)
        assert str(exc.value) == (
            f"{len(unsaturated)} core pair(s) have irreducible length-{max_len} paths; "
            f"first: {unsaturated[0]}, residue words: {', '.join(witness)}"
        )


def plain_relation_rows(rels, max_len, alive):
    """Pair -> its rows, each a list of (path, integer coefficient), in the
    order the engine yields them: per vertex u reached from s (in the order
    of `alive`), per relation of two or more terms from u (in relation
    order), per prefix x and then suffix y (each in length order), the
    composite x*rel*y if it fits.  A term is kept unless its full composite
    contains a monomial redex; coefficients are scaled by the denominators
    of all the relation's terms."""
    zeros = rels.zero_redexes
    zlens = sorted({len(z) for z in zeros})
    reach: dict = {}
    for s, u in alive:
        reach.setdefault(s, []).append(u)
    starting: dict = {}
    for rel in rels.relations:
        if len(rel.terms) > 1:
            starting.setdefault(rel.source, []).append(rel)
    rows: dict = {}
    for s in reach:
        for u in reach[s]:
            for rel in starting.get(u, ()):
                span = max(len(term) for term in rel.terms)
                scale = lcm(*(c.denominator for c in rel.terms.values()))
                terms = [(term, int(c * scale)) for term, c in rel.terms.items()]
                for x in alive[(s, u)]:
                    room = max_len - span - len(x)
                    if room < 0:
                        break
                    for t in reach.get(rel.target, ()):
                        for y in alive[(rel.target, t)]:
                            if len(y) > room:
                                break
                            row = [
                                (x + term + y, c)
                                for term, c in terms
                                if not contains_subword(x + term + y, zeros, zlens)
                            ]
                            if row:
                                rows.setdefault((s, t), []).append(row)
    return rows


@pytest.mark.parametrize("case", list(CASES))
def test_relation_rows_match_plain_generator(case):
    """On every alive pair, the engine's rows are the plain generator's,
    row by row and term by term."""
    build, max_len = CASES[case]
    quiver, rels = build()
    setup = _linear_setup(quiver, rels, max_len)
    want = plain_relation_rows(rels, max_len, setup.alive)
    for pair, plist in setup.alive.items():
        order = sorted(plist, key=lambda q: (-len(q), q))
        col = {path: c for c, path in enumerate(order)}
        got = [[(order[c], k) for c, k in row.items()] for row in _relation_rows(setup, pair, col)]
        assert got == want.get(pair, []), pair


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_p1_quiver(3),
        lambda: build_p2_quiver(3),
        lambda: build_p2_quiver(7),
        lambda: build_sl3_quiver(1, 1, 0),
        lambda: build_sl3_quiver(Fraction(2, 3), 3, 0),
    ],
    ids=["p1-p3", "p2-p3", "p2-p7", "sl3", "sl3-fractional"],
)
def test_relation_rows_meet_the_echelon_precondition(build):
    """Every row the engine hands to `ContractedEchelon` is non-empty, with
    nonzero `int` entries: the echelon does not check its rows, and a zero
    entry or an empty row would change its answers or raise."""
    quiver, rels = build()
    setup = _linear_setup(quiver, rels, PRESETS[quiver.preset].max_len)
    rows = 0
    for pair, plist in setup.alive.items():
        col = {path: c for c, path in enumerate(plist)}
        for row in _relation_rows(setup, pair, col):
            assert row and all(k.__class__ is int and k for k in row.values()), (pair, row)
            rows += 1
    assert rows


def test_symmetry_certificates():
    """Which symmetries each presentation certifies: duality everywhere, the
    mirror on sl3 only, translation on the ladders.  A scalar changed at one
    column keeps duality and loses translation at that column alone; one
    square changed without its dual loses duality; a loop scalar changed on
    one side of sl3 loses the mirror."""

    def fold(build, max_len):
        quiver, rels = build()
        return _Fold(quiver, rels, _linear_setup(quiver, rels, max_len))

    assert len(fold(lambda: build_p2_quiver(3), 5).maps) == 1
    assert len(fold(lambda: build_p1_quiver(3), 4).maps) == 1
    assert len(fold(lambda: build_sl3_quiver(1, 1, 1), 7).maps) == 2
    assert len(fold(_sl3_unmirrored, 7).maps) == 1
    assert not fold(_one_sided_square, 5).maps
    assert not fold(lambda: build_sl3_quiver(1, 1, 0), 7).step

    # the scaled squares start at columns 1 and 4; their index differs from
    # that of the columns one period below and above
    plain, broken = fold(lambda: build_p2_quiver(3), 5), fold(_square_at_one_column, 5)
    assert len(broken.maps) == 1
    lost = {v for v in plain.same if plain.same[v] and not broken.same[v]}
    assert lost == {1, 4, 7, 10}
    assert all(broken.same[v] for v in plain.same if plain.same[v] and v not in lost)


@pytest.mark.parametrize(
    "build,max_len,eliminated",
    [
        (lambda: build_p2_quiver(3), 5, 46),
        (lambda: build_p2_quiver(7), 5, 186),
        (lambda: build_sl3_quiver(1, 1, 0), 7, 13),
    ],
    ids=["p2-p3", "p2-p7", "sl3"],
)
def test_fold_eliminates_one_pair_per_class(build, max_len, eliminated):
    """The number of echelons built, against the pairs that need one (every
    core pair with an alive path): the fold must not switch off silently."""
    quiver, rels = build()
    res = quotient_dims(quiver, rels, max_len)
    assert res.eliminated == eliminated
    setup = _linear_setup(quiver, rels, max_len)
    core = quiver.core
    needed = [pair for pair in setup.alive if pair[0] in core and pair[1] in core]
    assert eliminated * 2 < len(needed)


@pytest.mark.parametrize("case", list(CASES))
def test_no_boundary_pair_is_eliminated(case, monkeypatch):
    """Every echelon the engine builds is for a core pair; the boundary
    pairs are only listed."""
    build, max_len = CASES[case]
    quiver, rels = build()
    calls = []

    def echelon(setup, pair):
        calls.append(pair)
        return _echelon(setup, pair)

    monkeypatch.setattr(linear, "_echelon", echelon)
    res = quotient_dims(quiver, rels, max_len, require_saturation=False)
    core = quiver.core
    assert calls and len(calls) == res.eliminated
    assert all(pair[0] in core and pair[1] in core for pair in calls)


@pytest.mark.parametrize(
    "case,symmetric",
    [
        ("p2-p3-square-at-one-column", "p2-p3-unit"),
        ("p2-p3-one-sided-square", "p2-p3-unit"),
        ("sl3-unmirrored", "sl3"),
    ],
)
def test_broken_symmetry_costs_eliminations(case, symmetric):
    """Where a certificate fails the engine eliminates more pairs than on the
    symmetric presentation the case was made from."""
    (build, max_len), (plain, _) = CASES[case], CASES[symmetric]
    assert quotient_dims(*build(), max_len).eliminated > quotient_dims(*plain(), max_len).eliminated


@pytest.mark.parametrize("case", ["toy-dangling-dual", "toy-shared-dual"])
def test_arrow_image_with_a_gap_or_a_repeat_is_refused(case):
    """The duality move is certified only for an arrow map that is a
    bijection: an arrow whose dual names no arrow leaves a gap, two arrows
    that name one dual a repeat.  With its true duals the toy is certified,
    so here the arrow map alone is refused, and every pair is eliminated on
    its own; `test_quotient_dims_matches_reference` pins the answers."""
    build, max_len = CASES[case]
    quiver, rels = build()
    image = [quiver.by_name.get(a.dual) for a in quiver.arrows]
    assert _pair_map(quiver, rels, image, True) is None
    assert not _Fold(quiver, rels, _linear_setup(quiver, rels, max_len)).maps
    dual = _toy_duals(("b", "a", "c"))
    assert _pair_map(*dual, [1, 0, 2], True) is not None
    assert quotient_dims(quiver, rels, max_len).eliminated > quotient_dims(*dual, max_len).eliminated


def suffix_scan_alive_paths(quiver, max_len, words):
    """The enumerator `_alive_paths` replaced, kept as its reference: every
    candidate path is tested for a word at each of its suffix lengths."""
    lengths = sorted({len(w) for w in words})

    def suffix_ok(path):
        for L in lengths:
            if L <= len(path) and path[-L:] in words:
                return False
        return True

    out: dict = {}
    for v in quiver.vertices:
        frontier = [(v, ())]
        out.setdefault((v, v), []).append(())
        for _ in range(max_len):
            nxt = []
            for at, path in frontier:
                for aid in quiver.out_ids[at]:
                    np = path + (aid,)
                    if not suffix_ok(np):
                        continue
                    tgt = quiver.arrows[aid].target
                    out.setdefault((v, tgt), []).append(np)
                    nxt.append((tgt, np))
            frontier = nxt
    return out


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_p1_quiver(3),
        lambda: build_p2_quiver(3),
        lambda: build_p2_quiver(3, window=2),
        lambda: build_p2_quiver(3, boundary_loops=False),
        lambda: build_p2_quiver(5),
        lambda: build_p2_quiver(7),
        lambda: build_sl3_quiver(Fraction(7, 6), Fraction(4, 9)),
        lambda: build_sl3_quiver(1, 1, 1),
    ],
    ids=["p1-p3", "p2-p3", "p2-p3-w2", "p2-p3-no-boundary-loops", "p2-p5", "p2-p7",
         "sl3-fractional", "sl3-r1"],
)
@pytest.mark.parametrize("redexes", ["zero", "zero+table"])
def test_alive_paths_match_the_suffix_scan(build, redexes):
    """The same paths, keys in the same order and each list in the same
    order, for the linear engine's monomial relations and for the rewriting
    engine's redexes (words of two and more arrows); from chosen sources,
    the same lists for those sources."""
    quiver, rels = build()
    words = rels.zero_redexes if redexes == "zero" else rels.zero_redexes.union(rels.table)
    max_len = PRESETS[quiver.preset].max_len
    got = _alive_paths(quiver, max_len, words)
    assert list(got.items()) == list(suffix_scan_alive_paths(quiver, max_len, words).items())
    # from the core sources alone (as the filtration check enumerates)
    core = [v for v in quiver.vertices if v in quiver.core]
    assert list(_alive_paths(quiver, max_len, words, core).items()) == [
        (pair, paths) for pair, paths in got.items() if pair[0] in quiver.core
    ]
