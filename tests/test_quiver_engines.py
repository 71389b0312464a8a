"""Cross-preset engine properties: idempotence of rewriting on random
elements (seeded, and drawn by hypothesis inside each core), duality
symmetry of the quotient dimensions, the contracted elimination against a
plain echelon on every pair, and the failure modes (unsaturated
truncations, runaway rewriting, empty exports)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tiltcell.linear import NotSaturated, _echelon, _linear_setup, _relation_rows, quotient_dims
from tiltcell.quiver import (
    PathElement,
    Quiver,
    RelationSet,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
    export_dot,
)
from tiltcell.ratlinalg import SparseEchelon
from tiltcell.rewrite import NonTerminating, normal_form


def _random_elements(quiver, rels, rng, count, max_len=4):
    """Random rational combinations of composable walks."""
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            v = rng.choice(quiver.vertices)
            path = []
            at = v
            for _ in range(rng.randrange(1, max_len + 1)):
                ids = quiver.out_ids[at]
                if not ids:
                    break
                aid = rng.choice(ids)
                path.append(aid)
                at = quiver.arrows[aid].target
            if not path:
                continue
            src = quiver.arrows[path[0]].source
            tgt = quiver.arrows[path[-1]].target
            terms.setdefault((src, tgt), {})[tuple(path)] = Fraction(
                rng.randrange(-3, 4) or 1
            )
        for (src, tgt), tt in terms.items():
            out.append(PathElement(src, tgt, tt))
    return out


CORE_PRESETS = {
    "p1": lambda: build_p1_quiver(3, window=2),
    "p2": lambda: build_p2_quiver(3, window=1),
    "sl3": lambda: build_sl3_quiver(),
}


@lru_cache(maxsize=None)
def _core_preset(name):
    """The preset with, per core vertex, the ids of its arrows into the core."""
    quiver, rels = CORE_PRESETS[name]()
    outs = {
        v: [i for i in quiver.out_ids[v] if quiver.arrows[i].target in quiver.core]
        for v in quiver.core
    }
    return quiver, rels, outs


@pytest.mark.parametrize("name", sorted(CORE_PRESETS))
def test_normal_form_idempotent_on_random_elements(name):
    quiver, rels, _ = _core_preset(name)
    rng = random.Random(2024)
    for elem in _random_elements(quiver, rels, rng, 350):
        once = normal_form(elem, rels)
        assert normal_form(once, rels) == once


@st.composite
def core_elements(draw):
    """A preset and a rational combination of up to three walks inside its
    core that share source and target."""
    name = draw(st.sampled_from(sorted(CORE_PRESETS)))
    quiver, rels, outs = _core_preset(name)
    source = draw(st.sampled_from(sorted(quiver.core, key=str)))
    length = draw(st.integers(1, 6))
    ends: dict = {}
    for _ in range(draw(st.integers(1, 3))):
        at, path = source, []
        while len(path) < length and outs[at]:
            path.append(draw(st.sampled_from(outs[at])))
            at = quiver.arrows[path[-1]].target
        if path:
            ends.setdefault(at, {})[tuple(path)] = draw(
                st.fractions(-5, 5, max_denominator=4).filter(bool)
            )
    target = draw(st.sampled_from(sorted(ends, key=str))) if ends else source
    return name, rels, PathElement(source, target, ends.get(target, {}))


@settings(deadline=None, max_examples=60)
@given(core_elements())
def test_normal_form_idempotent_on_core_elements(case):
    _, rels, elem = case
    once = normal_form(elem, rels)
    assert normal_form(once, rels) == once


@pytest.mark.parametrize(
    "maker,max_len",
    [
        (lambda: build_p1_quiver(3, window=2), 4),
        (lambda: build_p2_quiver(3, window=1), 5),
        (lambda: build_sl3_quiver(), 7),
    ],
    ids=["p1", "p2", "sl3"],
)
def test_quotient_dims_duality_symmetric(maker, max_len):
    quiver, rels = maker()
    result = quotient_dims(quiver, rels, max_len)
    for v, w in result.core_pairs:
        assert result.dim(v, w) == result.dim(w, v)


@pytest.mark.parametrize(
    "maker,max_len",
    [
        (lambda: build_sl3_quiver(Fraction(7, 6), Fraction(4, 9)), 7),
        (lambda: build_sl3_quiver(1, 1, 1), 7),
        # off the balanced locus, so the squares do not all agree
        (lambda: build_p2_quiver(3, 1, {"m1": 2, "m4": Fraction(-1, 3), "n1": 5, "theta0": -3}), 5),
        (lambda: build_p2_quiver(3, 1, boundary_loops=False), 5),
        (lambda: build_p1_quiver(3, window=2), 4),
    ],
    ids=["sl3-r0", "sl3-r1", "p2-unbalanced", "p2-no-loops", "p1"],
)
def test_contracted_echelon_matches_sparse_echelon(maker, max_len):
    # the union-find contraction reports what a plain echelon of the same
    # rows reports, on every alive pair: rank, saturation pivots and the
    # residue support of each top-length path
    quiver, rels = maker()
    setup = _linear_setup(quiver, rels, max_len)
    for pair, plist in setup.alive.items():
        order = sorted(plist, key=lambda q: (-len(q), q))
        col = {path: i for i, path in enumerate(order)}
        plain = SparseEchelon()
        for row in _relation_rows(setup, pair, col):
            plain.add(row)
        ech, ech_col = _echelon(setup, pair)
        assert ech_col == col and list(ech_col) == order
        tops = [path for path in plist if len(path) == max_len]
        assert ech.rank == plain.rank
        assert ech.pivots_among(len(tops)) == plain.pivots_among(len(tops))
        for path in tops:
            assert set(ech.reduce({col[path]: 1})) == set(plain.reduce({col[path]: 1}))


def test_not_saturated_raises():
    # a free scalar introduces a length-four relation term, which the
    # truncation at seven cannot certify
    quiver, rels = build_sl3_quiver(1, 1, 1)
    with pytest.raises(NotSaturated) as exc:
        quotient_dims(quiver, rels, 7)
    # the message names the irreducible top-length words of the first pair
    assert "first: ('1', 's'), residue words: d7*u8*d8*u7*d7*u8*d8" in str(exc.value)
    result = quotient_dims(quiver, rels, 7, require_saturation=False)
    assert not result.saturated and result.unsaturated


def test_one_arrow_rewrite_cycle_is_non_terminating():
    # the rule u0 -> u0 rewrites a path to itself: cycle detection raises at
    # the first repeat, long before the step budget could run out
    quiver, rels = build_p1_quiver(3, window=2)
    aid = quiver.arrow_id
    spin = dict(rels.rules)
    spin[(aid("u0"),)] = (((aid("u0"),), Fraction(1)),)  # deliberate loop
    bad = RelationSet(rels.relations, spin, {}, {})
    elem = PathElement(0, 1, {(aid("u0"),): Fraction(1)})
    with pytest.raises(NonTerminating, match="rewriting returns to the path"):
        normal_form(elem, bad)


def test_export_dot_empty_quiver():
    empty = Quiver("p1", [], [], {}, frozenset(), 2, None)
    assert export_dot(empty) == "digraph p1 {\n  rankdir=LR;\n}\n"
