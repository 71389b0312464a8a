"""Cross-preset engine properties: idempotence of rewriting on random
elements, duality symmetry of the quotient dimensions, and the failure
modes (unsaturated truncations, runaway rewriting, empty exports)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tiltcell.quiver import (
    NonTerminating,
    NotSaturated,
    PathElement,
    Quiver,
    RelationSet,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
    export_dot,
    normal_form,
    quotient_dims,
)


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


@pytest.mark.parametrize(
    "maker",
    [
        lambda: build_p1_quiver(3, window=2),
        lambda: build_p2_quiver(3, window=1),
        lambda: build_sl3_quiver(),
    ],
    ids=["p1", "p2", "sl3"],
)
def test_normal_form_idempotent_on_random_elements(maker):
    quiver, rels = maker()
    rng = random.Random(2024)
    for elem in _random_elements(quiver, rels, rng, 350):
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


def test_non_terminating_budget():
    quiver, rels = build_p1_quiver(3, window=2)
    aid = quiver.arrow_id
    spin = dict(rels.rules)
    spin[(aid("u0"),)] = (((aid("u0"),), Fraction(1)),)  # deliberate loop
    bad = RelationSet(rels.relations, spin, {}, {})
    elem = PathElement(0, 1, {(aid("u0"),): Fraction(1)})
    with pytest.raises(NonTerminating):
        normal_form(elem, bad, max_steps=50)


def test_export_dot_empty_quiver():
    empty = Quiver("p1", [], [], {}, frozenset(), 2, None)
    assert export_dot(empty) == "digraph p1 {\n  rankdir=LR;\n}\n"
