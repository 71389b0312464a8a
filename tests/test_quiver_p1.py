from __future__ import annotations

from fractions import Fraction

import pytest

from tiltcell.quiver import (
    PathElement,
    QuiverConfigError,
    build_p1_quiver,
    cell_filtration_check,
    check_against_cellular,
    export_dot,
    irreducible_words,
    normal_form,
    quotient_dims,
)


def test_build_structure():
    q, rels = build_p1_quiver(3, window=2)
    assert q.shift_period == 2
    assert q.weights[0] == 0 and q.weights[1] == 4 and q.weights[-1] == 0 - 2
    assert q.weights[2] == 6 and q.weights[3] == 10
    for a in q.arrows:
        dual = q.arrows[q.arrow_id(a.dual)]
        assert (dual.source, dual.target) == (a.target, a.source)
    with pytest.raises(QuiverConfigError):
        build_p1_quiver(3, window=1)


@pytest.mark.parametrize("p", [3, 5])
def test_dims_match_cellular(p):
    q, rels = build_p1_quiver(p, window=2)
    assert len(q.core) >= 8
    res = quotient_dims(q, rels, 4)
    assert res.saturated
    rep = check_against_cellular(q, res)
    assert rep.all_pass
    # the concrete pattern: 2 on the diagonal, 1 on chain-adjacency, 0 else
    for (v, w) in res.core_pairs:
        expected = 2 if v == w else (1 if abs(v - w) == 1 else 0)
        assert res.dim(v, w) == expected


def test_normal_form_examples():
    q, rels = build_p1_quiver(3, window=2)
    aid = q.arrow_id
    # the loop through above rewrites to the loop through below
    loop_above = PathElement(1, 1, {(aid("u1"), aid("d1")): Fraction(1)})
    loop_below = PathElement(1, 1, {(aid("d0"), aid("u0")): Fraction(1)})
    assert normal_form(loop_above, rels) == loop_below
    # idempotents are fixed
    e = PathElement(0, 0, {(): Fraction(1)})
    assert normal_form(e, rels) == e
    # long paths vanish: any length-3 walk in the core
    assert not normal_form(PathElement(0, 1, {(aid("u0"), aid("d0"), aid("u0")): 1}), rels).terms
    assert not normal_form(PathElement(0, 2, {(aid("u0"), aid("u1")): 1}), rels).terms


def test_normal_form_idempotent_on_all_core_words():
    q, rels = build_p1_quiver(3, window=2)
    words = irreducible_words(q, rels, 4)
    for (s, t), plist in words.items():
        for path in plist:
            el = PathElement(s, t, {path: Fraction(1)})
            assert normal_form(el, rels) == el


def test_word_counts_equal_dims():
    q, rels = build_p1_quiver(5, window=2)
    res = quotient_dims(q, rels, 4)
    words = irreducible_words(q, rels, 4)
    for pair in res.core_pairs:
        assert len(words.get(pair, [])) == res.dim(*pair)


def test_cell_filtration():
    q, rels = build_p1_quiver(3, window=2)
    res = quotient_dims(q, rels, 4)
    assert cell_filtration_check(q, rels, res).all_pass


def test_export_dot_deterministic():
    q1, _ = build_p1_quiver(3, window=2)
    q2, _ = build_p1_quiver(3, window=2)
    dot = export_dot(q1)
    assert dot == export_dot(q2)
    assert '"0" -> "1" [label="u0", style=solid];' in dot
    assert '"1" -> "0" [label="d0", style=dashed];' in dot
