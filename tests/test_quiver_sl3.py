from __future__ import annotations

from fractions import Fraction

import pytest

from tiltcell.cellbasis import SL3_ELEMENTS, sl3_hom_dim
from tiltcell.quiver import (
    PathElement,
    QuiverConfigError,
    build_sl3_quiver,
    cell_filtration_check,
    check_against_cellular,
    irreducible_words,
    normal_form,
    quotient_dims,
)


def test_build_structure():
    q, rels = build_sl3_quiver()
    assert len(q.vertices) == 6 and len(q.arrows) == 16
    with pytest.raises(QuiverConfigError):
        build_sl3_quiver(a=0)
    with pytest.raises(QuiverConfigError):
        build_sl3_quiver(b=0)
    # r = 0 is allowed and is the default
    assert rels.scalars == {"a": Fraction(1), "b": Fraction(1), "r": Fraction(0)}


def test_down_rules_are_duals_of_up_rules():
    q, rels = build_sl3_quiver()

    def dual_path(path):
        return tuple(q.arrow_id(q.arrows[i].dual) for i in reversed(path))

    up_diamonds = {
        redex: repl
        for redex, repl in rels.rules.items()
        if all(q.arrows[i].kind == "u" for i in redex)
    }
    assert len(up_diamonds) == 4
    for redex, repl in up_diamonds.items():
        ((rep, coeff),) = repl
        assert rels.rules[dual_path(redex)] == ((dual_path(rep), coeff),)


def test_dims_match_bruhat_counts():
    q, rels = build_sl3_quiver(1, 1, 0)
    res = quotient_dims(q, rels, 7)
    assert res.saturated
    rep = check_against_cellular(q, res)
    assert rep.all_pass
    assert sum(res.dims.values()) == 77
    for x in SL3_ELEMENTS:
        for y in SL3_ELEMENTS:
            assert res.dim(x, y) == sl3_hom_dim(x, y)


@pytest.mark.parametrize("a,b", [(-1, 1), (1, -1), (2, 3)])
def test_dims_insensitive_to_nonzero_scalars(a, b):
    q, rels = build_sl3_quiver(a, b, 0)
    res = quotient_dims(q, rels, 7)
    assert check_against_cellular(q, res).all_pass


def test_normal_form_examples():
    q, rels = build_sl3_quiver()
    aid = q.arrow_id
    assert not normal_form(PathElement("w0", "w0", {(aid("u1"), aid("d1")): 1}), rels).terms
    e = PathElement("w0", "w0", {(): Fraction(1)})
    assert normal_form(e, rels) == e
    # the two up routes from w0 to s agree
    got = normal_form(PathElement("w0", "s", {(aid("u2"), aid("u5")): 1}), rels)
    assert got == PathElement("w0", "s", {(aid("u1"), aid("u3")): Fraction(1)})
    # a top-layer loop resolves through the level below
    got = normal_form(PathElement("s", "s", {(aid("u7"), aid("d7")): 1}), rels)
    assert got == PathElement("s", "s", {(aid("d5"), aid("u5")): Fraction(1)})


def test_word_counts_equal_dims():
    q, rels = build_sl3_quiver()
    res = quotient_dims(q, rels, 7)
    words = irreducible_words(q, rels, 7)
    for pair in res.core_pairs:
        assert len(words.get(pair, [])) == res.dim(*pair)
    # the longest basis word: the bottom cell of the top endomorphism space
    longest = max(len(w) for w in words[("1", "1")])
    assert longest == 6


def test_free_scalar_rewrites_terminate():
    q, rels = build_sl3_quiver(1, 1, 1)
    aid = q.arrow_id
    got = normal_form(PathElement("s", "t", {(aid("u7"), aid("d8")): 1}), rels)
    # three-term value: two squares plus the long word through the bottom
    assert len(got.terms) == 3
    assert max(len(t) for t in got.terms) == 4


def test_cell_filtration():
    q, rels = build_sl3_quiver()
    res = quotient_dims(q, rels, 7)
    assert cell_filtration_check(q, rels, res).all_pass
