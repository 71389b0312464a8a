from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest

from tiltcell.factors import delta_factors, hom_dim
from tiltcell.linear import _echelon, _linear_setup, quotient_dims
from tiltcell.quiver import (
    PathElement,
    QuiverConfigError,
    _rule_to_relation,
    build_p2_quiver,
    check_against_cellular,
    export_dot,
    p2_scalar_names,
    right_neighbor,
)
from tiltcell.rewrite import cell_filtration_check, irreducible_words, normal_form
from tiltcell.weights import Context


def test_ladder_geometry_p7():
    # the p = 7 picture: four-column ladder with vertical chains of seven
    q, _ = build_p2_quiver(7, window=1)
    arrows = {a.name: a for a in q.arrows}
    assert (arrows["u'1"].source, arrows["u'1"].target) == (1, 13)
    assert (arrows["u'-1"].source, arrows["u'-1"].target) == (-1, 1)
    assert (arrows["u'-13"].source, arrows["u'-13"].target) == (-13, -1)
    assert (arrows["u0"].source, arrows["u0"].target) == (0, 1)
    assert (arrows["u7"].source, arrows["u7"].target) == (7, 8)
    # no vertical arrow across a chain break, no horizontal arrow at chain tops
    assert "u6" not in arrows and "u13" not in arrows and "u-8" not in arrows
    assert "u'0" not in arrows and "u'7" not in arrows and "u'-14" not in arrows
    assert right_neighbor(8, 7) == 20
    assert q.shift_period == 14


def test_vertex_weights_match_factor_tables():
    q, _ = build_p2_quiver(5, window=1)
    ctx = Context(5, 2)
    for a in q.arrows:
        if a.kind in ("u", "u'"):
            assert delta_factors(q.weights[a.target], ctx)[q.weights[a.source]] == 1


def test_scalar_validation():
    with pytest.raises(QuiverConfigError):
        build_p2_quiver(3, scalars={"m1": 0})
    with pytest.raises(QuiverConfigError):
        build_p2_quiver(3, scalars={"bogus": 1})
    q, rels = build_p2_quiver(3, scalars={"m1": Fraction(-1), "theta0": 2})
    assert rels.scalars["m1"] == -1 and rels.scalars["theta0"] == 2


@pytest.mark.parametrize("p", [3, 5])
def test_dims_match_cellular(p):
    q, rels = build_p2_quiver(p, window=1)
    res = quotient_dims(q, rels, 5)
    assert res.saturated
    rep = check_against_cellular(q, res)
    assert rep.all_pass
    # interior endomorphism spaces in a chain have dimension four
    for j in range(1, p):
        assert res.dim(j, j) == 4
    # chain-top columns have dimension two
    assert res.dim(0, 0) == 2 and res.dim(p, p) == 2


def test_printed_families_leave_top_columns_too_big():
    # pin the discrepancy: without the chain-top loop identification the
    # square/loop/zero families give a three-dimensional endomorphism space
    # at every column that is a multiple of p, one more than the cellular
    # count; all other core pairs agree.
    q, rels = build_p2_quiver(3, window=1, boundary_loops=False)
    res = quotient_dims(q, rels, 5, require_saturation=False)
    rep = check_against_cellular(q, res)
    failed = [it for it in rep.items if not it.passed]
    bad = {tuple(sorted((it.input["source"], it.input["target"]))) for it in failed}
    assert bad == {(c, c) for c in (-6, -3, 0, 3, 6)}
    for it in failed:
        assert (it.lhs, it.rhs) == (3, 2)


def test_derived_rules_are_consequences():
    # every rewriting-only rule lies in the ideal of the printed families:
    # its relation reduces to zero against the relation rows of its pair,
    # once the terms that hold a monomial relation (no column) are dropped
    q, rels = build_p2_quiver(3, window=1, boundary_loops=False)
    setup = _linear_setup(q, rels, 6)

    def in_ideal(elem):
        # a longer term has no column, yet need not lie in the ideal
        assert max(map(len, elem.terms)) <= setup.max_len
        ech, col = _echelon(setup, (elem.source, elem.target))
        row = {col[path]: c for path, c in elem.terms.items() if path in col}
        # the echelon takes integer rows: clear the row's denominators
        scale = lcm(*(c.denominator for c in row.values()))
        return not ech.reduce({k: int(c * scale) for k, c in row.items()})

    doubled = 0
    for redex, repl in rels.derived_rules.items():
        assert in_ideal(_rule_to_relation(q, redex, repl)), q.format_path(redex)
        if repl:
            # control: doubling the replacement leaves the ideal
            wrong = tuple((path, 2 * c) for path, c in repl)
            assert not in_ideal(_rule_to_relation(q, redex, wrong)), q.format_path(redex)
            doubled += 1
    assert (len(rels.derived_rules), doubled) == (68, 22)


def _balanced(p, magnitude, m_sign, n_sign, **thetas):
    """One magnitude for every square scalar, one sign per family."""
    sign = {"m": m_sign, "n": n_sign}
    out = {k: sign[k[0]] * magnitude for k in p2_scalar_names(p) if k[0] in sign}
    out.update(thetas)
    return out


@pytest.mark.parametrize(
    "p,balanced,unbalanced",
    [
        (
            3,
            [
                {"m1": -1, "m4": -1, "n1": -1, "n4": -1},
                {"m1": 2, "m4": 2, "n1": -2, "n4": -2},
                {"theta0": Fraction(-5, 7), "theta3": 3},
            ],
            {"m4": 2},
        ),
        (
            5,
            [
                _balanced(5, Fraction(2, 3), 1, -1, theta0=Fraction(-5, 7)),
                _balanced(5, Fraction(-7, 4), -1, 1, theta5=Fraction(3, 11)),
            ],
            _balanced(5, Fraction(2, 3), 1, 1, m7=Fraction(4, 3)),
        ),
    ],
    ids=["p3", "p5"],
)
def test_scalar_locus(p, balanced, unbalanced):
    # uniform rescalings and sign flips of the square scalars keep the
    # quotient on the cellular counts, and the chain-top scalar is free;
    # an unbalanced choice genuinely collapses dimensions, which the
    # checker reports rather than hides
    def outcome(scalars):
        q, rels = build_p2_quiver(p, window=1, scalars=scalars)
        res = quotient_dims(q, rels, 5, require_saturation=False)
        return check_against_cellular(q, res)

    for scalars in balanced:
        assert outcome(scalars).all_pass
    collapsed = outcome(unbalanced)
    assert not collapsed.all_pass
    assert all(it.lhs < it.rhs for it in collapsed.items if not it.passed)


def test_normal_form_examples():
    q, rels = build_p2_quiver(3, window=1)
    aid = q.arrow_id
    # vertical loop migrates towards the chain top
    got = normal_form(PathElement(1, 1, {(aid("u1"), aid("d1")): 1}), rels)
    assert got == PathElement(1, 1, {(aid("d0"), aid("u0")): Fraction(1)})
    # chain-top loop through the adjacent row collapses onto the short loop
    got = normal_form(
        PathElement(0, 0, {(aid("u0"), aid("d'-1"), aid("u'-1"), aid("d0")): 1}), rels
    )
    assert got == PathElement(0, 0, {(aid("u0"), aid("d0")): Fraction(1)})
    # squares commute
    got = normal_form(PathElement(1, 4, {(aid("u'1"), aid("d4")): 1}), rels)
    assert got == PathElement(1, 4, {(aid("u1"), aid("u'2")): Fraction(1)})


@pytest.mark.parametrize("p", [3, 5])
def test_word_counts_equal_dims(p):
    q, rels = build_p2_quiver(p, window=1)
    res = quotient_dims(q, rels, 5)
    words = irreducible_words(q, rels, 5)
    for pair in res.core_pairs:
        assert len(words.get(pair, [])) == res.dim(*pair)


def test_long_paths_vanish_and_len4_words_are_loops():
    q, rels = build_p2_quiver(3, window=1)
    words = irreducible_words(q, rels, 5)
    core = q.core
    for (s, t), plist in words.items():
        if s in core and t in core:
            for w in plist:
                assert len(w) <= 4
                if len(w) == 4:
                    assert s == t


def test_cell_filtration():
    q, rels = build_p2_quiver(3, window=1)
    res = quotient_dims(q, rels, 5)
    rep = cell_filtration_check(q, rels, res)
    assert rep.all_pass


def test_hom_transport_against_oracle_spot():
    # a couple of named dimensions from the factor tables
    ctx = Context(3, 2)
    assert hom_dim(0, 0, ctx) == 2
    assert hom_dim(4, 4, ctx) == 4  # interior column weight at p = 3
    q, rels = build_p2_quiver(3, window=1)
    res = quotient_dims(q, rels, 5)
    assert res.dim(1, 1) == 4 and res.dim(0, 1) == 2


def test_export_dot_p2():
    q, _ = build_p2_quiver(3, window=1)
    dot = export_dot(q)
    assert dot == export_dot(build_p2_quiver(3, window=1)[0])
    assert '"1" -> "5" [label="u\'1", style=solid];' in dot
