from __future__ import annotations

from itertools import product

import pytest

from tiltcell import cellbasis
from tiltcell.cellbasis import (
    SL3_ELEMENTS,
    SL3_LENGTH,
    cell_indices,
    dagger,
    generator_set_br,
    generator_set_br0,
    sl3_delta_table,
    sl3_generator_set_bprime,
    sl3_hom_dim,
)
from tiltcell.deltafilt import InvariantViolation, delta_factors, hom_dim_sum
from tiltcell.weights import Context


def test_cell_indices_endomorphisms():
    ctx = Context(3, 1)
    idx = cell_indices({0: 1}, {0: 1}, ctx)
    assert [(c.cell_weight, c.i, c.j) for c in idx] == [(0, 1, 1), (-2, 1, 1)]


def test_cell_indices_disjoint_and_pair():
    ctx = Context(5, 2)
    assert cell_indices({-1: 1}, {24: 1}, ctx) == []
    idx = cell_indices({0: 1}, {8: 1}, ctx)
    assert [c.cell_weight for c in idx] == [0, -2]


def test_cell_indices_count_matches_hom():
    ctx = Context(3, 1)
    weights = [0, 4, 6, -2]
    for wp, wq in product(weights, repeat=2):
        P, Q = {wp: 1, 0: 1}, {wq: 2}
        assert len(cell_indices(P, Q, ctx)) == hom_dim_sum(P, Q, ctx)


def test_cell_indices_count_checked_loudly(monkeypatch):
    # an ordinary exception, so the check survives python -O
    ctx = Context(3, 1)
    monkeypatch.setattr(cellbasis, "hom_dim_sum", lambda P, Q, c: hom_dim_sum(P, Q, c) + 1)
    with pytest.raises(InvariantViolation, match=r"^3 cell indices for a Hom space of dimension 4$"):
        cell_indices({0: 1, 4: 1}, {4: 1}, ctx)


def test_cell_indices_grouped_descending():
    ctx = Context(5, 2)
    idx = cell_indices({10: 1}, {10: 1}, ctx)
    cells = [c.cell_weight for c in idx]
    assert cells == sorted(cells, reverse=True)


def test_dagger_involution():
    ctx = Context(3, 1)
    idx = cell_indices({0: 1, 4: 1}, {4: 1}, ctx)
    flipped = cell_indices({4: 1}, {0: 1, 4: 1}, ctx)
    assert sorted(map(repr, (dagger(c) for c in idx))) == sorted(map(repr, flipped))
    for c in idx:
        assert dagger(dagger(c)) == c
    for c in cell_indices({0: 1}, {0: 1}, ctx):
        if c.i == c.j:
            assert dagger(c) == c


def test_identity_index_normalisation():
    # the tilting at nu contributes exactly one index at its own cell weight
    ctx = Context(5, 2)
    for nu in range(-10, 11):
        assert delta_factors(nu, ctx)[nu] == 1


def test_generator_set_small():
    ctx = Context(3, 1)
    got = {(g.low_weight, g.high_weight, g.index) for g in generator_set_br(ctx)}
    assert got == {(0, 0, 1), (0, 4, 1), (1, 1, 1), (1, 3, 1), (2, 2, 1)}
    got0 = {(g.low_weight, g.high_weight) for g in generator_set_br0(ctx)}
    assert got0 == {(0, 0), (0, 4)}


def test_generator_set_properties():
    for p, r in ((3, 1), (3, 2), (5, 1)):
        ctx = Context(p, r)
        q = ctx.q
        gens = generator_set_br(ctx)
        assert all(0 <= g.low_weight < q for g in gens)
        assert all(g.low_weight <= g.high_weight <= 2 * q - 2 - g.low_weight for g in gens)
        assert all(g.index == 1 for g in gens)  # multiplicity freeness
        # identities are present for every column weight
        assert all(any(g.low_weight == m and g.high_weight == m for g in gens) for m in range(q))
        # the top special weight admits only its identity
        st = [g for g in gens if g.low_weight == q - 1]
        assert st == [g for g in gens if g.low_weight == q - 1 and g.high_weight == q - 1]
        # block filter is a genuine restriction of the full family
        full = {(g.low_weight, g.high_weight) for g in gens}
        assert {(g.low_weight, g.high_weight) for g in generator_set_br0(ctx)} <= full


def test_sl3_delta_table():
    table = sl3_delta_table()
    assert table["w0"] == {"w0"}
    assert table["s"] == {"s", "st", "ts", "w0"}
    assert table["1"] == set(SL3_ELEMENTS)
    assert sl3_hom_dim("s", "t") == 3
    total = sum(sl3_hom_dim(x, y) for x in SL3_ELEMENTS for y in SL3_ELEMENTS)
    assert total == 77
    assert sum(len(table[w]) ** 2 for w in ("w0", "st", "ts", "s", "t", "1")) == 77


def test_sl3_bruhat_order():
    # x <= y in the Bruhat order exactly when y is in the upper set table[x]
    table = sl3_delta_table()
    assert "w0" in table["1"] and "ts" in table["s"]
    assert "ts" not in table["st"]
    assert "s" not in table["w0"]


def test_sl3_generators():
    table = sl3_delta_table()
    pairs = sl3_generator_set_bprime()
    assert len(pairs) == 8
    assert pairs[0] == ("w0", "st") and pairs[1] == ("w0", "ts")
    for hi, lo in pairs:
        assert hi in table[lo] and SL3_LENGTH[hi] - SL3_LENGTH[lo] == 1
