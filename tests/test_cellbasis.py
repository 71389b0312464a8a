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
from tiltcell.factors import InvariantViolation, delta_factors, hom_dim_sum
from tiltcell.weights import Context


def test_cell_indices_endomorphisms():
    ctx = Context(3, 1)
    idx = cell_indices({0: 1}, {0: 1}, ctx)
    assert [(c.cell, c.i, c.j) for c in idx] == [(0, 1, 1), (-2, 1, 1)]


def test_cell_indices_disjoint_and_pair():
    ctx = Context(5, 2)
    assert cell_indices({-1: 1}, {24: 1}, ctx) == []
    idx = cell_indices({0: 1}, {8: 1}, ctx)
    assert [c.cell for c in idx] == [0, -2]


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
    cells = [c.cell for c in idx]
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
    got = {(g.low, g.high, g.index) for g in generator_set_br(ctx)}
    assert got == {(0, 0, 1), (0, 4, 1), (1, 1, 1), (1, 3, 1), (2, 2, 1)}
    got0 = {(g.low, g.high) for g in generator_set_br0(ctx)}
    assert got0 == {(0, 0), (0, 4)}


def test_generator_set_properties():
    for p, r in ((3, 1), (3, 2), (5, 1)):
        ctx = Context(p, r)
        q = ctx.q
        gens = generator_set_br(ctx)
        assert all(0 <= g.low < q for g in gens)
        assert all(g.low <= g.high <= 2 * q - 2 - g.low for g in gens)
        assert all(g.index == 1 for g in gens)  # multiplicity freeness
        # identities are present for every column weight
        assert all(any(g.low == m and g.high == m for g in gens) for m in range(q))
        # the top special weight admits only its identity
        st = [g for g in gens if g.low == q - 1]
        assert st == [g for g in gens if g.low == q - 1 and g.high == q - 1]
        # block filter is a genuine restriction of the full family
        full = {(g.low, g.high) for g in gens}
        assert {(g.low, g.high) for g in generator_set_br0(ctx)} <= full


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


def test_sl3_block_literals():
    # the S3 block as written out element by element: the upper sets, the
    # lengths, the generators B' and every arrow of the sl3 quiver
    from tiltcell.quiver import build_sl3_quiver

    assert SL3_ELEMENTS == ("1", "s", "t", "st", "ts", "w0")
    assert SL3_LENGTH == {"1": 0, "s": 1, "t": 1, "st": 2, "ts": 2, "w0": 3}
    table = sl3_delta_table()
    assert list(table) == ["1", "s", "t", "st", "ts", "w0"]
    assert table == {
        "1": {"1", "s", "t", "st", "ts", "w0"},
        "s": {"s", "st", "ts", "w0"},
        "t": {"t", "st", "ts", "w0"},
        "st": {"st", "w0"},
        "ts": {"ts", "w0"},
        "w0": {"w0"},
    }
    assert sl3_generator_set_bprime() == [
        ("w0", "st"),
        ("w0", "ts"),
        ("st", "s"),
        ("st", "t"),
        ("ts", "s"),
        ("ts", "t"),
        ("s", "1"),
        ("t", "1"),
    ]
    quiver = build_sl3_quiver()[0]
    assert [tuple(a) for a in quiver.arrows] == [
        ("u1", "w0", "st", "u", "d1"),
        ("d1", "st", "w0", "d", "u1"),
        ("u2", "w0", "ts", "u", "d2"),
        ("d2", "ts", "w0", "d", "u2"),
        ("u3", "st", "s", "u", "d3"),
        ("d3", "s", "st", "d", "u3"),
        ("u4", "st", "t", "u", "d4"),
        ("d4", "t", "st", "d", "u4"),
        ("u5", "ts", "s", "u", "d5"),
        ("d5", "s", "ts", "d", "u5"),
        ("u6", "ts", "t", "u", "d6"),
        ("d6", "t", "ts", "d", "u6"),
        ("u7", "s", "1", "u", "d7"),
        ("d7", "1", "s", "d", "u7"),
        ("u8", "t", "1", "u", "d8"),
        ("d8", "1", "t", "d", "u8"),
    ]
