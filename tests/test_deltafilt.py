from __future__ import annotations

from collections import Counter

import pytest

from tiltcell import deltafilt, factors
from tiltcell.charring import baby_verma_char, decompose_into_simples
from tiltcell.deltafilt import (
    tilting_char,
    verify_bounds,
    verify_linkage_necessity,
    verify_mult_free,
    verify_reciprocity,
    verify_steinberg_equivalence,
    verify_strong_linkage,
)
from tiltcell.factors import _folded_factors, delta_factors, hom_dim, hom_dim_sum, table_size
from tiltcell.weights import Context, dot_orbit, tilde


def test_delta_factors_examples():
    assert delta_factors(0, Context(5, 1)) == {0: 1, -2: 1}
    assert delta_factors(10, Context(5, 2)) == {10: 1, 8: 1, -10: 1, -12: 1}
    assert delta_factors(28, Context(5, 2)) == {28: 1, 20: 1}
    for p, r in ((3, 1), (3, 3), (5, 2), (7, 2)):
        ctx = Context(p, r)
        assert delta_factors(ctx.q - 1, ctx) == {ctx.q - 1: 1}


def test_delta_factors_wall_level_one():
    ctx = Context(5, 1)
    for n in range(-4, 5):
        assert delta_factors(n * 5 - 1, ctx) == {n * 5 - 1: 1}


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 2), (7, 2)])
def test_shift_equivariance(p, r):
    ctx = Context(p, r)
    for lam in (-7, 0, 1, ctx.q - 1, ctx.q + 2):
        base = delta_factors(lam, ctx)
        for eta in range(-3, 4):
            shifted = delta_factors(lam + ctx.q * eta, ctx)
            assert shifted == {nu + ctx.q * eta: m for nu, m in base.items()}


def test_factor_count_powers_of_two():
    ctx = Context(3, 3)
    for lam in range(-2 * ctx.q, 2 * ctx.q + 1):
        n = len(delta_factors(lam, ctx))
        assert n in (1, 2, 4, 8)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 4), (5, 3), (7, 2), (11, 2), (3, 12)])
def test_table_size_counts_entries(p, r):
    ctx = Context(p, r)
    for lam in range(-3 * p * p, 3 * p * p):
        assert table_size(lam, ctx) == len(delta_factors(lam, ctx)), lam


def test_hom_dim_examples():
    r1 = Context(5, 1)
    assert hom_dim(8, 8, r1) == 2  # 2p-2 with itself
    assert hom_dim(0, 8, r1) == 1
    ctx = Context(5, 2)
    for nu in range(-2, 3):
        for nu2 in range(-2, 3):
            expected = 1 if nu == nu2 else 0
            assert hom_dim(-1 + 25 * nu, -1 + 25 * nu2, ctx) == expected
    assert hom_dim(0, 2 * (ctx.q - 1), ctx) == 1


def test_hom_dim_symmetry_and_linkage():
    ctx = Context(3, 2)
    for lam in range(-12, 13):
        orbit = dot_orbit(lam, -60, 60, ctx)
        for mu in range(-12, 13):
            d = hom_dim(lam, mu, ctx)
            assert d == hom_dim(mu, lam, ctx)
            if d:
                assert mu in orbit


def test_hom_bound_necessity():
    # nonzero Hom between the projective covers at lam and mu forces
    # mu <= tilde(lam) and lam <= tilde(mu); separation at most 2(q-1)
    ctx = Context(3, 2)
    for lam in range(-12, 13):
        for mu in range(-12, 13):
            lt, mt = tilde(lam, ctx), tilde(mu, ctx)
            if hom_dim(lt, mt, ctx):
                assert mu <= lt and lam <= mt
            if hom_dim(lam, mu, ctx):
                assert abs(lam - mu) <= 2 * (ctx.q - 1)


def test_hom_dim_sum():
    ctx = Context(5, 1)
    assert hom_dim_sum({3: 1}, {3: 1}, ctx) == hom_dim(3, 3, ctx)
    assert hom_dim_sum({0: 2}, {8: 3}, ctx) == 6 * hom_dim(0, 8, ctx)
    assert hom_dim_sum({0: 1, 8: 1}, {8: 1}, ctx) == 3


def test_tilting_char():
    ctx = Context(3, 1)
    assert tilting_char(8, Context(3, 2))[8] == 1
    # positive coefficients, so Counter addition is the sum of characters
    assert tilting_char(0, ctx) == Counter(baby_verma_char(0, ctx)) + Counter(baby_verma_char(-2, ctx))
    for p, r in ((3, 1), (5, 2)):
        c = Context(p, r)
        assert tilting_char(c.q - 1, c) == baby_verma_char(c.q - 1, c)
        for lam in range(-20, 21):
            ch = tilting_char(lam, c)
            assert max(ch) == lam and ch[lam] == 1


def test_verify_reciprocity_spot():
    ctx = Context(3, 1)
    rep = verify_reciprocity(0, ctx)
    assert rep.all_pass
    got = {(it.input["mu"]): (it.lhs, it.rhs) for it in rep.items}
    assert got[0] == (1, 1) and got[4] == (1, 1)
    # special weights have a single one-line item
    rep = verify_reciprocity(-1, ctx)
    assert rep.all_pass and len(rep.items) == 1 and rep.items[0].lhs == 1


def test_verify_bounds_spot():
    ctx = Context(5, 2)
    rep = verify_bounds(-12, ctx)
    assert rep.all_pass
    rep = verify_bounds(-1, ctx)
    assert rep.all_pass


def test_verify_strong_linkage_spot():
    assert verify_strong_linkage(-12, Context(5, 2)).all_pass
    assert verify_strong_linkage(24, Context(5, 2)).all_pass


def test_verify_steinberg_examples():
    ctx = Context(5, 2)
    rep = verify_steinberg_equivalence(0, ctx)
    assert rep.all_pass
    table = [it for it in rep.items if it.input.get("check") == "factor-table"][0]
    assert table.lhs == [(-6, 1), (4, 1)]  # matches the level-one pair {0, -2}
    assert verify_steinberg_equivalence(-1, ctx).all_pass
    with pytest.raises(ValueError):
        verify_steinberg_equivalence(0, Context(5, 1))
    # Hom dimensions transport across the embedding
    r1, r2 = Context(5, 1), Context(5, 2)
    assert hom_dim(4 + 5 * 0, 4 + 5 * 8, r2) == hom_dim(0, 8, r1) == 1


def test_level_drop_at_deep_level():
    # from a cold cache the tables span 400 levels, so the call depth must
    # not grow with r
    _folded_factors.cache_clear()
    p = 3
    ctx, sub = Context(p, 400), Context(p, 399)
    for m in (0, 1, 4, 10):
        lhs = delta_factors(p - 1 + p * m, ctx)
        assert lhs == {p - 1 + p * nu: k for nu, k in delta_factors(m, sub).items()}


def test_large_level_walks_the_residue_nearest_zero(monkeypatch):
    # a weight near zero folds to itself, not to its r-digit residue in
    # [0, p^r), so no walk divides a long number at a large level
    walk, walked = factors._digit_walk, []

    def spy(p, r, lam):
        walked.append(lam)
        return walk(p, r, lam)

    monkeypatch.setattr(factors, "_digit_walk", spy)
    _folded_factors.cache_clear()
    ctx = Context(3, 5000)
    assert delta_factors(-1, ctx) == {-1: 1}
    assert hom_dim(-1, -1, ctx) == 1
    assert table_size(tilde(0, ctx), ctx) == 2**5000
    _folded_factors.cache_clear()
    assert walked and all(abs(lam) <= 2 for lam in walked), [lam.bit_length() for lam in walked]


def test_verify_mult_free_and_linkage_reports():
    ctx = Context(3, 2)
    assert verify_mult_free(-2 * ctx.q, 2 * ctx.q, ctx).all_pass
    rep = verify_linkage_necessity(-9, 9, ctx)
    assert rep.all_pass and rep.items  # nonzero Hom pairs do occur


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 1)])
def test_hom_dim_equals_composition_multiplicity(p, r):
    # projective covers see composition factors: the Hom space from the
    # cover of the simple at lam into any tilting has the dimension of that
    # simple's multiplicity there, so hom_dim can be cross-checked through
    # the character ring with no reference to common-factor counting
    ctx = Context(p, r)
    for lam in range(-ctx.q, ctx.q + 1):
        cover = tilde(lam, ctx)
        for nu in range(lam - ctx.q, lam + 2 * ctx.q + 1):
            comp = decompose_into_simples(tilting_char(nu, ctx), ctx)
            assert hom_dim(cover, nu, ctx) == comp.get(lam, 0), (lam, nu)


def test_reciprocity_spot_level_three():
    ctx = Context(3, 3)
    for lam in (-28, -1, 0, 5, 13, 26):
        assert verify_reciprocity(lam, ctx).all_pass


def _index_entries(index) -> list[tuple[int, int, int]]:
    """The (residue, offset, multiplicity) entries of a period index, sorted:
    residues keyed by position or by dict key, each entry a dict from offsets
    to multiplicities or a tuple of offsets of multiplicity one."""
    rows = index.items() if isinstance(index, dict) else enumerate(index)
    return sorted(
        (c, d, k)
        for c, entry in rows
        for d, k in (entry.items() if isinstance(entry, dict) else ((d, 1) for d in entry))
    )


@pytest.mark.parametrize("p,r", [(3, 3), (5, 2), (7, 2)])
def test_period_indexes_match_their_definitions(p, r):
    ctx = Context(p, r)
    q = ctx.q
    # offset d has multiplicity k in entry c exactly when the peeled standard
    # object at nu + d holds the simple at nu, nu = c mod q, k times; every
    # standard object of three periods is peeled afresh, and each entry is
    # checked at three of its weights
    peels = {}

    def peel(mu):
        if mu not in peels:
            peels[mu] = decompose_into_simples(baby_verma_char(mu, ctx), ctx)
        return peels[mu]

    simples = _index_entries(deltafilt._simples_index(p, r))
    held = set(simples)
    for head in range(-q, 2 * q):
        for nu, k in peel(head).items():
            assert (nu % q, head - nu, k) in held, (head, nu, k)
    for c, d, k in simples:
        for nu in (c - q, c, c + q):
            assert peel(nu + d).get(nu) == k, (c, d, k, nu)
    # w - nu is an offset in the entry of nu mod q exactly when nu lies in
    # the folded table at w, over the folded w = -1 mod step
    for step in (p, 1):
        folded = [w for w in range(-(q // 2), q - q // 2) if w % step == step - 1]
        expected = sorted((nu % q, w - nu, 1) for w in folded for nu in delta_factors(w, ctx))
        assert _index_entries(deltafilt._folded_holders(p, r, step)) == expected, step
