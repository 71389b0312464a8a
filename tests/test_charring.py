from __future__ import annotations

import random

import pytest

from tiltcell.charring import (
    Character,
    NotAModuleCharacter,
    baby_verma_char,
    decompose_into_simples,
    simple_char,
    simple_char_r,
    weyl_char,
)
from tiltcell.weights import Context


def test_character_canonical_form():
    assert Character({3: 0, 1: 2}) == Character({1: 2})
    assert not Character({0: 1}) - Character({0: 1})
    ch = Character({2: 1, -2: 3})
    assert ch.to_pairs() == [[-2, 3], [2, 1]]


def test_character_arithmetic():
    a = Character({1: 1, -1: 1})
    assert a * a == Character({2: 1, 0: 2, -2: 1})
    assert a.shift(3) == Character({4: 1, 2: 1})
    assert a.dilate(5) == Character({5: 1, -5: 1})
    assert a.scale(-2) == Character({1: -2, -1: -2})


def test_weyl_char_examples():
    assert weyl_char(1) == Character({1: 1, -1: 1})
    assert weyl_char(-1) == Character.zero()
    assert weyl_char(-4) == Character({2: -1, 0: -1, -2: -1})


def test_weyl_char_reflection_identity():
    for m in range(-50, 51):
        assert weyl_char(-m - 2) == -weyl_char(m)


def test_simple_char_examples():
    p = 5
    assert simple_char(p - 1, p) == weyl_char(p - 1)  # the first Steinberg weight
    assert simple_char(p, p) == Character({p: 1, -p: 1})
    assert simple_char(0, p) == Character({0: 1})
    with pytest.raises(ValueError):
        simple_char(-1, p)


def test_simple_char_top_and_symmetry():
    for p in (3, 5):
        for lam in range(0, 3 * p * p):
            ch = simple_char(lam, p)
            assert max(ch.support()) == lam and ch.coeff(lam) == 1
            assert ch == Character({-w: c for w, c in ch.items()})


def product_simple_char(lam: int, p: int) -> Character:
    """The tensor product formula as a product of Characters: the Weyl
    character of each base-p digit, dilated by its power of p."""
    out = Character.basis(0)
    rest, power = lam, 1
    while True:
        rest, d = divmod(rest, p)
        out = out * weyl_char(d).dilate(power)
        if rest == 0:
            return out
        power *= p


@pytest.mark.parametrize("p,r", [(3, 5), (5, 3), (7, 2)])
def test_simple_char_matches_the_digit_product_over_a_period(p, r):
    for head in range(p**r):
        assert simple_char(head, p).to_pairs() == product_simple_char(head, p).to_pairs(), head


def test_simple_char_r_examples():
    assert simple_char_r(-2, Context(3, 1)) == Character({-2: 1, -4: 1})
    for p, r in ((3, 1), (3, 2), (5, 2)):
        ctx = Context(p, r)
        # the top special weight carries the big simple character
        assert simple_char_r(ctx.q - 1, ctx) == weyl_char(ctx.q - 1)
        for m in range(-3, 4):
            assert simple_char_r(-1 + ctx.q * m, ctx) == weyl_char(ctx.q - 1).shift(
                ctx.q * (m - 1)
            )
    assert simple_char_r(0, Context(3, 2)) == Character({0: 1})


def test_baby_verma_char():
    ctx = Context(3, 1)
    assert baby_verma_char(0, ctx) == Character({0: 1, -2: 1, -4: 1})
    for p, r in ((3, 1), (5, 2)):
        ctx = Context(p, r)
        assert baby_verma_char(ctx.q - 1, ctx) == weyl_char(ctx.q - 1)
        for lam in range(-10, 11):
            assert baby_verma_char(lam, ctx).mass() == ctx.q


def test_decompose_examples():
    ctx = Context(3, 1)
    assert decompose_into_simples(baby_verma_char(0, ctx), ctx) == {0: 1, -2: 1}
    assert decompose_into_simples(simple_char_r(7, ctx), ctx) == {7: 1}
    with pytest.raises(NotAModuleCharacter):
        decompose_into_simples(Character({1: 1, 0: -1}), ctx)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 1)])
def test_baby_verma_always_decomposes(p, r):
    ctx = Context(p, r)
    for lam in range(-2 * ctx.q, 2 * ctx.q + 1):
        dec = decompose_into_simples(baby_verma_char(lam, ctx), ctx)
        assert dec[lam] == 1
        assert all(v >= 1 for v in dec.values())


def test_decompose_round_trip():
    rng = random.Random(14)
    ctx = Context(3, 2)
    for _ in range(20):
        mults = {rng.randrange(-20, 21): rng.randrange(1, 4) for _ in range(4)}
        total = Character.zero()
        for lam, k in mults.items():
            total = total + simple_char_r(lam, ctx).scale(k)
        assert decompose_into_simples(total, ctx) == mults
