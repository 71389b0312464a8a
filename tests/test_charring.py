from __future__ import annotations

import random
from types import MappingProxyType

import pytest

import tiltcell
from tiltcell.charring import (
    NotAModuleCharacter,
    baby_verma_char,
    decompose_into_simples,
    simple_char,
    simple_char_r,
    weyl_char,
)
from tiltcell.deltafilt import tilting_char
from tiltcell.weights import Context

# Characters are dicts of nonzero coefficients; the ring operations below
# serve the tests only, and keep that form.


def _add(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out = dict(f)
    for w, c in g.items():
        out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _scale(f: dict[int, int], k: int) -> dict[int, int]:
    return {w: k * c for w, c in f.items()} if k else {}


def _dilate(f: dict[int, int], m: int) -> dict[int, int]:
    """Substitute e -> e^m, m >= 1."""
    return {m * w: c for w, c in f.items()}


def _product(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for w1, c1 in f.items():
        for w2, c2 in g.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def test_character_is_a_dict():
    assert tiltcell.Character({1: 2}) == {1: 2}
    assert type(tiltcell.Character({1: 2})) is dict


def _assert_fresh_dicts(produce, args):
    """Each call returns a dict with no zero value, and mutating one result
    leaves the next call's unchanged."""
    for a in args:
        ch = produce(a)
        assert type(ch) is dict and all(ch.values()), a
        expected = dict(ch)
        ch.clear()
        ch[1 << 40] = 1
        assert produce(a) == expected, a


def test_weyl_char_returns_fresh_dicts():
    _assert_fresh_dicts(weyl_char, range(-60, 61))


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2)])
def test_producers_return_fresh_dicts(p, r):
    ctx = Context(p, r)
    window = range(-ctx.q, ctx.q)  # two periods
    _assert_fresh_dicts(lambda lam: simple_char(lam, p), range(2 * ctx.q))
    _assert_fresh_dicts(lambda lam: simple_char_r(lam, ctx), window)
    _assert_fresh_dicts(lambda lam: baby_verma_char(lam, ctx), window)
    _assert_fresh_dicts(lambda lam: tilting_char(lam, ctx), window)


def test_weyl_char_examples():
    assert weyl_char(1) == {1: 1, -1: 1}
    assert weyl_char(-1) == {}
    assert weyl_char(-4) == {2: -1, 0: -1, -2: -1}


def test_weyl_char_reflection_identity():
    for m in range(-50, 51):
        assert weyl_char(-m - 2) == _scale(weyl_char(m), -1)


def test_simple_char_examples():
    p = 5
    assert simple_char(p - 1, p) == weyl_char(p - 1)  # the first Steinberg weight
    assert simple_char(p, p) == {p: 1, -p: 1}
    assert simple_char(0, p) == {0: 1}
    with pytest.raises(ValueError):
        simple_char(-1, p)


def test_simple_char_top_and_symmetry():
    for p in (3, 5):
        for lam in range(0, 3 * p * p):
            ch = simple_char(lam, p)
            assert max(ch) == lam and ch[lam] == 1
            assert ch == {-w: c for w, c in ch.items()}


def product_simple_char(lam: int, p: int) -> dict[int, int]:
    """The tensor product formula as a product of characters: the Weyl
    character of each base-p digit, dilated by its power of p."""
    out = {0: 1}
    rest, power = lam, 1
    while True:
        rest, d = divmod(rest, p)
        out = _product(out, _dilate(weyl_char(d), power))
        if rest == 0:
            return out
        power *= p


@pytest.mark.parametrize("p,r", [(3, 5), (5, 3), (7, 2)])
def test_simple_char_matches_the_digit_product_over_a_period(p, r):
    for head in range(p**r):
        assert simple_char(head, p) == product_simple_char(head, p), head


def test_simple_char_r_examples():
    assert simple_char_r(-2, Context(3, 1)) == {-2: 1, -4: 1}
    for p, r in ((3, 1), (3, 2), (5, 2)):
        ctx = Context(p, r)
        # the top special weight carries the big simple character
        assert simple_char_r(ctx.q - 1, ctx) == weyl_char(ctx.q - 1)
        for m in range(-3, 4):
            # times e^(q(m-1)): shifted by q(m-1)
            shifted = _product(weyl_char(ctx.q - 1), {ctx.q * (m - 1): 1})
            assert simple_char_r(-1 + ctx.q * m, ctx) == shifted
    assert simple_char_r(0, Context(3, 2)) == {0: 1}


def test_baby_verma_char():
    ctx = Context(3, 1)
    assert baby_verma_char(0, ctx) == {0: 1, -2: 1, -4: 1}
    for p, r in ((3, 1), (5, 2)):
        ctx = Context(p, r)
        assert baby_verma_char(ctx.q - 1, ctx) == weyl_char(ctx.q - 1)
        for lam in range(-10, 11):
            assert sum(baby_verma_char(lam, ctx).values()) == ctx.q


def test_decompose_examples():
    ctx = Context(3, 1)
    assert decompose_into_simples(baby_verma_char(0, ctx), ctx) == {0: 1, -2: 1}
    assert decompose_into_simples(simple_char_r(7, ctx), ctx) == {7: 1}
    with pytest.raises(NotAModuleCharacter):
        decompose_into_simples({1: 1, 0: -1}, ctx)


def test_peeling_needs_no_mass_cap():
    # {5: 1, 0: -10} has negative mass, which a cap on the peeled mass once
    # refused before the second peel; the peeling itself meets -1 at 3
    ctx = Context(3, 1)
    for f in ({5: 1, 0: -10}, {1: 1, 0: -1}):
        with pytest.raises(NotAModuleCharacter, match="at top weight"):
            decompose_into_simples(f, ctx)
    mults = {5: 2, 1: 1, -4: 3}
    total: dict[int, int] = {}
    for lam, k in mults.items():
        total = _add(total, _scale(simple_char_r(lam, ctx), k))
    assert decompose_into_simples(total, ctx) == mults


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
        total: dict[int, int] = {}
        for lam, k in mults.items():
            total = _add(total, _scale(simple_char_r(lam, ctx), k))
        assert decompose_into_simples(total, ctx) == mults


def test_decompose_reads_any_mapping_and_drops_zeros():
    ctx = Context(3, 2)
    for lam in range(-9, 18):
        ch = _add(baby_verma_char(lam, ctx), simple_char_r(lam - 4, ctx))
        expected = decompose_into_simples(ch, ctx)
        padded = {lam + 1: 0, lam - 100: 0, 10**6: 0, **ch}
        assert decompose_into_simples(padded, ctx) == expected
        assert decompose_into_simples(MappingProxyType(padded), ctx) == expected
