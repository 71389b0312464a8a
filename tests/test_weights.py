from __future__ import annotations

import pytest

from tiltcell.weights import (
    Context,
    dot_orbit,
    dot_reflect,
    padic_split,
    strongly_linked,
    tilde,
)


def test_context_validation():
    Context(3, 1)
    Context(7, 3)
    with pytest.raises(ValueError):
        Context(2, 1)
    with pytest.raises(ValueError):
        Context(9, 1)
    with pytest.raises(ValueError):
        Context(5, 0)


@pytest.mark.parametrize(
    "lam,p,r,head,tail",
    [
        (0, 3, 1, 0, 0),
        (-2, 3, 1, 1, -1),
        (-11, 5, 2, 14, -1),  # -2p-1 at p=5, r=2
    ],
)
def test_padic_split_examples(lam, p, r, head, tail):
    got = padic_split(lam, Context(p, r))
    assert (got.head, got.tail) == (head, tail)
    assert got.head + p**r * got.tail == lam
    assert 0 <= got.head < p**r


def test_padic_split_reconstruction_sweep():
    ctx = Context(5, 2)
    for lam in range(-200, 201):
        head, tail = padic_split(lam, ctx)
        assert 0 <= head < ctx.q and head + ctx.q * tail == lam


def test_tilde_examples():
    assert tilde(0, Context(3, 1)) == 4
    assert tilde(-12, Context(5, 2)) == 10  # -2p-2 -> 2p at p=5, r=2
    for m in range(-4, 5):
        ctx = Context(5, 2)
        assert tilde(-1 + ctx.q * m, ctx) == -1 + ctx.q * m  # special fixed points


def _ref_padic_split(lam: int, q: int) -> tuple[int, int]:
    head = lam % q
    return head, (lam - head) // q


def _ref_tilde(lam: int, q: int) -> int:
    head, tail = _ref_padic_split(lam, q)
    return 2 * (q - 1) - head + q * tail


@pytest.mark.parametrize("p,r", [(3, 1), (3, 5), (5, 3), (7, 2)])
def test_padic_split_and_tilde_match_reference_formulas(p, r):
    # the head/tail split and tilde as first written, over three periods
    ctx = Context(p, r)
    q = p**r
    for lam in range(-q - 3, 2 * q + 3):
        assert tuple(padic_split(lam, ctx)) == _ref_padic_split(lam, q), lam
        assert tilde(lam, ctx) == _ref_tilde(lam, q), lam


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_tilde_squared_is_twist_shift(p, r):
    # applying tilde twice shifts by the tensor period 2q, except on the
    # fixed special weights; on twist classes mod 2q it is an involution
    ctx = Context(p, r)
    for lam in range(-10 * ctx.q, 10 * ctx.q + 1):
        twice = tilde(tilde(lam, ctx), ctx)
        if (lam + 1) % ctx.q == 0:
            assert twice == lam
        else:
            assert twice == lam + 2 * ctx.q


@pytest.mark.parametrize("p,r", [(3, 1), (5, 2)])
def test_tilde_is_bijection_on_window(p, r):
    ctx = Context(p, r)
    image = {tilde(lam, ctx) for lam in range(-6 * ctx.q, 6 * ctx.q)}
    assert len(image) == 12 * ctx.q


@pytest.mark.parametrize("p,r", [(3, 1), (5, 2)])
def test_tilde_box_mapping(p, r):
    # the box q*m + [0, q) goes onto the translated box q*(m+1) - 1 + [0, q)
    ctx = Context(p, r)
    q = ctx.q
    for m in range(-3, 4):
        image = {tilde(q * m + x, ctx) for x in range(q)}
        assert image == {q * (m + 1) - 1 + x for x in range(q)}


def test_dot_reflect():
    ctx = Context(5, 1)
    assert dot_reflect(0, 0, ctx) == -2
    assert dot_reflect(8, 1, ctx) == 0  # 2p-2 reflects to 0
    for n in range(-3, 4):
        wall = n * ctx.p - 1
        assert dot_reflect(wall, n, ctx) == wall
        for lam in range(-20, 21):
            assert dot_reflect(dot_reflect(lam, n, ctx), n, ctx) == lam
            if lam != wall:
                assert dot_reflect(lam, n, ctx) != lam


def test_dot_orbit_examples():
    ctx = Context(5, 1)
    assert dot_orbit(0, -10, 10, ctx) == {-10, -2, 0, 8, 10}
    # wall orbits translate by 2p; the clip matters
    assert dot_orbit(4, -10, 15, ctx) == {-6, 4, 14}
    assert dot_orbit(7, 7, 7, ctx) == {7}


def test_dot_orbit_closed_under_reflection():
    ctx = Context(3, 1)
    orb = dot_orbit(1, -40, 40, ctx)
    for x in orb:
        for n in range(-5, 6):
            y = dot_reflect(x, n, ctx)
            if -40 <= y <= 40:
                assert y in orb


def test_strongly_linked_examples():
    assert strongly_linked(7, 7, Context(3, 1))
    assert strongly_linked(-2, 0, Context(3, 1))
    assert strongly_linked(-2, 0, Context(7, 1))
    # chain through three walls
    assert strongly_linked(-12, 10, Context(5, 2))
    assert not strongly_linked(0, -2, Context(3, 1))
    assert not strongly_linked(1, 2, Context(3, 1))


@pytest.mark.parametrize("p", [3, 5])
def test_strong_linkage_matches_orbit_order(p):
    # rank-one equivalence: mu is strongly linked to lam iff mu <= lam and
    # mu lies in the dot orbit of lam
    ctx = Context(p, 1)
    bound = 2 * p * p
    for lam in range(-bound, bound + 1, 3):
        orbit = dot_orbit(lam, lam - 6 * p, lam, ctx)
        for mu in range(lam - 6 * p, lam + 1):
            assert strongly_linked(mu, lam, ctx) == (mu in orbit)
