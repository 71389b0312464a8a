"""`delta_factors` against a plain reference: the level recursion, uncached.

The engine builds each table from one walk over the p-adic digits of the
folded weight.  The reference below is the older recursion written out on
its own: level one by hand, a wall weight through the level below, a regular
weight through the table of its lower wall.  It keeps every multiplicity it
meets, so a walk that merged two images would disagree with it.

The Hom pairs of the level-drop sweep are checked against the per-pair loop
they replace: one `hom_dim` call at each level for every partner of a
residue.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tiltcell.deltafilt import delta_factors, hom_dim, verify_steinberg_equivalence
from tiltcell.weights import Context

PRIMES = (3, 5, 7, 11, 13)


def reference_factors(lam: int, p: int, r: int) -> dict[int, int]:
    period = 2 * p**r
    lam0 = lam % period
    shift = lam - lam0
    return {nu + shift: k for nu, k in _reference_folded(lam0, p, r).items()}


def _reference_folded(lam: int, p: int, r: int) -> dict[int, int]:
    a = lam % p
    n = (lam - a) // p
    if r == 1:
        return {lam: 1} if a == p - 1 else {lam: 1, n * p - a - 2: 1}
    if a == p - 1:
        sub = reference_factors(n, p, r - 1)
        return {p - 1 + p * nu: k for nu, k in sub.items()}
    out: dict[int, int] = {}
    for nu, mult in reference_factors(n * p - 1, p, r).items():
        assert (nu + 1) % p == 0, "a wall table holds wall weights only"
        k = (nu + 1) // p
        for image in (k * p + a, k * p - a - 2):
            out[image] = out.get(image, 0) + mult
    return out


@st.composite
def weights(draw):
    p = draw(st.sampled_from(PRIMES))
    r = draw(st.integers(1, 6))
    bound = 4 * p**r
    return p, r, draw(st.integers(-bound, bound))


@settings(deadline=None, max_examples=300)
@given(weights())
def test_walk_matches_recursion(case):
    p, r, lam = case
    assert delta_factors(lam, Context(p, r)) == reference_factors(lam, p, r)


@pytest.mark.parametrize(
    "p,r", [(3, r) for r in range(1, 6)] + [(5, r) for r in range(1, 4)] + [(7, 1), (7, 2)]
)
def test_walk_matches_recursion_over_one_period(p, r):
    ctx = Context(p, r)
    for lam in range(2 * ctx.q):
        assert delta_factors(lam, ctx) == reference_factors(lam, p, r), lam


@settings(deadline=None, max_examples=200)
@given(weights(), st.integers(-3, 3))
def test_shift_equivariance(case, eta):
    # the period is p^r, half the period the reference folds by
    p, r, lam = case
    ctx = Context(p, r)
    shift = ctx.q * eta
    base = delta_factors(lam, ctx)
    assert delta_factors(lam + shift, ctx) == {nu + shift: k for nu, k in base.items()}


@st.composite
def weight_pairs(draw):
    """A weight and a partner: a factor of its table, so the Hom space is
    nonzero, or any weight within two periods."""
    p, r, lam = draw(weights())
    ctx = Context(p, r)
    if draw(st.booleans()):
        mu = draw(st.sampled_from(sorted(delta_factors(lam, ctx))))
    else:
        mu = lam + draw(st.integers(-4 * ctx.q, 4 * ctx.q))
    return ctx, lam, mu


@settings(deadline=None, max_examples=200)
@given(weight_pairs())
def test_hom_dim_symmetric(case):
    ctx, lam, mu = case
    assert hom_dim(lam, mu, ctx) == hom_dim(mu, lam, ctx)


def per_pair_homs(p: int, r: int, m0: int) -> tuple[tuple[int, int], ...]:
    """The level-drop Hom pairs at m0, one `hom_dim` call per level and
    partner m0 + d, d in [-2p^(r-1), 2p^(r-1)]."""
    ctx, sub_ctx = Context(p, r), Context(p, r - 1)
    span = 2 * sub_ctx.q
    return tuple(
        (hom_dim(p - 1 + p * m0, p - 1 + p * m2, ctx), hom_dim(m0, m2, sub_ctx))
        for m2 in range(m0 - span, m0 + span + 1)
    )


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2)])
def test_level_drop_homs_match_the_per_pair_loop(p, r):
    ctx = Context(p, r)
    for m in range(p ** (r - 1)):
        rep = verify_steinberg_equivalence(m, ctx)
        homs = tuple((it.lhs, it.rhs) for it in rep.items if it.input["check"] == "hom")
        assert homs == per_pair_homs(p, r, m), m
