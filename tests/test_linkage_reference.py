"""Strong linkage and the linkage-necessity sweep against their searches.

`weights.strongly_linked` is a congruence mod 2p, and the necessity sweep
tests each pair of its window by the same congruence.  The references below
are the code they replaced: a breadth-first search over single
weight-increasing dot reflections, and a sweep that builds the dot orbit of
every weight of its window as a set and looks each partner up in it.  The
search keeps no congruence pre-check, so it decides both answers on its own.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st
from test_cli import invoke
from test_cli_golden import GOLDEN

from tiltcell import deltafilt, weights
from tiltcell.deltafilt import verify_linkage_necessity
from tiltcell.factors import delta_factors
from tiltcell.report import Report
from tiltcell.weights import Context, strongly_linked

PRIMES = (3, 5, 7, 11, 13)
BOUND = 10**4


def bfs_strongly_linked(mu: int, lam: int, p: int) -> bool:
    """Raise mu by single dot reflections, keeping the frontier <= lam."""
    if mu == lam:
        return True
    if mu > lam:
        return False
    frontier, seen = [mu], {mu}
    while frontier:
        nxt = []
        for x in frontier:
            n_min = (x + 1) // p + 1  # smallest n with n*p - 1 > x
            n_max = (lam + x + 2) // (2 * p)  # largest n keeping the image <= lam
            for n in range(n_min, n_max + 1):
                y = 2 * (n * p - 1) - x
                if y == lam:
                    return True
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return False


def orbit_linkage_necessity(lo: int, hi: int, ctx: Context) -> Report:
    """The sweep with one orbit set per weight, over a range 8p^r wider than
    the window."""
    rep = Report("linkage-necessity", {"p": ctx.p, "r": ctx.r})
    tables = {mu: delta_factors(mu, ctx) for mu in range(lo, hi + 1)}
    holders: dict[int, list[int]] = {}
    for mu, fac in tables.items():
        for nu in fac:
            holders.setdefault(nu, []).append(mu)
    for lam, fac in tables.items():
        orbit = weights.dot_orbit(lam, lo - 4 * ctx.q, hi + 4 * ctx.q, ctx)
        for mu in sorted({mu for nu in fac for mu in holders[nu]}):
            rep.add({"lam": lam, "mu": mu}, mu in orbit, True)
    return rep


@pytest.fixture
def no_orbit_sets(monkeypatch):
    """Make building an orbit set through the engine an error."""

    def refuse(*args, **kwargs):
        raise AssertionError("an orbit set was built")

    monkeypatch.setattr(deltafilt, "dot_orbit", refuse)


@pytest.mark.parametrize("p", PRIMES)
def test_strongly_linked_matches_search(p):
    ctx = Context(p)
    span = range(-6 * p, 6 * p)
    for mu in span:
        for lam in span:
            assert strongly_linked(mu, lam, ctx) == bfs_strongly_linked(mu, lam, p), (mu, lam)


@st.composite
def pairs(draw):
    """A prime and two weights in [-BOUND, BOUND]; half the time the second
    is drawn from the dot orbit of the first, so linked pairs are common."""
    p = draw(st.sampled_from(PRIMES))
    mu = draw(st.integers(-BOUND, BOUND))
    if draw(st.booleans()):
        return p, mu, draw(st.integers(-BOUND, BOUND))
    base = draw(st.sampled_from((mu, -mu - 2)))
    k = draw(st.integers(-((base + BOUND) // (2 * p)), (BOUND - base) // (2 * p)))
    return p, mu, base + 2 * k * p


@settings(deadline=None, max_examples=300)
@given(pairs())
def test_strongly_linked_matches_search_far_apart(case):
    p, mu, lam = case
    ctx = Context(p)
    assert strongly_linked(mu, lam, ctx) == bfs_strongly_linked(mu, lam, p)
    assert strongly_linked(lam, mu, ctx) == bfs_strongly_linked(lam, mu, p)


@pytest.mark.parametrize("p,r", [(3, 4), (5, 3), (7, 2)])
def test_linkage_necessity_matches_orbit_sets(no_orbit_sets, p, r):
    ctx = Context(p, r)
    lo, hi = -ctx.q, ctx.q - 1
    want = orbit_linkage_necessity(lo, hi, ctx).to_dict()
    assert verify_linkage_necessity(lo, hi, ctx).to_dict() == want


def test_linkage_suite_builds_no_orbit_set(no_orbit_sets):
    command = "verify --suite linkage --p 3 --r 3 --lo -54 --hi 53"
    (status, digest), = [(s, d) for c, s, d in GOLDEN if c == command]
    code, out = invoke(command.split())
    assert code == status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
