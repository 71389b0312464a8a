"""The two ladder builders as they were before p1 and p2 became instances of
one builder, kept verbatim as references, except that each single rule goes
through the test-local `_rule` or `_derived`.

Every build on the grid below must equal its reference: the quiver (arrow
order included), and the relations, rules and derived rules of the relation
set, each compared as a list so that their order is pinned too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import pytest

from tiltcell.factors import delta_factors
from tiltcell.quiver import (
    _MARGIN,
    Arrow,
    Quiver,
    QuiverConfigError,
    RelationSet,
    _Builder,
    _ladder_arrows,
    _resolve_scalars,
    build_p1_quiver,
    build_p2_quiver,
    ladder_weight,
    p2_scalar_names,
    right_neighbor,
)
from tiltcell.weights import Context


def _rule(b: _Builder, redex, repl) -> None:
    b._add(b.rules, *b._ids(redex, repl))


def _derived(b: _Builder, redex, repl) -> None:
    b._add(b.derived, *b._ids(redex, repl))


def left_neighbor(j: int, p: int) -> int:
    """Reflect j in the nearest multiple of p strictly below it."""
    return 2 * p * (j // p) - j


def reference_p1(p: int, window: int = 2) -> tuple[Quiver, RelationSet]:
    """The zigzag chain on positions [-2(window+_MARGIN), 2(window+_MARGIN)];
    positions within 2*window of zero form the trusted core."""
    if window < 2:
        raise QuiverConfigError("p1 window must be >= 2")
    ctx = Context(p, 1)
    half = 2 * (window + _MARGIN)
    vertices = list(range(-half, half + 1))
    arrows: list[Arrow] = []
    for n in range(-half, half):
        arrows.append(Arrow(f"u{n}", n, n + 1, "u", f"d{n}"))
        arrows.append(Arrow(f"d{n}", n + 1, n, "d", f"u{n}"))
    weights = {n: ladder_weight(n, p) for n in vertices}
    core = frozenset(range(-2 * window, 2 * window + 1))
    quiver = Quiver("p1", vertices, arrows, weights, core, 2, ctx)
    b = _Builder(quiver)
    for n in range(-half, half - 1):
        _rule(b, [f"u{n}", f"u{n+1}"], [])
        _rule(b, [f"d{n+1}", f"d{n}"], [])
    for x in range(-half + 1, half):
        # the loop at x through x+1 becomes the loop through x-1
        _rule(b, [f"u{x}", f"d{x}"], [([f"d{x-1}", f"u{x-1}"], Fraction(1))])
    return quiver, b.finish({})


def reference_p2(
    p: int,
    window: int = 1,
    scalars: Mapping[str, object] | None = None,
    boundary_loops: bool = True,
) -> tuple[Quiver, RelationSet]:
    """The level-two ladder on columns [-2p(window+_MARGIN), 2p(window+_MARGIN)].

    Columns within 2p*window of zero form the trusted core.  The window is
    cut at multiples of 2p, so every vertical chain is complete and only the
    horizontal rows are severed at the ends.
    """
    if window < 1:
        raise QuiverConfigError("p2 window must be >= 1")
    ctx = Context(p, 2)
    period = 2 * p
    half = period * (window + _MARGIN)
    lo, hi = -half, half
    vertices = list(range(lo, hi + 1))
    weights = {j: ladder_weight(j, p) for j in vertices}
    config = _resolve_scalars("p2", p, scalars)

    arrows: list[Arrow] = []
    for j in range(lo, hi):
        if j % p != p - 1:
            arrows.append(Arrow(f"u{j}", j, j + 1, "u", f"d{j}"))
            arrows.append(Arrow(f"d{j}", j + 1, j, "d", f"u{j}"))
    for j in range(lo, hi + 1):
        if j % p != 0:
            t = right_neighbor(j, p)
            if lo <= t <= hi:
                arrows.append(Arrow(f"u'{j}", j, t, "u'", f"d'{j}"))
                arrows.append(Arrow(f"d'{j}", t, j, "d'", f"u'{j}"))

    core = frozenset(range(-period * window, period * window + 1))
    quiver = Quiver("p2", vertices, arrows, weights, core, period, ctx)
    for a in quiver.arrows:
        if a.kind in ("u", "u'"):
            # sanity: the arrow's cell weight occurs in its target's table
            if delta_factors(weights[a.target], ctx).get(weights[a.source], 0) != 1:
                raise QuiverConfigError(f"arrow {a.name} has no cellular home")

    has = quiver.by_name.__contains__
    b = _Builder(quiver)

    for j in range(lo, hi):
        if has(f"u{j}") and has(f"u{j+1}"):
            _rule(b, [f"u{j}", f"u{j+1}"], [])
            _rule(b, [f"d{j+1}", f"d{j}"], [])
    for j in range(lo, hi + 1):
        if has(f"u'{j}"):
            t = right_neighbor(j, p)
            if has(f"u'{t}"):
                _rule(b, [f"u'{j}", f"u'{t}"], [])
                _rule(b, [f"d'{t}", f"d'{j}"], [])
    for x in range(lo, hi + 1):
        # vertical loops: through above equals through below
        if has(f"u{x}") and has(f"u{x-1}"):
            _rule(b, [f"u{x}", f"d{x}"], [([f"d{x-1}", f"u{x-1}"], Fraction(1))])
        # horizontal loops: through the right neighbour equals through the left
        if has(f"u'{x}"):
            l = left_neighbor(x, p)
            if has(f"u'{l}"):
                _rule(b, [f"u'{x}", f"d'{x}"], [([f"d'{l}", f"u'{l}"], Fraction(1))])
        if x % p in (0, p - 1):
            continue
        rn1 = right_neighbor(x, p) - 1  # equals right_neighbor(x + 1, p)
        if not (has(f"u'{x}") and has(f"u{x}") and has(f"u{rn1}") and has(f"u'{x+1}")):
            continue
        m = config[f"m{x % period}"]
        n = config[f"n{x % period}"]
        # commuting squares: right-then-down equals down-then-right ...
        _rule(b, [f"u'{x}", f"d{rn1}"], [([f"u{x}", f"u'{x+1}"], m)])
        _rule(b, [f"u{rn1}", f"d'{x}"], [([f"d'{x+1}", f"d{x}"], m)])
        # ... and the transposed squares
        _rule(b, [f"u'{x+1}", f"u{rn1}"], [([f"d{x}", f"u'{x}"], n)])
        _rule(b, [f"d{rn1}", f"d'{x+1}"], [([f"d'{x}", f"u{x}"], n)])

    for c in range(lo, hi + 1):
        if c % p != 0 or not has(f"u{c}"):
            continue
        if boundary_loops and has(f"u'{c-1}"):
            # chain-top loop identification (see module docstring)
            theta = config[f"theta{c % period}"]
            _rule(
                b,
                [f"u{c}", f"d'{c-1}", f"u'{c-1}", f"d{c}"],
                [([f"u{c}", f"d{c}"], theta)],
            )
        # consequences of the families above; rewriting only
        _derived(b, [f"u{c}", f"d{c}", f"u{c}"], [])
        _derived(b, [f"d{c}", f"u{c}", f"d{c}"], [])
        if has(f"u'{c-1}") and has(f"u{c-2}"):
            mn = config[f"m{(c - 2) % period}"] * config[f"n{(c - 2) % period}"]
            _derived(
                b,
                [f"u'{c-1}", f"d{c}", f"u{c}"],
                [([f"d{c-2}", f"u{c-2}", f"u'{c-1}"], mn)],
            )
            _derived(
                b,
                [f"d{c}", f"u{c}", f"d'{c-1}"],
                [([f"d'{c-1}", f"d{c-2}", f"u{c-2}"], mn)],
            )
            _derived(b, [f"u{c-2}", f"u'{c-1}", f"d{c}"], [])
            _derived(b, [f"u{c}", f"d'{c-1}", f"d{c-2}"], [])

    return quiver, b.finish(config)


PRIMES = (3, 5, 7, 11, 13)


def _fractional_balanced(p):
    """A point of the balanced locus with fractional square and loop scalars."""
    sign = {"m": 1, "n": -1}
    out = {k: sign[k[0]] * Fraction(2, 3) for k in p2_scalar_names(p) if k[0] in sign}
    out.update({"theta0": Fraction(-5, 7), f"theta{p}": Fraction(3, 11)})
    return out


SCALARS = {
    "default": lambda p: None,
    "balanced": _fractional_balanced,
    "unbalanced": lambda p: {"m1": 2, f"n{p + 1}": Fraction(-1, 3)},
}


def _assert_same(got, want):
    """The defining fields of both quivers and both relation sets agree, the
    rule tables in order too."""
    (q, rels), (q0, rels0) = got, want
    for field in ("preset", "vertices", "arrows", "weights", "core", "shift_period", "context"):
        assert getattr(q, field) == getattr(q0, field), field
    assert rels.scalars == rels0.scalars
    assert rels.relations == rels0.relations
    assert list(rels.rules.items()) == list(rels0.rules.items())
    assert list(rels.derived_rules.items()) == list(rels0.derived_rules.items())


@pytest.mark.parametrize("window", [2, 3, 5])
@pytest.mark.parametrize("p", PRIMES)
def test_p1_matches_reference(p, window):
    _assert_same(build_p1_quiver(p, window), reference_p1(p, window))


@pytest.mark.parametrize("loops", [True, False], ids=["loops", "bare"])
@pytest.mark.parametrize("scalars", list(SCALARS))
@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("p", PRIMES)
def test_p2_matches_reference(p, window, scalars, loops):
    s = SCALARS[scalars](p)
    _assert_same(build_p2_quiver(p, window, s, loops), reference_p2(p, window, s, loops))


def test_window_minimums():
    with pytest.raises(QuiverConfigError, match="p1 window must be >= 2"):
        build_p1_quiver(3, window=1)
    with pytest.raises(QuiverConfigError, match="p2 window must be >= 1"):
        build_p2_quiver(3, window=0)


def test_arrow_without_cellular_home_is_refused(monkeypatch):
    """An up arrow whose source weight is missing from its target's factor
    table is refused, naming the first such arrow in arrow order."""
    import tiltcell.quiver as quiver

    monkeypatch.setattr(quiver, "delta_factors", lambda weight, ctx: {})
    with pytest.raises(QuiverConfigError, match=r"^arrow u-8 has no cellular home$"):
        build_p1_quiver(3)
    with pytest.raises(QuiverConfigError, match=r"^arrow u-18 has no cellular home$"):
        build_p2_quiver(3)

    def without_4_at_16(weight, ctx):
        table = delta_factors(weight, ctx)
        return {mu: m for mu, m in table.items() if (weight, mu) != (16, 4)}

    monkeypatch.setattr(quiver, "delta_factors", without_4_at_16)
    with pytest.raises(QuiverConfigError, match=r"^arrow u'1 has no cellular home$"):
        build_p2_quiver(3)


def _midpoint_ups(p: int, r: int, half: int) -> list[tuple[str, int, int]]:
    """The up arrows (kind, source, target) of the level-r ladder on the
    columns |j| <= half, by kind and then source, stated by midpoints: kind 1
    joins j to j+1, and kind k >= 2 joins j < t when (j+t)/2 is a multiple
    of b = p^(k-1) and t - j < 2b.  Below kind r an arrow is dropped when its
    target (kind 1) or its midpoint (kind k >= 2) is a multiple of b*p."""
    ups = []
    for k in range(1, r + 1):
        b = p ** (k - 1)
        for j in range(-half, half + 1):
            for t in range(j + 1, min(j + 2 * b, half + 1)):
                at = t if k == 1 else Fraction(j + t, 2)
                if k > 1 and at % b:
                    continue
                if k < r and at % (b * p) == 0:
                    continue
                ups.append(("u" + "'" * (k - 1), j, t))
    return ups


# up arrows of kinds u, u', u'' at r = 3 on |j| <= 6p^2
LEVEL_THREE_COUNTS = {3: [72, 48, 88], 5: [240, 192, 264]}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
def test_ladder_arrows_follow_the_midpoint_rule(p, r):
    """On three level-three periods each side, every kind of arrow at levels
    one to three follows the rule by midpoints, each up arrow is followed by
    its dual, and the arrows are invariant under the shift period."""
    half = 3 * 2 * p**2
    weights = {j: ladder_weight(j, p) for j in range(-half, half + 1)}
    arrows = _ladder_arrows(Context(p, r), weights)
    ups = [(a.kind, a.source, a.target) for a in arrows[::2]]
    assert ups == _midpoint_ups(p, r, half)
    if r == 3:
        kinds = [kind for kind, _, _ in ups]
        assert [kinds.count(kind) for kind in ("u", "u'", "u''")] == LEVEL_THREE_COUNTS[p]
    for up, down in zip(arrows[::2], arrows[1::2]):
        primes, j = up.kind[1:], up.source
        assert up == Arrow(f"u{primes}{j}", j, up.target, f"u{primes}", f"d{primes}{j}")
        assert down == Arrow(f"d{primes}{j}", up.target, j, f"d{primes}", up.name)
    period = 2 * p ** (r - 1)
    found = set(ups)
    for kind, j, t in ups:
        if t + period <= half:
            assert (kind, j + period, t + period) in found
        if j - period >= -half:
            assert (kind, j - period, t - period) in found
