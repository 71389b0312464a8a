"""The duality anti-involution on the presets' relation sets.

A strictly object-adapted cellular category has an anti-involution that
fixes objects and sends c^λ_{S,T} to c^λ_{T,S}.  On a presentation it sends
each arrow to its `dual` and reverses paths, and every preset's rules and
derived rules are closed under it: the dual of each redex is a redex whose
replacement is the dual of the first replacement, term for term.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from tiltcell.quiver import (
    QuiverConfigError,
    _Builder,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
    p2_scalar_names,
)


def _balanced(p):
    """One magnitude for every square scalar, one sign per family, and
    fractional loop scalars."""
    scalars = {k: Fraction(2, 3) * (1 if k[0] == "m" else -1) for k in p2_scalar_names(p)[:-2]}
    scalars.update({"theta0": Fraction(-5, 7), f"theta{p}": 3})
    return scalars


def _unbalanced(p):
    return {"m1": 2, f"n{p + 1}": Fraction(-1, 3), "theta0": Fraction(1, 2)}


BUILDS = {
    **{f"p1-p{p}": (lambda p=p: build_p1_quiver(p)) for p in (3, 5)},
    **{
        f"p2-p{p}-{name}-{'loops' if loops else 'bare'}": (
            lambda p=p, scalars=scalars, loops=loops: build_p2_quiver(
                p, scalars=scalars(p), boundary_loops=loops
            )
        )
        for p in (3, 5, 7)
        for name, scalars in (("balanced", _balanced), ("unbalanced", _unbalanced))
        for loops in (True, False)
    },
    "sl3-1-1-0": lambda: build_sl3_quiver(1, 1, 0),
    "sl3-2-3-0": lambda: build_sl3_quiver(2, Fraction(-3, 4), 0),
    "sl3-1-2-5": lambda: build_sl3_quiver(Fraction(1, 3), 2, 5),
}


@pytest.mark.parametrize("name", list(BUILDS))
def test_rules_are_closed_under_duality(name):
    quiver, rels = BUILDS[name]()
    dual = [quiver.arrow_id(a.dual) for a in quiver.arrows]

    def image(path):
        return tuple(dual[i] for i in reversed(path))

    for table in (rels.rules, rels.derived_rules):
        for redex, repl in table.items():
            assert table.get(image(redex)) == tuple((image(path), c) for path, c in repl), (
                quiver.format_path(redex)
            )


GUARDS = {
    # the image of the square u2 then u5 -> u1 then u3 is stated again by hand
    "dual-stated-by-hand": (
        lambda b: b.state(
            [(["u2", "u5"], [(["u1", "u3"], 1)]), (["d5", "d2"], [(["d3", "d1"], 1)])]
        ),
        "duplicate rule for redex d2*d5",
    ),
    # u3 then d3 is its own image, while d1 then u2 maps to d2 then u1
    "self-dual-redex": (
        lambda b: b.state([(["u3", "d3"], [(["d1", "u2"], 1)])]),
        "self-dual redex d3*u3: replacement is not",
    ),
    "derived-rule-twice": (
        lambda b: [b.state([(["u1", "d1", "u1"], [])], derived=True) for _ in range(2)],
        "duplicate rule for redex u1*d1*u1",
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_builder_guards(name):
    """The builder refuses a redex it already holds, and a self-dual redex
    whose replacement is not self-dual."""
    act, message = GUARDS[name]
    quiver, _ = build_sl3_quiver()
    with pytest.raises(QuiverConfigError, match=f"^{re.escape(message)}$"):
        act(_Builder(quiver))
