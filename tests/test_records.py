"""The value records `weights.Context` and `quiver.PathElement`: how they are
built, compared, hashed, printed, copied and pickled, and that a `Context`
cannot be changed after construction."""

from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction

import pytest

from tiltcell.quiver import PathElement
from tiltcell.weights import Context

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


# --- Context -----------------------------------------------------------------


def test_context_fields_and_defaults():
    ctx = Context(5, 2)
    assert (ctx.p, ctx.r) == (5, 2)
    assert Context(3).r == 1
    assert Context(p=5, r=2).q == 25
    assert Context(p=5, r=2) == ctx
    assert Context(5, r=2) == ctx


def test_context_equality():
    assert Context(5, 2) == Context(5, 2)
    assert not Context(5, 2) != Context(5, 2)
    assert Context(5, 2) != Context(5, 1)
    assert Context(5, 2) != Context(3, 2)
    assert Context(3) == Context(3, 1)


def test_context_hash():
    assert hash(Context(5, 2)) == hash((5, 2))
    assert hash(Context(5, 2)) == hash(Context(5, 2))
    assert len({Context(5, 2), Context(5, 2), Context(3)}) == 2


def test_context_repr():
    assert repr(Context(5, 2)) == "Context(p=5, r=2)"
    assert repr(Context(3)) == "Context(p=3, r=1)"


def test_context_is_immutable():
    ctx = Context(5, 2)
    with pytest.raises(AttributeError):
        ctx.p = 7
    with pytest.raises(AttributeError):
        del ctx.r
    with pytest.raises(AttributeError):
        ctx.x = 1
    assert ctx == Context(5, 2)


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_context_round_trips(trip):
    ctx = Context(7, 3)
    back = ROUND_TRIPS[trip](ctx)
    assert back.__class__ is Context
    assert back == ctx
    assert hash(back) == hash(ctx)
    assert back.q == 343


@pytest.mark.parametrize(
    "args, message",
    [
        ((4,), "p must be an odd prime >= 3, got 4"),
        ((2,), "p must be an odd prime >= 3, got 2"),
        ((5, 0), "r must be a positive integer, got 0"),
    ],
)
def test_context_validation_messages(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Context(*args)


# --- PathElement -------------------------------------------------------------


def test_path_element_drops_zeros_and_makes_fractions():
    elem = PathElement(0, 1, {(2,): 3, (4, 5): 0, (6,): Fraction(0), (7, 8): Fraction(1, 2)})
    assert elem.terms == {(2,): Fraction(3), (7, 8): Fraction(1, 2)}
    assert all(c.__class__ is Fraction for c in elem.terms.values())
    assert (elem.source, elem.target) == (0, 1)
    assert elem.terms
    assert not PathElement(0, 1, {(2,): 0}).terms


def test_path_element_keyword_construction():
    elem = PathElement(source=0, target=1, terms={(2,): 1})
    assert elem == PathElement(0, 1, {(2,): Fraction(1)})


def test_path_element_equality():
    elem = PathElement(0, 1, {(2,): 1, (3, 4): Fraction(-2)})
    assert elem == PathElement(0, 1, {(3, 4): -2, (2,): Fraction(1), (5,): 0})
    assert not elem != PathElement(0, 1, {(2,): 1, (3, 4): -2})
    assert elem != PathElement(0, 1, {(2,): 1})
    assert elem != PathElement(0, 2, {(2,): 1, (3, 4): -2})
    assert elem != PathElement(1, 1, {(2,): 1, (3, 4): -2})
    assert PathElement(0, 1, {}) == PathElement(0, 1, {(2,): 0})


def test_path_element_repr():
    elem = PathElement(0, 1, {(2,): 3, (4, 5): Fraction(1, 2)})
    assert repr(elem) == (
        "PathElement(source=0, target=1, terms={(2,): Fraction(3, 1), (4, 5): Fraction(1, 2)})"
    )
    assert repr(PathElement("w0", "s", {})) == "PathElement(source='w0', target='s', terms={})"


def test_path_element_is_unhashable():
    with pytest.raises(TypeError):
        hash(PathElement(0, 1, {(2,): 1}))


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_path_element_round_trips(trip):
    elem = PathElement(0, 1, {(2,): 3, (4, 5): Fraction(1, 2)})
    back = ROUND_TRIPS[trip](elem)
    assert back.__class__ is PathElement
    assert back == elem
    assert repr(back) == repr(elem)
    assert all(c.__class__ is Fraction for c in back.terms.values())
