"""Exact arithmetic in the rank-one character ring.

A character is a finitely supported integer combination of basis symbols
e^n, n an integer: the formal character sum(dim M_n * e^n) of a module with
integer weights.  It is a plain dict from weights to nonzero ints (the
alias `Character`), so dict equality is equality of characters.  Every
producer returns a fresh dict, which the caller may mutate; the caches
behind them hold tuples and read-only mappings.

The module provides the classical character formulas needed downstream:

* `weyl_char(m)`: sum(e^(m-2j), j=0..m) for dominant m, extended to all of
  the integers by the reflection rule chi(-m-2) = -chi(m), chi(-1) = 0.
* `simple_char(lam, p)`: characters of simple modules via the tensor
  factorization over base-p digits, each digit twisted by e -> e^(p^i).
  The support is built one digit at a time and cached (`_simple_support`):
  the lowest digit's Weyl character times the support of lam // p dilated
  by p.  Peeling reads the same supports, so the formula is written once.
* `simple_char_r(lam, ctx)`: level-r simples, a head character shifted by
  p^r times the tail.
* `baby_verma_char(lam, ctx)`: chi(p^r - 1) shifted by lam - (p^r - 1);
  its coefficient mass is always p^r.
* `decompose_into_simples`: greedy highest-weight peeling, the exact oracle
  handed to the reciprocity checks.  Valid because every simple character
  has top coefficient one.  It peels inside one mutable dict: each step
  subtracts a multiple of the cached support of the head's simple
  character, shifted by p^r times the tail.  The oracle reads nothing from
  the factor tables of `deltafilt`.
* `baby_verma_simples`: the peeled composition factors of a standard
  object, handed out as a read-only mapping.  They are peeled once per
  residue mod p^r and shifted into place, since peeling commutes with a
  shift by p^r (the standard and simple characters of G_rT are p^r-periodic,
  Jantzen, *Representations of Algebraic Groups*, II.9).

All functions are pure.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .weights import Context, padic_split


class NotAModuleCharacter(ValueError):
    """Raised when highest-weight peeling meets a negative multiplicity."""


# weight -> nonzero integer coefficient; every producer returns a fresh dict
Character = dict[int, int]


def weyl_char(m: int) -> Character:
    """The rank-one Weyl character: e^m + e^(m-2) + ... + e^(-m) for m >= 0,
    zero at m = -1, and -weyl_char(-m-2) below that."""
    if m >= -1:
        return dict.fromkeys(range(m, -m - 1, -2), 1)
    return dict.fromkeys(range(-m - 2, m + 1, -2), -1)


def simple_char(lam: int, p: int) -> Character:
    """Character of the simple module with dominant highest weight lam: the
    tensor product over its base-p digits, read from `_simple_support`."""
    if lam < 0:
        raise ValueError(f"simple characters require a dominant weight, got {lam}")
    return dict(_simple_support(lam, p))


def simple_char_r(lam: int, ctx: Context) -> Character:
    """Character of the level-r simple with highest weight lam (any integer):
    the head's simple character shifted by p^r times the tail."""
    head, tail = padic_split(lam, ctx)
    shift = ctx.q * tail
    return {w + shift: k for w, k in _simple_support(head, ctx.p)}


def baby_verma_char(lam: int, ctx: Context) -> Character:
    """Character of the level-r standard (and costandard) object at lam."""
    return dict.fromkeys(range(lam, lam - 2 * ctx.q, -2), 1)


@lru_cache(maxsize=None)
def _simple_support(head: int, p: int) -> tuple[tuple[int, int], ...]:
    """The (weight, coefficient) pairs of the simple character at head >= 0,
    by the tensor product formula: the Weyl character of the lowest base-p
    digit d, times the support of head // p with its weights dilated by p.
    Digits lie in [0, p-1], where the Weyl and simple characters agree."""
    rest, d = divmod(head, p)
    inner = _simple_support(rest, p) if rest else ((0, 1),)
    out: dict[int, int] = {}
    for w, k in inner:
        for j in range(d + 1):
            v = p * w + d - 2 * j
            out[v] = out.get(v, 0) + k
    return tuple(out.items())


def decompose_into_simples(f: Mapping[int, int], ctx: Context) -> dict[int, int]:
    """Write f as a non-negative combination of level-r simple characters.

    f is any mapping from weights to coefficients; zero coefficients are
    dropped on entry.  Repeatedly peel the maximal remaining weight: its
    coefficient is the multiplicity of that simple, because simple
    characters are supported below their top weight, which carries
    coefficient one.  Raises NotAModuleCharacter if a peel would need a
    negative multiplicity; the loop is capped by the coefficient mass, which
    every genuine peel strictly decreases.
    """
    out: dict[int, int] = {}
    rem = {w: k for w, k in f.items() if k}
    budget = sum(rem.values())
    p, q = ctx.p, ctx.q
    while rem:
        top = max(rem)
        c = rem[top]
        # zeros are deleted as they appear; a stale zero would never leave the loop
        if c <= 0:
            raise NotAModuleCharacter(
                f"coefficient {c} at top weight {top} during peeling"
            )
        budget -= c
        if budget < 0:
            raise NotAModuleCharacter("peeling exceeded the coefficient mass")
        tail, head = divmod(top, q)  # padic_split(top, ctx), inlined
        shift = q * tail
        for w, k in _simple_support(head, p):
            w += shift
            left = rem.get(w, 0) - c * k
            if left:
                rem[w] = left
            else:
                del rem[w]
        out[top] = c
    return out


@lru_cache(maxsize=None)
def _baby_verma_simples(p: int, r: int, head: int) -> Mapping[int, int]:
    ctx = Context(p, r)
    dec = decompose_into_simples(baby_verma_char(head, ctx), ctx)
    return MappingProxyType(dict(sorted(dec.items())))


def baby_verma_simples(lam: int, ctx: Context) -> Mapping[int, int]:
    """Composition-factor multiplicities of the level-r standard object at
    lam, computed by character peeling.  Only the head of lam is peeled, and
    once: shifting a character by p^r keeps the head of every top weight
    and raises its tail by one, so the factors at lam are those at its head
    shifted by p^r times its tail.  The mapping is read-only, so callers
    never copy it."""
    head, tail = padic_split(lam, ctx)
    factors = _baby_verma_simples(ctx.p, ctx.r, head)
    if not tail:
        return factors
    shift = ctx.q * tail
    return MappingProxyType({nu + shift: k for nu, k in factors.items()})
