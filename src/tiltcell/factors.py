"""Filtration multiplicities of indecomposable level-r tilting objects, and
the Hom-space dimensions they determine.

`delta_factors(lam, ctx)` returns the finitely supported multiset of weights
nu such that the standard object at nu occurs in a filtration of the
indecomposable tilting object with highest weight lam.  For rank one these
multiplicities are always one.  The table is built from one walk over the r
p-adic digits of lam, lowest digit first:

* a wall digit a = p - 1 reads m = (lam - a) / p, the weight that the
  Frobenius twist nu -> (nu + 1)*p - 1 carries onto lam (the categorical
  equivalence onto the Steinberg component);
* a regular digit a in [0, p-2] reads (lam - a) / p - 1, the weight whose
  image (nu + 1)*p - 1 is the lower wall of lam.

After r digits the walk reaches a weight whose level-0 table is that weight
alone.  Replaying the digits from the highest down, a wall digit maps each entry nu to
(nu + 1)*p - 1, and a regular digit translates the wall entry off the wall
into the two neighbouring alcoves, (nu + 1)*p + a and (nu + 1)*p - a - 2.
A table therefore has 2**k entries, k the number of regular digits, which
`table_size` reads from the walk alone, before anything is built.

If two images ever coincided, the multiplicity-one property would be false:
such a state aborts loudly with `InvariantViolation` rather than being
patched over.

Results are memoised per (p, r) and residue of lam mod p^r nearest zero, so
a weight near zero walks short numbers at any level; general weights are
folded in by shift equivariance with period p^r.  The walk shows why: lam +
p^r reads the same r digits and reaches the level-0 weight one higher, and
replaying the digits turns that shift of 1 into a shift of p^r.  The cache
is the standard library LRU cache, so concurrent readers are safe.

`hom_dim` never builds a shifted table: it counts the factors of one cached
folded table that lie in the other at their relative shift.  The
verification sweeps (`deltafilt`) read these tables from here.
"""

from __future__ import annotations

from functools import lru_cache

from .weights import Context

DeltaFactors = dict[int, int]


class InvariantViolation(RuntimeError):
    """A structural invariant the factor tables rely on failed.

    Not a user error: it would mean the multiplicity-one property is wrong
    for the requested (p, r), and the result must not be trusted.
    """


def delta_factors(lam: int, ctx: Context) -> DeltaFactors:
    """Multiset {nu: multiplicity} of standard factors of the indecomposable
    tilting object with highest weight lam."""
    lam0 = _fold(lam, ctx.q)
    shift = lam - lam0
    return {nu + shift: 1 for nu in _folded_factors(ctx.p, ctx.r, lam0)}


def _fold(lam: int, q: int) -> int:
    """The residue of lam mod q nearest zero, in [-(q // 2), q - q // 2)."""
    return (lam + q // 2) % q - q // 2


def _digit_walk(p: int, r: int, lam: int) -> tuple[int, list[int]]:
    """The level-0 weight that the walk over the r p-adic digits of lam
    reaches, and the digits, lowest first."""
    digits = []
    for _ in range(r):
        a = lam % p
        digits.append(a)
        lam = (lam - a) // p - (a != p - 1)  # a regular digit reads its lower wall
    return lam, digits


def table_size(lam: int, ctx: Context) -> int:
    """len(delta_factors(lam, ctx)), without building the table: two to the
    number of regular digits, which lam and its residues share."""
    _, digits = _digit_walk(ctx.p, ctx.r, _fold(lam, ctx.q))
    return 2 ** sum(a != ctx.p - 1 for a in digits)


@lru_cache(maxsize=None)
def _folded_factors(p: int, r: int, lam: int) -> frozenset[int]:
    """The weights of the folded table at lam; every multiplicity is one,
    which `InvariantViolation` enforces."""
    base, digits = _digit_walk(p, r, lam)
    table = {base}
    for a in reversed(digits):
        if a == p - 1:
            images = [(nu + 1) * p - 1 for nu in table]
        else:
            images = [w for nu in table for w in ((nu + 1) * p + a, (nu + 1) * p - a - 2)]
        table = set(images)
        if len(table) != len(images):
            raise InvariantViolation(
                f"multiplicity above one in the table of {lam} (p={p}, r={r})"
            )
    return frozenset(table)


def hom_dim(lam: int, mu: int, ctx: Context) -> int:
    """dim Hom between the indecomposable tiltings at lam and mu: the number
    of common standard factors.  Counting common weights is exact because
    every table is multiplicity-free, which `InvariantViolation` enforces.

    With lam = lam0 + s and mu = mu0 + t folded, nu + s lies in both tables
    iff nu lies in the folded table at lam0 and nu + s - t in the one at mu0,
    so the count reads the two cached folded tables and builds no other.
    """
    q = ctx.q
    lam0, mu0 = _fold(lam, q), _fold(mu, q)
    d = (lam - lam0) - (mu - mu0)
    held = _folded_factors(ctx.p, ctx.r, mu0)
    return sum(nu + d in held for nu in _folded_factors(ctx.p, ctx.r, lam0))


def hom_dim_sum(P: dict[int, int], Q: dict[int, int], ctx: Context) -> int:
    """Bilinear extension of `hom_dim` to direct sums given as finitely
    supported multisets {highest weight: multiplicity}."""
    return sum(
        mp * mq * hom_dim(lam, mu, ctx)
        for lam, mp in P.items()
        for mu, mq in Q.items()
    )
