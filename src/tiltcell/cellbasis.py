"""Bookkeeping for cellular bases: index enumeration, the dagger involution,
and the distinguished generator sets.

A cellular basis element of Hom(P, Q) between tilting objects is named by a
triple (cell, i, j): i indexes the occurrences of the standard object at
the cell weight in P, j the occurrences in Q.  Nothing here realises
morphisms as linear maps; the quiver module checks the composition axiom
on actual path algebras.

The rank-two block of category O for sl3 is stated by the element names of
S3 and their lengths.  S3 is dihedral, so its Bruhat order is the length
order, and the upper sets and covers are derived by that rule; it holds only
in rank two, so there is no general Coxeter machinery.  The upper sets
(`sl3_delta_table`) are the sl3 preset's standard-factor table in `quiver`.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .factors import InvariantViolation, delta_factors, hom_dim_sum
from .weights import Context

ObjectLabel = tuple[tuple[int, int], ...]  # sorted ((weight, multiplicity), ...)


class CellIndex(NamedTuple):
    """The name c^cell_(i,j) of a cellular basis element of Hom(source, target)."""

    cell: int
    i: int
    j: int
    source: ObjectLabel
    target: ObjectLabel


class GeneratorSymbol(NamedTuple):
    """A distinguished basis element: the lift of the inclusion of the
    standard object at low into the tilting at high."""

    low: int
    high: int
    index: int = 1


def object_label(M: dict[int, int]) -> ObjectLabel:
    return tuple(sorted((w, m) for w, m in M.items() if m))


def standard_counts(M: dict[int, int], ctx: Context) -> dict[int, int]:
    """{nu: (M : Delta(nu))} for a direct sum M = {highest weight:
    multiplicity}, tallied in one pass over its factor tables."""
    out: dict[int, int] = {}
    for lam, m in M.items():
        for nu, k in delta_factors(lam, ctx).items():
            out[nu] = out.get(nu, 0) + m * k
    return out


def cell_indices(P: dict[int, int], Q: dict[int, int], ctx: Context) -> list[CellIndex]:
    """All cellular index triples for Hom(P, Q), where P and Q are direct
    sums of indecomposable tiltings given as {highest weight: multiplicity}.

    Grouped by cell weight in decreasing order; there are
    sum over nu of (P : Delta(nu)) * (Q : Delta(nu)), and that count must
    equal the Hom dimension, which is checked from |P| * |Q| Hom pairs.
    """
    src, tgt = object_label(P), object_label(Q)
    kp, kq = standard_counts(P, ctx), standard_counts(Q, ctx)
    out = [
        CellIndex(nu, i, j, src, tgt)
        for nu in sorted(kp, reverse=True)
        for i, j in product(range(1, kp[nu] + 1), range(1, kq.get(nu, 0) + 1))
    ]
    dim = hom_dim_sum(P, Q, ctx)
    if len(out) != dim:
        raise InvariantViolation(
            f"{len(out)} cell indices for a Hom space of dimension {dim}"
        )
    return out


def dagger(c: CellIndex) -> CellIndex:
    """The anti-involution on index triples: swap (i, j) and the objects."""
    return CellIndex(c.cell, c.j, c.i, c.target, c.source)


def generator_set_br(ctx: Context) -> list[GeneratorSymbol]:
    """The finite generating family at level r: one symbol for every pair
    0 <= m < p^r, m <= n <= 2*p^r - 2 - m whose tilting at n has a standard
    factor at m.  Every factor has multiplicity one, so every index is 1.

    Each table n = 0 .. 2*p^r - 2 is read once; m <= n holds because a
    tilting's factors lie below its highest weight."""
    q = ctx.q
    return sorted(
        GeneratorSymbol(m, n)
        for n in range(2 * q - 1)
        for m in delta_factors(n, ctx)
        if 0 <= m < q and n <= 2 * q - 2 - m
    )


def generator_set_br0(ctx: Context) -> list[GeneratorSymbol]:
    """The principal-block restriction: both weights congruent to 0 or -2
    modulo 2p."""
    p2 = 2 * ctx.p
    keep = {0, p2 - 2}
    return [
        g
        for g in generator_set_br(ctx)
        if g.low % p2 in keep and g.high % p2 in keep
    ]


# ---------------------------------------------------------------------------
# the sl3 principal block of category O: the symmetric group S3, stated by
# its element names and lengths.
# ---------------------------------------------------------------------------

SL3_ELEMENTS = ("1", "s", "t", "st", "ts", "w0")

SL3_LENGTH = {"1": 0, "s": 1, "t": 1, "st": 2, "ts": 2, "w0": 3}

# the dihedral rule: the upper set of y is y and everything longer
_UPPER = {
    y: frozenset(x for x in SL3_ELEMENTS if x == y or SL3_LENGTH[x] > SL3_LENGTH[y])
    for y in SL3_ELEMENTS
}

# the (higher, lower) covers, longest first, then by name
SL3_COVERS = tuple(
    sorted(
        ((x, y) for x in SL3_ELEMENTS for y in SL3_ELEMENTS if SL3_LENGTH[x] == SL3_LENGTH[y] + 1),
        key=lambda c: (-SL3_LENGTH[c[0]], c),
    )
)


def sl3_delta_table() -> dict[str, frozenset[str]]:
    """Standard-factor supports of the six indecomposable tiltings: the
    tilting labelled y contains the Verma labelled x exactly when x >= y."""
    return dict(_UPPER)


def sl3_hom_dim(x: str, y: str) -> int:
    """Common-factor count |{w : w >= x and w >= y}|."""
    return len(_UPPER[x] & _UPPER[y])


def sl3_generator_set_bprime() -> list[tuple[str, str]]:
    """The eight distinguished generators: the Bruhat covers, as (higher,
    lower) pairs in the order of `SL3_COVERS`."""
    return list(SL3_COVERS)
