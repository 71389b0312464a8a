"""Bookkeeping for cellular bases: index enumeration, the dagger involution,
and the distinguished generator sets.

A cellular basis element of Hom(P, Q) between tilting objects is named by a
triple (cell weight nu, i, j): i indexes the occurrences of the standard
object at nu in P, j the occurrences in Q.  Nothing here realises morphisms
as linear maps; the quiver module checks the composition axiom on actual
path algebras.

The rank-two block of category O for sl3 is carried as a hard-coded
six-element Weyl group with its Bruhat order; no general Coxeter machinery.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .deltafilt import InvariantViolation, delta_factors, hom_dim_sum
from .weights import Context

ObjectLabel = tuple[tuple[int, int], ...]  # sorted ((weight, multiplicity), ...)


class CellIndex(NamedTuple):
    """The name c^nu_(i,j) of a cellular basis element of Hom(source, target)."""

    cell_weight: int
    i: int
    j: int
    source: ObjectLabel
    target: ObjectLabel

    def to_dict(self) -> dict:
        return {
            "cell": self.cell_weight,
            "i": self.i,
            "j": self.j,
            "source": [list(t) for t in self.source],
            "target": [list(t) for t in self.target],
        }


class GeneratorSymbol(NamedTuple):
    """A distinguished basis element: the lift of the inclusion of the
    standard object at low_weight into the tilting at high_weight."""

    low_weight: int
    high_weight: int
    index: int = 1

    def to_dict(self) -> dict:
        return {"low": self.low_weight, "high": self.high_weight, "index": self.index}


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
    return CellIndex(c.cell_weight, c.j, c.i, c.target, c.source)


def generator_set_br(ctx: Context) -> list[GeneratorSymbol]:
    """The finite generating family at level r: one symbol for every pair
    0 <= m < p^r, m <= n <= 2*p^r - 2 - m whose tilting at n has a standard
    factor at m.  Multiplicity one throughout, so every index is 1.

    Each table n = 0 .. 2*p^r - 2 is read once; m <= n holds because a
    tilting's factors lie below its highest weight."""
    q = ctx.q
    found = [
        (m, n, mult)
        for n in range(2 * q - 1)
        for m, mult in delta_factors(n, ctx).items()
        if 0 <= m < q and n <= 2 * q - 2 - m
    ]
    return [GeneratorSymbol(m, n, i) for m, n, mult in sorted(found) for i in range(1, mult + 1)]


def generator_set_br0(ctx: Context) -> list[GeneratorSymbol]:
    """The principal-block restriction: both weights congruent to 0 or -2
    modulo 2p."""
    p2 = 2 * ctx.p
    keep = {0, p2 - 2}
    return [
        g
        for g in generator_set_br(ctx)
        if g.low_weight % p2 in keep and g.high_weight % p2 in keep
    ]


# ---------------------------------------------------------------------------
# the sl3 principal block of category O: the symmetric group S3 with its
# Bruhat order, hard-coded.
# ---------------------------------------------------------------------------

SL3_ELEMENTS = ("1", "s", "t", "st", "ts", "w0")

SL3_LENGTH = {"1": 0, "s": 1, "t": 1, "st": 2, "ts": 2, "w0": 3}

_UPPER = {
    "1": frozenset(SL3_ELEMENTS),
    "s": frozenset({"s", "st", "ts", "w0"}),
    "t": frozenset({"t", "st", "ts", "w0"}),
    "st": frozenset({"st", "w0"}),
    "ts": frozenset({"ts", "w0"}),
    "w0": frozenset({"w0"}),
}


def sl3_delta_table() -> dict[str, frozenset[str]]:
    """Standard-factor supports of the six indecomposable tiltings: the
    tilting labelled y contains the Verma labelled x exactly when x >= y."""
    return dict(_UPPER)


def sl3_hom_dim(x: str, y: str) -> int:
    """Common-factor count |{w : w >= x and w >= y}|."""
    return len(_UPPER[x] & _UPPER[y])


def sl3_generator_set_bprime() -> list[tuple[str, str]]:
    """The eight distinguished generators, as (higher, lower) Bruhat
    neighbours, in the conventional order."""
    return [
        ("w0", "st"),
        ("w0", "ts"),
        ("st", "s"),
        ("st", "t"),
        ("ts", "s"),
        ("ts", "t"),
        ("s", "1"),
        ("t", "1"),
    ]
