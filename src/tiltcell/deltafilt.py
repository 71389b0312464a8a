"""Characters of the indecomposable level-r tilting objects, and the
verification sweeps over their factor tables (`factors`).

Two sweeps read a p^r-periodic relation through one period of it,
inverted by `_invert`: the reciprocity sweep the composition factors of the
peeled standard objects (`_simples_index`, one per (p, r)), and the
level-drop (Steinberg) sweep the folded tables at level r of the images, the
weights -1 mod p, and at level r - 1 of all weights (`_folded_holders`).
The level-drop sweep computes the Hom pairs of each residue of m mod
p^(r-1) once: moving m and its partner by p^(r-1) moves their images
p-1+p*m by p^r, so by the shift equivariance of `hom_dim` at both levels the
pairs depend only on that residue and on the distance of the partner.  One
pass over the factors of m, or of its image, meets every partner whose
table shares each of them, and only the nonzero pairs are kept.

Every sweep takes an optional target report.  Without one it returns a
report of every item; with one it adds only the failing items to it and
counts the rest in `Report.unlisted`, so a sweep whose passing items nobody
reads never builds them.

The linkage sweep inverts the tables of its window, mapping each factor to
the weights whose tables hold it, and tests each pair for one dot orbit by
the congruence of `strongly_linked`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .charring import Character, baby_verma_char, baby_verma_simples
from .factors import _fold, _folded_factors, delta_factors
from .report import Report
# no sweep builds an orbit set, but perfbench/child.py wraps dot_orbit on this module
from .weights import Context, dot_orbit, strongly_linked, tilde  # noqa: F401


def tilting_char(lam: int, ctx: Context) -> Character:
    """Character of the indecomposable tilting at lam: the sum of the
    standard characters over its factor table."""
    out: dict[int, int] = {}
    for nu, mult in delta_factors(lam, ctx).items():
        for w, k in baby_verma_char(nu, ctx).items():
            out[w] = out.get(w, 0) + mult * k
    return out


# ---------------------------------------------------------------------------
# verification sweeps.  Each returns a Report; mathematical failures are
# recorded, never raised.
# ---------------------------------------------------------------------------


def _invert(q: int, entries: Iterable[tuple[int, int, int]]) -> dict[int, dict[int, int]]:
    """Invert one period of a relation that holds nu in w with multiplicity
    k, given as its (w, nu, k) over weights w pairwise incongruent mod q: the
    residue of nu mod q maps to {w - nu: k}.  If shifting both weights by q
    keeps the multiplicity, the entry of any nu answers for every nu + d
    congruent to a listed w: nu + d = w + t*q, and nu - t*q, of the residue
    of nu, lies in w at offset d, with the multiplicity of nu in nu + d."""
    index: dict[int, dict[int, int]] = {}
    for w, nu, k in entries:
        index.setdefault(nu % q, {})[w - nu] = k
    return index


@lru_cache(maxsize=None)
def _simples_index(p: int, r: int) -> dict[int, dict[int, int]]:
    """The composition factors nu of the peeled standard objects at one
    period of weights mu, inverted: every residue maps mu - nu to the
    multiplicity of the simple at nu in the standard object at mu."""
    ctx = Context(p, r)
    peels = ((mu, nu, k) for mu in range(ctx.q) for nu, k in baby_verma_simples(mu, ctx).items())
    return _invert(ctx.q, peels)


def verify_reciprocity(lam: int, ctx: Context, target: Report | None = None) -> Report:
    """Factor multiplicities of the projective cover of the simple at lam
    against composition multiplicities of costandard objects, computed by the
    independent character-peeling oracle and read from its inverted index,
    for every mu in [lam, tilde(lam)].

    With a target, only the mu in the support of either side are compared
    (every other mu reads 0 on both), the failures are added to the target
    and the other items counted; the target is returned."""
    lt = tilde(lam, ctx)
    fac = delta_factors(lt, ctx)
    simples = _simples_index(ctx.p, ctx.r)[lam % ctx.q]
    top = lt - lam
    if target is None:
        rep, offsets = Report("reciprocity", ctx._asdict()), range(top + 1)
    else:
        support = sorted({mu - lam for mu in fac}.union(simples))
        rep, offsets = target, [
            d for d in support if 0 <= d <= top and fac.get(lam + d, 0) != simples.get(d, 0)
        ]
    for d in offsets:
        rep.add({"lam": lam, "mu": lam + d}, fac.get(lam + d, 0), simples.get(d, 0))
    rep.unlisted += top + 1 - len(offsets)
    return rep


def verify_bounds(lam: int, ctx: Context, target: Report | None = None) -> Report:
    """Every factor nu of the projective cover at lam satisfies
    lam <= nu <= tilde(lam), and both endpoints occur exactly once.

    With a target, the failures are added to it and the other items
    counted; the target is returned."""
    lt = tilde(lam, ctx)
    fac = delta_factors(lt, ctx)
    rep = Report("bounds", ctx._asdict()) if target is None else target
    factors = sorted(fac if target is None else (nu for nu in fac if not lam <= nu <= lt))
    for nu in factors:
        rep.add(
            {"lam": lam, "nu": nu},
            {"lo": lam <= nu, "hi": nu <= lt},
            {"lo": True, "hi": True},
        )
    endpoints = [e for e in (lam, lt) if target is None or fac.get(e, 0) != 1]
    for e in endpoints:
        rep.add({"lam": lam, "endpoint": e}, fac.get(e, 0), 1)
    rep.unlisted += len(fac) + 2 - len(factors) - len(endpoints)
    return rep


def verify_strong_linkage(lam: int, ctx: Context, target: Report | None = None) -> Report:
    """Every factor of the projective cover at lam is strongly linked above
    lam and below tilde(lam).

    With a target, the failures are added to it and the other items
    counted; the target is returned."""
    lt = tilde(lam, ctx)
    rep = Report("strong-linkage", ctx._asdict()) if target is None else target
    for nu in sorted(delta_factors(lt, ctx)):
        for direction, linked in (
            ("up", strongly_linked(lam, nu, ctx)),
            ("to-tilde", strongly_linked(nu, lt, ctx)),
        ):
            if target is None or not linked:
                rep.add({"lam": lam, "nu": nu, "dir": direction}, linked, True)
            else:
                rep.unlisted += 1
    return rep


@lru_cache(maxsize=None)
def _folded_holders(p: int, r: int, step: int) -> dict[int, dict[int, int]]:
    """The folded tables at the weights w = -1 mod step of one period,
    inverted: a factor's residue maps each w - nu to 1."""
    q = p**r
    folded = (_fold(head, q) for head in range(step - 1, q, step))
    return _invert(q, ((w, nu, 1) for w in folded for nu in _folded_factors(p, r, w)))


def _hom_row(lam: int, p: int, r: int, step: int) -> dict[int, int]:
    """hom_dim(lam, mu) at level r for every mu = -1 mod step with nonzero
    Hom, counted over the factors of lam from `_folded_holders`."""
    q = p**r
    lam0 = _fold(lam, q)
    shift = lam - lam0
    holders = _folded_holders(p, r, step)
    row: dict[int, int] = {}
    for nu in _folded_factors(p, r, lam0):
        x = nu + shift
        for d in holders.get(x % q, ()):
            row[x + d] = row.get(x + d, 0) + 1
    return row


@lru_cache(maxsize=None)
def _steinberg_homs(p: int, r: int, m0: int) -> tuple[dict[int, tuple[int, int]], tuple[int, ...]]:
    """The nonzero Hom pairs of the level-drop sweep at m0 (level r of the
    images, level r - 1), keyed by the distance d of the partner m0 + d for
    |d| <= 2p^(r-1), and the distances where the two differ, ascending.
    They are also the pairs at any m congruent to m0 mod p^(r-1): see the
    module docstring."""
    span = 2 * p ** (r - 1)
    image = p - 1 + p * m0
    homs: dict[int, tuple[int, int]] = {}
    for mu, k in _hom_row(image, p, r, p).items():
        if abs(d := (mu - image) // p) <= span:
            homs[d] = (k, 0)
    for m2, k in _hom_row(m0, p, r - 1, 1).items():
        if abs(d := m2 - m0) <= span:
            homs[d] = (homs.get(d, (0, 0))[0], k)
    return homs, tuple(sorted(d for d, (a, b) in homs.items() if a != b))


def verify_steinberg_equivalence(m: int, ctx: Context, target: Report | None = None) -> Report:
    """The level-(r-1) table of m matches the level-r table of p-1+p*m under
    nu -> p-1+p*nu, and Hom dimensions agree across the embedding on a
    window of partners.

    With a target, the failures are added to it and the other items
    counted; the target is returned."""
    if ctx.r < 2:
        raise ValueError("the level-drop check needs r >= 2")
    p = ctx.p
    sub_ctx = Context(p, ctx.r - 1)
    rep = Report("steinberg-equivalence", ctx._asdict()) if target is None else target
    image = sorted((p - 1 + p * nu, k) for nu, k in delta_factors(m, sub_ctx).items())
    lhs = sorted(delta_factors(p - 1 + p * m, ctx).items())
    if target is None or lhs != image:
        rep.add({"m": m, "check": "factor-table"}, lhs, image)
    else:
        rep.unlisted += 1
    homs, fails = _steinberg_homs(p, ctx.r, m % sub_ctx.q)
    span = 2 * sub_ctx.q
    listed = range(-span, span + 1) if target is None else fails
    for d in listed:
        rep.add({"m": m, "m2": m + d, "check": "hom"}, *homs.get(d, (0, 0)))
    rep.unlisted += 2 * span + 1 - len(listed)
    return rep


def verify_mult_free(lo: int, hi: int, ctx: Context, target: Report | None = None) -> Report:
    """All multiplicities are one and factor counts are powers of two over
    the weight window [lo, hi].

    With a target, the failures are added to it and the other items
    counted; the target is returned."""
    rep = Report("mult-free", ctx._asdict()) if target is None else target
    for lam in range(lo, hi + 1):
        fac = delta_factors(lam, ctx)
        top = max(fac.values())
        if target is None or top != 1:
            rep.add({"lam": lam, "check": "multiplicity"}, top, 1)
        else:
            rep.unlisted += 1
        n = len(fac)
        power = n >= 1 and (n & (n - 1)) == 0
        if target is None or not power:
            rep.add({"lam": lam, "check": "factor-count"}, n, "a power of two", passed=power)
        else:
            rep.unlisted += 1
    return rep


def verify_linkage_necessity(
    lo: int, hi: int, ctx: Context, target: Report | None = None
) -> Report:
    """Nonzero Hom between tiltings forces the highest weights into one dot
    orbit: the lower is strongly linked to the higher.  Only pairs with
    nonzero Hom produce items.

    With a target, the failures are added to it and the other items
    counted; the target is returned."""
    rep = Report("linkage-necessity", ctx._asdict()) if target is None else target
    tables = {mu: delta_factors(mu, ctx) for mu in range(lo, hi + 1)}
    # Hom is nonzero exactly when two tables share a factor
    holders: dict[int, list[int]] = {}
    for mu, fac in tables.items():
        for nu in fac:
            holders.setdefault(nu, []).append(mu)
    for lam, fac in tables.items():
        for mu in sorted({mu for nu in fac for mu in holders[nu]}):
            linked = strongly_linked(min(lam, mu), max(lam, mu), ctx)
            if target is None or not linked:
                rep.add({"lam": lam, "mu": mu}, linked, True)
            else:
                rep.unlisted += 1
    return rep
