"""Filtration multiplicities of indecomposable level-r tilting objects, the
Hom-space dimensions they determine, and verification sweeps.

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

The reciprocity sweep reads the composition factors of standard objects
from one index per (p, r), built from the peels of a single period.  The
level-drop (Steinberg) sweep computes the Hom pairs of each residue of m mod
p^(r-1) once: moving m and its partner by p^(r-1) moves their images
p-1+p*m by p^r, so by the shift equivariance of `hom_dim` at both levels the
pairs depend only on that residue and on the distance of the partner.  It
counts them from inverted tables, as the linkage sweep inverts its window:
one index per (p, r) and level maps each factor of the folded tables of one
period (at level r, those of the images, the weights -1 mod p), by its
residue mod p^r, to the folded weights whose tables hold it, as offsets.  A
partner's table is its residue's folded table shifted by a multiple of p^r,
so one pass over the factors of m, or of its image, meets every partner
that shares each of them, and only the nonzero pairs are kept.

Every sweep takes an optional target report.  Without one it returns a
report of every item; with one it adds only the failing items to it and
counts the rest in `Report.unlisted`, so a sweep whose passing items nobody
reads never builds them.

`hom_dim` never builds a shifted table: it compares the cached folded tables
of both weights at their relative shift, and answers 0 at once when the
shifted ranges cannot meet.  The linkage sweep inverts the tables of its
window instead, mapping each factor to the weights whose tables hold it, and
tests each pair for one dot orbit by the congruence of `strongly_linked`.
"""

from __future__ import annotations

from functools import lru_cache

from .charring import Character, baby_verma_char, baby_verma_simples
from .report import Report
# no sweep builds an orbit set, but perfbench/child.py wraps dot_orbit on this module
from .weights import Context, dot_orbit, strongly_linked, tilde  # noqa: F401

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
    return {nu + shift: 1 for nu in _folded_factors(ctx.p, ctx.r, lam0)[0]}


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
def _folded_factors(p: int, r: int, lam: int) -> tuple[tuple[int, ...], frozenset[int]]:
    """The weights of the folded table at lam, sorted and as a set; every
    multiplicity is one, which `InvariantViolation` enforces."""
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
    return tuple(sorted(table)), frozenset(table)


def hom_dim(lam: int, mu: int, ctx: Context) -> int:
    """dim Hom between the indecomposable tiltings at lam and mu: the number
    of common standard factors.  Counting common weights is exact because
    every table is multiplicity-free, which `InvariantViolation` enforces.

    With lam = lam0 + s and mu = mu0 + t folded, nu + s lies in both tables
    iff nu lies in the folded table at lam0 and nu + s - t in the one at mu0.
    """
    q = ctx.q
    lam0, mu0 = _fold(lam, q), _fold(mu, q)
    a, _ = _folded_factors(ctx.p, ctx.r, lam0)
    b, b_set = _folded_factors(ctx.p, ctx.r, mu0)
    d = (lam - lam0) - (mu - mu0)
    if a[-1] + d < b[0] or a[0] + d > b[-1]:
        return 0
    return sum(nu + d in b_set for nu in a)


def hom_dim_sum(P: dict[int, int], Q: dict[int, int], ctx: Context) -> int:
    """Bilinear extension of `hom_dim` to direct sums given as finitely
    supported multisets {highest weight: multiplicity}."""
    return sum(
        mp * mq * hom_dim(lam, mu, ctx)
        for lam, mp in P.items()
        for mu, mq in Q.items()
    )


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


def _ctx_dict(ctx: Context) -> dict:
    return {"p": ctx.p, "r": ctx.r}


@lru_cache(maxsize=None)
def _simples_index(p: int, r: int) -> tuple[dict[int, int], ...]:
    """The peeled standard objects of one period, inverted: entry c maps
    mu - nu to the multiplicity of the simple at nu in the standard object at
    mu, over the nu congruent to c mod p^r.  One offset names one pair (mu
    mod p^r is then fixed), and shifting both weights by p^r keeps both the
    offset and, since peeling is p^r-periodic, the multiplicity."""
    ctx = Context(p, r)
    q = ctx.q
    index = tuple({} for _ in range(q))
    for head in range(q):
        for nu, k in baby_verma_simples(head, ctx).items():
            index[nu % q][head - nu] = k
    return index


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
        rep, offsets = Report("reciprocity", _ctx_dict(ctx)), range(top + 1)
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
    rep = Report("bounds", _ctx_dict(ctx)) if target is None else target
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
    rep = Report("strong-linkage", _ctx_dict(ctx)) if target is None else target
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
def _folded_holders(p: int, r: int, step: int) -> dict[int, tuple[int, ...]]:
    """The folded tables of one period at the weights w = -1 mod step,
    inverted: residue c mod p^r maps to the offsets w - nu over the factors
    nu = c mod p^r of those tables.  A weight mu = w + k*p^r holds the
    factor x iff x - k*p^r lies in the folded table at w, so each offset d
    in the entry of x mod p^r names one such mu, x + d, and no other."""
    q = p**r
    holders: dict[int, list[int]] = {}
    for head in range(step - 1, q, step):
        w = _fold(head, q)
        for nu in _folded_factors(p, r, w)[0]:
            holders.setdefault(nu % q, []).append(w - nu)
    return {c: tuple(offsets) for c, offsets in holders.items()}


def _hom_row(lam: int, p: int, r: int, step: int) -> dict[int, int]:
    """hom_dim(lam, mu) at level r for every mu = -1 mod step with nonzero
    Hom, counted over the factors of lam from `_folded_holders`."""
    q = p**r
    lam0 = _fold(lam, q)
    shift = lam - lam0
    holders = _folded_holders(p, r, step)
    row: dict[int, int] = {}
    for nu in _folded_factors(p, r, lam0)[0]:
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
    rep = Report("steinberg-equivalence", _ctx_dict(ctx)) if target is None else target
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
    rep = Report("mult-free", _ctx_dict(ctx)) if target is None else target
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
    rep = Report("linkage-necessity", _ctx_dict(ctx)) if target is None else target
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
