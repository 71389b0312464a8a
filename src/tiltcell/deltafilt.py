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

Results are memoised per (p, r, lam mod p^r); general weights are folded in
by shift equivariance with period p^r.  The walk shows why: lam + p^r reads
the same r digits and reaches the level-0 weight one higher, and replaying
the digits turns that shift of 1 into a shift of p^r.  The cache is the
standard library LRU cache, so concurrent readers are safe.

The reciprocity sweep reads the composition factors of standard objects
from one index per (p, r), built from the peels of a single period.

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
    lam0 = lam % ctx.q
    shift = lam - lam0
    return {nu + shift: 1 for nu in _folded_factors(ctx.p, ctx.r, lam0)[0]}


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
    number of regular digits."""
    _, digits = _digit_walk(ctx.p, ctx.r, lam)
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
    lam0, mu0 = lam % q, mu % q
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
    out = Character.zero()
    for nu, mult in delta_factors(lam, ctx).items():
        out = out + baby_verma_char(nu, ctx).scale(mult)
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


def verify_reciprocity(lam: int, ctx: Context) -> Report:
    """Factor multiplicities of the projective cover of the simple at lam
    against composition multiplicities of costandard objects, computed by the
    independent character-peeling oracle and read from its inverted index."""
    lt = tilde(lam, ctx)
    fac = delta_factors(lt, ctx)
    simples = _simples_index(ctx.p, ctx.r)[lam % ctx.q]
    rep = Report("reciprocity", _ctx_dict(ctx))
    for mu in range(lam, lt + 1):
        rep.add({"lam": lam, "mu": mu}, fac.get(mu, 0), simples.get(mu - lam, 0))
    return rep


def verify_bounds(lam: int, ctx: Context) -> Report:
    """Every factor nu of the projective cover at lam satisfies
    lam <= nu <= tilde(lam), and both endpoints occur exactly once."""
    lt = tilde(lam, ctx)
    fac = delta_factors(lt, ctx)
    rep = Report("bounds", _ctx_dict(ctx))
    for nu in sorted(fac):
        rep.add(
            {"lam": lam, "nu": nu},
            {"lo": lam <= nu, "hi": nu <= lt},
            {"lo": True, "hi": True},
        )
    rep.add({"lam": lam, "endpoint": lam}, fac.get(lam, 0), 1)
    rep.add({"lam": lam, "endpoint": lt}, fac.get(lt, 0), 1)
    return rep


def verify_strong_linkage(lam: int, ctx: Context) -> Report:
    """Every factor of the projective cover at lam is strongly linked above
    lam and below tilde(lam)."""
    lt = tilde(lam, ctx)
    rep = Report("strong-linkage", _ctx_dict(ctx))
    for nu in sorted(delta_factors(lt, ctx)):
        rep.add({"lam": lam, "nu": nu, "dir": "up"}, strongly_linked(lam, nu, ctx), True)
        rep.add({"lam": lam, "nu": nu, "dir": "to-tilde"}, strongly_linked(nu, lt, ctx), True)
    return rep


def verify_steinberg_equivalence(m: int, ctx: Context) -> Report:
    """The level-(r-1) table of m matches the level-r table of p-1+p*m under
    nu -> p-1+p*nu, and Hom dimensions agree across the embedding on a
    window of partners."""
    if ctx.r < 2:
        raise ValueError("the level-drop check needs r >= 2")
    p = ctx.p
    sub_ctx = Context(p, ctx.r - 1)
    rep = Report("steinberg-equivalence", _ctx_dict(ctx))
    image = {p - 1 + p * nu: k for nu, k in delta_factors(m, sub_ctx).items()}
    lhs = delta_factors(p - 1 + p * m, ctx)
    rep.add({"m": m, "check": "factor-table"}, sorted(lhs.items()), sorted(image.items()))
    span = 2 * sub_ctx.q
    for mp in range(m - span, m + span + 1):
        rep.add(
            {"m": m, "m2": mp, "check": "hom"},
            hom_dim(p - 1 + p * m, p - 1 + p * mp, ctx),
            hom_dim(m, mp, sub_ctx),
        )
    return rep


def verify_mult_free(lo: int, hi: int, ctx: Context) -> Report:
    """All multiplicities are one and factor counts are powers of two over
    the weight window [lo, hi]."""
    rep = Report("mult-free", _ctx_dict(ctx))
    for lam in range(lo, hi + 1):
        fac = delta_factors(lam, ctx)
        rep.add({"lam": lam, "check": "multiplicity"}, max(fac.values()), 1)
        n = len(fac)
        rep.add(
            {"lam": lam, "check": "factor-count"},
            n,
            "a power of two",
            passed=n >= 1 and (n & (n - 1)) == 0,
        )
    return rep


def verify_linkage_necessity(lo: int, hi: int, ctx: Context) -> Report:
    """Nonzero Hom between tiltings forces the highest weights into one dot
    orbit: the lower is strongly linked to the higher.  Only pairs with
    nonzero Hom produce items."""
    rep = Report("linkage-necessity", _ctx_dict(ctx))
    tables = {mu: delta_factors(mu, ctx) for mu in range(lo, hi + 1)}
    # Hom is nonzero exactly when two tables share a factor
    holders: dict[int, list[int]] = {}
    for mu, fac in tables.items():
        for nu in fac:
            holders.setdefault(nu, []).append(mu)
    for lam, fac in tables.items():
        for mu in sorted({mu for nu in fac for mu in holders[nu]}):
            linked = strongly_linked(min(lam, mu), max(lam, mu), ctx)
            rep.add({"lam": lam, "mu": mu}, linked, True)
    return rep
