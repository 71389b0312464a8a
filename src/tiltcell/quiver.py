"""Path algebras with relations over exact rationals, and the three quiver
presentations they are checked against.

Presentations
-------------
* `build_p1_quiver`, `build_p2_quiver`: the ladders of levels r = 1 and 2,
  both built by `_build_ladder`.  Column j has highest weight j*p (j even)
  or (j+1)*p - 2 (j odd), and the shift period is P = 2p^(r-1).  One rule
  gives the up arrows of each kind k = 1..r (u, u', u'', ..., with duals
  d, d', ...): kind 1 steps from j to j+1; kind k >= 2 reflects j, not a
  multiple of b = p^(k-1), in the nearest multiple of b above it.  Below
  kind r, an arrow whose target reaches or passes a multiple of b*p is
  dropped (at r = 2, chains of p vertices hang below the multiples of p),
  and so is one that leaves the window.  Relations, kind by kind:
  consecutive like arrows vanish and the two loops at a vertex agree.  At
  r = 2 the squares formed by a vertical and a horizontal step commute
  (with configurable nonzero scalars).  These families leave the
  endomorphism space at each chain-top column one dimension too big, so by
  default an extra relation identifies the length-four loop through the
  adjacent row with the length-two vertical loop there; pass
  boundary_loops=False to reproduce the bare families.
* `build_sl3_quiver`: six vertices on the Bruhat graph of S3, one up arrow
  for each of its eight covers (`cellbasis.SL3_COVERS`, which are also the
  generators B'), their duals, and the block's relations with scalar
  parameters (a, b, r).

Each builder states a relation once, and `_Builder.state` adds its image
under duality, the cellular anti-involution (see "Folding" below).

`PRESETS` is the one place a preset is defined; the CLI and the engines read
every preset-specific choice (window, truncation, oracle, ...) from it.

Conventions
-----------
A path is a tuple of arrow ids in application order: (x, y) means "apply x,
then y".  Displayed names are compositional (last applied leftmost), which
matches the usual juxtaposition for morphisms.

Engines
-------
Two independent engines are provided and cross-checked:

* `quotient_dims`: exact linear algebra.  Per ordered vertex pair, span the
  paths of length <= max_len, quotient by every relation instance that
  fits, and report the dimension.  Rows of one or two terms merge or kill
  classes of paths in a weighted union-find, and only the longer rows are
  eliminated (`ratlinalg.ContractedEchelon`).  A saturation flag certifies
  that each maximal-length path reduces into shorter ones, which pins the
  truncation.  One pair per class of certified symmetries is eliminated and
  the others take its verdict (see "Folding" below).
* `normal_form`: oriented rewriting.  Relations are oriented so that
  down-after-up patterns rewrite towards sorted words; a handful of derived
  rules (consequences of the relations near chain-top columns, each checked
  against the linear ideal in the test suite) make the system effective in
  practice.  The orientation is nowhere proven confluent; agreement of the
  irreducible-word counts with the linear dimensions is an empirical check.

A `RelationSet` builds its rewrite index (rule table, redex lengths) once,
at construction, and rules are fixed after that.  The rewriting engine finds
redexes in that index (`_Reducer.reduce`).  The linear engine tests a path
for a monomial relation once, while it enumerates the alive paths
(`_alive_paths`); after that a path of at most max_len arrows holds one
exactly when it is not alive.

One reducer (`_Reducer`) does all rewriting, by memoised recursion: a
reducible path is rewritten once, at its leftmost position and there by
the shortest redex, and its normal form is the sum of those of its
reduct's terms.  `normal_form` builds a fresh reducer per call, while
`cell_filtration_check` shares one across all its compositions and drops it
when it returns.  The step budget `_MAX_STEPS` bounds the paths rewritten
in one normal form.  A path met again while it is still being reduced is a
rewrite cycle: NonTerminating is raised at once, as it is when the budget
runs out.

Only window-interior ("core") vertex pairs are trusted: the infinite
presentations are realised on a finite window with a declared shift period,
and a pair with a vertex near the cut is only counted, never decided.

Folding
-------
A map g of paths that sends arrows to arrows (reversing each path if g is an
anti-automorphism) and the relation set onto itself up to nonzero scalars
sends the alive paths of a pair bijectively to those of its image pair,
length by length, and its relation rows to scalar multiples of the image's
rows.  The two pairs then have the same rank, and the same projected rank on
the top-length columns, which is what saturation reads (`pivots_among` does
not depend on the column order within one length).  `quotient_dims` uses
three such maps, each only once an exact certificate passes:

* duality: each arrow to its `dual`, paths reversed, (s, t) to (t, s).  The
  builders close every preset under it by construction; it is still
  certified once per call, relation by relation, for sets built by hand.
* the preset's `mirror`, a vertex involution (sl3: s <-> t, st <-> ts) that
  sends each arrow to the arrow of its kind between the images of its ends,
  certified the same way.
* translation by `shift_period`: not a global automorphism, because the
  window cuts the ladder, so it is certified per pair.  (s, t) and
  (s - P, t - P) are translates when the alive path list of the first,
  translated arrow by arrow (looked up by source, target and kind), is the
  list of the second, and the relation index at every vertex on those
  paths, translated, is the index one period below.  A nonzero row only
  touches alive paths of its pair, so the rows then correspond.

Where a certificate fails the pair is eliminated.  The witness of
`NotSaturated` always comes from eliminating the first unsaturated pair
itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import eq
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .cellbasis import SL3_COVERS, SL3_ELEMENTS, SL3_LENGTH, sl3_hom_dim
from .deltafilt import delta_factors, hom_dim
from .ratlinalg import ContractedEchelon, Row
from .report import Report
from .weights import Context


class QuiverConfigError(ValueError):
    """Bad build parameters, e.g. a declared-nonzero scalar set to zero."""


class NotSaturated(RuntimeError):
    """Paths of maximal length did not all reduce; raise max_len."""


class NonTerminating(RuntimeError):
    """Rewriting cycled or exceeded its step budget; indicates an orientation bug."""


Path = tuple[int, ...]
Vertex = object
Pair = tuple[Vertex, Vertex]


class Arrow(NamedTuple):
    name: str
    source: Vertex
    target: Vertex
    kind: str  # kind k: "u" then k-1 primes up, "d" then k-1 primes down
    dual: str  # name of the reverse arrow


class Quiver:
    """A finite quiver with its weights, trusted core and shift period, and
    the arrow indexes derived from them at construction."""

    __slots__ = (
        "preset", "vertices", "arrows", "weights", "core", "shift_period", "context",
        "by_name", "out_ids", "in_ids", "cell_rank",
    )

    def __init__(
        self,
        preset: str,
        vertices: list,
        arrows: list[Arrow],
        weights: dict,  # vertex -> highest weight (int) or Weyl-group label (str)
        core: frozenset,  # window-interior vertices whose Hom pairs are trusted
        shift_period: int | None,
        context: Context | None = None,
    ) -> None:
        self.preset, self.vertices, self.arrows, self.weights = preset, vertices, arrows, weights
        self.core, self.shift_period, self.context = core, shift_period, context
        self.by_name = {a.name: i for i, a in enumerate(self.arrows)}
        if len(self.by_name) != len(self.arrows):
            raise QuiverConfigError("duplicate arrow names")
        self.out_ids = {v: [] for v in self.vertices}
        self.in_ids = {v: [] for v in self.vertices}
        for i, a in enumerate(self.arrows):
            self.out_ids[a.source].append(i)
            self.in_ids[a.target].append(i)
        self.cell_rank = PRESETS[self.preset].cell_rank(self)

    def arrow_id(self, name: str) -> int:
        return self.by_name[name]

    def format_path(self, path: Path) -> str:
        if not path:
            return "e"
        return "*".join(self.arrows[i].name for i in reversed(path))


class _PathElementFields(NamedTuple):
    source: Vertex
    target: Vertex
    terms: dict[Path, Fraction]


class PathElement(_PathElementFields):
    """A rational combination of parallel paths (shared source and target).
    Zero coefficients are dropped at construction, and the others made
    Fractions."""

    __slots__ = ()

    def __new__(cls, source: Vertex, target: Vertex, terms: Mapping[Path, object]) -> PathElement:
        terms = {p: c if c.__class__ is Fraction else Fraction(c) for p, c in terms.items() if c}
        return super().__new__(cls, source, target, terms)

    def pretty(self, quiver: Quiver) -> str:
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[p]
            body = quiver.format_path(p)
            bits.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(bits)


Replacement = tuple[tuple[Path, Fraction], ...]


class RelationSet:
    """Ideal generators plus their rewriting orientation.

    `rules` maps each redex path to its replacement and generates the ideal
    consumed by the linear engine (`relations`).  `derived_rules` are
    consequences of the relations, used only by the rewriting engine; they
    do not enlarge the ideal.

    The rewrite index is built once, at construction: `table` holds the
    rules, then the derived rules (which win on a shared redex), `lengths`
    the distinct redex lengths in ascending order, and `zero_redexes` the
    paths of the monomial relations, whose multiples lie in the ideal.
    Rules are fixed; to change them, build a new RelationSet.
    """

    __slots__ = ("relations", "rules", "derived_rules", "scalars", "table", "lengths",
                 "zero_redexes")

    def __init__(
        self,
        relations: list[PathElement],
        rules: dict[Path, Replacement],
        derived_rules: dict[Path, Replacement],
        scalars: dict[str, Fraction],
    ) -> None:
        self.relations, self.rules, self.derived_rules = relations, rules, derived_rules
        self.scalars = scalars
        self.table = {**self.rules, **self.derived_rules}
        self.lengths = sorted({len(k) for k in self.table})
        self.zero_redexes = frozenset().union(*(r.terms for r in relations if len(r.terms) == 1))


def _rule_to_relation(quiver: Quiver, redex: Path, repl: Replacement) -> PathElement:
    src = quiver.arrows[redex[0]].source
    tgt = quiver.arrows[redex[-1]].target
    terms: dict[Path, Fraction] = {redex: Fraction(1)}
    for rep, coeff in repl:
        terms[rep] = terms.get(rep, Fraction(0)) - coeff
    return PathElement(src, tgt, terms)


class _Builder:
    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.rules: dict[Path, Replacement] = {}
        self.derived: dict[Path, Replacement] = {}
        self.dual = [quiver.by_name[a.dual] for a in quiver.arrows]

    def _key(self, names: Iterable[str]) -> Path:
        return tuple(map(self.quiver.by_name.__getitem__, names))

    def _ids(self, redex: Iterable[str], repl: Iterable[tuple]) -> tuple[Path, Replacement]:
        return self._key(redex), tuple((self._key(names), Fraction(c)) for names, c in repl)

    def _add(self, table: dict[Path, Replacement], redex: Path, repl: Replacement) -> None:
        if redex in table:
            raise QuiverConfigError(f"duplicate rule for redex {self.quiver.format_path(redex)}")
        table[redex] = repl

    def state(self, block: Iterable[tuple], derived: bool = False) -> None:
        """Add the (redex, replacement) rules of `block` to the rules, or the
        derived rules, then the dual (arrows to their `dual`, paths reversed)
        of each rule that is not its own dual.  A dual also stated by hand is
        a duplicate redex; a self-dual redex needs a self-dual replacement."""
        table, dual = (self.derived if derived else self.rules), self.dual.__getitem__
        images = []
        for redex, repl in (self._ids(*rule) for rule in block):
            self._add(table, redex, repl)
            image = tuple(map(dual, reversed(redex)))
            twin = tuple((tuple(map(dual, reversed(path))), c) for path, c in repl)
            if image != redex:
                images.append((image, twin))
            elif dict(twin) != dict(repl):
                raise QuiverConfigError(
                    f"self-dual redex {self.quiver.format_path(redex)}: replacement is not"
                )
        for image, twin in images:
            self._add(table, image, twin)

    def finish(self, scalars: dict[str, Fraction]) -> RelationSet:
        relations = [_rule_to_relation(self.quiver, *rule) for rule in self.rules.items()]
        return RelationSet(relations, self.rules, self.derived, scalars)


# ---------------------------------------------------------------------------
# presentation builders
# ---------------------------------------------------------------------------


def ladder_weight(j: int, p: int) -> int:
    """Highest weight at ladder position j: j*p for even j, (j+1)*p - 2 odd."""
    return j * p if j % 2 == 0 else (j + 1) * p - 2


def right_neighbor(j: int, p: int) -> int:
    """Reflect j in the nearest multiple of p at or above it (j not 0 mod p)."""
    return 2 * p * (-((-j) // p)) - j


_MARGIN = 2  # windows of padding around the core of a ladder


def _ladder_extent(p: int, r: int, window: int) -> tuple[int, int]:
    """The shift period P = 2p^(r-1) of the level-r ladder and the half-width
    P*(window+_MARGIN) of its columns; the core is |j| <= P*window."""
    period = 2 * p ** (r - 1)
    return period, period * (window + _MARGIN)


def _ladder_counts(p: int, r: int, window: int) -> tuple[int, int]:
    """The vertex and core-vertex counts of the level-r ladder."""
    period, half = _ladder_extent(p, r, window)
    return 2 * half + 1, 2 * period * window + 1


def p2_scalar_names(p: int) -> list[str]:
    """Configurable scalars of the ladder: one per commuting-square family
    ("m<x>"/"n<x>", indexed by the residue of the square's base column mod
    2p) plus the chain-top loop identifications ("theta0", "theta<p>")."""
    res = [x for x in range(2 * p) if x % p not in (0, p - 1)]
    return [f"m{x}" for x in res] + [f"n{x}" for x in res] + ["theta0", f"theta{p}"]


def p2_scalar_families(p: int) -> str:
    """p2_scalar_names(p) by family, in a line whose length hardly grows
    with p: there are 4p - 2 names."""
    return f"m<x>, n<x> (x mod {2 * p}, not 0 or {p - 1} mod {p}), theta0, theta{p}"


def unknown_scalar(preset: str, p: int, key: str) -> str:
    """The refusal of a scalar, quoted as key, that the preset does not read
    at p."""
    return f"unknown scalar {key}; valid: {PRESETS[preset].valid_scalars(p)}"


def _resolve_scalars(
    preset: str, p: int, overrides: Mapping[str, object] | None
) -> dict[str, Fraction]:
    out = {name: Fraction(1) for name in PRESETS[preset].scalar_names(p)}
    for key, val in (overrides or {}).items():
        if key not in out:
            raise QuiverConfigError(unknown_scalar(preset, p, repr(key)))
        out[key] = Fraction(val)
        if out[key] == 0:
            raise QuiverConfigError(f"scalar {key!r} must be nonzero")
    return out


def _ladder_arrows(ctx: Context, weights: Mapping[int, int]) -> list[Arrow]:
    """The arrows of the level-r ladder on the columns of `weights` by the rule
    under "Presentations": kind by kind, by ascending source, up then dual."""
    p, r = ctx.p, ctx.r
    arrows: list[Arrow] = []
    for k in range(1, r + 1):
        primes, b = "'" * (k - 1), p ** (k - 1)
        for j in weights:
            t = j + 1 if k == 1 else right_neighbor(j, b) if j % b else None
            if t not in weights or (k < r and t // (b * p) > j // (b * p)):
                continue
            # sanity: the arrow's cell weight occurs in its target's table
            if delta_factors(weights[t], ctx).get(weights[j], 0) != 1:
                raise QuiverConfigError(f"arrow u{primes}{j} has no cellular home")
            arrows.append(Arrow(f"u{primes}{j}", j, t, f"u{primes}", f"d{primes}{j}"))
            arrows.append(Arrow(f"d{primes}{j}", t, j, f"d{primes}", f"u{primes}{j}"))
    return arrows


def _build_ladder(
    p: int, r: int, window: int, scalars: Mapping[str, object] | None, boundary_loops: bool
) -> tuple[Quiver, RelationSet]:
    """The level-r ladder on the columns |j| <= P*(window+_MARGIN), P = 2p^(r-1)
    its shift period; columns |j| <= P*window form the trusted core.  Arrows
    at every r, relations for r <= 2.  At r = 2 the window is cut at multiples
    of 2p, so every vertical chain is complete and only the horizontal rows
    are severed at the ends."""
    if window < (floor := PRESETS[f"p{r}"].window):
        raise QuiverConfigError(f"p{r} window must be >= {floor}")
    ctx = Context(p, r)
    period, half = _ladder_extent(p, r, window)
    vertices = list(range(-half, half + 1))
    weights = {j: ladder_weight(j, p) for j in vertices}
    config = _resolve_scalars(f"p{r}", p, scalars)
    arrows = _ladder_arrows(ctx, weights)
    core = frozenset(range(-period * window, period * window + 1))
    quiver = Quiver(f"p{r}", vertices, arrows, weights, core, period, ctx)
    ups = arrows[::2]
    kinds = list(dict.fromkeys(a.kind for a in ups))  # kind order; a set reorders relations
    out_of = {(a.source, a.kind): a for a in ups}
    into = {(a.target, a.kind): a for a in ups}

    has = quiver.by_name.__contains__
    b = _Builder(quiver)
    for a in ups:
        # consecutive like arrows vanish
        c = out_of.get((a.target, a.kind))
        if c:
            b.state([([a.name, c.name], [])])
    for x in vertices:
        for kind in kinds:
            # the loop at x through the next column equals the loop through the previous
            a, c = out_of.get((x, kind)), into.get((x, kind))
            if a and c:
                b.state([([a.name, a.dual], [([c.dual, c.name], 1)])])
        rn1 = right_neighbor(x, p) - 1  # equals right_neighbor(x + 1, p)
        if not (has(f"u'{x}") and has(f"u{x}") and has(f"u{rn1}") and has(f"u'{x+1}")):
            continue
        m = config[f"m{x % period}"]
        n = config[f"n{x % period}"]
        # commuting squares: right-then-down equals down-then-right ...
        b.state([([f"u'{x}", f"d{rn1}"], [([f"u{x}", f"u'{x+1}"], m)])])
        # ... and the transposed squares
        b.state([([f"u'{x+1}", f"u{rn1}"], [([f"d{x}", f"u'{x}"], n)])])

    for c in vertices:
        if r == 1 or c % p != 0 or not has(f"u{c}"):
            continue
        if boundary_loops and has(f"u'{c-1}"):
            # chain-top loop identification (see module docstring)
            theta = config[f"theta{c % period}"]
            b.state([([f"u{c}", f"d'{c-1}", f"u'{c-1}", f"d{c}"], [([f"u{c}", f"d{c}"], theta)])])
        # consequences of the families above; rewriting only
        b.state([([f"u{c}", f"d{c}", f"u{c}"], [])], derived=True)
        if has(f"u'{c-1}") and has(f"u{c-2}"):
            mn = config[f"m{(c - 2) % period}"] * config[f"n{(c - 2) % period}"]
            tail = [f"d{c-2}", f"u{c-2}", f"u'{c-1}"]
            b.state([([f"u'{c-1}", f"d{c}", f"u{c}"], [(tail, mn)])], derived=True)
            b.state([([f"u{c-2}", f"u'{c-1}", f"d{c}"], [])], derived=True)

    return quiver, b.finish(config)


def build_p1_quiver(p: int, window: int = 2) -> tuple[Quiver, RelationSet]:
    """The zigzag chain, the level-one ladder."""
    return _build_ladder(p, 1, window, None, False)


def build_p2_quiver(
    p: int,
    window: int = 1,
    scalars: Mapping[str, object] | None = None,
    boundary_loops: bool = True,
) -> tuple[Quiver, RelationSet]:
    """The level-two ladder; scalars override the defaults of p2_scalar_names."""
    return _build_ladder(p, 2, window, scalars, boundary_loops)


def build_sl3_quiver(a=1, b=1, r=0) -> tuple[Quiver, RelationSet]:
    """Six vertices on the Bruhat graph of S3, one up arrow per cover in
    `SL3_COVERS` with its dual, and the block relations.  a and b must be
    nonzero; r is free."""
    a, b, r = Fraction(a), Fraction(b), Fraction(r)
    if a == 0 or b == 0:
        raise QuiverConfigError("scalars a and b must be nonzero")
    # the i-th cover is ui (higher to lower) with its dual di:
    # u1 w0>st, u2 w0>ts, u3 st>s, u4 st>t, u5 ts>s, u6 ts>t, u7 s>1, u8 t>1
    arrows: list[Arrow] = []
    for i, (hi, lo) in enumerate(SL3_COVERS, 1):
        arrows.append(Arrow(f"u{i}", hi, lo, "u", f"d{i}"))
        arrows.append(Arrow(f"d{i}", lo, hi, "d", f"u{i}"))
    vertices = list(SL3_ELEMENTS)
    weights = {v: v for v in vertices}
    quiver = Quiver("sl3", vertices, arrows, weights, frozenset(vertices), None)
    bld = _Builder(quiver)
    # parallel up paths through the two sides of each Bruhat square agree,
    # and dually for down paths
    bld.state([
        (["u2", "u5"], [(["u1", "u3"], 1)]),
        (["u2", "u6"], [(["u1", "u4"], 1)]),
        (["u4", "u8"], [(["u3", "u7"], 1)]),
        (["u5", "u7"], [(["u6", "u8"], 1)]),
    ])
    # vanishing loops, and loops at the length-one and length-two layers
    bld.state([
        *(([f"u{i}", f"d{i}"], []) for i in (1, 2, 4, 5)),
        (["u3", "d3"], [(["d1", "u1"], a)]),
        (["u6", "d6"], [(["d2", "u2"], a)]),
        (["u4", "d6"], [(["d1", "u2"], -a)]),
        (["u5", "d3"], [(["d2", "u1"], -a)]),
    ])
    # loops at the top layer
    bld.state([
        (["u7", "d7"], [(["d5", "u5"], b)]),
        (["u8", "d8"], [(["d4", "u4"], b)]),
        (["u7", "d8"], [(["d3", "u4"], b), (["d5", "u6"], b), (["d3", "d1", "u2", "u6"], r)]),
    ])
    return quiver, bld.finish({"a": a, "b": b, "r": r})


class Preset(NamedTuple):
    """What differs between the presentations; a preset with no window reads no p.
    The callables look builders and oracles up on this module when they run, so
    replacing `build_*`, `hom_dim` or `sl3_hom_dim` here reaches every caller."""

    # build(p, window, scalars, boundary_loops); scalars holds validated overrides
    build: Callable[[int, int | None, dict, bool], tuple[Quiver, RelationSet]]
    window: int | None  # None: the preset has no window and reads no p
    max_len: int  # default truncation of the linear engine
    # (vertices, core vertices) from p and window, before building
    vertex_count: Callable[[int, int | None], tuple[int, int]]
    # the ladders' choices: no scalars, common-factor Hom counts, cells ranked by weight
    scalar_names: Callable[[int], list[str]] = lambda p: []
    valid_scalars: Callable[[int], str] = lambda p: "none"  # the names as one short line
    boundary_loops: bool = False  # whether build reads boundary_loops
    oracle: Callable[..., int] = lambda lam, mu, ctx: hom_dim(lam, mu, ctx)
    cell_rank: Callable[[Quiver], dict] = lambda quiver: dict(quiver.weights)
    # vertices swapped by an automorphism of the presentation (unlisted
    # vertices stay put), which sends each arrow to the arrow of its kind
    # between the images of its ends; the linear engine uses it only once it
    # is certified
    mirror: Mapping[Vertex, Vertex] = MappingProxyType({})


PRESETS: dict[str, Preset] = {
    "p1": Preset(
        build=lambda p, window, scalars, loops: build_p1_quiver(p, window),
        window=2,
        max_len=4,
        vertex_count=lambda p, window: _ladder_counts(p, 1, window),
    ),
    "p2": Preset(
        build=lambda p, window, scalars, loops: build_p2_quiver(p, window, scalars, loops),
        window=1,
        max_len=5,
        vertex_count=lambda p, window: _ladder_counts(p, 2, window),
        scalar_names=p2_scalar_names,
        valid_scalars=p2_scalar_families,
        boundary_loops=True,
    ),
    "sl3": Preset(
        build=lambda p, window, scalars, loops: build_sl3_quiver(**scalars),
        window=None,
        max_len=7,
        vertex_count=lambda p, window: (len(SL3_ELEMENTS),) * 2,
        scalar_names=lambda p: ["a", "b", "r"],
        valid_scalars=lambda p: "a, b, r",
        oracle=lambda lam, mu, ctx: sl3_hom_dim(lam, mu),
        cell_rank=lambda quiver: {v: -SL3_LENGTH[v] for v in quiver.vertices},
        # the Dynkin diagram automorphism, for every (a, b, r)
        mirror=MappingProxyType({"s": "t", "t": "s", "st": "ts", "ts": "st"}),
    ),
}


# ---------------------------------------------------------------------------
# linear engine
# ---------------------------------------------------------------------------


def _alive_paths(
    quiver: Quiver, max_len: int, words: set[Path], sources: Iterable[Vertex] | None = None
) -> dict[Pair, list[Path]]:
    """All composable paths of length <= max_len with no subword in `words`,
    from each of `sources` (default: every vertex), keyed by (source,
    target), each list in (length, lex) order: each length extends the
    previous one's paths in order, by ascending arrow ids.  Every prefix of a
    generated path was generated, so testing the words that end at each new
    arrow prunes exactly the paths that contain one.  The paths avoiding
    the words of one and two arrows are the walks of a successor graph on
    the arrows (Ufnarovski's graph), built once; a longer word is tested
    only where its last arrow is appended."""
    target = [a.target for a in quiver.arrows]
    banned = {w[0] for w in words if len(w) == 1}
    longer: dict[int, set[int]] = {}  # arrow -> lengths of the longer words ending there
    for w in words:
        if len(w) > 2:
            longer.setdefault(w[-1], set()).add(len(w))
    succ = [
        [b for b in quiver.out_ids[t] if b not in banned and (a, b) not in words]
        for a, t in enumerate(target)
    ]
    out: dict[Pair, list[Path]] = {}
    for v in quiver.vertices if sources is None else sources:
        by_target: dict[Vertex, list[Path]] = {v: [()]}
        frontier = [((), [b for b in quiver.out_ids[v] if b not in banned])]
        for _ in range(max_len):
            nxt: list[tuple[Path, list[int]]] = []
            for path, ids in frontier:
                for b in ids:
                    np = path + (b,)
                    if b in longer and any(np[-L:] in words for L in longer[b]):
                        continue
                    by_target.setdefault(target[b], []).append(np)
                    nxt.append((np, succ[b]))
            frontier = nxt
        for t, plist in by_target.items():
            out[(v, t)] = plist
    return out


def surviving_paths(quiver: Quiver, rels: RelationSet, max_len: int) -> dict[Pair, list[Path]]:
    """Paths of length <= max_len that do not already die by containing a
    monomial relation; the column space of the linear engine.  Such paths
    are ideal members and contribute nothing to the quotient, so pruning
    them at generation time is exact."""
    return _alive_paths(quiver, max_len, rels.zero_redexes)


class _LinearSetup(NamedTuple):
    """What one call of the linear engine shares between vertex pairs."""

    max_len: int
    alive: dict[Pair, list[Path]]  # each list in (length, lex) order
    # source vertex -> (target, longest term, integer-scaled alive terms) per
    # non-monomial relation with a live term and no term longer than max_len
    index: dict[Vertex, list[tuple[Vertex, int, tuple[tuple[Path, int], ...]]]]
    reach: dict[Vertex, list[Vertex]]  # source -> targets of its alive paths


def _linear_setup(quiver: Quiver, rels: RelationSet, max_len: int) -> _LinearSetup:
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    alive = _alive_paths(quiver, max_len, rels.zero_redexes)
    index: dict = {}
    for rel in rels.relations:
        span = max(len(term) for term in rel.terms)
        if len(rel.terms) > 1 and span <= max_len:  # a longer relation has no instance
            # rows matter only up to a scalar, so clear the denominators
            scale = lcm(*(c.denominator for c in rel.terms.values()))
            live = set(alive.get((rel.source, rel.target), ()))
            terms = tuple((term, int(c * scale)) for term, c in rel.terms.items() if term in live)
            if terms:
                index.setdefault(rel.source, []).append((rel.target, span, terms))
    reach: dict = {}
    for s, u in alive:
        reach.setdefault(s, []).append(u)
    return _LinearSetup(max_len, alive, index, reach)


def _relation_rows(setup: _LinearSetup, pair: Pair, col: Mapping[Path, int]) -> Iterator[Row]:
    """Nonzero rows x*rel*y from s to t of length <= max_len, one per non-monomial
    relation instance, each scaled to integers and keyed by the column `col`
    gives each path.  `col` holds exactly the alive paths of the pair, so the
    term of a composite that contains a monomial relation has no column and
    is dropped."""
    max_len, alive = setup.max_len, setup.alive
    s, t = pair
    for u in setup.reach.get(s, ()):
        instances = setup.index.get(u)
        if not instances:
            continue
        prefixes = alive[(s, u)]
        for target, span, terms in instances:
            suffixes = alive.get((target, t))
            if not suffixes:
                continue
            for x in prefixes:
                room = max_len - span - len(x)
                if room < 0:
                    break
                for y in suffixes:
                    if len(y) > room:
                        break
                    row = {c: k for term, k in terms if (c := col.get(x + term + y)) is not None}
                    if row:
                        yield row


def _echelon(setup: _LinearSetup, pair: Pair) -> tuple[ContractedEchelon, dict[Path, int]]:
    """The span of the relation rows of `pair`, and the column of each alive
    path, in column order: longer paths first, so that they are pivoted first."""
    order = sorted(setup.alive.get(pair, []), key=lambda q: (-len(q), q))
    col = {path: c for c, path in enumerate(order)}
    return ContractedEchelon(len(col), _relation_rows(setup, pair, col)), col


def _canonical(source: Vertex, target: Vertex, terms: Mapping[Path, Fraction]) -> tuple:
    """A relation up to a nonzero scalar: its ends, and its terms in path
    order scaled so that the first coefficient is 1."""
    items = sorted(terms.items())
    lead = items[0][1] if items else 1
    if lead != 1:
        items = [(path, c / lead) for path, c in items]
    return (source, target, tuple(items))


def _pair_map(
    quiver: Quiver, rels: RelationSet, image: list[int | None], reverse: bool
) -> Callable[[Pair], Pair] | None:
    """The map on vertex pairs of the automorphism of the path algebra that
    sends arrow i to arrow image[i] (an anti-automorphism, reversing every
    path, if `reverse`).  None unless the certificate holds: the arrow map is
    a bijection, the arrow ends give one map of the vertices, and every
    relation goes to a relation of the set up to a nonzero scalar.  As the
    arrow map permutes the arrow ends, the vertex map takes the finite set of
    vertices on arrows onto itself, so one to one, and fixes the others.  The
    pair map carries the alive paths and relation rows of a pair onto those
    of its image."""
    arrows = quiver.arrows
    if None in image or sorted(image) != list(range(len(arrows))):
        return None
    vmap: dict = {}
    for a, i in zip(arrows, image):
        b = arrows[i]
        ends = (b.target, b.source) if reverse else (b.source, b.target)
        for v, w in zip((a.source, a.target), ends):
            if vmap.setdefault(v, w) != w:
                return None
    for v in quiver.vertices:
        vmap.setdefault(v, v)

    def move(pair: Pair) -> Pair:
        s, t = vmap[pair[0]], vmap[pair[1]]
        return (t, s) if reverse else (s, t)

    known = {_canonical(rel.source, rel.target, rel.terms) for rel in rels.relations}
    for rel in rels.relations:
        terms = {tuple(image[a] for a in path): c for path, c in rel.terms.items()}
        if reverse:
            terms = {path[::-1]: c for path, c in terms.items()}
        if _canonical(*move((rel.source, rel.target)), terms) not in known:
            return None
    return move


class _Fold:
    """The certified symmetries of one linear setup, as moves between vertex
    pairs whose relation rows correspond one to one, so that they share rank
    and saturation: path-reversal duality and the preset's mirror, each
    certified once, and translation by the shift period, certified per pair."""

    def __init__(self, quiver: Quiver, rels: RelationSet, setup: _LinearSetup):
        self.alive = setup.alive
        arrows, by_name = quiver.arrows, quiver.by_name
        by_ends = {(a.source, a.target, a.kind): i for i, a in enumerate(arrows)}
        images = [([by_name.get(a.dual) for a in arrows], True)]
        m = PRESETS[quiver.preset].mirror
        if m:
            ends = [(m.get(a.source, a.source), m.get(a.target, a.target), a.kind) for a in arrows]
            images.append(([by_ends.get(e) for e in ends], False))
        maps = (_pair_map(quiver, rels, image, reverse) for image, reverse in images)
        self.maps = [move for move in maps if move is not None]
        self.period = period = quiver.shift_period
        self.same: dict[Vertex, bool] = {}  # index at v, translated, is the index at v - period
        self.step: list[int | None] = []  # arrow -> its translate by -period, if usable
        if not period or len(by_ends) < len(arrows):
            return
        shift = [by_ends.get((a.source - period, a.target - period, a.kind)) for a in arrows]

        def moved(entry):
            target, span, terms = entry
            return (target - period, span, tuple((tuple(shift[a] for a in t), c) for t, c in terms))

        index = setup.index
        self.same = {
            v: [moved(e) for e in index.get(v, ())] == index.get(v - period, [])
            for v in quiver.vertices
        }
        self.step = [i if self.same[a.target] else None for i, a in zip(shift, arrows)]

    def _translates(self, upper: Pair, lower: Pair) -> bool:
        """Whether `lower` is `upper` moved down one period: each alive path
        of upper, translated arrow by arrow, is the alive path of lower in the
        same place, and the relation index agrees at every vertex on them.
        Nonzero rows of a pair only touch its alive paths, so the rows then
        correspond too."""
        up, low, step = self.alive[upper], self.alive[lower], self.step.__getitem__
        # the same lengths, then the translated arrows in one stream: building
        # the translated paths as tuples raised the peak resident set
        return (
            len(up) == len(low)
            and self.same[upper[0]]
            and all(map(eq, map(len, up), map(len, low)))
            and all(map(eq, map(step, chain.from_iterable(up)), chain.from_iterable(low)))
        )

    def spread(self, pair: Pair, verdicts: dict) -> None:
        """Give every pair reached from `pair` by certified moves its verdict."""
        verdict, stack = verdicts[pair], [pair]
        alive, P = self.alive, self.period
        while stack:
            pair = stack.pop()
            reached = [move(pair) for move in self.maps]
            if self.step:
                s, t = pair
                below, above = (s - P, t - P), (s + P, t + P)
                for other, upper, lower in ((below, pair, below), (above, above, pair)):
                    if other in alive and other not in verdicts and self._translates(upper, lower):
                        reached.append(other)
            for other in reached:
                if other not in verdicts:
                    verdicts[other] = verdict
                    stack.append(other)


class QuotientDims(NamedTuple):
    """Result of the linear engine: per-pair dimensions of the truncated
    path space modulo relation instances for the trusted core pairs, with a
    saturation certificate for them.  The boundary pairs, those with an
    alive path and a vertex outside the core, are listed in `boundary` and
    never decided."""

    max_len: int
    dims: dict[Pair, int]  # core pairs with an alive path
    core_pairs: list[Pair]
    boundary: list[Pair]
    unsaturated: list[Pair]
    eliminated: int = 0  # echelons built

    @property
    def saturated(self) -> bool:
        return not self.unsaturated

    def dim(self, src: Vertex, tgt: Vertex) -> int:
        return self.dims.get((src, tgt), 0)


def _pair_key(pair: Pair) -> str:
    return repr(pair)


def quotient_dims(
    quiver: Quiver,
    rels: RelationSet,
    max_len: int | None = None,
    require_saturation: bool = True,
) -> QuotientDims:
    """Exact dimensions of paths modulo relations, truncated at max_len, for
    every core pair.  max_len must be >= 1.  Boundary pairs are listed, not
    decided: no comparison reads them.

    Saturation means every maximal-length path between core vertices lies in
    the span of shorter paths plus relation instances.  Longer paths are
    pivoted first, so that holds exactly when every maximal-length column is
    a pivot.  If it fails and require_saturation is set, NotSaturated is
    raised, naming the first unsaturated pair and the top-length words of its
    residue, and the caller should retry with a larger max_len.

    One core pair per class of certified symmetries is eliminated; the others
    take its rank and saturation (see Folding in the module docstring)."""
    if max_len is None:
        max_len = PRESETS[quiver.preset].max_len
    setup = _linear_setup(quiver, rels, max_len)
    fold = _Fold(quiver, rels, setup)

    dims: dict[Pair, int] = {}
    unsaturated: list[Pair] = []
    witness: list[str] = []  # residue words of the first unsaturated pair
    verdicts: dict[Pair, tuple[int, bool]] = {}  # pair -> (rank, top paths all pivots)
    eliminated = 0
    core = quiver.core
    core_pairs = sorted(((v, w) for v in core for w in core), key=_pair_key)
    for pair in core_pairs:
        plist = setup.alive.get(pair)
        if not plist:
            continue
        tops = sum(len(path) == max_len for path in plist)  # columns 0..tops-1
        if pair not in verdicts:
            ech, col = _echelon(setup, pair)
            eliminated += 1
            verdicts[pair] = (ech.rank, ech.pivots_among(tops) == tops)
            fold.spread(pair, verdicts)
        rank, saturated = verdicts[pair]
        dims[pair] = len(plist) - rank
        if not saturated:
            if not unsaturated:
                # A copied verdict comes from its class's representative, an
                # earlier core pair with the same saturation, which would have
                # been unsaturated first; so this pair is a representative,
                # and `ech` is its echelon, built in this iteration.
                heads = list(col)[:tops]  # the top-length paths
                for c in range(tops):
                    top = [heads[k] for k in ech.reduce({c: 1}) if k < tops]
                    if top:
                        witness = sorted(map(quiver.format_path, top))
                        break
            unsaturated.append(pair)

    boundary = sorted((pair for pair in setup.alive if not core.issuperset(pair)), key=_pair_key)
    result = QuotientDims(max_len, dims, core_pairs, boundary, unsaturated, eliminated)
    if require_saturation and unsaturated:
        raise NotSaturated(
            f"{len(unsaturated)} core pair(s) have irreducible length-{max_len} paths; "
            f"first: {unsaturated[0]}, residue words: {', '.join(witness)}"
        )
    return result


def check_against_cellular(
    quiver: Quiver,
    result: QuotientDims,
    scalars: Mapping[str, Fraction] | None = None,
) -> Report:
    """Compare core-pair quotient dimensions with the cellular counts:
    common standard factors for the ladders, Bruhat upper-set intersections
    for the sl3 block.  Boundary pairs (an alive path, a vertex outside the
    core) are excluded and counted in the report context; the scalar
    configuration that was checked is recorded there too."""
    ctx = quiver.context
    rep = Report(
        "quiver-vs-cellular",
        {
            "preset": quiver.preset,
            "max_len": result.max_len,
            "excluded_boundary_pairs": len(result.boundary),
            **({"p": ctx.p, "r": ctx.r} if ctx else {}),
            **({"scalars": {k: str(v) for k, v in sorted(scalars.items())}} if scalars else {}),
        },
    )
    for v, w in result.core_pairs:
        expected = PRESETS[quiver.preset].oracle(quiver.weights[v], quiver.weights[w], ctx)
        rep.add({"source": v, "target": w}, result.dim(v, w), expected)
    return rep


# ---------------------------------------------------------------------------
# rewriting engine
# ---------------------------------------------------------------------------


_ONE = Fraction(1)
_MAX_STEPS = 200_000  # rewrite budget of one normal form


def _add_form(acc: dict[Path, Fraction], coeff: Fraction, form: Replacement) -> None:
    """acc += coeff * form."""
    for path, c in form:
        if coeff != 1:
            c = coeff * c
        prev = acc.get(path)
        acc[path] = c if prev is None else prev + c


class _Reducer:
    """Normal forms under one relation set, each reducible path rewritten
    once (see Engines in the module docstring).

    `memo` maps each reducible path met so far to its normal form, a tuple
    of (irreducible path, nonzero coefficient); `active` holds the paths
    being reduced.  `reduce` calls itself once per rewrite, at most 11 deep
    on the rewrite-cells shapes.  `steps` counts the paths rewritten
    against `_MAX_STEPS`; the caller zeroes it for each normal form."""

    __slots__ = ("rules", "lengths", "steps", "memo", "active")

    def __init__(self, rels: RelationSet) -> None:
        self.rules, self.lengths = rels.table, rels.lengths
        self.steps = 0
        self.memo: dict[Path, Replacement] = {}
        self.active: set[Path] = set()

    def reduce(self, path: Path) -> Replacement:
        """The normal form of one path: rewrite its leftmost, shortest redex
        and sum the normal forms of the reduct's terms."""
        form = self.memo.get(path)
        if form is not None:
            return form
        if path in self.active:
            raise NonTerminating(f"rewriting returns to the path {path}")
        rules, lengths, n = self.rules, self.lengths, len(path)
        for i in range(n):
            for L in lengths:
                if i + L > n:
                    break
                repl = rules.get(path[i : i + L])
                if repl is not None:
                    self.steps += 1
                    if self.steps > _MAX_STEPS:
                        raise NonTerminating(f"rewrite budget {_MAX_STEPS} exhausted")
                    head, tail = path[:i], path[i + L :]
                    self.active.add(path)
                    acc: dict[Path, Fraction] = {}
                    for rep, rc in repl:
                        _add_form(acc, rc, self.reduce(head + rep + tail))
                    self.active.discard(path)
                    form = self.memo[path] = tuple((q, c) for q, c in acc.items() if c)
                    return form
        return ((path, _ONE),)


def normal_form(x: PathElement, rels: RelationSet) -> PathElement:
    """Rewrite to a fixed point: leftmost position first, shortest redex
    first, each reducible path once.  Raises NonTerminating when rewriting
    cycles or rewrites more than _MAX_STEPS paths, and RecursionError when a
    chain of rewrites outgrows the recursion limit, which no preset nears."""
    reducer = _Reducer(rels)
    out: dict[Path, Fraction] = {}
    for path, coeff in x.terms.items():
        _add_form(out, coeff, reducer.reduce(path))
    return PathElement(x.source, x.target, out)


def irreducible_words(
    quiver: Quiver, rels: RelationSet, max_len: int
) -> dict[Pair, list[Path]]:
    """Paths of length <= max_len containing no redex, per vertex pair in
    (length, lex) order, pruned as they are generated.  For a complete, confluent orientation
    these enumerate a monomial basis of the quotient, so their counts must
    match the linear dimensions."""
    return _alive_paths(quiver, max_len, rels.zero_redexes.union(rels.table))


# ---------------------------------------------------------------------------
# cell filtration
# ---------------------------------------------------------------------------


def word_cell_rank(quiver: Quiver, source: Vertex, path: Path):
    """Cell rank of an irreducible word: the lowest rank among visited
    vertices.  A length-two loop that only ascends (the chain-top loop of a
    ladder column) represents the lower of its two diagonal cells, whose
    factorisation vertex lies off the path; it gets the second-highest
    common factor instead."""
    rank = quiver.cell_rank
    at, low = source, rank[source]
    for aid in path:
        at = quiver.arrows[aid].target
        if rank[at] < low:
            low = rank[at]
    if len(path) == 2 and at == source and low == rank[source]:
        if quiver.context is None:
            raise RuntimeError("ascending loop outside a ladder preset")
        fac = sorted(delta_factors(quiver.weights[source], quiver.context), reverse=True)
        return fac[1]
    return low


def cell_filtration_check(quiver: Quiver, rels: RelationSet, result: QuotientDims) -> Report:
    """Check that composition never escapes upward through the cell layers:
    for every irreducible word between core vertices and every one-arrow
    extension on either side staying in the core, the normal form is
    supported on words of cell rank at most the original's.

    Each item counts the escaping words of one vertex pair; a failing item
    also names its first escaping composition and the word that escapes.
    One reducer serves every composition, so a path shared by several
    rewrite trees is reduced once (the step budget of `normal_form` holds
    per composition)."""
    core = quiver.core
    # the irreducible words (as irreducible_words lists them) from core sources
    redexes = rels.zero_redexes.union(rels.table)
    sources = [v for v in quiver.vertices if v in core]
    words = _alive_paths(quiver, result.max_len, redexes, sources)
    reducer = _Reducer(rels)
    rep = Report("cell-filtration", {"preset": quiver.preset, "max_len": result.max_len})
    for src, tgt in sorted(words, key=_pair_key):
        if tgt not in core:
            continue
        violations = 0
        checked = 0
        escape = None
        # the core arrows after tgt and before src, the same for every word
        after = [aid for aid in quiver.out_ids[tgt] if quiver.arrows[aid].target in core]
        before = [(quiver.arrows[aid].source, aid) for aid in quiver.in_ids[src]
                  if quiver.arrows[aid].source in core]
        for path in words[src, tgt]:
            cell = word_cell_rank(quiver, src, path)
            extensions = chain(((src, path + (aid,)) for aid in after),
                               ((esrc, (aid,) + path) for esrc, aid in before))
            for esrc, epath in extensions:
                reducer.steps = 0
                checked += 1
                for comp, _ in reducer.reduce(epath):
                    if word_cell_rank(quiver, esrc, comp) > cell:
                        violations += 1
                        if escape is None:
                            escape = {
                                "composition": quiver.format_path(epath),
                                "word": quiver.format_path(comp),
                            }
        item = {"source": src, "target": tgt, "compositions": checked}
        if escape is not None:
            item["first_escape"] = escape
        rep.add(item, violations, 0)
    return rep


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def export_dot(quiver: Quiver) -> str:
    """Deterministic DOT rendering: up arrows solid, down arrows dashed."""
    lines = [f"digraph {quiver.preset} {{", "  rankdir=LR;"]
    for v in sorted(quiver.vertices, key=str):
        label = str(v) if quiver.context is None else f"P{v} ({quiver.weights[v]})"
        lines.append(f'  "{v}" [label="{label}"];')
    for a in sorted(quiver.arrows, key=lambda a: a.name):
        style = "solid" if a.kind.startswith("u") else "dashed"
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}", style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
