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
under duality, the cellular anti-involution (see "Folding" in `linear`).

`PRESETS` is the one place a preset is defined; the CLI and the engines read
every preset-specific choice (window, truncation, oracle, ...) from it.

Conventions
-----------
A path is a tuple of arrow ids in application order: (x, y) means "apply x,
then y".  Displayed names are compositional (last applied leftmost), which
matches the usual juxtaposition for morphisms.

Engines
-------
Two independent engines are cross-checked, each in a module of its own, so
that a process compiles only the one it runs: exact linear algebra in
`linear` and oriented rewriting in `rewrite`.  This module keeps what both
read, and resolves the engine names that the benchmark reads through it on
first use (`_ENGINES`, PEP 562).

A `RelationSet` builds its rewrite index (rule table, redex lengths) once,
at construction, and rules are fixed after that.  The rewriting engine finds
redexes in that index.  The linear engine tests a path for a monomial
relation once, while it enumerates the alive paths (`_alive_paths`); after
that a path of at most max_len arrows holds one exactly when it is not
alive.

Only window-interior ("core") vertex pairs are trusted: the infinite
presentations are realised on a finite window with a declared shift period,
and a pair with a vertex near the cut is only counted, never decided.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple

from .cellbasis import SL3_COVERS, SL3_ELEMENTS, SL3_LENGTH, sl3_delta_table, sl3_hom_dim
from .factors import delta_factors, hom_dim
from .report import Report
from .weights import Context


# the engine names read through this module, by the module that defines them
_ENGINES = {"quotient_dims": "linear", "NonTerminating": "rewrite", "normal_form": "rewrite",
            "cell_filtration_check": "rewrite", "irreducible_words": "rewrite"}


def __getattr__(name: str):
    module = _ENGINES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__package__}.{module}"), name)
    return value


class QuiverConfigError(ValueError):
    """Bad build parameters, e.g. a declared-nonzero scalar set to zero."""


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
        rank = PRESETS[self.preset].cell_rank
        self.cell_rank = {v: rank(w) for v, w in self.weights.items()}

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
    The callables look builders, tables and oracles up on this module when they
    run, so replacing `build_*`, `delta_factors`, `hom_dim` or `sl3_hom_dim`
    here reaches every caller."""

    # build(p, window, scalars, boundary_loops); scalars holds validated overrides
    build: Callable[[int, int | None, dict, bool], tuple[Quiver, RelationSet]]
    window: int | None  # None: the preset has no window and reads no p
    max_len: int  # default truncation of the linear engine
    # (vertices, core vertices) from p and window, before building
    vertex_count: Callable[[int, int | None], tuple[int, int]]
    # the ladders' choices: no scalars, common-factor Hom counts, the tables of
    # `delta_factors`, cells ranked by weight
    scalar_names: Callable[[int], list[str]] = lambda p: []
    valid_scalars: Callable[[int], str] = lambda p: "none"  # the names as one short line
    boundary_loops: bool = False  # whether build reads boundary_loops
    oracle: Callable[..., int] = lambda lam, mu, ctx: hom_dim(lam, mu, ctx)
    # the cell data: factors(label, ctx) is the set of cell labels nu with
    # (T(label) : Delta(nu)) = 1, and nu lies below label in the cell order
    # when it is in that table; cell_rank(label) is a linear extension of that
    # order, and oracle(lam, mu, ctx) counts the factors common to two tables
    factors: Callable[..., AbstractSet] = lambda lam, ctx: delta_factors(lam, ctx).keys()
    cell_rank: Callable[[Vertex], int] = lambda lam: lam
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
        factors=lambda x, ctx: sl3_delta_table()[x],
        cell_rank=lambda x: -SL3_LENGTH[x],
        # the Dynkin diagram automorphism, for every (a, b, r)
        mirror=MappingProxyType({"s": "t", "t": "s", "st": "ts", "ts": "st"}),
    ),
}


# ---------------------------------------------------------------------------
# path enumeration and the linear engine's result, which both engines read
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


def check_against_cellular(
    quiver: Quiver,
    result: QuotientDims,
    scalars: Mapping[str, Fraction] | None = None,
) -> Report:
    """Compare core-pair quotient dimensions with the cellular counts, the
    preset's `oracle`: common factors of the two vertices' tables
    (`Preset.factors`).  Boundary pairs (an alive path, a vertex outside the
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
# cell filtration
# ---------------------------------------------------------------------------


def word_cell_rank(quiver: Quiver, source: Vertex, path: Path):
    """Cell rank of an irreducible word: the lowest rank among visited
    vertices.  A length-two loop that only ascends (the chain-top loop of a
    ladder column) represents the lower of its two diagonal cells, whose
    factorisation vertex lies off the path; it gets the second-highest cell
    of its source's table instead, and is refused on a one-cell table."""
    rank = quiver.cell_rank
    at, low = source, rank[source]
    for aid in path:
        at = quiver.arrows[aid].target
        if rank[at] < low:
            low = rank[at]
    if len(path) == 2 and at == source and low == rank[source]:
        pre = PRESETS[quiver.preset]
        cells = sorted(map(pre.cell_rank, pre.factors(quiver.weights[source], quiver.context)))
        if len(cells) < 2:
            raise RuntimeError(f"ascending loop {quiver.format_path(path)}: one-cell table")
        return cells[-2]
    return low


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
