"""Command-line front end.

Every subcommand writes a machine-readable document (JSON by default, TSV or
DOT where it makes sense) to stdout or --output and is byte-deterministic
for fixed inputs.  Exit status: 0 on success, 1 when a verification ran and
found a failure, 2 on usage errors, an unwritable --output among them.
TILTCELL_MAX_WORK caps sweep sizes, the entries of the factor tables a
command reads, the support of a `char` character, the vertex count of a
preset quiver and, for a quotient, its rough path count and listed core
pairs, each checked before it is built, and the cell indices `cell-basis`
lists (the sum over nu of (P : Delta(nu)) * (Q : Delta(nu))) and the
|P| * |Q| Hom pairs of their cross-check, both before any is listed.  It also
bounds --p by the sqrt(p)/2 trial divisions of its primality test, and --r,
the steps of every factor-table walk (each on the residue mod p^r nearest
zero).  A refusal quotes at most a short prefix of the input it names;
argparse's own refusals are cut to 200 characters.

`verify` output carries per-check item/failure counts plus the failing items
themselves; passing items are not echoed.  Each check is bounded, then every
factor table the checks read, then every quiver build, before any check
runs.  Each fills one `FailureReport`, which counts its passing items
(`Report.unlisted`), and the quiver suite runs quiver-check's own comparison
and pours each report into one; the Steinberg sweep computes the Hom pairs of
each residue of m mod p^(r-1) once, and its guard bounds all
(2*span+1)*(4p^(r-1)+2) items it checks, not just the window.  `quiver-check`
emits the full per-pair comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from math import isqrt
from typing import TYPE_CHECKING, Callable, Iterable

import tiltcell

from .factors import delta_factors, hom_dim, table_size
from .report import FailureReport, Report
from .weights import Context, tilde

if TYPE_CHECKING:
    from fractions import Fraction

    from . import quiver as qv

SCHEMA = 1
# the keys of quiver.PRESETS; the quiver module is imported only by the
# commands that build a quiver, and the weight sweeps and characters
# (deltafilt, charring) only by `char` and the weight suites of `verify`, so
# that each command compiles only the layers it runs
PRESET_NAMES = ("p1", "p2", "sl3")
DEFAULT_MAX_WORK = 2_000_000
# what an omitted --p or --r means; the flags default to None, so that a
# preset that reads neither can refuse them
DEFAULT_P, DEFAULT_R = 3, 1
# the digits a --scalars value may expand to, well below the 4300 that
# Python converts an int to text with, so that every scalar prints
SCALAR_DIGITS = 1000
QUOTED_CHARS = 20  # the most of an input that an error message quotes
_REFUSAL_CHARS = 200  # the most of an argparse refusal that is printed


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse quotes a bad value whole; subparsers are made of this class too
    def error(self, message: str):
        super().error(message if len(message) <= _REFUSAL_CHARS else message[:_REFUSAL_CHARS] + "...")


def _quoted(text: str) -> str:
    """text as an ASCII literal, cut to QUOTED_CHARS characters."""
    shown = ascii(text)
    return shown if len(shown) <= QUOTED_CHARS else shown[:QUOTED_CHARS] + "..."


def max_work() -> int:
    raw = os.environ.get("TILTCELL_MAX_WORK", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_WORK
    except ValueError:
        raise UsageError(f"TILTCELL_MAX_WORK must be an integer, got {_quoted(raw)}")


def _magnitude(n: int) -> str:
    """n, or its order of magnitude when n would print long."""
    return str(n) if n.bit_length() <= 64 else f"~2**{n.bit_length() - 1}"


def guard_work(items: int) -> None:
    cap = max_work()
    if items > cap:
        raise UsageError(f"sweep of {_magnitude(items)} items exceeds TILTCELL_MAX_WORK={cap}")


def guard_power(factor: int, base: int, exp: int) -> None:
    """guard_work(factor * base**exp) for factor >= 1 and base >= 2.  The
    product is at least 2**exp, so a large exponent is rejected before the
    power is formed."""
    cap = max_work()
    if exp > cap.bit_length():
        raise UsageError(
            f"sweep of at least 2**{_magnitude(exp)} items exceeds TILTCELL_MAX_WORK={cap}"
        )
    guard_work(factor * base**exp)


def guard_tables(weights, ctx: Context) -> None:
    """guard_work over the summed entries of the factor tables at weights,
    read from their digits before any table is built."""
    guard_work(sum(table_size(lam, ctx) for lam in weights))


def guard_level(p: int, r: int = 1) -> None:
    """Bound p by the sqrt(p)/2 trial divisions of its primality test (a p
    below 3 is left to Context's message) and r, the steps of every
    factor-table walk."""
    if p >= 3:
        guard_work(isqrt(p) // 2)
    guard_work(r)


def _context(args) -> Context:
    p, r = (DEFAULT_P if args.p is None else args.p), (DEFAULT_R if args.r is None else args.r)
    guard_level(p, r)
    return _checked_context(p, r)


def _checked_context(p: int, r: int = 1) -> Context:
    try:
        return Context(p, r)
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit(args, text: str) -> None:
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {_quoted(args.output)}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _emit_doc(args, doc: dict, rows=None) -> None:
    """The one writer of documents: `doc` under the schema key as JSON, or
    with --format tsv the rows, one tab-separated line each."""
    if args.format == "tsv":
        _emit(args, "\n".join("\t".join(map(str, row)) for row in rows) + "\n")
    else:
        _emit(args, json.dumps({"schema": SCHEMA, **doc}, indent=2, sort_keys=True) + "\n")


def _emit_report(args, report: Report, rows=None) -> int:
    """Emit a report; its TSV defaults to one line of JSON cells per item."""
    if rows is None:
        cells = ([json.dumps(x, sort_keys=True) for x in item] for item in report.items)
        rows = chain([("input", "lhs", "rhs", "pass")], cells)
    _emit_doc(args, report.to_dict(), rows)
    return 0 if report.all_pass else 1


def _scalar_digits(val: str) -> int:
    """A bound on the digits of the numerator and denominator `val` parses
    to: the digits it is written with plus its decimal exponent, which is
    read only once the written digits are few."""
    digits = sum(ch.isdigit() for ch in val)
    exp = val.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if digits <= SCALAR_DIGITS and exp.isdecimal():
        digits += int(exp)
    return digits


def _parse_scalars(raw: str | None) -> dict[str, Fraction]:
    from fractions import Fraction

    out: dict[str, Fraction] = {}
    if not raw:
        return out
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise UsageError(f"scalar assignment {_quoted(piece)} is not of the form key=value")
        key, val = (s.strip() for s in piece.split("=", 1))
        if key in out:
            raise UsageError(f"scalar {_quoted(key)} is assigned twice")
        if _scalar_digits(val) > SCALAR_DIGITS:
            raise UsageError(f"scalar {_quoted(key)} expands to more than {SCALAR_DIGITS} digits")
        try:
            out[key] = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad scalar value {_quoted(val)}")
    return out


def _weights_list(raw: list[str]) -> dict[int, int]:
    out: dict[int, int] = {}
    for chunk in raw:
        for piece in chunk.split(","):
            piece = piece.strip()
            if piece:
                try:
                    w = int(piece)
                except ValueError:
                    raise UsageError(f"bad weight {_quoted(piece)}")
                out[w] = out.get(w, 0) + 1
    return out


def _preset_build(
    key: str, p: int | None, window=None, scalars=None, no_boundary_loops=False, max_len=None
) -> Callable[[], tuple[qv.Quiver, qv.RelationSet]]:
    """Validate the preset flags and bound the build (with max_len, also the
    path and core-pair counts of a quiver-check); return the build, unrun."""
    from . import quiver as qv

    preset = qv.PRESETS[key]
    if preset.window is None and p is not None:
        raise UsageError(f"--preset {key} reads no --p")
    if preset.window is None and window is not None:
        raise UsageError(f"--preset {key} has no window")
    if no_boundary_loops and not preset.boundary_loops:
        raise UsageError(f"--preset {key} has no boundary loops")
    window = preset.window if window is None else window
    # the builders' floor, checked first: a negative window passes the size guards
    if window is not None and window < preset.window:
        raise UsageError(f"{key} window must be >= {preset.window}")
    p = DEFAULT_P if p is None else p
    guard_level(p)
    vertices, core = preset.vertex_count(p, window)
    guard_work(vertices)
    # after the vertex guard, which refuses a large p2 --p without a primality
    # test, and before the guards below, which a p that is no odd prime passes
    _checked_context(p)
    if max_len is not None:
        # rough path-object count; monomial pruning keeps the real work below this
        guard_power(vertices, 4, max_len)
        # the comparison lists every ordered pair of core vertices
        guard_work(core * core)
    # after the vertex guard, which bounds p for p2, whose scalar names count to 2p
    parsed = _parse_scalars(scalars)
    names = preset.scalar_names(p)
    for name in parsed:
        if name not in names:
            raise UsageError(qv.unknown_scalar(key, p, _quoted(name)))

    def build() -> tuple[qv.Quiver, qv.RelationSet]:
        try:
            return preset.build(p, window, parsed, not no_boundary_loops)
        except (qv.QuiverConfigError, ValueError) as exc:
            raise UsageError(str(exc))

    return build


def _quiver_report(
    build: Callable, preset: str, max_len: int, allow_unsaturated: bool = False
) -> tuple[Report, list | None]:
    """Run a build, its quotient and the comparison with the cellular counts:
    the report and the (source, target, dim) rows of a quiver-check, rows
    None when the quotient is refused as unsaturated."""
    from . import quiver as qv
    from .linear import NotSaturated

    quiver, rels = build()
    try:
        # the engine and the comparison are read through quiver, where the
        # benchmark's tracer wraps them
        result = qv.quotient_dims(quiver, rels, max_len, require_saturation=not allow_unsaturated)
    except NotSaturated as exc:
        report = Report("quiver-vs-cellular", {"preset": preset, "max_len": max_len})
        report.add({"saturation": str(exc)}, False, True)
        return report, None
    report = qv.check_against_cellular(quiver, result, scalars=rels.scalars)
    if not result.saturated:
        report.add({"saturation": result.unsaturated}, False, True)
    dims = [(v, w, result.dim(v, w)) for v, w in result.core_pairs]
    return report, [("source", "target", "dim"), *dims]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_delta_factors(args) -> int:
    ctx = _context(args)
    guard_tables([args.weight], ctx)
    fac = delta_factors(args.weight, ctx)
    pairs = [[nu, fac[nu]] for nu in sorted(fac)]
    _emit_doc(args, {"p": ctx.p, "r": ctx.r, "weight": args.weight, "factors": pairs}, pairs)
    return 0


def _dominant(lam: int) -> None:
    if lam < 0:
        raise UsageError("simple characters need a dominant (non-negative) weight")


# each kind's callable bounds the character's support (|weight|+1, p^r or
# (2p)^r; a guard returns None) and then builds it, looking the builder up on
# the package when it runs, which imports charring or deltafilt only then
_CHARS = {
    "weyl": lambda lam, ctx: guard_work(abs(lam) + 1) or tiltcell.weyl_char(lam),
    "simple": lambda lam, ctx: (
        _dominant(lam) or guard_work(lam + 1) or tiltcell.simple_char(lam, ctx.p)
    ),
    "simple-r": lambda lam, ctx: guard_power(1, ctx.p, ctx.r) or tiltcell.simple_char_r(lam, ctx),
    "baby-verma": lambda lam, ctx: guard_power(1, ctx.p, ctx.r) or tiltcell.baby_verma_char(lam, ctx),
    "tilting": lambda lam, ctx: guard_power(1, 2 * ctx.p, ctx.r) or tiltcell.tilting_char(lam, ctx),
}


def cmd_char(args) -> int:
    ctx = _context(args)
    pairs = sorted(_CHARS[args.kind](args.weight, ctx).items())  # JSON writes each as a list
    doc = {"kind": args.kind, "p": ctx.p, "r": ctx.r, "weight": args.weight, "coeffs": pairs}
    _emit_doc(args, doc, pairs)
    return 0


def cmd_hom_dim(args) -> int:
    ctx = _context(args)
    if len(args.weight) != 2:
        raise UsageError("hom-dim needs exactly two --weight flags")
    lam, mu = args.weight
    guard_tables(args.weight, ctx)
    _emit_doc(args, {"p": ctx.p, "r": ctx.r, "weights": [lam, mu], "dim": hom_dim(lam, mu, ctx)})
    return 0


def cmd_cell_basis(args) -> int:
    from . import cellbasis

    ctx = _context(args)
    P = _weights_list(args.source)
    Q = _weights_list(args.target)
    if not P or not Q:
        raise UsageError("cell-basis needs --source and --target weight lists")
    guard_tables([*P, *Q], ctx)
    kp, kq = cellbasis.standard_counts(P, ctx), cellbasis.standard_counts(Q, ctx)
    guard_work(sum(k * kq.get(nu, 0) for nu, k in kp.items()))  # the indices listed
    guard_work(len(P) * len(Q))  # the Hom pairs of their cross-check
    # a record's fields are the keys printed; JSON writes its labels as lists
    indices = [c._asdict() for c in cellbasis.cell_indices(P, Q, ctx)]
    _emit_doc(args, {"p": ctx.p, "r": ctx.r, "count": len(indices), "indices": indices})
    return 0


def cmd_generators(args) -> int:
    from . import cellbasis

    if args.preset == "sl3":
        if args.principal_block:
            raise UsageError("--preset sl3 has no principal-block variant")
        if args.p is not None or args.r is not None:
            raise UsageError("--preset sl3 reads no --p or --r")
        pairs = cellbasis.sl3_generator_set_bprime()
        _emit_doc(args, {"preset": "sl3", "pairs": pairs}, pairs)
        return 0
    ctx = _context(args)
    guard_power(2, ctx.p, 2 * ctx.r)  # 2 * q * q
    gens = (
        cellbasis.generator_set_br0(ctx)
        if args.principal_block
        else cellbasis.generator_set_br(ctx)
    )
    doc = {
        "p": ctx.p,
        "r": ctx.r,
        "principal_block": bool(args.principal_block),
        "generators": [g._asdict() for g in gens],
    }
    _emit_doc(args, doc, gens)
    return 0


def _quiver_json(quiver: qv.Quiver, rels: qv.RelationSet) -> dict:
    return {
        "preset": quiver.preset,
        "shift_period": quiver.shift_period,
        "vertices": [
            {"id": v, "weight": quiver.weights[v], "core": v in quiver.core}
            for v in quiver.vertices
        ],
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target, "kind": a.kind}
            for a in quiver.arrows
        ],
        "scalars": {k: str(v) for k, v in sorted(rels.scalars.items())},
        "relations": [
            {
                "source": rel.source,
                "target": rel.target,
                "terms": [
                    {"coeff": str(c), "path": [quiver.arrows[i].name for i in path]}
                    for path, c in sorted(rel.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
                ],
            }
            for rel in rels.relations
        ],
    }


def cmd_quiver_build(args) -> int:
    from . import quiver as qv

    quiver, rels = _preset_build(
        args.preset, args.p, args.window, args.scalars, args.no_boundary_loops
    )()
    if args.format == "dot":
        _emit(args, qv.export_dot(quiver))
    else:
        _emit_doc(args, _quiver_json(quiver, rels))
    return 0


def cmd_quiver_check(args) -> int:
    from . import quiver as qv

    max_len = qv.PRESETS[args.preset].max_len if args.max_len is None else args.max_len
    if max_len < 1:
        raise UsageError(f"--max-len must be >= 1, got {max_len}")
    build = _preset_build(
        args.preset, args.p, args.window, args.scalars, args.no_boundary_loops, max_len
    )
    return _emit_report(args, *_quiver_report(build, args.preset, max_len, args.allow_unsaturated))


_SUITES = ("reciprocity", "bounds", "linkage", "multfree", "steinberg", "quiver", "all")


def _weight_checks(name: str, lo: int, hi: int, ctx: Context) -> list[tuple[str, Callable]]:
    """Bound the items of each weight check of suite `name` over [lo, hi], in
    report order, then the entries of every factor table they read; return
    each check's report name and its unrun sweep, which fills a report."""
    # the sweeps are read on deltafilt when they run, where the benchmark's
    # tracer wraps them
    from . import deltafilt as df

    # the sweep that runs deltafilt's `verify` at each of points
    def each(verify: str, points: range) -> Callable[[Report], Report]:
        def sweep(rep: Report) -> Report:
            check = getattr(df, verify)
            for point in points:
                check(point, ctx, rep)
            return rep

        return sweep

    window = range(lo, hi + 1)
    n = hi - lo + 1  # len(window) overflows past 2**63 items
    tildes = (tilde(lam, ctx) for lam in window)  # listed once every check is bounded
    # the weights whose factor tables the checks read, by part; a part that
    # two checks read is counted once
    reads: dict[str, Iterable[int]] = {}
    checks: list[tuple[str, Callable]] = []
    if name in ("reciprocity", "all"):
        guard_power(4 * n, ctx.p, ctx.r)
        # the index peels a whole period: q standard objects of mass q
        guard_power(1, ctx.p, 2 * ctx.r)
        reads["tildes"] = tildes
        checks.append(("reciprocity", each("verify_reciprocity", window)))
    if name in ("bounds", "all"):
        guard_work(n * 8)
        reads["tildes"] = tildes
        checks.append(("bounds", each("verify_bounds", window)))
    if name in ("linkage", "all"):
        guard_work(n**2)
        reads.update(window=window, tildes=tildes)
        strong = each("verify_strong_linkage", window)
        # then the necessity sweep over the whole window, into the same report
        checks.append(
            ("strong-linkage", lambda rep: df.verify_linkage_necessity(lo, hi, ctx, strong(rep)))
        )
    if name in ("multfree", "all"):
        guard_work(n * 2)
        reads["window"] = window
        checks.append(("mult-free", lambda rep: df.verify_mult_free(lo, hi, ctx, rep)))
    # the level drop needs r >= 2: `all` skips it below that
    if name == "steinberg" or name == "all" and ctx.r >= 2:
        if ctx.r < 2:
            raise UsageError("the steinberg suite needs --r >= 2")
        guard_work(n * 8 * ctx.p)
        # every m of the span checks one factor table and 4p^(r-1) + 1 Hom
        # pairs, however narrow the window; the power is bounded first
        span = max(abs(lo), abs(hi)) // ctx.p + 1
        guard_power(4 * (2 * span + 1), ctx.p, ctx.r - 1)
        guard_work((2 * span + 1) * (4 * ctx.q // ctx.p + 2))
        # p-1+p*m over the m-span, widened by the partners of its hom sweep:
        # 2*reach + 1 tables, fewer than the items bounded just above
        reach = span + 2 * ctx.q // ctx.p
        reads["steinberg"] = range(-reach * ctx.p + ctx.p - 1, reach * ctx.p + ctx.p, ctx.p)
        steps = range(-span, span + 1)
        checks.append(("steinberg-equivalence", each("verify_steinberg_equivalence", steps)))
    guard_tables(chain.from_iterable(reads.values()), ctx)
    return checks


def _run_suite(name: str, args) -> list[FailureReport]:
    if name == "quiver" and any(v is not None for v in (args.r, args.lo, args.hi)):
        raise UsageError("the quiver suite reads no --r, --lo or --hi")
    ctx = _context(args)
    lo, hi = args.lo, args.hi
    checks = []
    if name != "quiver":
        if lo is None or hi is None:
            # a defaulted end is -2q or 2q, and every weight suite sweeps more
            # items than the window holds, so more than q = p**r
            guard_power(1, ctx.p, ctx.r)
            lo = -2 * ctx.q if lo is None else lo
            hi = 2 * ctx.q if hi is None else hi
        if lo > hi:
            raise UsageError("--lo must not exceed --hi")
        checks = _weight_checks(name, lo, hi, ctx)
    builds = []
    if name in ("quiver", "all"):
        from . import quiver as qv

        # every preset at its defaults and at --p where it reads one, each
        # bounded as quiver-check bounds it, all before the first is built
        for key, preset in qv.PRESETS.items():
            p = None if preset.window is None else ctx.p
            builds.append((key, preset.max_len, _preset_build(key, p, max_len=preset.max_len)))
    # one report per check, listing its failures and counting every item
    context = {"p": ctx.p, "r": ctx.r, "lo": lo, "hi": hi}
    reports = [sweep(FailureReport(check, context)) for check, sweep in checks]
    for key, max_len, build in builds:
        full, _ = _quiver_report(build, key, max_len)
        rep = FailureReport(full.check, full.context)
        rep.extend(full)
        reports.append(rep)
    return reports


def cmd_verify(args) -> int:
    reports = _run_suite(args.suite, args)
    ok = all(rep.all_pass for rep in reports)
    doc = {
        "suite": args.suite,
        "pass": ok,
        "reports": [rep.to_dict() for rep in reports],
        "counts": [
            {"check": rep.check, "items": len(rep.items) + rep.unlisted, "failures": len(rep.items)}
            for rep in reports
        ],
    }
    _emit_doc(args, doc)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp, *, fmt: tuple[str, ...] = ("json", "tsv")) -> None:
    sp.add_argument("--p", type=int, default=None, help=f"odd prime (default {DEFAULT_P})")
    sp.add_argument("--r", type=int, default=None, help=f"level r >= 1 (default {DEFAULT_R})")
    sp.add_argument("--format", choices=fmt, default="json")
    sp.add_argument("--output", default="-", help="output path, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="tiltcell",
        description="Exact invariants of rank-one tilting ladders and their quiver presentations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("delta-factors", help="factor table of one indecomposable tilting")
    _add_common(sp)
    sp.add_argument("--weight", type=int, required=True)
    sp.set_defaults(func=cmd_delta_factors)

    sp = sub.add_parser("char", help="character of a standard/simple/tilting object")
    _add_common(sp)
    sp.add_argument("--kind", choices=tuple(_CHARS), default="weyl")
    sp.add_argument("--weight", type=int, required=True)
    sp.set_defaults(func=cmd_char)

    sp = sub.add_parser("hom-dim", help="Hom dimension between two indecomposable tiltings")
    _add_common(sp, fmt=("json",))
    sp.add_argument("--weight", type=int, action="append", required=True)
    sp.set_defaults(func=cmd_hom_dim)

    sp = sub.add_parser("cell-basis", help="cellular index triples for Hom(P, Q)")
    _add_common(sp, fmt=("json",))
    sp.add_argument("--source", action="append", required=True, help="weights, comma separated")
    sp.add_argument("--target", action="append", required=True)
    sp.set_defaults(func=cmd_cell_basis)

    sp = sub.add_parser("generators", help="distinguished generator family")
    _add_common(sp)
    sp.add_argument("--preset", choices=("level", "sl3"), default="level")
    sp.add_argument("--principal-block", action="store_true")
    sp.set_defaults(func=cmd_generators)

    for name, func, formats in (
        ("quiver-build", cmd_quiver_build, ("json", "dot")),
        ("quiver-check", cmd_quiver_check, ("json", "tsv")),
    ):
        sp = sub.add_parser(name, help=f"{name.replace('-', ' ')} for a preset quiver")
        sp.add_argument("--preset", choices=PRESET_NAMES, required=True)
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--window", type=int, default=None)
        sp.add_argument("--scalars", default=None, help="comma separated key=value pairs")
        sp.add_argument("--no-boundary-loops", action="store_true")
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--output", default="-")
        sp.set_defaults(func=func)
    sp = sub.choices["quiver-check"]
    sp.add_argument("--max-len", type=int, default=None)
    sp.add_argument("--allow-unsaturated", action="store_true")

    sp = sub.add_parser("verify", help="run a verification suite")
    _add_common(sp, fmt=("json",))
    sp.add_argument("--suite", choices=_SUITES, required=True)
    sp.add_argument("--lo", type=int, default=None)
    sp.add_argument("--hi", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    return ap


def run(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
