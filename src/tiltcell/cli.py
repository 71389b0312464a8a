"""Command-line front end.

Every subcommand writes a machine-readable document (JSON by default, TSV or
DOT where it makes sense) to stdout or --output and is byte-deterministic
for fixed inputs.  Exit status: 0 on success, 1 when a verification ran and
found a failure, 2 on usage errors.  TILTCELL_MAX_WORK caps sweep sizes, the
entries of the factor tables a command reads, the support of a `char`
character and the vertex count of a preset quiver, each checked before it is
built.

`verify` output carries per-check item/failure counts plus the failing items
themselves; passing items of large sweeps are not echoed.  `quiver-check`
emits the full per-pair comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import cellbasis, deltafilt
from .charring import baby_verma_char, simple_char, simple_char_r, weyl_char
from .deltafilt import delta_factors, hom_dim, table_size, tilting_char
from .report import Report
from .weights import Context, tilde

if TYPE_CHECKING:
    from fractions import Fraction

    from . import quiver as qv

SCHEMA = 1
# the keys of quiver.PRESETS; the quiver engine is imported only by the
# commands that build a quiver, so weight-side commands start without it
PRESET_NAMES = ("p1", "p2", "sl3")
DEFAULT_MAX_WORK = 2_000_000


class UsageError(Exception):
    pass


def max_work() -> int:
    raw = os.environ.get("TILTCELL_MAX_WORK", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_WORK
    except ValueError:
        raise UsageError(f"TILTCELL_MAX_WORK must be an integer, got {raw!r}")


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


def _context(args) -> Context:
    try:
        return Context(args.p, args.r)
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit(args, text: str) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit_report(args, report: Report) -> int:
    doc = {"schema": SCHEMA, **report.to_dict()}
    if args.format == "tsv":
        lines = ["input\tlhs\trhs\tpass"]
        for item in report.items:
            lines.append(
                "\t".join(
                    [
                        json.dumps(item.input, sort_keys=True),
                        json.dumps(item.lhs, sort_keys=True),
                        json.dumps(item.rhs, sort_keys=True),
                        "true" if item.passed else "false",
                    ]
                )
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json(doc))
    return 0 if report.all_pass else 1


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
            raise UsageError(f"scalar assignment {piece!r} is not of the form key=value")
        key, val = piece.split("=", 1)
        try:
            out[key.strip()] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad scalar value {val!r}")
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
                    raise UsageError(f"bad weight {piece!r}")
                out[w] = out.get(w, 0) + 1
    return out


def _build_preset(args, max_len: int | None = None) -> tuple[qv.Quiver, qv.RelationSet]:
    """Validate the preset flags and build; with max_len, also bound the path
    count of a quiver-check before building."""
    from . import quiver as qv

    preset = qv.PRESETS[args.preset]
    if preset.window is None and args.window is not None:
        raise UsageError(f"--preset {args.preset} has no window")
    window = preset.window if args.window is None else args.window
    scalars = _parse_scalars(args.scalars)
    names = preset.scalar_names(args.p)
    for key in scalars:
        if key not in names:
            raise UsageError(f"unknown scalar {key!r}; valid: {', '.join(names) or 'none'}")
    vertices = preset.vertex_count(args.p, window)
    guard_work(vertices)
    if max_len is not None:
        # rough path-object count; monomial pruning keeps the real work below this
        guard_power(vertices, 4, max_len)
    try:
        return preset.build(args.p, window, scalars, not args.no_boundary_loops)
    except (qv.QuiverConfigError, ValueError) as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_delta_factors(args) -> int:
    ctx = _context(args)
    guard_tables([args.weight], ctx)
    fac = delta_factors(args.weight, ctx)
    pairs = [[nu, fac[nu]] for nu in sorted(fac)]
    if args.format == "tsv":
        _emit(args, "\n".join(f"{nu}\t{m}" for nu, m in pairs) + "\n")
    else:
        _emit(
            args,
            _json(
                {
                    "schema": SCHEMA,
                    "p": ctx.p,
                    "r": ctx.r,
                    "weight": args.weight,
                    "factors": pairs,
                }
            ),
        )
    return 0


def cmd_char(args) -> int:
    ctx = _context(args)
    kind = args.kind
    # each kind's support is bounded before the character is built
    if kind == "weyl":
        guard_work(abs(args.weight) + 1)
        ch = weyl_char(args.weight)
    elif kind == "simple":
        if args.weight < 0:
            raise UsageError("simple characters need a dominant (non-negative) weight")
        guard_work(args.weight + 1)
        ch = simple_char(args.weight, ctx.p)
    elif kind == "simple-r":
        guard_power(1, ctx.p, ctx.r)
        ch = simple_char_r(args.weight, ctx)
    elif kind == "baby-verma":
        guard_power(1, ctx.p, ctx.r)
        ch = baby_verma_char(args.weight, ctx)
    elif kind == "tilting":
        guard_power(1, 2 * ctx.p, ctx.r)
        ch = tilting_char(args.weight, ctx)
    else:
        raise UsageError(f"unknown character kind {kind!r}")
    pairs = ch.to_pairs()
    if args.format == "tsv":
        _emit(args, "\n".join(f"{w}\t{c}" for w, c in pairs) + "\n")
    else:
        _emit(
            args,
            _json(
                {
                    "schema": SCHEMA,
                    "kind": kind,
                    "p": ctx.p,
                    "r": ctx.r,
                    "weight": args.weight,
                    "coeffs": pairs,
                }
            ),
        )
    return 0


def cmd_hom_dim(args) -> int:
    ctx = _context(args)
    if len(args.weight) != 2:
        raise UsageError("hom-dim needs exactly two --weight flags")
    lam, mu = args.weight
    guard_tables(args.weight, ctx)
    _emit(
        args,
        _json(
            {
                "schema": SCHEMA,
                "p": ctx.p,
                "r": ctx.r,
                "weights": [lam, mu],
                "dim": hom_dim(lam, mu, ctx),
            }
        ),
    )
    return 0


def cmd_cell_basis(args) -> int:
    ctx = _context(args)
    P = _weights_list(args.source)
    Q = _weights_list(args.target)
    if not P or not Q:
        raise UsageError("cell-basis needs --source and --target weight lists")
    guard_tables([*P, *Q], ctx)
    indices = cellbasis.cell_indices(P, Q, ctx)
    _emit(
        args,
        _json(
            {
                "schema": SCHEMA,
                "p": ctx.p,
                "r": ctx.r,
                "count": len(indices),
                "indices": [c.to_dict() for c in indices],
            }
        ),
    )
    return 0


def cmd_generators(args) -> int:
    if args.preset == "sl3":
        pairs = cellbasis.sl3_generator_set_bprime()
        if args.format == "tsv":
            _emit(args, "".join(f"{hi}\t{lo}\n" for hi, lo in pairs))
        else:
            _emit(args, _json({"schema": SCHEMA, "preset": "sl3", "pairs": [list(t) for t in pairs]}))
        return 0
    ctx = _context(args)
    guard_power(2, ctx.p, 2 * ctx.r)  # 2 * q * q
    gens = (
        cellbasis.generator_set_br0(ctx)
        if args.principal_block
        else cellbasis.generator_set_br(ctx)
    )
    doc = {
        "schema": SCHEMA,
        "p": ctx.p,
        "r": ctx.r,
        "principal_block": bool(args.principal_block),
        "generators": [g.to_dict() for g in gens],
    }
    if args.format == "tsv":
        _emit(args, "\n".join(f"{g.low_weight}\t{g.high_weight}\t{g.index}" for g in gens) + "\n")
    else:
        _emit(args, _json(doc))
    return 0


def _quiver_json(quiver: qv.Quiver, rels: qv.RelationSet) -> dict:
    return {
        "schema": SCHEMA,
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

    quiver, rels = _build_preset(args)
    if args.format == "dot":
        _emit(args, qv.export_dot(quiver))
    else:
        _emit(args, _json(_quiver_json(quiver, rels)))
    return 0


def cmd_quiver_check(args) -> int:
    from . import quiver as qv

    max_len = qv.PRESETS[args.preset].max_len if args.max_len is None else args.max_len
    if max_len < 1:
        raise UsageError(f"--max-len must be >= 1, got {max_len}")
    quiver, rels = _build_preset(args, max_len)
    try:
        result = qv.quotient_dims(quiver, rels, max_len, require_saturation=not args.allow_unsaturated)
    except qv.NotSaturated as exc:
        report = Report("quiver-vs-cellular", {"preset": args.preset, "max_len": max_len})
        report.add({"saturation": str(exc)}, False, True)
        return _emit_report(args, report)
    report = qv.check_against_cellular(quiver, result, scalars=rels.scalars)
    if not result.saturated:
        report.add({"saturation": result.unsaturated}, False, True)
    if args.format == "tsv":
        lines = ["source\ttarget\tdim"]
        for (v, w) in result.core_pairs:
            lines.append(f"{v}\t{w}\t{result.dim(v, w)}")
        _emit(args, "\n".join(lines) + "\n")
        return 0 if report.all_pass else 1
    return _emit_report(args, report)


_SUITES = ("reciprocity", "bounds", "linkage", "multfree", "steinberg", "quiver", "all")


def _steinberg_span(lo: int, hi: int, ctx: Context) -> int:
    return max(abs(lo), abs(hi)) // ctx.p + 1


def _guard_weight_suites(name: str, lo: int, hi: int, ctx: Context) -> None:
    """Bound the sweeps of the weight suites in `name`, then the entries of
    the factor tables they read, before any sweep runs."""
    window = range(lo, hi + 1)
    n = len(window)
    if name in ("reciprocity", "all"):
        guard_power(4 * n, ctx.p, ctx.r)
        # the index peels a whole period: q standard objects of mass q
        guard_power(1, ctx.p, 2 * ctx.r)
    if name in ("bounds", "all"):
        guard_work(n * 8)
    if name in ("linkage", "all"):
        guard_work(n**2)
    if name in ("multfree", "all"):
        guard_work(n * 2)
    if name == "steinberg" and ctx.r < 2:
        raise UsageError("the steinberg suite needs --r >= 2")
    tables: list[int] = []
    if name in ("linkage", "multfree", "all"):
        tables += window
    if name in ("reciprocity", "bounds", "linkage", "all"):
        tables += [tilde(lam, ctx) for lam in window]
    if name in ("steinberg", "all") and ctx.r >= 2:
        guard_work(n * 8 * ctx.p)
        # p-1+p*m over the m-span, widened by the partners of its hom sweep;
        # each has a table entry, so their count is bounded before listing
        reach = _steinberg_span(lo, hi, ctx) + 2 * ctx.q // ctx.p
        guard_work(2 * reach + 1)
        tables += range(-reach * ctx.p + ctx.p - 1, reach * ctx.p + ctx.p, ctx.p)
    guard_tables(tables, ctx)


def _run_suite(name: str, args) -> list[Report]:
    ctx = _context(args)
    lo, hi = args.lo, args.hi
    if name != "quiver" and (lo is None or hi is None):
        # a defaulted end is -2q or 2q, and every weight suite sweeps more
        # items than the window holds, so more than q = p**r
        guard_power(1, ctx.p, ctx.r)
        lo = -2 * ctx.q if lo is None else lo
        hi = 2 * ctx.q if hi is None else hi
    if lo is not None and hi is not None and lo > hi:
        raise UsageError("--lo must not exceed --hi")
    if name != "quiver":
        _guard_weight_suites(name, lo, hi, ctx)
    reports: list[Report] = []
    if name in ("reciprocity", "all"):
        rep = Report("reciprocity", {"p": ctx.p, "r": ctx.r, "lo": lo, "hi": hi})
        for lam in range(lo, hi + 1):
            rep.extend(deltafilt.verify_reciprocity(lam, ctx))
        reports.append(rep)
    if name in ("bounds", "all"):
        rep = Report("bounds", {"p": ctx.p, "r": ctx.r, "lo": lo, "hi": hi})
        for lam in range(lo, hi + 1):
            rep.extend(deltafilt.verify_bounds(lam, ctx))
        reports.append(rep)
    if name in ("linkage", "all"):
        rep = Report("strong-linkage", {"p": ctx.p, "r": ctx.r, "lo": lo, "hi": hi})
        for lam in range(lo, hi + 1):
            rep.extend(deltafilt.verify_strong_linkage(lam, ctx))
        rep.extend(deltafilt.verify_linkage_necessity(lo, hi, ctx))
        reports.append(rep)
    if name in ("multfree", "all"):
        reports.append(deltafilt.verify_mult_free(lo, hi, ctx))
    if name in ("steinberg", "all") and ctx.r >= 2:
        rep = Report("steinberg-equivalence", {"p": ctx.p, "r": ctx.r, "lo": lo, "hi": hi})
        span = _steinberg_span(lo, hi, ctx)
        for m in range(-span, span + 1):
            rep.extend(deltafilt.verify_steinberg_equivalence(m, ctx))
        reports.append(rep)
    if name in ("quiver", "all"):
        from . import quiver as qv

        for preset in qv.PRESETS.values():
            guard_work(preset.vertex_count(ctx.p, preset.window))
            quiver, rels = preset.build(ctx.p, preset.window, {}, True)
            result = qv.quotient_dims(quiver, rels)
            reports.append(qv.check_against_cellular(quiver, result, scalars=rels.scalars))
    return reports


def cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; valid: {', '.join(_SUITES)}")
    reports = _run_suite(args.suite, args)
    failed = [Report(rep.check, rep.context, rep.failures) for rep in reports]
    ok = not any(rep.items for rep in failed)
    doc = {
        "schema": SCHEMA,
        "suite": args.suite,
        "pass": ok,
        "reports": [rep.to_dict() for rep in failed],
        "counts": [
            {"check": rep.check, "items": len(rep.items), "failures": len(bad.items)}
            for rep, bad in zip(reports, failed)
        ],
    }
    _emit(args, _json(doc))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sp, *, context: bool = True, fmt: tuple[str, ...] = ("json", "tsv")) -> None:
    if context:
        sp.add_argument("--p", type=int, default=3, help="odd prime (default 3)")
        sp.add_argument("--r", type=int, default=1, help="level r >= 1 (default 1)")
    sp.add_argument("--format", choices=fmt, default="json")
    sp.add_argument("--output", default="-", help="output path, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    sp.add_argument(
        "--kind",
        choices=("weyl", "simple", "simple-r", "baby-verma", "tilting"),
        default="weyl",
    )
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
        sp.add_argument("--p", type=int, default=3)
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
    sp.add_argument("--suite", required=True)
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
