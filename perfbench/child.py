"""One benchmark operation in a fresh interpreter, optionally traced.

    python3 perfbench/child.py [--trace SPANFILE --op ID] cli ARG...
    python3 perfbench/child.py [--trace SPANFILE --op ID] rewrite SPECFILE

`cli` runs `tiltcell.cli.run(ARG...)` and exits with its status, exactly as
the `tiltcell` entry point would.  `rewrite` builds the preset named in the
JSON spec, enumerates irreducible words, runs the cell-filtration check,
normal-forms the spec's batch of path elements (twice, to check
idempotence) and prints a JSON summary.

With --trace the public callables of each layer are replaced in the
namespace of the module that calls them.  Coarse calls record spans
(name, start, end, parent); hot calls only add to a call count and a summed
time.  Nothing extra is written to stdout: spans and counters go to SPANFILE
when the operation ends.  `tiltcell` must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from time import perf_counter


class Tracer:
    """Spans for coarse calls, (calls, seconds) counters for hot calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.facts: dict[str, float] = {}
        self.seen: dict = {}  # the op's quiver and max_len, for the probe
        self._depth: dict[str, int] = {}

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapped

    def hot(self, name: str, fn, clock: str | None = None, nested_calls: bool = True):
        """Count calls to fn under `name` and add their time to `clock`
        (default: name).  Calls sharing a clock are timed once when they
        nest, so recursion and helper calls are not double counted; with
        nested_calls=False a nested call is not counted either."""
        clock = clock or name
        counts, seconds = self.counts, self.seconds
        counts.setdefault(name, 0)
        seconds.setdefault(clock, 0.0)
        depth = self._depth
        depth.setdefault(clock, 0)

        def wrapped(*args, **kwargs):
            if depth[clock]:
                if nested_calls:
                    counts[name] += 1
                return fn(*args, **kwargs)
            counts[name] += 1
            depth[clock] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[clock] += perf_counter() - t0
                depth[clock] = 0

        return wrapped


def install(tr: Tracer) -> None:
    """Wrap every layer's public callables where their callers look them up."""
    from tiltcell import cellbasis, charring, cli, deltafilt, quiver, ratlinalg, report

    seen = tr.seen

    def capture_build(fn):
        def wrapped(*args, **kwargs):
            seen["built"] = fn(*args, **kwargs)
            return seen["built"]

        return tr.span("quiver.build", wrapped)

    for name in ("build_p1_quiver", "build_p2_quiver", "build_sl3_quiver"):
        setattr(quiver, name, capture_build(getattr(quiver, name)))

    plain_quotient_dims = quiver.quotient_dims

    def quotient_dims(*args, **kwargs):
        res = plain_quotient_dims(*args, **kwargs)
        seen["max_len"] = res.max_len
        for key, n in (("pairs_eliminated", len(res.dims)), ("core_pairs", len(res.core_pairs))):
            tr.facts[f"quiver.{key}"] = tr.facts.get(f"quiver.{key}", 0) + n
        return res

    quiver.quotient_dims = tr.span("quiver.quotient_dims", quotient_dims)
    quiver.check_against_cellular = tr.span(
        "quiver.check_against_cellular", quiver.check_against_cellular
    )
    quiver.irreducible_words = tr.span("quiver.irreducible_words", quiver.irreducible_words)
    quiver.cell_filtration_check = tr.span(
        "quiver.cell_filtration_check", quiver.cell_filtration_check
    )
    quiver.normal_form = tr.hot("quiver.normal_form", quiver.normal_form)
    quiver.sl3_hom_dim = tr.hot("cellbasis.sl3_hom_dim", quiver.sl3_hom_dim)

    base = ratlinalg.SparseEchelon
    add = tr.hot("ratlinalg.add", base.add, clock="ratlinalg")
    red = tr.hot("ratlinalg.reduce", base.reduce, clock="ratlinalg", nested_calls=False)
    tr.counts["ratlinalg.rows_kept"] = 0

    class TracedEchelon(base):
        def add(self, row):
            kept = add(self, row)
            tr.counts["ratlinalg.rows_kept"] += kept
            return kept

        def reduce(self, row):
            return red(self, row)

    quiver.SparseEchelon = TracedEchelon

    for mod in (deltafilt, quiver, cli):
        if hasattr(mod, "hom_dim"):
            mod.hom_dim = tr.hot("deltafilt.hom_dim", mod.hom_dim)
    for mod in (deltafilt, quiver, cellbasis, cli):
        mod.delta_factors = tr.hot("deltafilt.delta_factors", mod.delta_factors)

    for attr, name in (
        ("verify_reciprocity", "deltafilt.verify_reciprocity"),
        ("verify_bounds", "deltafilt.verify_bounds"),
        ("verify_strong_linkage", "deltafilt.verify_linkage"),
        ("verify_linkage_necessity", "deltafilt.verify_linkage"),
        ("verify_steinberg_equivalence", "deltafilt.verify_steinberg"),
        ("verify_mult_free", "deltafilt.verify_mult_free"),
    ):
        setattr(deltafilt, attr, tr.span(name, getattr(deltafilt, attr)))

    deltafilt.baby_verma_simples = tr.hot(
        "charring.baby_verma_simples", deltafilt.baby_verma_simples
    )
    charring.decompose_into_simples = tr.hot("charring.peel", charring.decompose_into_simples)
    deltafilt.strongly_linked = tr.hot("weights.strongly_linked", deltafilt.strongly_linked)
    deltafilt.dot_orbit = tr.hot("weights.dot_orbit", deltafilt.dot_orbit)

    for attr in ("generator_set_br", "generator_set_br0", "sl3_generator_set_bprime"):
        setattr(cellbasis, attr, tr.span("cellbasis.generators", getattr(cellbasis, attr)))

    for attr in ("add", "extend", "to_dict"):
        setattr(
            report.Report,
            attr,
            tr.hot(f"report.{attr}", getattr(report.Report, attr), clock="report"),
        )


def probe(tr: Tracer) -> None:
    """One standalone surviving_paths call on the op's quiver, timed from
    outside any span."""
    from tiltcell import quiver

    seen = tr.seen
    if "built" not in seen or "max_len" not in seen:
        return
    q, rels = seen["built"]
    t0 = perf_counter()
    alive = quiver.surviving_paths(q, rels, seen["max_len"])
    tr.facts["quiver.surviving_paths_s"] = perf_counter() - t0
    tr.facts["quiver.alive_paths"] = sum(len(v) for v in alive.values())


def cache_facts(tr: Tracer) -> None:
    from tiltcell import charring, deltafilt

    for prefix, fn in (
        ("deltafilt.factor_cache", deltafilt._folded_factors),
        ("charring.peel_cache", charring._baby_verma_simples),
    ):
        info = fn.cache_info()
        tr.facts[f"{prefix}_hits"] = info.hits
        tr.facts[f"{prefix}_misses"] = info.misses


def run_rewrite(spec: dict, tr: Tracer | None) -> int:
    from tiltcell import quiver

    preset = spec["preset"]
    if preset == "p1":
        q, rels = quiver.build_p1_quiver(spec["p"], window=spec["window"])
    elif preset == "p2":
        q, rels = quiver.build_p2_quiver(spec["p"], window=spec["window"])
    else:
        q, rels = quiver.build_sl3_quiver()
    max_len = spec["max_len"]
    if tr is not None:
        tr.seen["max_len"] = max_len
    words = quiver.irreducible_words(q, rels, max_len)
    # cell_filtration_check reads only max_len from its result argument
    shell = quiver.QuotientDims(max_len, {}, [], [], [])
    filt = quiver.cell_filtration_check(q, rels, shell)

    def batch():
        digest = hashlib.sha256()
        unstable = nonterminating = 0
        for elem in spec["elements"]:
            path_terms = {
                tuple(q.arrow_id(a) for a in path): Fraction(c) for path, c in elem["terms"]
            }
            x = quiver.PathElement(elem["source"], elem["target"], path_terms)
            try:
                nf = quiver.normal_form(x, rels)
                again = quiver.normal_form(nf, rels)
            except quiver.NonTerminating:
                nonterminating += 1
                continue
            unstable += again != nf
            digest.update(nf.pretty(q).encode())
            digest.update(b"\n")
        return digest.hexdigest(), unstable, nonterminating

    if tr is not None:
        batch = tr.span("rewrite.batch", batch)
    nf_digest, unstable, nonterminating = batch()
    doc = {
        "preset": preset,
        "max_len": max_len,
        "irreducible_words": sorted(
            [repr(pair), len(ws)] for pair, ws in words.items()
        ),
        "filtration_pass": filt.all_pass,
        "filtration_items": len(filt.items),
        "elements": len(spec["elements"]),
        "normal_form_digest": nf_digest,
        "not_idempotent": unstable,
        "nonterminating": nonterminating,
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    trace_file = op_id = None
    if argv[:1] == ["--trace"]:
        trace_file, op_id, argv = argv[1], argv[3], argv[4:]
    kind, rest = argv[0], argv[1:]
    tr = None
    if trace_file:
        tr = Tracer()
        install(tr)
    if kind == "cli":
        from tiltcell import cli

        root, call, arg = "cli.run", cli.run, rest
    elif kind == "rewrite":
        with open(rest[0], encoding="utf-8") as fh:
            spec = json.load(fh)
        root, call, arg = "rewrite.run", lambda s: run_rewrite(s, tr), spec
    else:
        raise SystemExit(f"unknown operation kind {kind!r}")
    if tr is None:
        return call(arg)
    try:
        code = tr.span(root, call)(arg)
        sys.stdout.flush()
    finally:
        probe(tr)
        cache_facts(tr)
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "op": op_id,
                    "spans": tr.spans,
                    "counts": tr.counts,
                    "seconds": tr.seconds,
                    "facts": tr.facts,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
