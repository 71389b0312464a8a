"""`import tiltcell` loads no submodule, and each command loads only the
layers it reads.

The package resolves every exported name on first use, through one export
table.  `tiltcell.cli` imports the quiver module only when a quiver is
built, `cellbasis` only for the commands that read it, and the weight
sweeps and characters (`deltafilt`, `charring`) only for `verify` and
`char`.  Each quiver engine is a module of its own, loaded on first use:
a `quiver-check` compiles the linear engine (`linear`, `ratlinalg`) and
not the rewriting engine (`rewrite`), a rewrite operation the other way
round.  The benchmark's tracer still reaches every layer it wraps.  No
module of the package loads `dataclasses` (and `inspect` under it).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltcell
from tiltcell import (
    cellbasis,
    charring,
    cli,
    deltafilt,
    factors,
    linear,
    quiver,
    report,
    rewrite,
    weights,
)

SRC = str(Path(tiltcell.__file__).resolve().parents[1])
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

# the package's export list: every name it resolves on first use, by the
# submodule that defines it
EXPORTS = {
    charring: (
        "Character",
        "NotAModuleCharacter",
        "baby_verma_char",
        "decompose_into_simples",
        "simple_char",
        "simple_char_r",
        "weyl_char",
    ),
    factors: (
        "DeltaFactors",
        "InvariantViolation",
        "delta_factors",
        "hom_dim",
        "hom_dim_sum",
    ),
    deltafilt: (
        "tilting_char",
        "verify_bounds",
        "verify_mult_free",
        "verify_reciprocity",
        "verify_steinberg_equivalence",
        "verify_strong_linkage",
    ),
    cellbasis: (
        "CellIndex",
        "GeneratorSymbol",
        "cell_indices",
        "dagger",
        "generator_set_br",
        "generator_set_br0",
        "sl3_delta_table",
        "sl3_generator_set_bprime",
    ),
    quiver: (
        "PathElement",
        "Quiver",
        "QuiverConfigError",
        "RelationSet",
        "build_p1_quiver",
        "build_p2_quiver",
        "build_sl3_quiver",
        "check_against_cellular",
        "export_dot",
    ),
    linear: ("NotSaturated", "quotient_dims"),
    rewrite: ("NonTerminating", "cell_filtration_check", "normal_form"),
    report: ("Report", "ReportItem"),
    weights: (
        "Context",
        "dot_orbit",
        "strongly_linked",
        "tilde",
    ),
}


def _imported_after(statements: str, prefix: str = "tiltcell") -> set[str]:
    """The modules named `prefix...` that a fresh interpreter has loaded after
    running `statements`."""
    code = (
        "import sys\n"
        f"{statements}\n"
        f"sys.stderr.write(' '.join(sorted(m for m in sys.modules if m.startswith({prefix!r}))))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.returncode == 0, res.stderr
    return set(res.stderr.split())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "bounds", "--p", "3", "--r", "2"],
        ["verify", "--suite", "reciprocity", "--p", "3", "--r", "2", "--lo", "-4", "--hi", "4"],
        ["generators", "--p", "3", "--r", "2"],
        ["generators", "--preset", "sl3"],
    ],
)
def test_weight_side_commands_skip_the_quiver_engine(argv):
    loaded = _imported_after(f"from tiltcell import cli\ncli.run({argv!r})")
    assert "tiltcell.factors" in loaded
    # the sweeps load for `verify`; the generator families read the factor
    # tables only
    sweeps = argv[0] == "verify"
    assert {m in loaded for m in ("tiltcell.deltafilt", "tiltcell.charring")} == {sweeps}
    assert not loaded & {"tiltcell.quiver", "tiltcell.ratlinalg", "tiltcell.linear", "tiltcell.rewrite"}


@pytest.mark.parametrize("preset", ["p2", "sl3"])
def test_quiver_check_loads_the_linear_engine_only(preset):
    loaded = _imported_after(f"from tiltcell import cli\ncli.run(['quiver-check', '--preset', {preset!r}])")
    assert not loaded & {"tiltcell.rewrite", "tiltcell.deltafilt", "tiltcell.charring"}
    layers = ("cli", "quiver", "linear", "ratlinalg", "cellbasis", "factors", "report", "weights")
    assert loaded == {"tiltcell", *(f"tiltcell.{m}" for m in layers)}


def test_rewrite_op_loads_the_rewriting_engine_only():
    # the calls of perfbench/child.py's rewrite operation, read through quiver
    loaded = _imported_after(
        "from fractions import Fraction\n"
        "from tiltcell import quiver\n"
        "q, rels = quiver.build_p2_quiver(7, window=1)\n"
        "quiver.irreducible_words(q, rels, 5)\n"
        "quiver.cell_filtration_check(q, rels, quiver.QuotientDims(5, {}, [], [], []))\n"
        "x = quiver.PathElement(0, 0, {(q.arrow_id('u0'), q.arrow_id('d0')): Fraction(1)})\n"
        "quiver.normal_form(x, rels)\n"
        "quiver.NonTerminating\n"
    )
    assert not loaded & {
        "tiltcell.linear", "tiltcell.ratlinalg", "tiltcell.deltafilt", "tiltcell.charring"
    }
    layers = ("quiver", "rewrite", "cellbasis", "factors", "report", "weights")
    assert loaded == {"tiltcell", *(f"tiltcell.{m}" for m in layers)}


def test_verify_reciprocity_loads_the_sweeps():
    argv = ["verify", "--suite", "reciprocity", "--p", "3", "--r", "2"]
    loaded = _imported_after(f"from tiltcell import cli\ncli.run({argv!r})")
    assert {"tiltcell.deltafilt", "tiltcell.charring"} <= loaded


def test_unknown_quiver_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        quiver.no_such_name


def test_bare_import_loads_no_submodule():
    assert _imported_after("import tiltcell") == {"tiltcell"}
    assert _imported_after("from tiltcell import Context") == {"tiltcell", "tiltcell.weights"}


def test_quiver_names_load_the_engine_on_first_use():
    assert "tiltcell.quiver" not in _imported_after("import tiltcell")
    assert "tiltcell.ratlinalg" in _imported_after("from tiltcell import quotient_dims")


@pytest.mark.parametrize(
    "argv,reads_cellbasis",
    [
        (["verify", "--suite", "bounds", "--p", "3", "--r", "2"], False),
        (["generators", "--p", "3", "--r", "2"], True),
        (["cell-basis", "--p", "3", "--r", "1", "--source", "0", "--target", "0"], True),
    ],
)
def test_cellbasis_loads_only_for_its_commands(argv, reads_cellbasis):
    loaded = _imported_after(f"from tiltcell import cli\ncli.run({argv!r})")
    assert ("tiltcell.cellbasis" in loaded) == reads_cellbasis


@pytest.mark.parametrize("module", ["tiltcell.cli", "tiltcell.quiver", "tiltcell.linear", "tiltcell.rewrite"])
def test_import_skips_dataclasses(module):
    assert not _imported_after(f"import {module}", prefix="dataclasses")


@pytest.mark.parametrize("module", list(EXPORTS), ids=lambda m: m.__name__)
def test_package_exports_resolve(module):
    for name in EXPORTS[module]:
        assert getattr(tiltcell, name) is getattr(module, name), name


def test_export_table_is_the_package_export_list():
    exported: dict[str, list[str]] = {}
    for name, module in tiltcell._EXPORTS.items():
        exported.setdefault(f"tiltcell.{module}", []).append(name)
    assert exported == {module.__name__: list(names) for module, names in EXPORTS.items()}
    assert tiltcell.__all__ == list(tiltcell._EXPORTS)
    assert set(tiltcell.__all__) <= set(dir(tiltcell))


def test_unknown_package_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        tiltcell.no_such_name


def test_preset_names_match_the_preset_table():
    assert cli.PRESET_NAMES == tuple(quiver.PRESETS)


# every span and hot count that the commands below must reach, by the name
# perfbench/child.py records it under
TRACED_SPANS = (
    "quiver.build",
    "quiver.quotient_dims",
    "quiver.check_against_cellular",
    "quiver.irreducible_words",
    "quiver.cell_filtration_check",
    "deltafilt.verify_reciprocity",
    "cellbasis.generators",
)
TRACED_COUNTS = (
    "deltafilt.delta_factors",
    "deltafilt.hom_dim",
    "cellbasis.sl3_hom_dim",
    "quiver.normal_form",
    "charring.baby_verma_simples",
)


def test_benchmark_tracer_sees_every_layer():
    """The benchmark's tracer wraps each layer where its callers look it up;
    a caller that bypasses a wrapper would leave its metric reading 0."""
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {PERFBENCH!r})
import child
from tiltcell import cli

tr = child.Tracer()
child.install(tr)
spec = {{
    "preset": "p2", "p": 3, "window": 1, "max_len": 5,
    "elements": [{{"source": 1, "target": 1, "terms": [[["u1", "d1"], "1"], [["d0", "u0"], "2"]]}}],
}}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["quiver-check", "--preset", "p2", "--p", "3"],
        ["quiver-check", "--preset", "sl3"],
        ["verify", "--suite", "reciprocity", "--p", "3", "--r", "2"],
        ["generators", "--p", "3", "--r", "2"],
    ):
        assert cli.run(argv) == 0, argv
    assert child.run_rewrite(spec, tr) == 0
spans = {{}}
for name, *_ in tr.spans:
    spans[name] = spans.get(name, 0) + 1
print(json.dumps({{"spans": spans, "counts": tr.counts}}))
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout)
    assert {name: seen["spans"].get(name, 0) > 0 for name in TRACED_SPANS} == dict.fromkeys(
        TRACED_SPANS, True
    )
    assert {name: seen["counts"].get(name, 0) > 0 for name in TRACED_COUNTS} == dict.fromkeys(
        TRACED_COUNTS, True
    )
