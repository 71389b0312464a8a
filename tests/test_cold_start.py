"""`import tiltcell` loads no submodule, and each command loads only the
layers it reads.

The package resolves every exported name on first use, through one export
table.  `tiltcell.cli` imports the quiver module (and the exact linear
algebra under it) only when a quiver is built, and `cellbasis` only for the
two commands that read it.  No module of the package loads `dataclasses`
(and `inspect` under it).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltcell
from tiltcell import charring, cellbasis, cli, deltafilt, quiver, report, weights

SRC = str(Path(tiltcell.__file__).resolve().parents[1])

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
    deltafilt: (
        "DeltaFactors",
        "InvariantViolation",
        "delta_factors",
        "hom_dim",
        "hom_dim_sum",
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
        "NonTerminating",
        "NotSaturated",
        "PathElement",
        "Quiver",
        "QuiverConfigError",
        "RelationSet",
        "build_p1_quiver",
        "build_p2_quiver",
        "build_sl3_quiver",
        "cell_filtration_check",
        "check_against_cellular",
        "export_dot",
        "normal_form",
        "quotient_dims",
    ),
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
    assert "tiltcell.deltafilt" in loaded
    assert not loaded & {"tiltcell.quiver", "tiltcell.ratlinalg"}


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


@pytest.mark.parametrize("module", ["tiltcell.cli", "tiltcell.quiver"])
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
