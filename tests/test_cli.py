from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from tiltcell import cellbasis, cli, deltafilt, quiver as qv
from tiltcell.cli import run


def invoke(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_delta_factors_json():
    code, out = invoke(["delta-factors", "--p", "5", "--r", "2", "--weight", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["factors"] == [[-12, 1], [-10, 1], [8, 1], [10, 1]]


def test_output_determinism():
    args = ["verify", "--suite", "reciprocity", "--p", "3", "--r", "1", "--lo", "-9", "--hi", "18"]
    code1, out1 = invoke(args)
    code2, out2 = invoke(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["pass"] is True


def test_char_and_tsv():
    code, out = invoke(
        ["char", "--kind", "baby-verma", "--p", "3", "--r", "1", "--weight", "0", "--format", "tsv"]
    )
    assert code == 0
    assert out == "-4\t1\n-2\t1\n0\t1\n"


def test_hom_dim_requires_two_weights():
    code, _ = invoke(["hom-dim", "--p", "3", "--weight", "0"])
    assert code == 2


def test_usage_error_exit_codes():
    with pytest.raises(SystemExit) as exc:
        invoke(["delta-factors", "--weight", "not-a-number"])
    assert exc.value.code == 2
    code, _ = invoke(["delta-factors", "--p", "4", "--weight", "0"])
    assert code == 2
    code, _ = invoke(["verify", "--suite", "nonsense"])
    assert code == 2


def test_verify_all_small():
    code, out = invoke(["verify", "--suite", "all", "--p", "3", "--r", "2", "--lo", "-6", "--hi", "6"])
    assert code == 0
    doc = json.loads(out)
    checks = {c["check"] for c in doc["counts"]}
    assert {"reciprocity", "bounds", "strong-linkage", "mult-free", "quiver-vs-cellular"} <= checks
    assert doc["pass"] is True


def test_verify_prints_only_failures(monkeypatch):
    """A failing sweep prints its failing items and both counts, and exits 1."""
    real = deltafilt.verify_bounds

    def one_wrong(lam, ctx):
        rep = real(lam, ctx)
        if lam == 0:
            rep.add({"lam": lam, "planted": True}, 1, 2)
        return rep

    monkeypatch.setattr(deltafilt, "verify_bounds", one_wrong)
    code, out = invoke(["verify", "--suite", "bounds", "--p", "3", "--lo", "-1", "--hi", "1"])
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["counts"] == [{"check": "bounds", "items": 12, "failures": 1}]
    [rep] = doc["reports"]
    assert rep["pass"] is False
    assert rep["items"] == [{"input": {"lam": 0, "planted": True}, "lhs": 1, "rhs": 2, "pass": False}]


def test_quiver_check_and_failure_exit():
    code, out = invoke(["quiver-check", "--preset", "p2", "--p", "3"])
    assert code == 0 and json.loads(out)["pass"] is True
    # reproducing the bare relation families must be reported as a failure
    code, out = invoke(["quiver-check", "--preset", "p2", "--p", "3", "--no-boundary-loops"])
    assert code == 1
    doc = json.loads(out)
    bad = [item for item in doc["items"] if not item["pass"]]
    assert all(item["lhs"] == 3 and item["rhs"] == 2 for item in bad)


def test_quiver_check_tsv():
    code, out = invoke(["quiver-check", "--preset", "p1", "--p", "3", "--format", "tsv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "source\ttarget\tdim"
    assert "0\t0\t2" in lines and "0\t1\t1" in lines


def test_export_dot_roundtrip():
    argv = ["quiver-build", "--preset", "sl3", "--format", "dot"]
    code1, out1 = invoke(argv)
    code2, out2 = invoke(argv)
    assert code1 == code2 == 0 and out1 == out2
    assert out1.startswith("digraph sl3 {")


def test_export_dot_subcommand_is_gone():
    # quiver-build --format dot is the one way to write DOT
    with pytest.raises(SystemExit) as exc:
        invoke(["export-dot", "--preset", "sl3"])
    assert exc.value.code == 2


def test_generators_sl3_preset():
    code, out = invoke(["generators", "--preset", "sl3"])
    assert code == 0
    assert json.loads(out)["pairs"][0] == ["w0", "st"]


def test_generators_sl3_tsv():
    code, out = invoke(["generators", "--preset", "sl3", "--format", "tsv"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows == [list(t) for t in cellbasis.sl3_generator_set_bprime()]


def test_cell_basis_cli():
    code, out = invoke(["cell-basis", "--p", "3", "--r", "1", "--source", "0", "--target", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2


def test_work_cap(monkeypatch):
    monkeypatch.setenv("TILTCELL_MAX_WORK", "10")
    code, _ = invoke(["verify", "--suite", "reciprocity", "--p", "3", "--r", "1"])
    assert code == 2
    monkeypatch.setenv("TILTCELL_MAX_WORK", "junk")
    code, _ = invoke(["verify", "--suite", "reciprocity", "--p", "3", "--r", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["quiver-check", "--preset", "sl3", "--scalars", "bogus=3"],
        ["quiver-build", "--preset", "p1", "--scalars", "m1=0"],
        ["quiver-build", "--preset", "sl3", "--scalars", "m1=1", "--format", "dot"],
        ["quiver-build", "--preset", "p2", "--p", "3", "--scalars", "a=1"],
    ],
)
def test_unknown_scalars_rejected(argv):
    code, out = invoke(argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["quiver-build", "quiver-check"])
@pytest.mark.parametrize("cap,window", [("10", "3000"), (None, "1000000")])
def test_preset_size_bounded_before_build(monkeypatch, command, cap, window):
    def refuse(*args, **kwargs):
        raise AssertionError("the quiver was built")

    monkeypatch.setattr(qv, "build_p2_quiver", refuse)
    if cap is None:
        monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    else:
        monkeypatch.setenv("TILTCELL_MAX_WORK", cap)
    code, out = invoke([command, "--preset", "p2", "--p", "3", "--window", window])
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["quiver-build", "quiver-check"])
def test_sl3_window_rejected_before_build(monkeypatch, capsys, command):
    # sl3 has no window, so a --window there must not be silently ignored
    def refuse(*args, **kwargs):
        raise AssertionError("the quiver was built")

    monkeypatch.setattr(qv, "build_sl3_quiver", refuse)
    code, out = invoke([command, "--preset", "sl3", "--window", "1"])
    assert code == 2 and out == ""
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("max_len", ["-1", "0"])
def test_max_len_bounded_before_build(monkeypatch, max_len):
    # no path has length <= 0 beyond the trivial ones, so a check there would
    # certify saturation vacuously; 0 must not fall back to the default either
    q, rels = qv.build_p1_quiver(3)
    with pytest.raises(ValueError):
        qv.quotient_dims(q, rels, int(max_len))

    def refuse(*args, **kwargs):
        raise AssertionError("the quiver was built")

    monkeypatch.setattr(qv, "build_p2_quiver", refuse)
    code, out = invoke(["quiver-check", "--preset", "p2", "--p", "3", "--max-len", max_len])
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["quiver-check", "--preset", "p2", "--p", "3", "--max-len", "100000"],
        ["quiver-check", "--preset", "p2", "--p", "3", "--max-len", "7000"],
        ["quiver-check", "--preset", "p2", "--p", "3", "--max-len", "8"],
        ["verify", "--suite", "reciprocity", "--p", "3", "--r", "100000"],
        ["verify", "--suite", "reciprocity", "--p", "3", "--r", "100000", "--lo", "0", "--hi", "1"],
        ["generators", "--p", "3", "--r", "100000"],
    ],
    ids=["max-len-1e5", "max-len-7000", "max-len-8", "r-1e5", "r-1e5-window", "generators-r-1e5"],
)
def test_huge_exponent_rejected_before_build(monkeypatch, capsys, argv):
    # V * 4**max_len and the sweeps over p**r are bounded before the power
    # is formed or the quiver is built, with a short message and exit 2
    def refuse(*args, **kwargs):
        raise AssertionError("the quiver was built")

    monkeypatch.setattr(qv, "build_p2_quiver", refuse)
    monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    code, out = invoke(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err) < 120


@pytest.mark.parametrize(
    "argv,key,value",
    [
        (["delta-factors", "--weight", "10"], "factors", [[-12, 1], [-8, 1], [6, 1], [10, 1]]),
        (["hom-dim", "--weight", "10", "--weight", "12"], "dim", 4),
    ],
    ids=["delta-factors", "hom-dim"],
)
def test_deep_level(argv, key, value):
    # 400 levels of factor tables must not need 400 stack frames
    code, out = invoke(argv + ["--p", "3", "--r", "400"])
    assert code == 0 and json.loads(out)[key] == value


@pytest.mark.parametrize(
    "argv,cap",
    [
        (["delta-factors", "--p", "3", "--r", "20", "--weight", "-19"], "100000"),
        (["verify", "--suite", "multfree", "--p", "3", "--r", "20", "--lo", "-19", "--hi", "-19"], "100000"),
        (["delta-factors", "--p", "3", "--r", "40", "--weight", "-19"], None),
        (["hom-dim", "--p", "3", "--r", "40", "--weight", "0", "--weight", "-19"], None),
        (["cell-basis", "--p", "3", "--r", "40", "--source", "-19", "--target", "0"], None),
        # tilde(0) is -2 + 2*3**40, whose table the bounds suite reads
        (["verify", "--suite", "bounds", "--p", "3", "--r", "40", "--lo", "0", "--hi", "0"], None),
        (["verify", "--suite", "steinberg", "--p", "3", "--r", "20", "--lo", "0", "--hi", "0"], None),
    ],
    ids=["delta-r20", "multfree-r20", "delta-r40", "hom-r40", "cell-basis-r40", "bounds-r40", "steinberg-r20"],
)
def test_factor_tables_bounded_before_build(monkeypatch, argv, cap):
    # a table has 2**k entries for k regular digits; -19 is regular at most
    # levels, so its tables are counted from the digits and never built
    def refuse(*args, **kwargs):
        raise AssertionError("a factor table was built")

    monkeypatch.setattr(deltafilt, "_folded_factors", refuse)
    if cap is None:
        monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    else:
        monkeypatch.setenv("TILTCELL_MAX_WORK", cap)
    code, out = invoke(argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("suite", ["reciprocity", "all"])
def test_reciprocity_peeling_bounded_before_peel(monkeypatch, suite):
    # a one-weight window passes the item bound, but the reciprocity index
    # peels a whole period, about q**2 = 3**16 steps at (3, 8)
    def refuse(*args, **kwargs):
        raise AssertionError("a period was peeled")

    monkeypatch.setattr(deltafilt, "_simples_index", refuse)
    monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    argv = ["verify", "--suite", suite, "--p", "3", "--r", "8", "--lo", "0", "--hi", "0"]
    code, out = invoke(argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "kind,p,r,weight,cap",
    [
        ("weyl", 3, 1, 1000, 1000),
        ("weyl", 3, 1, -1000, 1000),
        ("simple", 3, 1, 1000, 1000),
        ("simple-r", 3, 7, 0, 3**7 - 1),
        ("baby-verma", 3, 7, 0, 3**7 - 1),
        ("baby-verma", 3, 25, 0, None),
        ("tilting", 3, 4, 0, 6**4 - 1),
    ],
)
def test_char_bounded_before_build(monkeypatch, kind, p, r, weight, cap):
    # the character's support is bounded (|weight|+1, p^r or (2p)^r) first
    def refuse(*args, **kwargs):
        raise AssertionError("the character was built")

    for name in ("weyl_char", "simple_char", "simple_char_r", "baby_verma_char", "tilting_char"):
        monkeypatch.setattr(cli, name, refuse)
    if cap is None:
        monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    else:
        monkeypatch.setenv("TILTCELL_MAX_WORK", str(cap))
    argv = ["char", "--kind", kind, "--p", str(p), "--r", str(r), f"--weight={weight}"]
    code, out = invoke(argv)
    assert code == 2 and out == ""


def test_char_in_range_unchanged(monkeypatch):
    monkeypatch.setenv("TILTCELL_MAX_WORK", "51")
    code, out = invoke(["char", "--kind", "weyl", "--weight", "50", "--format", "tsv"])
    assert code == 0
    assert out == "".join(f"{w}\t1\n" for w in range(-50, 51, 2))


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out = invoke(["delta-factors", "--p", "3", "--weight", "0", "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["factors"] == [[-2, 1], [0, 1]]
