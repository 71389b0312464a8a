from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from tiltcell import cellbasis, charring, cli, deltafilt, factors, quiver as qv, weights
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
    # every weight report names its window
    window = {"p": 3, "r": 2, "lo": -6, "hi": 6}
    for rep in doc["reports"]:
        if rep["check"] != "quiver-vs-cellular":
            assert rep["context"] == window, rep["check"]


def test_verify_prints_only_failures(monkeypatch):
    """A failing sweep prints its failing items and both counts, and exits 1."""
    real = deltafilt.verify_bounds

    def one_wrong(lam, ctx, target=None):
        rep = real(lam, ctx, target)
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
        ["quiver-check", "--preset", "sl3", "--scalars", "a=0,a=1"],
        ["quiver-build", "--preset", "p2", "--p", "3", "--scalars", "m1=0,m1=2"],
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


@pytest.mark.parametrize(
    "argv,cap,pairs",
    [
        (["quiver-check", "--preset", "p1", "--p", "3", "--window", "100"], "150000", 401**2),
        (["verify", "--suite", "quiver", "--p", "769"], "9460000", 3077**2),
    ],
    ids=["p1-window-100", "verify-p2-at-769"],
)
def test_listed_core_pairs_bounded_before_build(monkeypatch, capsys, argv, cap, pairs):
    # the comparison lists every ordered pair of core vertices; here the
    # vertices (p1: 409) and the paths (409 * 4**4 = 104 704; p2 at p=769:
    # 9229 * 4**5 = 9 450 496) are within the cap, but the pairs are not
    def refuse(*args, **kwargs):
        raise AssertionError("a quiver was built")

    for name in ("build_p1_quiver", "build_p2_quiver", "build_sl3_quiver"):
        monkeypatch.setattr(qv, name, refuse)
    monkeypatch.setenv("TILTCELL_MAX_WORK", cap)
    code, out = invoke(argv)
    assert code == 2 and out == ""
    assert f"sweep of {pairs} items" in capsys.readouterr().err
    if argv[0] == "quiver-check":
        # quiver-build lists no pairs, so the same flags reach the builder
        with pytest.raises(AssertionError, match="a quiver was built"):
            invoke(["quiver-build", *argv[1:]])


@pytest.mark.parametrize("command", ["quiver-build", "quiver-check"])
def test_sl3_window_rejected_before_build(monkeypatch, capsys, command):
    # sl3 has no window, so a --window there must not be silently ignored
    def refuse(*args, **kwargs):
        raise AssertionError("the quiver was built")

    monkeypatch.setattr(qv, "build_sl3_quiver", refuse)
    code, out = invoke([command, "--preset", "sl3", "--window", "1"])
    assert code == 2 and out == ""
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["quiver-build", "quiver-check"])
@pytest.mark.parametrize("preset,builder", [("p1", "build_p1_quiver"), ("sl3", "build_sl3_quiver")])
def test_boundary_loops_flag_rejected_before_build(monkeypatch, capsys, command, preset, builder):
    # only p2 has the chain-top relation, so elsewhere the flag would be ignored
    def refuse(*args, **kwargs):
        raise AssertionError("the quiver was built")

    monkeypatch.setattr(qv, builder, refuse)
    code, out = invoke([command, "--preset", preset, "--no-boundary-loops"])
    assert code == 2 and out == ""
    assert "boundary loops" in capsys.readouterr().err


def test_sl3_generators_principal_block_rejected(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the generators were listed")

    monkeypatch.setattr(cellbasis, "sl3_generator_set_bprime", refuse)
    code, out = invoke(["generators", "--preset", "sl3", "--principal-block"])
    assert code == 2 and out == ""
    assert "principal-block" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["quiver-build", "quiver-check"])
@pytest.mark.parametrize("p", ["4", "3"])
def test_sl3_p_rejected_before_build(monkeypatch, capsys, command, p):
    # sl3 reads no --p, so even the default value is refused, not ignored
    def refuse(*args, **kwargs):
        raise AssertionError("the quiver was built")

    monkeypatch.setattr(qv, "build_sl3_quiver", refuse)
    code, out = invoke([command, "--preset", "sl3", "--p", p])
    assert code == 2 and out == ""
    assert "--p" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--p", "4"], ["--p", "3"], ["--r", "0"], ["--r", "1"]])
def test_sl3_generators_level_rejected(monkeypatch, capsys, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("the generators were listed")

    monkeypatch.setattr(cellbasis, "sl3_generator_set_bprime", refuse)
    code, out = invoke(["generators", "--preset", "sl3", *flags])
    assert code == 2 and out == ""
    assert flags[0] in capsys.readouterr().err


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
    # levels, so its tables are counted from the digits and never built,
    # neither by the factor tables nor by the sweeps' own readers
    def refuse(*args, **kwargs):
        raise AssertionError("a factor table was built")

    for module in (factors, deltafilt):
        monkeypatch.setattr(module, "_folded_factors", refuse)
    if cap is None:
        monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    else:
        monkeypatch.setenv("TILTCELL_MAX_WORK", cap)
    code, out = invoke(argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # 2**61 - 1 is prime: about 7.6e8 trial divisions
        ["delta-factors", "--p", "2305843009213693951", "--weight", "0"],
        # every factor-table walk takes r steps and forms p**r
        ["delta-factors", "--p", "3", "--r", "30000000", "--weight", "0"],
        # the p1 ladder has a fixed vertex count, whatever p
        ["quiver-build", "--preset", "p1", "--p", "2305843009213693951"],
        # a p within the primality bound: the p2 vertex count refuses it
        # before the 4p - 2 scalar names are listed to check --scalars
        ["quiver-build", "--preset", "p2", "--p", "1000000000039"],
    ],
    ids=["p-mersenne61", "r-3e7", "quiver-p-mersenne61", "quiver-p2-p1e12"],
)
def test_p_and_r_bounded_before_context(monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("p was tested for primality")

    monkeypatch.setattr(weights, "is_prime", refuse)
    monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    code, out = invoke(argv)
    assert code == 2 and out == ""


def test_large_prime_within_bound(monkeypatch):
    # about 5e5 trial divisions, below the default cap
    monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    code, out = invoke(["hom-dim", "--p", "1000000000039", "--weight", "0", "--weight", "0"])
    assert code == 0 and json.loads(out)["dim"] == 2


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


@pytest.mark.parametrize("suite", ["steinberg", "all"])
def test_steinberg_items_bounded_before_build(monkeypatch, suite):
    # a one-weight window far out still sweeps every m with |m| <= 20000/3,
    # each with 4p^(r-1) + 2 items: 4 347 210 at (3, 5), past the default cap;
    # the factor tables and the sweep's Hom index both read _folded_factors
    def refuse(*args, **kwargs):
        raise AssertionError("a factor table was built")

    for module in (factors, deltafilt):
        monkeypatch.setattr(module, "_folded_factors", refuse)
    monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    argv = ["verify", "--suite", suite, "--p", "3", "--r", "5", "--lo", "20000", "--hi", "20000"]
    code, out = invoke(argv)
    assert code == 2 and out == ""


@pytest.fixture
def fresh_caches():
    caches = (
        factors._folded_factors,
        deltafilt._folded_holders,
        deltafilt._simples_index,
        deltafilt._steinberg_homs,
    )
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()


def _per_weight(sweep, points):
    """The calls of a per-weight sweep over points, for _counted_against_full."""
    return [(sweep, (w,)) for w in points]


def _counted_against_full(argv, calls, ctx, fresh_caches):
    """Run `verify` under an injected fault, then the full reports of
    `calls`, pairs of a sweep and its arguments before ctx (one weight, or
    the ends of a window), from cold caches, and check that the suite lists
    exactly their failures, in order, with their item and failure counts."""
    code, out = invoke(argv)
    for cache in fresh_caches:
        cache.cache_clear()
    full = [sweep(*args, ctx) for sweep, args in calls]
    failures = [item.to_dict() for rep in full for item in rep.items if not item.passed]
    doc = json.loads(out)
    assert code == 1 and not doc["pass"]
    assert doc["reports"][0]["items"] == json.loads(json.dumps(failures))
    counts = doc["counts"][0]
    assert counts["items"] == sum(len(rep.items) for rep in full)
    assert counts["failures"] == len(failures)
    return failures


def test_counted_reciprocity_lists_the_full_failures(monkeypatch, fresh_caches):
    # every reciprocity item passes on real data: perturb the peeled side at
    # one residue, once on an offset both sides hold and once on a new one
    ctx = weights.Context(3, 3)
    faulty = {c: dict(entry) for c, entry in deltafilt._simples_index(3, 3).items()}
    held = min(d for d in faulty[5] if d > 0)
    fresh = next(d for d in range(1, ctx.q) if d not in faulty[5])
    faulty[5][held] += 1
    faulty[5][fresh] = 1
    monkeypatch.setattr(deltafilt, "_simples_index", lambda p, r: faulty)
    argv = ["verify", "--suite", "reciprocity", "--p", "3", "--r", "3", "--lo", "-27", "--hi", "26"]
    failures = _counted_against_full(
        argv, _per_weight(deltafilt.verify_reciprocity, range(-27, 27)), ctx, fresh_caches
    )
    assert len(failures) == 4  # two weights of the residue, two faults each


def test_counted_steinberg_lists_the_full_failures(monkeypatch, fresh_caches):
    # every level-drop item passes on real data: break the level-(r-1) side
    # at two residues of m mod p^(r-1), giving the folded table at 4 the
    # factor 1, which the Hom index and the factor tables of 4 + 9k both
    # read, and doubling the factor tables at 2 + 9k; the span covers each
    # residue twice or more
    ctx = weights.Context(3, 3)
    folded_factors, delta_factors = factors._folded_factors, factors.delta_factors

    def faulty_folded(p, r, lam):
        table = folded_factors(p, r, lam)
        return table | {1} if (p, r, lam) == (3, 2, 4) else table

    def faulty_factors(lam, c):
        fac = delta_factors(lam, c)
        return {nu: 2 for nu in fac} if c.r == 2 and lam % 9 == 2 else fac

    # the Hom index reads deltafilt's _folded_factors, the factor tables
    # factors' one; the sweep reads delta_factors on deltafilt
    for module in (factors, deltafilt):
        monkeypatch.setattr(module, "_folded_factors", faulty_folded)
    monkeypatch.setattr(deltafilt, "delta_factors", faulty_factors)
    argv = ["verify", "--suite", "steinberg", "--p", "3", "--r", "3", "--lo", "-30", "--hi", "30"]
    failures = _counted_against_full(
        argv, _per_weight(deltafilt.verify_steinberg_equivalence, range(-11, 12)), ctx, fresh_caches
    )
    checks = {item["input"]["check"] for item in failures}
    assert checks == {"hom", "factor-table"}
    # a doubled table changes no Hom pair: each Hom failure has 4 + 9k on one side
    homs = [item["input"] for item in failures if item["input"]["check"] == "hom"]
    assert all(4 in (pair["m"] % 9, pair["m2"] % 9) for pair in homs)


def test_counted_bounds_lists_the_full_failures(monkeypatch, fresh_caches):
    # every bounds item passes on real data: give the tables of one residue
    # of tilde(lam) a factor above it, and those of another the top endpoint
    # twice
    ctx = weights.Context(3, 3)
    delta_factors = deltafilt.delta_factors

    def faulty_factors(lam, c):
        fac = delta_factors(lam, c)
        if lam % 27 == 8:
            fac[lam + 1] = 1
        if lam % 27 == 17:
            fac[lam] = 2
        return fac

    monkeypatch.setattr(deltafilt, "delta_factors", faulty_factors)
    argv = ["verify", "--suite", "bounds", "--p", "3", "--r", "3", "--lo", "-54", "--hi", "53"]
    failures = _counted_against_full(
        argv, _per_weight(deltafilt.verify_bounds, range(-54, 54)), ctx, fresh_caches
    )
    kinds = {next(k for k in ("nu", "endpoint") if k in item["input"]) for item in failures}
    assert kinds == {"nu", "endpoint"}


def test_counted_linkage_lists_the_full_failures(monkeypatch, fresh_caches):
    # every linkage item passes on real data: unlink one pair that the
    # strong-linkage sweep tests and one that only the necessity sweep tests
    ctx = weights.Context(3, 3)
    lo, hi = -54, 53
    lam, nu = 5, 11  # 11 is a factor of tilde(5) = 47
    assert nu in deltafilt.delta_factors(weights.tilde(lam, ctx), ctx)
    necessity = (-42, -8)  # no factor of tilde(-42) is -8, and tilde(-8) is not -42
    assert factors.hom_dim(*necessity, ctx) > 0
    strongly_linked = deltafilt.strongly_linked

    def faulty_linked(a, b, c):
        return (a, b) not in ((lam, nu), necessity) and strongly_linked(a, b, c)

    monkeypatch.setattr(deltafilt, "strongly_linked", faulty_linked)
    argv = ["verify", "--suite", "linkage", "--p", "3", "--r", "3", "--lo", str(lo), "--hi", str(hi)]
    calls = _per_weight(deltafilt.verify_strong_linkage, range(lo, hi + 1))
    calls.append((deltafilt.verify_linkage_necessity, (lo, hi)))
    failures = _counted_against_full(argv, calls, ctx, fresh_caches)
    assert {"lam": lam, "nu": nu, "dir": "up"} in [item["input"] for item in failures]
    assert {"lam": -42, "mu": -8} in [item["input"] for item in failures]
    assert {"lam": -8, "mu": -42} in [item["input"] for item in failures]


def test_counted_multfree_lists_the_full_failures(monkeypatch, fresh_caches):
    # every multfree item passes on real data: double the multiplicities of
    # one residue's tables and give another residue's tables three entries
    ctx = weights.Context(3, 3)
    delta_factors = deltafilt.delta_factors

    def faulty_factors(lam, c):
        fac = delta_factors(lam, c)
        if lam % 27 == 4:
            return {nu: 2 for nu in fac}
        if lam % 27 == 11:
            return {lam: 1, lam - 2: 1, lam - 4: 1}
        return fac

    monkeypatch.setattr(deltafilt, "delta_factors", faulty_factors)
    argv = ["verify", "--suite", "multfree", "--p", "3", "--r", "3", "--lo", "-54", "--hi", "53"]
    failures = _counted_against_full(
        argv, [(deltafilt.verify_mult_free, (-54, 53))], ctx, fresh_caches
    )
    assert [item["input"]["check"] for item in failures] == [
        "multiplicity", "factor-count", "multiplicity", "factor-count",
    ] * 2


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

    # the table reads the builders on charring and deltafilt when it runs
    for name in ("weyl_char", "simple_char", "simple_char_r", "baby_verma_char"):
        monkeypatch.setattr(charring, name, refuse)
    monkeypatch.setattr(deltafilt, "tilting_char", refuse)
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


@pytest.mark.parametrize("suite", ["quiver", "all"])
def test_verify_quiver_bounded_before_build(monkeypatch, suite):
    # the suite bounds each preset's vertices * 4**max_len as quiver-check
    # does, all three before the first is built: p2 at p=11 is past the cap
    def refuse(*args, **kwargs):
        raise AssertionError("a quiver was built")

    for name in ("build_p1_quiver", "build_p2_quiver", "build_sl3_quiver"):
        monkeypatch.setattr(qv, name, refuse)
    monkeypatch.setenv("TILTCELL_MAX_WORK", "100000")
    code, out = invoke(["verify", "--suite", suite, "--p", "11"])
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["verify", "--suite", "quiver", "--p", "3"],
            "019c3d88408f7b992b7c2d6686c18284b9793af8b43dc02dfe72807e12068ebc",
        ),
        (
            ["verify", "--suite", "all", "--p", "3", "--r", "2"],
            "7053758a4270479ea9b1c4913aff4b46511ed1f778f2d76366d95f5527268440",
        ),
    ],
)
def test_verify_lists_the_failing_quiver_pairs(monkeypatch, argv, digest):
    """A quiver report that fails lists exactly its failing core pairs and
    counts every pair: the ladders' oracle, read on quiver at call time, is
    one too high on the diagonal, which sl3's oracle does not read."""
    hom_dim = qv.hom_dim
    monkeypatch.setattr(qv, "hom_dim", lambda lam, mu, ctx: hom_dim(lam, mu, ctx) + (lam == mu))
    code, out = invoke(argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    quiver_counts = [c for c in doc["counts"] if c["check"] == "quiver-vs-cellular"]
    assert [(c["items"], c["failures"]) for c in quiver_counts] == [(81, 9), (169, 13), (36, 0)]
    reports = [rep for rep in doc["reports"] if rep["check"] == "quiver-vs-cellular"]
    assert [rep["context"]["preset"] for rep in reports] == ["p1", "p2", "sl3"]
    for rep in reports:
        key = rep["context"]["preset"]
        preset = qv.PRESETS[key]
        core = [] if key == "sl3" else sorted(preset.build(3, preset.window, {}, True)[0].core)
        assert all(item["input"]["source"] == item["input"]["target"] for item in rep["items"])
        assert sorted(item["input"]["source"] for item in rep["items"]) == core
        assert all(item["rhs"] == item["lhs"] + 1 and not item["pass"] for item in rep["items"])
        assert rep["pass"] is (key == "sl3")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags", [["--r", "9"], ["--lo", "7"], ["--lo", "0", "--hi", "1"], ["--r", "0"]])
def test_verify_quiver_refuses_unread_flags(monkeypatch, capsys, flags):
    # the quiver suite sweeps no window and reads no level, so these flags
    # are refused before anything is built rather than ignored
    def refuse(*args, **kwargs):
        raise AssertionError("a quiver was built")

    for name in ("build_p1_quiver", "build_p2_quiver", "build_sl3_quiver"):
        monkeypatch.setattr(qv, name, refuse)
    code, out = invoke(["verify", "--suite", "quiver", *flags])
    assert code == 2 and out == ""
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite,r",
    [("reciprocity", 1), ("bounds", 1), ("linkage", 1), ("multfree", 1), ("steinberg", 2), ("all", 2)],
)
def test_window_past_2_to_63_is_usage_error(capsys, suite, r):
    # a window of 2**67 weights is sized without len(range), which overflows
    big = str(10**20)
    code, out = invoke(["verify", "--suite", suite, "--r", str(r), "--lo", "-" + big, "--hi", big])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120


@pytest.mark.parametrize("command", ["quiver-build", "quiver-check"])
@pytest.mark.parametrize(
    "value",
    ["1e5000", "1e-5000", "1e10000000", "1e1_001", "-0.5E+1000", "1" * 1001, "1/" + "3" * 1000],
    ids=["1e5000", "1e-5000", "1e10000000", "1e1_001", "-0.5E+1000", "1001-digits", "1/1000-digits"],
)
def test_scalar_digits_bounded_before_parse(monkeypatch, capsys, command, value):
    # a value that expands past SCALAR_DIGITS digits could not be printed in
    # the report (or would take seconds to parse), so it is refused first
    import fractions

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fractions, "Fraction", refuse)
    monkeypatch.setattr(qv, "build_sl3_quiver", refuse)
    code, out = invoke([command, "--preset", "sl3", "--scalars", f"a={value}"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "digits" in err and len(err) < 120


def test_scalars_within_digit_bound_print():
    # values at the bound are read and printed in full
    big = "9" * cli.SCALAR_DIGITS
    scalars = f"m1={big},n1=-1e{cli.SCALAR_DIGITS - 10}"
    code, out = invoke(["quiver-build", "--preset", "p2", "--scalars", scalars])
    assert code == 0 and big in out
    code, out = invoke(["quiver-check", "--preset", "p2", "--scalars", scalars])
    assert code == 1 and json.loads(out)["context"]["scalars"]["m1"] == big
    code, out = invoke(["quiver-build", "--preset", "sl3", "--scalars", f"r=1/{big[1:]}"])
    assert code == 0 and f"1/{big[1:]}" in out


@pytest.mark.parametrize(
    "argv,where",
    [
        (["delta-factors", "--weight", "0"], "."),
        (["quiver-build", "--preset", "p1", "--format", "dot"], "missing/out.dot"),
        (["delta-factors", "--weight", "0"], "x" * 20_000),
    ],
    ids=["json-directory", "dot-missing-parent", "name-too-long"],
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv, where):
    code, out = invoke(argv + ["--output", str(tmp_path / where)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 120


LONG = "x" * 20_000


@pytest.mark.parametrize(
    "argv,env",
    [
        (["quiver-check", "--preset", "sl3", "--scalars", f"a={LONG}"], None),
        (["quiver-check", "--preset", "sl3", "--scalars", f"{LONG}=1"], None),
        (["quiver-check", "--preset", "p2", "--scalars", f"{LONG}=1"], None),
        (["quiver-check", "--preset", "sl3", "--scalars", LONG], None),
        (["quiver-check", "--preset", "sl3", "--scalars", f"{LONG}=1,{LONG}=2"], None),
        (["cell-basis", "--source", LONG, "--target", "0"], None),
        (["verify", "--suite", LONG], None),
        (["delta-factors", "--weight", "0"], f"junk{LONG}"),
    ],
    ids=[
        "scalar-value", "scalar-key", "p2-scalar-key", "scalar-assignment", "scalar-twice",
        "weight", "suite", "max-work",
    ],
)
def test_refusal_quotes_a_short_prefix(monkeypatch, capsys, argv, env):
    # a refusal that quotes its input stays one short line however long the
    # input is
    if env is not None:
        monkeypatch.setenv("TILTCELL_MAX_WORK", env)
    code, out = invoke(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 120
    assert "xxxxxxxxxxxxxx..." in err


@pytest.mark.parametrize("p", ["5", "101"])
def test_unknown_p2_scalar_refused_in_one_short_line(capsys, p):
    # p2 reads 4p - 2 scalars, so the refusal names their families
    code, out = invoke(["quiver-check", "--preset", "p2", "--p", p, "--scalars", "zz=1"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 120
    assert "m<x>, n<x>" in err and f"theta{p}" in err


@pytest.mark.parametrize(
    "listed",
    [["0"] * 300, [str(w) for w in range(300)], [str(w) for w in range(40)]],
    ids=["300-zeros", "300-weights", "40-weights"],
)
def test_cell_basis_bounded_before_listing(monkeypatch, listed):
    # the cell indices, the sum over nu of k_P(nu) * k_Q(nu), and the
    # |P| * |Q| Hom pairs of their cross-check are both bounded before any
    # index is listed: 300 zeros make 180 000 indices from one pair, forty
    # weights fewer than 1000 indices from 1600 pairs
    def refuse(*args, **kwargs):
        raise AssertionError("cell indices were listed")

    monkeypatch.setattr(cellbasis, "cell_indices", refuse)
    monkeypatch.setenv("TILTCELL_MAX_WORK", "1000")
    source = ",".join(listed)
    code, out = invoke(["cell-basis", "--source", source, "--target", source])
    assert code == 2 and out == ""
    if len(listed) == 40:
        counts = cellbasis.standard_counts(dict.fromkeys(map(int, listed), 1), weights.Context(3, 1))
        assert sum(k * k for k in counts.values()) < 1000


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "--suite", "steinberg", "--r", "1", "--lo", "0", "--hi", "0"], 2),
        (["verify", "--suite", "bounds", "--lo", "1", "--hi", "0"], 2),
        (["quiver-build", "--preset", "p2", "--scalars", "m1=0"], 2),
        (["quiver-build", "--preset", "p1", "--window", "1"], 2),
        (["quiver-build", "--preset", "sl3", "--scalars", "b=0"], 2),
        (["char", "--kind", "simple", "--weight", "-1"], 2),
        (["cell-basis", "--source", ",", "--target", "0"], 2),
        (["quiver-build", "--preset", "sl3", "--scalars", "a=2,"], 0),
    ],
    ids=[
        "steinberg-r1", "lo-above-hi", "p2-zero-scalar", "p1-window-1", "sl3-zero-scalar",
        "simple-negative", "cell-basis-empty", "scalars-empty-piece",
    ],
)
def test_refusals_in_one_short_line(capsys, argv, code):
    # each bad input exits 2 with one short line and no output; an empty
    # piece of --scalars is skipped, not refused
    status, out = invoke(argv)
    err = capsys.readouterr().err
    assert status == code
    if code == 2:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and len(err.encode()) < 120
    else:
        assert err == "" and json.loads(out)["scalars"]["a"] == "2"


def _refusal(argv: list[str], capsys) -> tuple[int, str, str]:
    """The exit status, stdout and stderr of argv, whether argparse or a
    command refuses it."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        lambda v: ["delta-factors", "--weight", "9" * v],
        lambda v: ["verify", "--suite", "bounds", "--lo", "9" * v, "--hi", "0"],
        lambda v: ["quiver-check", "--preset", "p1", "--max-len", "9" * v],
        lambda v: ["quiver-check", "--preset", "x" * v],
        lambda v: ["char", "--kind", "x" * v, "--weight", "0"],
        lambda v: ["x" * v],
        lambda v: ["delta-factors", "--weight", "0", "--" + "x" * v],
    ],
    ids=["weight", "lo", "max-len", "preset", "kind", "subcommand", "flag"],
)
def test_argparse_refusal_is_cut(capsys, argv):
    # argparse quotes the whole bad value in its message; the message is cut,
    # so stderr is bounded and the same for any value past the cut
    errs = []
    for n in (20_000, 100_000):
        code, out, err = _refusal(argv(n), capsys)
        assert code == 2 and out == "" and len(err.encode()) < 600
        errs.append(err)
    assert errs[0] == errs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["char", "--kind", "zz", "--weight", "0"],
        ["quiver-check", "--preset", "p3"],
        ["delta-factors", "--weight", "x"],
        ["delta-factors", "--weight", "0", "--zz"],
        ["zz"],
    ],
    ids=["kind", "preset", "weight", "flag", "subcommand"],
)
def test_short_argparse_refusal_unchanged(monkeypatch, capsys, argv):
    # below the cut a refusal is argparse's own, byte for byte
    status, _, err = _refusal(argv, capsys)
    monkeypatch.setattr(cli, "_Parser", cli.argparse.ArgumentParser)
    assert (status, err) == _refusal(argv, capsys)[::2]


@pytest.mark.parametrize("command", ["quiver-build", "quiver-check"])
@pytest.mark.parametrize("preset,floor", [("p1", 2), ("p2", 1)])
@pytest.mark.parametrize("window", ["0", "-1", "-1000000"])
def test_window_below_the_floor_refused_first(monkeypatch, capsys, command, preset, floor, window):
    # the builders' floor, named before any size guard: a large negative
    # window once passed the vertex guard and failed the path or pair bound
    def refuse(*args, **kwargs):
        raise AssertionError("the quiver was built")

    monkeypatch.setattr(qv, f"build_{preset}_quiver", refuse)
    code, out = invoke([command, "--preset", preset, "--window", window])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {preset} window must be >= {floor}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["quiver-check", "--preset", "p2", "--p", "-1000001"],
        ["quiver-check", "--preset", "p2", "--p", "-101", "--scalars", "zz=1"],
        ["quiver-check", "--preset", "p2", "--p", "4", "--scalars", "zz=1"],
        ["quiver-build", "--preset", "p1", "--p", "-3"],
    ],
    ids=["p2-pair-bound", "p2-negative-scalars", "p2-composite-scalars", "p1-negative"],
)
def test_preset_p_refused_as_no_prime(monkeypatch, capsys, argv):
    # a p that is no odd prime passed the size guards and reached the pair
    # bound or the scalar names, which were refused or listed at that p
    monkeypatch.delenv("TILTCELL_MAX_WORK", raising=False)
    code, out = invoke(argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: p must be an odd prime >= 3, got {argv[4]}\n"
