"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest -q perfbench/selftest.py

Each workload gets a tiny run (two operations, one round) untraced and
traced, which must emit exactly the metrics BENCHMARK.json names; a wrong
expectation must show up as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(name, trace):
    result = run.run_workload(name, W.DEFAULT_SEED, 1, trace, max_ops=2)
    assert (result["attempted"], result["failed"]) == (2, 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: unit for k, (_, unit) in result["metrics"].items()}
    assert got == wanted


def test_wrong_expected_exit_counts_as_failure():
    sess = run.Session()
    try:
        ops, _ = run.setup(sess, "ladder-quotient", 7)
        op = next(o for o in ops if o["expect"]["exit"] == 0 and "--p" in o["argv"]
                  and o["argv"][o["argv"].index("--p") + 1] == "3")
        op["expect"]["exit"] = 1
        result = run.measure(sess, [op], 1, None)
    finally:
        sess.close()
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_controls_fail_in_the_expected_direction():
    ops = W.generate("ladder-quotient", W.DEFAULT_SEED)
    directions = sorted(o["expect"]["direction"] or "" for o in ops if o["expect"]["exit"] == 1)
    assert directions == ["collapse", "excess"]


def test_balanced_scalars_share_one_magnitude_and_a_sign_per_family():
    import random

    s = W.balanced_scalars(5, random.Random(3))
    ms, ns, _ = W.p2_scalar_names(5)
    assert len({abs(s[k]) for k in ms + ns}) == 1
    assert len({s[k] for k in ms}) == 1 and len({s[k] for k in ns}) == 1


def test_generation_is_seeded():
    for name in W.WORKLOADS:
        assert W.generate(name, 11) == W.generate(name, 11)
        assert W.generate(name, 11) != W.generate(name, 12)


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.run", 0.0, 10.0, None],
        ["quiver.quotient_dims", 1.0, 7.0, 0],
        ["quiver.build", 2.0, 3.0, 1],
        ["quiver.build", 8.0, 9.0, 0],
    ]
    incl, self_t = run.span_times(spans)
    assert incl == {"cli.run": 10.0, "quiver.quotient_dims": 6.0, "quiver.build": 2.0}
    assert self_t == {"cli.run": 3.0, "quiver.quotient_dims": 5.0, "quiver.build": 2.0}
