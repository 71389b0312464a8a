"""The tiltcell benchmark: seeded closed-loop workloads, one fresh `python`
child process per operation, one client.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-reference

Run from the root of a checkout.  The program is used from source
(`src/`), so nothing is installed or built.  A run generates its operation
list from the seed, repeats it for a fixed number of rounds (set by
--seconds) and checks every answer.  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it runs every operation untraced and
then traced through child.py, checks that the two stdouts are identical
and prints the per-layer metrics.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.

--record-reference rewrites reference.json: the semantic answer of every
operation of every workload on the default seed, against which later runs
on that seed are checked.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

# Each round is allotted this much of --seconds: floor(seconds / ROUND_S)
# rounds, so every run on every seed measures the same amount of work.  An
# untraced round takes 6-9.5 s on a 2-core x86-64 machine.
ROUND_S = 7.5
# Median time of calibrate() on that machine.  The machine's speed drifts by
# +-20% over tens of seconds as other tenants load it; every time metric is
# scaled by CAL_REF_S / (calibration measured around the sample), i.e.
# reported in seconds of the machine at its reference speed.
CAL_REF_S = 0.015
TRACE_COST = 2.5  # a traced round runs each op untraced and traced
SETUP_REPEATS = 5
OP_TIMEOUT_S = 120
REFERENCE = HERE / "reference.json"


class Session:
    """A private working directory and temp directory for one run, removed
    when the run ends, so nothing the program leaves on disk carries over
    from one run to the next."""

    def __init__(self) -> None:
        base = ROOT / ".perfbench-work"
        self.dir = base / f"{os.getpid()}-{time.time_ns()}"
        (self.dir / "tmp").mkdir(parents=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            TMPDIR=str(self.dir / "tmp"),
        )
        self.env.pop("TILTCELL_MAX_WORK", None)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def spawn(self, cmd: list[str]) -> dict:
        """Run one child to completion; wall time, CPU time and stdout."""
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.dir, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return {
            "code": code,
            "start": t0,
            "wall": t1 - t0,
            "cpu": cpu,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes(),
        }


def calibrate() -> float:
    """Time a fixed pure-Python loop: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Speed:
    """Scale factors for samples taken between two calibrations."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.factors: list[float] = []

    def after_sample(self) -> float:
        """Call right after a sample; the factor for that sample."""
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor


def op_command(op: dict, trace_file: Path | None = None) -> list[str]:
    if op["kind"] == "cli" and trace_file is None:
        return [sys.executable, "-m", "tiltcell.cli", *op["argv"]]
    cmd = [sys.executable, str(HERE / "child.py")]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file), "--op", op["id"]]
    if op["kind"] == "cli":
        return cmd + ["cli", *op["argv"]]
    return cmd + ["rewrite", op["spec_file"]]


def setup(sess: Session, name: str, seed: int) -> tuple[list[dict], float]:
    """Generate the workload in a fresh interpreter that also imports
    tiltcell, SETUP_REPEATS times; the median (scaled) time is setup_s."""
    ops_file = sess.dir / "ops.json"
    gen = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import tiltcell, workloads; "
        "json.dump(workloads.generate(sys.argv[2], int(sys.argv[3])), open(sys.argv[4], 'w'))"
    )
    cmd = [sys.executable, "-c", gen, str(HERE), name, str(seed), str(ops_file)]
    times = []
    speed = Speed()
    for _ in range(SETUP_REPEATS):
        res = sess.spawn(cmd)
        times.append(res["wall"] * speed.after_sample())
        if res["code"] != 0:
            raise SystemExit(f"set-up failed:\n{res['stderr'].decode(errors='replace')}")
    ops = json.loads(ops_file.read_text())
    for op in ops:
        if op["kind"] == "rewrite":
            op["spec_file"] = str(sess.dir / f"spec-{op['id']}.json")
            Path(op["spec_file"]).write_text(json.dumps(op["spec"]))
    return ops, statistics.median(times)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples above it."""
    return 100 * (n - 10) // n if n > 10 else 0


def percentile(values: list[float], pct: int) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def report_failure(op: dict, reason: str, res: dict) -> None:
    what = " ".join(op.get("argv") or [op["kind"], op["spec"]["preset"]])
    tail = res["stderr"].decode(errors="replace")[-400:]
    print(f"FAILED {op['id']} ({what}): {reason}\n{tail}", file=sys.stderr)


def measure(sess: Session, ops: list[dict], rounds: int, reference: dict | None) -> dict:
    """Untraced closed loop: each round runs every op once, in order.

    With one client the list's wall time is the sum of its operations'
    latencies, so wall_s (cpu_s) sums each operation's median latency (CPU
    time) over the rounds: a burst of load from elsewhere on the machine
    then moves one sample of an operation, not the whole figure.  Every
    sample is scaled to the reference machine speed (see CAL_REF_S)."""
    lat: dict[str, list[float]] = {op["id"]: [] for op in ops}
    cpu: dict[str, list[float]] = {op["id"]: [] for op in ops}
    raw_total = 0.0
    failed = 0
    speed = Speed()
    for _ in range(rounds):
        for op in ops:
            res = sess.spawn(op_command(op))
            factor = speed.after_sample()
            raw_total += res["wall"]
            lat[op["id"]].append(res["wall"] * factor)
            cpu[op["id"]].append(res["cpu"] * factor)
            reason = W.check(op, res["code"], res["stdout"], reference)
            if reason:
                failed += 1
                report_failure(op, reason, res)
    pooled = [x for xs in lat.values() for x in xs]
    pct = tail_percentile(len(pooled))
    tail = percentile(pooled, pct)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(
        f"# {rounds} round(s) of {len(ops)} ops; op_tail_s is p{pct} of {len(pooled)} latencies "
        f"({sum(x > tail for x in pooled)} above it); fail_ratio {failed}/{len(pooled)}; "
        f"unscaled wall time per round {raw_total / rounds:.4f} s; speed factor "
        f"median {statistics.median(speed.factors):.4f} "
        f"(range {min(speed.factors):.4f}-{max(speed.factors):.4f})"
    )
    return {
        "attempted": len(pooled),
        "failed": failed,
        "metrics": {
            "wall_s": (sum(statistics.median(xs) for xs in lat.values()), "s"),
            "cpu_s": (sum(statistics.median(xs) for xs in cpu.values()), "s"),
            "op_p50_s": (statistics.median(pooled), "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        },
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

SPAN_METRICS = {
    "quiver.quotient_dims_s": "quiver.quotient_dims",
    "quiver.build_s": "quiver.build",
    "quiver.check_cellular_s": "quiver.check_against_cellular",
    "quiver.irreducible_words_s": "quiver.irreducible_words",
    "quiver.cell_filtration_s": "quiver.cell_filtration_check",
    "deltafilt.verify_reciprocity_s": "deltafilt.verify_reciprocity",
    "deltafilt.verify_linkage_s": "deltafilt.verify_linkage",
    "deltafilt.verify_steinberg_s": "deltafilt.verify_steinberg",
    "deltafilt.verify_bounds_s": "deltafilt.verify_bounds",
    "deltafilt.verify_mult_free_s": "deltafilt.verify_mult_free",
    "cellbasis.generators_s": "cellbasis.generators",
}
COUNT_METRICS = {
    "ratlinalg.add_calls": "ratlinalg.add",
    "ratlinalg.rows_kept": "ratlinalg.rows_kept",
    "ratlinalg.reduce_calls": "ratlinalg.reduce",
    "quiver.normal_form_calls": "quiver.normal_form",
    "deltafilt.delta_factors_calls": "deltafilt.delta_factors",
    "deltafilt.hom_dim_calls": "deltafilt.hom_dim",
    "charring.baby_verma_simples_calls": "charring.baby_verma_simples",
    "charring.peel_calls": "charring.peel",
    "weights.strongly_linked_calls": "weights.strongly_linked",
    "cellbasis.sl3_hom_dim_calls": "cellbasis.sl3_hom_dim",
    "report.items": "report.add",
}
SECONDS_METRICS = {
    "ratlinalg.s": "ratlinalg",
    "quiver.normal_form_s": "quiver.normal_form",
    "deltafilt.hom_dim_s": "deltafilt.hom_dim",
    "charring.peel_s": "charring.peel",
    "weights.strongly_linked_s": "weights.strongly_linked",
    "weights.dot_orbit_s": "weights.dot_orbit",
    "report.s": "report",
}
FACT_METRICS = {
    "quiver.pairs_eliminated": ("quiver.pairs_eliminated", "count"),
    "quiver.core_pairs": ("quiver.core_pairs", "count"),
    "quiver.surviving_paths_s": ("quiver.surviving_paths_s", "s"),
    "quiver.alive_paths": ("quiver.alive_paths", "count"),
}
RATIO_METRICS = {  # metric: (numerator total, denominator total)
    "ratlinalg.useful_ratio": ("ratlinalg.rows_kept", "ratlinalg.add_calls"),
    "deltafilt.factor_cache_hit_ratio": ("deltafilt.factor_cache_hits", "deltafilt.factor_cache_lookups"),
    "charring.peel_cache_hit_ratio": ("charring.peel_cache_hits", "charring.peel_cache_lookups"),
    "trace.overhead_ratio": ("wall_traced", "wall_plain"),
}
ROOT_SPANS = ("cli.run", "rewrite.run")


def span_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive time per span name (outermost calls only, so recursion is
    not double counted) and self time per span name (duration minus the
    part its direct children cover)."""
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    child_sum = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_sum[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_t[name] = self_t.get(name, 0.0) + dur - child_sum[i]
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc is None:
            incl[name] = incl.get(name, 0.0) + dur
    return incl, self_t


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_traced(sess: Session, ops: list[dict], rounds: int, reference: dict | None) -> dict:
    """Each op runs untraced, then traced; the traced stdout must be
    byte-identical.  Per-layer numbers are totals per round."""
    tot: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        tot[key] = tot.get(key, 0.0) + value

    attempted = failed = 0
    trace_file = sess.dir / "trace.json"
    for _ in range(rounds):
        for op in ops:
            attempted += 1
            plain = sess.spawn(op_command(op))
            traced = sess.spawn(op_command(op, trace_file))
            reason = W.check(op, plain["code"], plain["stdout"], reference)
            if reason:
                failed += 1
                report_failure(op, reason, plain)
                continue
            if (traced["code"], traced["stdout"]) != (plain["code"], plain["stdout"]):
                failed += 1
                report_failure(op, "traced exit status or stdout differs from untraced", traced)
                continue
            doc = json.loads(trace_file.read_text())
            trace_file.unlink()
            add("wall_plain", plain["wall"])
            add("wall_traced", traced["wall"])
            if op["kind"] == "cli":
                add("cli.stdout_bytes", len(plain["stdout"]))
            incl, self_t = span_times(doc["spans"])
            for metric, span in SPAN_METRICS.items():
                add(metric, incl.get(span, 0.0))
            add("cli.self_s", self_t.get("cli.run", 0.0))
            for metric, key in COUNT_METRICS.items():
                add(metric, doc["counts"].get(key, 0))
            for metric, key in SECONDS_METRICS.items():
                add(metric, doc["seconds"].get(key, 0.0))
            for metric, (key, _) in FACT_METRICS.items():
                add(metric, doc["facts"].get(key, 0))
            for cache in ("deltafilt.factor_cache", "charring.peel_cache"):
                hits = doc["facts"][f"{cache}_hits"]
                add(f"{cache}_hits", hits)
                add(f"{cache}_lookups", hits + doc["facts"][f"{cache}_misses"])
            roots = [s for s in doc["spans"] if s[0] in ROOT_SPANS and s[3] is None]
            startup = roots[0][1] - traced["start"]
            add("trace.startup_s", startup)
            add(
                "trace.unattributed_s",
                traced["wall"] - startup - sum(self_t.values())
                - doc["facts"].get("quiver.surviving_paths_s", 0.0),
            )

    n = max(rounds, 1)
    m: dict[str, tuple[float, str]] = {}
    for metric in SPAN_METRICS:
        m[metric] = (tot.get(metric, 0.0) / n, "s")
    for metric in COUNT_METRICS:
        m[metric] = (tot.get(metric, 0.0) / n, "count")
    for metric in SECONDS_METRICS:
        m[metric] = (tot.get(metric, 0.0) / n, "s")
    for metric, (_, unit) in FACT_METRICS.items():
        m[metric] = (tot.get(metric, 0.0) / n, unit)
    for metric, (num, den) in RATIO_METRICS.items():
        m[metric] = (ratio(tot.get(num, 0.0), tot.get(den, 0.0)), "ratio")
    m["cli.self_s"] = (tot.get("cli.self_s", 0.0) / n, "s")
    m["cli.stdout_bytes"] = (tot.get("cli.stdout_bytes", 0.0) / n, "bytes")
    m["trace.startup_s"] = (tot.get("trace.startup_s", 0.0) / n, "s")
    m["trace.unattributed_s"] = (tot.get("trace.unattributed_s", 0.0) / n, "s")
    m["trace.untraced_wall_s"] = (tot.get("wall_plain", 0.0) / n, "s")
    print(
        f"# {rounds} traced round(s) of {len(ops)} ops; ratlinalg.useful_ratio = rows_kept / "
        f"add_calls; cache hit ratios = hits / (hits + misses) from cache_info(); "
        f"trace.overhead_ratio = traced / untraced op wall time"
    )
    return {"attempted": attempted, "failed": failed, "metrics": m}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def load_reference(seed: int) -> dict | None:
    if seed != W.DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())


def record_reference() -> int:
    sess = Session()
    try:
        ref = {}
        for name in W.WORKLOADS:
            ops, _ = setup(sess, name, W.DEFAULT_SEED)
            for op in ops:
                res = sess.spawn(op_command(op))
                reason = W.check(op, res["code"], res["stdout"], None)
                if reason:
                    report_failure(op, reason, res)
                    return 1
                ref[op["key"]] = W.digest(W.semantic(op, json.loads(res["stdout"])))
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(ref)} answers in {REFERENCE}")
        return 0
    finally:
        sess.close()


def run_workload(
    name: str, seed: int, seconds: float, trace: int, max_ops: int | None = None
) -> dict:
    """One run: set up, measure for the rounds `seconds` buys, check every
    answer.  max_ops truncates the round (the self-tests use it)."""
    reference = load_reference(seed)
    rounds = max(1, int(seconds // (ROUND_S * (TRACE_COST if trace else 1))))
    sess = Session()
    try:
        ops, setup_s = setup(sess, name, seed)
        ops = ops[:max_ops]
        if trace:
            return measure_traced(sess, ops, rounds, reference)
        result = measure(sess, ops, rounds, reference)
        result["metrics"]["setup_s"] = (setup_s, "s")
        return result
    finally:
        sess.close()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tiltcell" / "__init__.py").is_file():
        print(f"error: no tiltcell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if not args.workload:
        ap.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for key, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
