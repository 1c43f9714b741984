#!/usr/bin/env python3
"""decoyqkd benchmark: one workload per process, metrics as JSON on the last line.

    python3 bench/run.py --workload soundness_bright --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25     # each workload in its own process
    python3 bench/run.py --self-test                     # short runs: every metric printed, with its unit

Run from a checkout: the package is imported from its ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics (set-up time in fresh
interpreters, then a closed loop of timed ops after warm-up).  With
``--trace 1`` it reports the per-layer metrics: half the time untraced, half
traced with spans around the calls into the package, plus probes for layers
the workload never reaches.  Every op's outcome is checked; per-op records,
their digest and the spans are written under ``.bench_out/``.  See
bench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("soundness_bright", "certify_mixed", "figures")
SETUP_REPS = 3     # fresh interpreters per set-up measurement; the median is reported
BATCH = 10         # inputs are made this many ops at a time, outside the timed region
DIGEST_OPS = 30    # leading timed ops covered by the certified-value digest
PROBE_REPS = 3
CHILD_TIMEOUT = 170
REFERENCE_S = 0.36e-3  # the reference loop's time on an idle 2.1 GHz x86 core: pace 1.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="run every workload briefly and check the output")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def layout_error() -> str | None:
    needed = [ROOT / "src" / "decoyqkd" / "__init__.py", ROOT / "configs" / "bright.json",
              ROOT / "configs" / "fig1.json", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    return f"not a decoyqkd checkout, missing: {', '.join(missing)}" if missing else None


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def reference_loop() -> float:
    """Wall time of a fixed loop of small numpy calls and Python arithmetic.

    The mix resembles the solver's profile: many calls on tiny arrays.
    """
    a, b = np.arange(10.0), np.ones(10)
    t0 = time.perf_counter()
    x = 0.0
    for k in range(150):
        x += float(a @ b) + float(np.sqrt(a).sum()) + k * k
    return time.perf_counter() - t0


def pace() -> float:
    """How much slower than REFERENCE_S the machine runs right now.

    Co-tenants on a shared host slow this process by up to ~1.8x, in
    bursts that last from a fraction of a second to minutes, and the slowdown
    hits this loop and the package's code by similar factors.  Timings are
    divided by the pace measured just before and just after them.
    """
    return min(reference_loop() for _ in range(3)) / REFERENCE_S


class Runner:
    """Runs ops of one workload in index order and keeps their records."""

    def __init__(self, wl):
        self.wl = wl
        self.next = 0
        self.records: list[dict] = []   # timed ops only
        self.failed = 0
        self.warmup_failed = 0

    def _one(self, op, tr):
        t0 = time.perf_counter()
        try:
            result = self.wl.run(op, tr)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            return time.perf_counter() - t0, None, False, {"error": repr(exc)}
        elapsed = time.perf_counter() - t0
        try:
            ok, rec = self.wl.check(op, result)
            ok = bool(ok)
        except Exception as exc:
            ok, rec = False, {"error": repr(exc)}
        return elapsed, result, ok, rec

    def warm_up(self) -> None:
        from tracing import NullTracer

        for _ in range(self.wl.warmup):
            op = self.wl.make_op(self.next)
            self.next += 1
            self.warmup_failed += not self._one(op, NullTracer())[2]

    def measure(self, seconds: float, tr, traced: bool) -> tuple[list[float], list[float]]:
        """Closed loop, one caller, until the ops' wall time adds up to `seconds`.

        Returns each op's wall time and its time at the reference pace.
        """
        wall: list[float] = []
        paced: list[float] = []
        while sum(wall) < seconds:
            batch = [self.wl.make_op(i) for i in range(self.next, self.next + BATCH)]
            self.next += BATCH
            for op in batch:
                before = pace()
                tr.op_id = op["i"]
                elapsed, result, ok, rec = self._one(op, tr)
                factor = (before + pace()) / 2
                wall.append(elapsed)
                paced.append(elapsed / factor)
                self.records.append({"op": op["i"], "ok": ok, "ms": elapsed * 1e3, "pace": factor, **rec})
                self.failed += not ok
                if traced and result is not None:
                    self.wl.layers(op, result, tr)
                tr.op_id = None
        return wall, paced


def digest(records: list[dict]) -> tuple[str, int]:
    """sha256 of the certified values (or artifact hashes) of the leading timed ops."""
    head = [{k: v for k, v in r.items() if k not in ("ok", "ms", "pace", "solver_residual", "violation")}
            for r in records[:DIGEST_OPS]]
    text = json.dumps(head, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), len(head)


def measure_setup(name: str, seed: int) -> tuple[float | None, str]:
    """Median time, at the reference pace, of fresh interpreters that import decoyqkd.cli and run op 0."""
    times = []
    for _ in range(SETUP_REPS):
        before = pace()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-child",
                               "--workload", name, "--seed", str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        elapsed = time.perf_counter() - t0
        times.append(elapsed / ((before + pace()) / 2))
        if proc.returncode != 0:
            return None, proc.stderr.strip()[-500:]
    return statistics.median(times), ""


def setup_child(name: str, seed: int) -> int:
    import decoyqkd.cli  # noqa: F401  -- the import is part of what set-up measures
    import workloads
    from tracing import NullTracer

    wl = workloads.WORKLOADS[name](ROOT, seed, OUT / name / "setup")
    op = wl.make_op(0)
    ok, _ = wl.check(op, wl.run(op, NullTracer()))
    return 0 if ok else 1


def end_to_end(latencies: list[float], setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


TIMED_LAYERS = [  # (metric, span, unit)
    ("stats.rng_generator_us", "stats.rng_generator", "us"),
    ("channel.protocol_config_ms", "channel.protocol_config", "ms"),
    ("attacks.simulate_session_us", "attacks.simulate_session", "us"),
    ("attacks.sample_photon_counts_us", "attacks.sample_photon_counts", "us"),
    ("attacks.attack_detections_us", "attacks.attack_detections", "us"),
    ("attacks.split_by_source_us", "attacks.split_by_source", "us"),
    ("attacks.sift_us", "attacks.sift", "us"),
    ("attacks.analytic_variance_report_ms", "attacks.analytic_variance_report", "ms"),
    ("estimator.minimize_d0_ms", "estimator.minimize_d0", "ms"),
    ("estimator.minimize_d1_ms", "estimator.minimize_d1", "ms"),
    ("estimator.abort_ms", "estimator.abort", "ms"),
    ("estimator.build_epsilon_budget_us", "estimator.build_epsilon_budget", "us"),
    ("estimator.coverage_probability_ms", "estimator.coverage_probability", "ms"),
    ("estimator.bayes_dark_posterior_ms", "estimator.bayes_dark_posterior", "ms"),
    ("harness.load_config_ms", "harness.load_config", "ms"),
    ("harness.config_hash_us", "harness.config_hash", "us"),
    ("harness.write_json_ms", "harness.write_json", "ms"),
    ("harness.write_csv_ms", "harness.write_csv", "ms"),
] + [(f"cli.{sub}_ms", f"cli.{sub}", "ms") for sub in
     ("estimate", "simulate", "sweep-tau", "coverage", "posterior", "reproduce-fig1", "reproduce-fig2")]
SCALE = {"ms": 1e3, "us": 1e6}


def per_layer(tr, probes, plain: list[float], traced: list[float]) -> dict:
    """Per-layer metrics from the traced segment; absent span names come from the probes."""
    have = tr.names()

    def source(name):
        return tr if name in have else probes

    def median_of(name, unit):
        return statistics.median(source(name).durations(name)) * SCALE[unit]

    est_names = ("estimator.estimate_session", "estimator.abort")
    runs = (tr if have & set(est_names) else probes).attrs(*est_names)
    est = source("estimator.estimate_session").durations("estimator.estimate_session")
    ratios = [a["d1_ratio"] for a in runs if "d1_ratio" in a]
    writes = source("harness.write_json").attrs("harness.write_json") + \
        source("harness.write_csv").attrs("harness.write_csv")
    m = {metric: (median_of(span, unit), unit) for metric, span, unit in TIMED_LAYERS}
    m.update({
        "estimator.estimate_session_ms.p50": (percentile(est, 50) * 1e3, "ms"),
        "estimator.estimate_session_ms.p95": (percentile(est, 95) * 1e3, "ms"),
        "estimator.optimal_count": (sum(a["status"] == "optimal" for a in runs), "count"),
        "estimator.infeasible_count": (sum(a["status"] == "infeasible" for a in runs), "count"),
        "estimator.max_iterations_count": (sum(a["status"] == "max_iterations" for a in runs), "count"),
        "estimator.residual_max": (max(a["residual"] for a in runs), "ratio"),
        "estimator.bound_violations": (sum(bool(a.get("violation")) for a in runs), "count"),
        "estimator.d1_over_truth_p50": (statistics.median(ratios), "ratio"),
        "channel.n_max_mean": (statistics.mean(
            a["n_max"] for a in source("channel.protocol_config").attrs("channel.protocol_config")), "photons"),
        "harness.bytes_written": (statistics.mean(a["bytes"] for a in writes), "bytes"),
        "trace.overhead_frac": ((len(traced) / sum(traced)) / (len(plain) / sum(plain)), "ratio"),
    })
    return m


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    import workloads
    from tracing import NullTracer, Tracer

    out = OUT / name / f"seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    checks = []
    setup_s = None
    if not trace:
        setup_s, err = measure_setup(name, seed)
        checks.append(("setup_op", setup_s is not None, err or f"{SETUP_REPS} fresh interpreters"))
    wl = workloads.WORKLOADS[name](ROOT, seed, out)
    runner = Runner(wl)
    runner.warm_up()
    checks.append(("warmup_ops", runner.warmup_failed == 0, f"{runner.warmup_failed} of {wl.warmup} failed"))
    if trace:
        _, plain = runner.measure(seconds / 2, NullTracer(), traced=False)
        tr, probes = Tracer(), Tracer()
        _, traced = runner.measure(seconds / 2, tr, traced=True)
        probe_out = out / "probe"
        for names, call in workloads.probe_plan(wl.probe_config(), probe_out, seed):
            if not names <= tr.names():
                for _ in range(PROBE_REPS):
                    call(probes)
        metrics = per_layer(tr, probes, plain, traced)
        tr.dump(out / "spans.json")
        probes.dump(out / "probe_spans.json")
    else:
        wall, latencies = runner.measure(seconds, NullTracer(), traced=False)
        metrics = end_to_end(latencies, setup_s if setup_s is not None else math.nan)
    checks += wl.finish(runner.records)
    attempted, failed = len(runner.records), runner.failed
    dig, covered = digest(runner.records)
    correct = failed == 0 and all(ok for _, ok, _ in checks)
    (out / f"results_trace{trace}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "digest": {"sha256": dig, "ops": covered},
        "records": runner.records,
    }, indent=1) + "\n")

    for check, ok, detail in checks:
        print(f"check {name} {check}: {'ok' if ok else 'FAILED'} ({detail})")
    print(f"digest {name} {dig} over {covered} ops")
    rows = dict(metrics)
    if not trace:
        rows["failed_frac"] = (failed / attempted, "frac")
        beyond = attempted - math.ceil(0.95 * attempted)
        print(f"samples {name} {attempted} ops, {beyond} beyond p95"
              + ("" if beyond >= 10 else " (fewer than 10: p95 is not resolved)")
              + f"; machine pace {statistics.median(r['pace'] for r in runner.records):.3f}x the reference")
        raw = end_to_end(wall, math.nan)
        print(f"wall-clock {name} ops_per_s {raw['ops_per_s'][0]:.6g} 1/s, op_p50_ms {raw['op_p50_ms'][0]:.6g} ms,"
              f" op_p95_ms {raw['op_p95_ms'][0]:.6g} ms (before dividing by the pace)")
    for metric, (value, unit) in rows.items():
        print(f"{name:<17} {metric:<37} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a process of its own, so peak memory is not shared."""
    results, rc = {}, 0
    for name in WORKLOADS:
        code, lines = run_child(name, seed, seconds, trace)
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
        rc = rc or code
    print(json.dumps(results))
    return rc


def self_test() -> int:
    """Each workload briefly, traced and not: every metric of BENCHMARK.json printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_child(name, 7, 1, trace)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct"):
                problems.append(f"{name} trace={trace}: exit {code}, correct={result.get('correct')}")
            printed = {tuple(line.split()[:2]): line.split()[-1] for line in lines[:-1]}
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = result.get("metrics", {})
            for metric, unit in wanted.items():
                entry = got.get(metric, {})
                if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
                    problems.append(f"{name} trace={trace}: {metric} missing or not in {unit}: {entry}")
                if printed.get((name, metric)) != unit:
                    problems.append(f"{name} trace={trace}: {metric} not printed with unit {unit}")
            for metric in set(got) - set(wanted):
                problems.append(f"{name} trace={trace}: {metric} is not named in BENCHMARK.json")
            if trace == 0 and printed.get((name, "failed_frac")) != "frac":
                problems.append(f"{name}: failed_frac not printed")
    for p in problems:
        print("self-test:", p)
    print(f"self-test {'FAILED' if problems else 'ok'}: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    err = layout_error()
    if err:
        print(err, file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(ROOT / "src"))
    import decoyqkd

    if Path(decoyqkd.__file__).resolve().parent != ROOT / "src" / "decoyqkd":
        print(f"decoyqkd imported from {decoyqkd.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args.workload, args.seed)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
