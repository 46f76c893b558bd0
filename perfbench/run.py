"""mer benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # BENCHMARK.json's workloads, one process each

Run it from the repository root; it imports mer from ``src/``. With
``--trace 0`` it measures the end-to-end metrics with nothing wrapped.
With ``--trace 1`` it runs the same loop with every mer module boundary
wrapped (see tracer.py), then replays exactly the operations it ran
with the wrappers removed, and reports per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A fuller record goes
to ``<out>/BENCH_<workload>_seed<N>[_traced].json``, and a traced run
also writes its spans to ``<out>/SPANS_<workload>_seed<N>.json``.

NOTES.md, next to this file, defines every workload and metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from collections import Counter
from functools import partial
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919  # not used while the benchmark or a change is tuned
DEFAULT_SECONDS = 45
# An untraced run times fresh set-ups between rounds whenever set-ups so far
# have taken less than this share of the loop's time; setup_s is their mean.
# Spread over the run, the samples average out a machine whose speed drifts,
# as the loop's own statistics do; the mean, not the median, because on a
# shared machine single samples fall into a fast and a slow cluster, and the
# median jumps between them. Set-up time does not count against --seconds.
SETUP_SHARE = 0.15

# BENCHMARK.json lists only sweep and verify_large, so that each of their
# runs can be long enough to average out a shared machine's drifting speed
# (see NOTES.md). large_refactor and rule_check run when named with --workload.
WORKLOAD_NAMES = ("sweep", "large_refactor", "rule_check", "verify_large")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

REJECT_PREDICATES = ("not_applicable", "non_bind", "pure", "closed", "fresh",
                     "is_subset", "signature_clash", "binding")

PER_LAYER = (
    ("syntax.parse.calls", "count"),
    ("syntax.parse.self_s", "s"),
    ("syntax.parse.nodes_per_s", "1/s"),
    ("syntax.pretty.self_s", "s"),
    ("syntax.validate.calls", "count"),
    ("syntax.validate.self_s", "s"),
    ("syntax.self_s", "s"),
    ("analysis.index_builds", "count"),
    ("analysis.snapshot.self_s", "s"),
    ("analysis.query.calls", "count"),
    ("analysis.query.self_s", "s"),
    ("analysis.fun_purity.calls", "count"),
    ("analysis.binding_info.calls", "count"),
    ("analysis.self_s", "s"),
    ("rewrite.apply_rule.calls", "count"),
    ("rewrite.match.self_s", "s"),
    ("rewrite.condition.calls", "count"),
    ("rewrite.condition.self_s", "s"),
    ("rewrite.condition.rejects", "count"),
    ("rewrite.substitute.self_s", "s"),
    ("rewrite.self_s", "s"),
    ("schemes.run.calls", "count"),
    ("schemes.run.self_s", "s"),
    ("refactorings.applied", "count"),
    *((f"refactorings.rejected.{p}", "count") for p in REJECT_PREDICATES),
    ("refactorings.applied_ratio", "ratio"),
    ("refactorings.prime.self_s", "s"),
    ("refactorings.composite.self_s", "s"),
    ("interp.calls", "count"),
    ("interp.self_s", "s"),
    ("interp.setup.self_s", "s"),
    ("interp.us_per_call", "us"),
    ("interp.timeouts", "count"),
    ("interp.exceptions", "count"),
    ("equiv.trials", "count"),
    ("equiv.check.self_s", "s"),
    ("equiv.gen.self_s", "s"),
    ("equiv.attempts", "count"),
    ("equiv.accept_ratio", "ratio"),
    ("equiv.self_s", "s"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
    *((f"cli.exit.{c}", "count") for c in (0, 1, 2, 3)),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
    ("unknown_rate", "ratio"),
)


# ---------------------------------------------------------------------------
# Set-up


def import_mer():
    mer = importlib.import_module("mer")
    importlib.import_module("mer.cli")
    return mer


def set_up_seconds(name: str, seed: int, scale: str, workdir: str) -> float:
    """Time one set-up of a workload: mer imported afresh, inputs made."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    cls = workloads.WORKLOADS[name]
    started = perf_counter()
    cls(import_mer(), seed, scale, workdir)
    return perf_counter() - started


def time_set_up(name: str, seed: int, scale: str, workdir: str) -> float:
    """set_up_seconds in a fresh process, so that neither the memory a
    set-up allocates nor the imports it leaves behind count in this
    process's peak_rss_mb."""
    code = f"import run; print(run.set_up_seconds({name!r}, {seed}, {scale!r}, {workdir!r}))"
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return float(done.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# The loop


class Tally:
    """What a loop leaves behind: latencies by operation kind in compact
    arrays, failure and verdict counts. Results are not kept, so memory
    does not grow with the number of operations (peak_rss_mb stays the
    program's, not the benchmark's)."""

    def __init__(self):
        self.by_kind: dict[str, array] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first ten
        self.verdicts: Counter = Counter()

    def add(self, kind: str, elapsed: float, message, verdict):
        self.by_kind.setdefault(kind, array("d")).append(elapsed)
        self.attempted += 1
        if message:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{kind}: {message}")
        if verdict:
            self.verdicts[verdict] += 1

    def latencies(self) -> list[float]:
        return [dt for lat in self.by_kind.values() for dt in lat]

    def kinds(self) -> dict:
        return {k: {"n": len(v), "median_ms": statistics.median(v) * 1e3}
                for k, v in sorted(self.by_kind.items())}


def run_ops(ops, tally: Tally, tracer=None):
    """Run and time each operation, then check its result untimed (and,
    in a traced run, unrecorded)."""
    for op in ops:
        started = perf_counter()
        try:
            result, error = op.run(), None
        except Exception:  # a crash is a failed operation, not the end of the run
            result, error = None, traceback.format_exc()
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.paused = True
        if error is not None:
            message, verdict = error.strip().splitlines()[-1], None
        else:
            try:
                message, verdict = op.check(result)
            except Exception:
                message, verdict = f"check crashed: {traceback.format_exc()}", None
        if tracer is not None:
            tracer.paused = False
        tally.add(op.kind, elapsed, message, verdict)


def run_loop(wl, seconds: float, rounds: int | None, tracer=None, set_up=None):
    """Run whole rounds until `seconds` have passed (or exactly `rounds`).
    With `set_up`, call it between rounds as SETUP_SHARE allows; the time
    it takes is not counted. Returns the tally, the rounds run, the loop's
    time and the set-up times."""
    tally = Tally()
    setup_times: list[float] = []
    k = 0
    started = perf_counter()
    paused = 0.0
    while (k < rounds) if rounds is not None else (perf_counter() - started - paused < seconds):
        run_ops(wl.round(k), tally, tracer)
        k += 1
        if set_up is not None and sum(setup_times) < SETUP_SHARE * (perf_counter() - started - paused):
            pause = perf_counter()
            setup_times.append(set_up())
            paused += perf_counter() - pause
    return tally, k, perf_counter() - started - paused, setup_times


def outcome(*tallies: Tally) -> dict:
    verdicts = sum((t.verdicts for t in tallies), Counter())
    oracle = sum(verdicts.values())
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": [f for t in tallies for f in t.failures][:10],
        "verdicts": dict(verdicts),
        "error_rate": failed / max(attempted, 1),
        "unknown_rate": verdicts["unknown"] / oracle if oracle else 0.0,
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile), nearest rank: p99 from 1,000 operations on,
    where at least ten lie beyond it; p90 below that. large_refactor and
    verify_large run too few operations for any percentile above the
    median to keep ten beyond it, and the highest one that does would
    jump between operation groups as the count changes."""
    lat = sorted(latencies)
    pct = 99.0 if len(lat) >= 1000 else 90.0
    return lat[math.ceil(pct / 100 * len(lat)) - 1], pct


def scale_ratio(big: dict, small: dict, kind: str) -> float:
    b, s = big.get(kind), small.get("small." + kind)
    return b["median_ms"] / s["median_ms"] if b and s else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tr, traced_wall: float, overhead: float, checked: dict) -> dict:
    c, s, t, k = tr.calls, tr.self_s, tr.total_s, tr.counters
    layer = tr.layer_self_s()
    rejected = sum(v for key, v in k.items() if key.startswith("refactorings.rejected."))
    decided = k["refactorings.applied"] + rejected
    interp_calls = c["interp.call"]
    values = {
        "syntax.parse.calls": c["syntax.parse"],
        "syntax.parse.self_s": s["syntax.parse"],
        "syntax.parse.nodes_per_s": (k["syntax.parse.nodes"] / s["syntax.parse"]
                                     if s["syntax.parse"] else 0.0),
        "syntax.pretty.self_s": s["syntax.pretty"],
        "syntax.validate.calls": c["syntax.validate"],
        "syntax.validate.self_s": s["syntax.validate"],
        "syntax.self_s": layer.get("syntax", 0.0),
        "analysis.index_builds": c["analysis.snapshot"],
        "analysis.snapshot.self_s": s["analysis.snapshot"],
        "analysis.query.calls": c["analysis.query"],
        "analysis.query.self_s": s["analysis.query"],
        "analysis.fun_purity.calls": c["analysis.fun_purity"],
        "analysis.binding_info.calls": c["analysis.binding_info"],
        "analysis.self_s": layer.get("analysis", 0.0),
        "rewrite.apply_rule.calls": c["rewrite.apply_rule"],
        "rewrite.match.self_s": s["rewrite.match"],
        "rewrite.condition.calls": c["rewrite.condition"],
        "rewrite.condition.self_s": s["rewrite.condition"],
        "rewrite.condition.rejects": k["rewrite.condition.rejects"],
        "rewrite.substitute.self_s": s["rewrite.substitute"],
        "rewrite.self_s": layer.get("rewrite", 0.0),
        "schemes.run.calls": c["schemes.run"],
        "schemes.run.self_s": s["schemes.run"],
        "refactorings.applied": k["refactorings.applied"],
        **{f"refactorings.rejected.{p}": k[f"refactorings.rejected.{p}"]
           for p in REJECT_PREDICATES},
        "refactorings.applied_ratio": (k["refactorings.applied"] / decided
                                       if decided else 0.0),
        "refactorings.prime.self_s": s["refactorings.prime"],
        "refactorings.composite.self_s": s["refactorings.composite"],
        "interp.calls": interp_calls,
        "interp.self_s": layer.get("interp", 0.0),
        "interp.setup.self_s": s["interp.setup"],
        "interp.us_per_call": (t["interp.call"] / interp_calls * 1e6
                               if interp_calls else 0.0),
        "interp.timeouts": k["interp.timeouts"],
        "interp.exceptions": k["interp.exceptions"],
        "equiv.trials": k["equiv.trials"],
        "equiv.check.self_s": s["equiv.check"],
        "equiv.gen.self_s": s["equiv.gen"],
        "equiv.attempts": c["equiv.gen"],
        "equiv.accept_ratio": (k["equiv.accepted"] / c["equiv.gen"]
                               if c["equiv.gen"] else 0.0),
        "equiv.self_s": layer.get("equiv", 0.0),
        "cli.commands": c["cli.main"],
        "cli.self_s": layer.get("cli", 0.0),
        **{f"cli.exit.{code}": k[f"cli.exit.{code}"] for code in (0, 1, 2, 3)},
        "bench.self_s": traced_wall - sum(layer.values()),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": overhead,
        "error_rate": checked["error_rate"],
        "unknown_rate": checked["unknown_rate"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# One workload


def run_workload(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    work = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, workdir: str) -> int:
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    gc.collect()
    started = perf_counter()
    wl = cls(import_mer(), args.seed, args.scale, workdir)
    own_setup = perf_counter() - started  # may include compiling mer to bytecode
    # Keep the collector from re-scanning the set-up heap (a large module
    # and its index) in every full collection of the loop.
    gc.collect()
    gc.freeze()
    # One operation before timing, so that no first-use cost lands in the
    # timed loop. It is checked like every other, but its verdict does not
    # count in unknown_rate, which stays the loop's.
    warm = Tally()
    run_ops(wl.round(-1)[:1], warm)
    warm.verdicts.clear()
    tr = None
    setup_times: list[float] = []  # between rounds, untraced runs only
    if args.trace:
        import tracer
        tr = tracer.Tracer()
        tr.install(wl.mer)
        try:
            loop, rounds, traced_wall, _ = run_loop(wl, args.seconds, args.rounds, tr)
        finally:
            tr.remove()
        digest = wl.digest.hexdigest()
        # the same operations again, with nothing wrapped
        replay, _, _, _ = run_loop(wl, 0, rounds)
    else:
        loop, rounds, _, setup_times = run_loop(
            wl, args.seconds, args.rounds,
            set_up=partial(time_set_up, args.workload, args.seed, args.scale, workdir))
        digest = wl.digest.hexdigest()
        replay = loop
    post = Tally()
    run_ops(wl.post(), post)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = outcome(warm, loop, post)

    latencies = loop.latencies()
    tail_value, tail_pct = tail(latencies)
    kinds = replay.kinds()
    post_kinds = post.kinds()
    if tr is not None:
        overhead = sum(latencies) / sum(replay.latencies())
        metrics = layer_metrics(tr, traced_wall, overhead, checked)
    else:
        values = {
            "setup_s": statistics.fmean(setup_times),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_ms_p50": statistics.median(latencies) * 1e3,
            "op_ms_tail": tail_value * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "rounds": rounds,
        "attempted": checked["attempted"], "failed": checked["failed"],
        "failures": checked["failures"], "verdicts": checked["verdicts"],
        "error_rate": checked["error_rate"], "unknown_rate": checked["unknown_rate"],
        "op_ms_tail_percentile": tail_pct, "op_samples": len(latencies),
        "setup_times_s": setup_times, "own_setup_s": own_setup,
        "ops_by_kind": kinds, "post_ops_by_kind": post_kinds,
        # large_refactor only: median latency at the large size over that
        # at SMALL_DEFS definitions, for each operation kind
        "scale_ratio_by_kind": {k: scale_ratio(kinds, post_kinds, k) for k in kinds},
        "input_digest": digest,
        "metrics": metrics,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    if tr is not None:
        record["calls"] = dict(tr.calls)
        record["self_s"] = dict(tr.self_s)
        record["counters"] = dict(tr.counters)
        record["layer_self_s"] = tr.layer_self_s()
        record["spans_kept"] = len(tr.span_name)
        record["spans_dropped"] = tr.dropped
        tr.write_spans(os.path.join(
            args.out, f"SPANS_{args.workload}_seed{args.seed}.json"))
    suffix = "_traced" if args.trace else ""
    with open(os.path.join(args.out, f"BENCH_{args.workload}_seed{args.seed}{suffix}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} rounds={rounds} ops={len(latencies)} "
          f"attempted={checked['attempted']} failed={checked['failed']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"op_ms_tail is p{tail_pct:.1f} of {len(latencies)} samples")
    print(f"error_rate {checked['error_rate']:.6g} ratio")
    print(f"unknown_rate {checked['unknown_rate']:.6g} ratio "
          f"({sum(checked['verdicts'].values())} oracle verdicts)")
    for failure in checked["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": checked["failed"] == 0,
                      "attempted": checked["attempted"],
                      "failed": checked["failed"],
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Every workload


def run_all(args) -> int:
    """Every workload BENCHMARK.json lists, each in a fresh process. Each
    child's output passes through; the last line combines their results,
    with each metric named ``<workload>.<metric>``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", args.out, "--scale", args.scale]
        if args.rounds is not None:
            argv += ["--rounds", str(args.rounds)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        try:
            result = json.loads(done.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if done.returncode != 0 or result is None:
            print(f"# {name} exited with {done.returncode} and no result")
            combined["correct"] = False
            status = 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return status if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="one workload (default: every workload BENCHMARK.json "
                         "lists, each in a fresh process)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(BENCH_DIR, "results"),
                    help="directory for BENCH_*.json and SPANS_*.json")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)  # tiny: self-test inputs
    ap.add_argument("--rounds", type=int, default=None,
                    help=argparse.SUPPRESS)  # exact round count, for the self-test
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mer", "__init__.py")):
        print(f"mer sources not found under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args.out = os.path.abspath(args.out)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
