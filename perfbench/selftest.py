"""Self-test of the benchmark at a tiny size (under a minute).

    python3 perfbench/selftest.py

For every workload it runs one round of tiny inputs, each run in a fresh
process, and checks that:

* an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
  a traced run exactly its per-layer metrics, each with its unit, and
  every known-answer check passes;
* two traced runs with the same seed give identical counters (calls per
  span, applications, rejections by predicate, trials, timeouts);
* a different seed gives different inputs;
* traced self-times sum to no more than the traced wall time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from run import WORKLOAD_NAMES  # noqa: E402


def run(out: str, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(last-line result, result file) of one tiny run."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny", "--rounds", "1", "--out", out]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    suffix = "_traced" if trace else ""
    with open(os.path.join(out, f"BENCH_{workload}_seed{seed}{suffix}.json"),
              encoding="utf-8") as fh:
        return result, json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    work = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work, exist_ok=True)
    failures = []

    def expect(ok: bool, what: str):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOAD_NAMES:
        out = tempfile.mkdtemp(prefix="selftest-", dir=work)
        try:
            plain, plain_doc = run(out, workload, 1, 0)
            traced, traced_doc = run(out, workload, 1, 1)
            _, again_doc = run(out, workload, 1, 1)
            _, other_doc = run(out, workload, 2, 0)
        finally:
            shutil.rmtree(out, ignore_errors=True)

        expect({k: v["unit"] for k, v in plain["metrics"].items()} == e2e,
               f"{workload}: untraced run emits every end-to-end metric with its unit")
        expect({k: v["unit"] for k, v in traced["metrics"].items()} == layer,
               f"{workload}: traced run emits every per-layer metric with its unit")
        expect(all(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
                   for r in (plain, traced)),
               f"{workload}: every known-answer check passes")
        expect(traced_doc["counters"] == again_doc["counters"]
               and traced_doc["calls"] == again_doc["calls"]
               and traced_doc["counters"],
               f"{workload}: same seed, identical counters")
        expect(plain_doc["input_digest"] == traced_doc["input_digest"]
               and {k: v["n"] for k, v in plain_doc["ops_by_kind"].items()}
               == {k: v["n"] for k, v in traced_doc["ops_by_kind"].items()},
               f"{workload}: same seed, same inputs and operations traced or not")
        expect(other_doc["input_digest"] != plain_doc["input_digest"],
               f"{workload}: different seed, different inputs")
        wall = traced["metrics"]["trace.wall_s"]["value"]
        expect(sum(traced_doc["self_s"].values()) <= wall,
               f"{workload}: traced self-times sum to no more than wall time")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
