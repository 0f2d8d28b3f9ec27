#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Checks, with short runs (about two minutes in all):
  - BENCHMARK.json names exactly the metrics the benchmark prints, for
    every workload, with --trace 0 (end-to-end) and --trace 1
    (per-layer), and every run reports correct with no failures;
  - two same-seed runs of each sim-* workload print identical digests;
  - sim-oracle's default seed reproduces perf_sim's frozen matrix
    totals (the "current" section of BENCH_sim.json, when present);
  - in the traced sim runs the phase spans account for the traced pass
    time, set-up is the largest phase on sim-oracle and the parallel
    phase the largest on sim-paper;
  - run.py fails, without printing a result, in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def check(cond, what):
    print("%s: %s" % ("ok" if cond else "FAIL", what), flush=True)
    if not cond:
        sys.exit(1)


def run(workload, seed, trace, cwd=ROOT, runner=RUN):
    p = subprocess.run(runner + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", str(trace)],
                       cwd=cwd, capture_output=True, text=True, timeout=600)
    return p


def result(p):
    check(p.returncode == 0, "exit code 0 (got %d)" % p.returncode)
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
          "correct, attempted %d, failed %d"
          % (res["attempted"], res["failed"]))
    return lines, res


def digest(lines):
    return [l for l in lines if l.startswith("digest ")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    traced = {}
    for wl in workloads:
        lines, res = result(run(wl, 0, 0))
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == e2e, "%s --trace 0 prints every end_to_end metric"
              % wl)
        check(all(v["value"] > 0 for v in res["metrics"].values()),
              "%s end-to-end metrics are nonzero" % wl)
        lines, res = result(run(wl, 0, 1))
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == layers, "%s --trace 1 prints every per_layer metric"
              % wl)
        traced[wl] = {k: v["value"] for k, v in res["metrics"].items()}
        if wl.startswith("sim-"):
            again, _ = result(run(wl, 0, 1))
            check(digest(lines) and digest(lines) == digest(again),
                  "%s same-seed runs print identical digests" % wl)

    ref_path = os.path.join(ROOT, "BENCH_sim.json")
    if "sim-oracle" in traced and os.path.isfile(ref_path):
        with open(ref_path) as f:
            cur = json.load(f)["current"]
        lines, _ = result(run("sim-oracle", 0, 0))
        total = [l for l in digest(lines) if " total " in l][0]
        want = ("commits=%d aborts=%d cycles=%d checked_ops=%d"
                % (cur["commits"], cur["aborts"], cur["sim_cycles"],
                   cur["checked_ops"]))
        check(total.endswith(want),
              "sim-oracle seed 0 reproduces perf_sim's totals (%s)" % want)

    phases = ["runtime.construct_s", "workloads.setup_s", "sim.parallel_s",
              "workloads.verify_s", "sim.oracle_s", "runtime.teardown_s",
              "trace.unattributed_s"]
    for wl, largest in (("sim-oracle", "workloads.setup_s"),
                        ("sim-paper", "sim.parallel_s")):
        v = traced[wl]
        accounted = sum(v[p] for p in phases)
        check(abs(accounted - v["trace.wall_s"]) <= 0.01 * v["trace.wall_s"],
              "%s phases sum to the traced pass time (%.3f s of %.3f s)"
              % (wl, accounted, v["trace.wall_s"]))
        check(max(phases[:-1], key=lambda p: v[p]) == largest,
              "%s: %s is the largest phase" % (wl, largest))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = run(workloads[0], 0, 0, cwd=bare,
            runner=[sys.executable, os.path.join(bare, "perfbench", "run.py")])
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          "run.py fails without a result when the sources are missing")
    shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
