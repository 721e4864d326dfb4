#!/usr/bin/env python3
"""Paired regression gate: the benchmark at BASE against this checkout.

    python3 tools/perf_gate.py BASE

BASE is exported with `git archive`; this checkout, working tree
included, is HEAD.  Each side runs the command BENCHMARK.json declares
from its own tree, K times per declared workload, in pairs whose order
alternates, so drift of the host falls on both sides alike.  Each
(workload, end-to-end metric) is judged against the metric's bound:
"regressed" (fails) when HEAD's median is worse than base's by more
than the bound while the base runs' IQR / median is within it,
"unresolved" (listed only) when that spread is wider than the bound
and some HEAD run is no better than every base run, else "ok".  A run
that exits non-zero or reports "correct": false, or a HEAD failed /
attempted share above base's, also fails the gate.  Prints a Markdown
table, writes every run to perf-gate.json and exits 1 on failure.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
# Five pairs of three timed passes take about nine minutes on two cores.
# An odd count keeps one outlying run from moving a median: at four pairs
# an A/A run moved pooled-weakcd's ~2 ms setup_s by 0.94 of its bound.
K = 5
SECONDS = 0
SEED = 42


def judge(benchmark, runs):
    """All verdicts, from BENCHMARK.json and runs[workload][side], a list
    of {"exit"} plus, when the run printed its result, "correct",
    "attempted", "failed" and "metrics" ({name: value}).  Returns one row
    per (workload, end-to-end metric) and the messages that fail the gate."""
    rows, failures = [], []
    for workload in (w["name"] for w in benchmark["workloads"]):
        share = {}
        for side in SIDES:
            results = runs[workload][side]
            for i, r in enumerate(results, 1):
                if r["exit"] != 0 or r.get("correct") is not True:
                    failures.append(f'{side}: {workload}: run {i} exited {r["exit"]} '
                                    f'with "correct": {json.dumps(r.get("correct"))}')
            attempted = sum(r.get("attempted", 0) for r in results)
            share[side] = sum(r.get("failed", 0) for r in results) / attempted if attempted else 0.0
        if share["head"] > share["base"]:
            failures.append(f'head: {workload}: failed share {share["head"]:.3g} '
                            f'is above base\'s {share["base"]:.3g}')
        for m in benchmark["end_to_end"]:
            base = [r["metrics"][m["name"]] for r in runs[workload]["base"] if "metrics" in r]
            head = [r["metrics"][m["name"]] for r in runs[workload]["head"] if "metrics" in r]
            row = dict(m, workload=workload, base=base, head=head)
            rows.append(row)
            # Runs without a result have failed already; quartiles need two.
            if len(base) < 2 or not head:
                row["verdict"] = "no data"
                continue
            b, h = statistics.median(base), statistics.median(head)
            q1, _, q3 = statistics.quantiles(base, n=4)
            # Positive is worse either way; scale the bound, as b may be 0.
            sign = 1 if m["better"] == "lower" else -1
            allowed = m["bound"] * abs(b)
            row.update(base_median=b, head_median=h, base_iqr=q3 - q1, ratio=h / b if b else None)
            if q3 - q1 > allowed:
                beats_all = max(sign * x for x in head) < min(sign * x for x in base)
                row["verdict"] = "ok" if beats_all else "unresolved"
            elif sign * (h - b) > allowed:
                row["verdict"] = "regressed"
                failures.append(f'head: {workload}: {m["name"]} regressed: median {h:.4g} '
                                f'against base {b:.4g} {m["unit"]} ({m["better"]} is better, '
                                f'bound {m["bound"]:.0%})')
            else:
                row["verdict"] = "ok"
    return rows, failures


def markdown(base, rows, failures):
    def num(x):
        return "n/a" if x is None else f"{x:.4g}"

    lines = [f"## Perf gate: {base[:12]} (base) against HEAD", "",
             f"{K} pairs per workload, seed {SEED}, `--seconds {SECONDS}`; medians over runs.", "",
             "| workload | metric | base | base IQR/median | HEAD | HEAD/base | bound | verdict |",
             "| --- | --- | ---: | ---: | ---: | ---: | ---: | --- |"]
    for r in rows:
        b = r.get("base_median")
        spread = f'{r["base_iqr"] / abs(b):.1%}' if b else "n/a"
        lines.append(f'| {r["workload"]} | {r["name"]} ({r["unit"]}, {r["better"]} is better) '
                     f'| {num(b)} | {spread} | {num(r.get("head_median"))} | {num(r.get("ratio"))} '
                     f'| {r["bound"]:.0%} | {r["verdict"]} |')
    tail = ["**Gate failed:**", ""] + [f"- {f}" for f in failures] if failures else ["**Gate passed.**"]
    return "\n".join(lines + [""] + tail)


def run_once(command, root, workload, out):
    """One run on one side: its exit code and what its last line reports."""
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS),
            "--trace", "0", "--out", out]
    proc = subprocess.run(command + args, cwd=root, stdout=subprocess.PIPE, text=True)
    result = {"exit": proc.returncode}
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return result
    result.update(correct=line.get("correct"), attempted=line.get("attempted", 0),
                  failed=line.get("failed", 0),
                  metrics={k: v["value"] for k, v in line.get("metrics", {}).items()})
    return result


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: python3 tools/perf_gate.py BASE")
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                          sys.argv[1] + "^{commit}"], stdout=subprocess.PIPE, text=True)
    if rev.returncode != 0:
        sys.exit(f"perf_gate: {sys.argv[1]} does not name a commit")
    base = rev.stdout.strip()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    runs = {w["name"]: {side: [] for side in SIDES} for w in benchmark["workloads"]}
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        roots = {"base": os.path.join(tmp, "base"), "head": ROOT}
        os.mkdir(roots["base"])
        tar = subprocess.run(["git", "-C", ROOT, "archive", base], stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-f", "-", "-C", roots["base"]], input=tar.stdout, check=True)
        for k in range(K):
            for workload in runs:
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    t0 = time.monotonic()
                    r = run_once(benchmark["command"], roots[side], workload,
                                 os.path.join(tmp, side + "-out"))
                    runs[workload][side].append(r)
                    print(f"pair {k + 1}/{K} {workload} {side}: exit {r['exit']}, "
                          f"{time.monotonic() - t0:.1f} s", file=sys.stderr, flush=True)
    rows, failures = judge(benchmark, runs)
    with open(os.path.join(ROOT, "perf-gate.json"), "w") as f:
        json.dump({"base": base, "pairs": K, "seconds": SECONDS, "seed": SEED, "runs": runs,
                   "rows": rows, "failures": failures}, f, indent=1)
    print(markdown(base, rows, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
