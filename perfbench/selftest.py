"""Self-test of the benchmark on reduced inputs.

    python3 perfbench/selftest.py

For every workload it runs a small untraced and a small traced pass, twice
with the same seed, and checks that:

* every end-to-end and per-layer metric in BENCHMARK.json is printed with its
  declared unit, and no verdict failed;
* the traced runs together produce spans for every traced module, and
  ``combinatorics.*.calls`` read 0 on rbo-search;
* counts and CLI report bytes repeat exactly for the fixed seed;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  exits nonzero without printing a result.

Exits nonzero on the first group of problems it finds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
MODULES = ("scalar", "combinatorics", "lie", "deformation", "prelie", "graded",
           "homotopy", "catalog", "serialize", "cli")
# Per-layer values that are timings or rates, so they may differ between runs.
VARYING_UNITS = ("s", "ms", "1/s")
VARYING = ("trace_overhead", "lie.search_rbo.parallel_speedup")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(proc, lines, problems, what):
    if proc.returncode != 0 or not lines:
        problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return None
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        problems.append(f"{what}: correct={res['correct']} failed={res['failed']}")
    return res


def check_units(res, declared, problems, what):
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != declared:
        diff = sorted(set(got.items()) ^ set(declared.items()))
        problems.append(f"{what}: metrics or units differ from BENCHMARK.json: {diff[:6]}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{what}: {name} is not a number")


def digest_line(lines):
    return [line for line in lines if line.startswith("# report_digest")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact = [n for n, u in layer.items() if u not in VARYING_UNITS and n not in VARYING]
    problems: list[str] = []
    traced = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace in (0, 1):
            for attempt in (1, 2):
                what = f"{wl} trace={trace} run {attempt}"
                proc, lines = run(wl, trace)
                res = result_of(proc, lines, problems, what)
                if res is None:
                    continue
                check_units(res, layer if trace else e2e, problems, what)
                runs[(trace, attempt)] = (res, lines)
                print(f"ok: {what}", flush=True)
        if (1, 1) in runs and (1, 2) in runs:
            a, b = (runs[(1, k)][0]["metrics"] for k in (1, 2))
            moved = [n for n in exact if a[n]["value"] != b[n]["value"]]
            if moved:
                problems.append(f"{wl}: counts differ between runs with one seed: {moved}")
            traced[wl] = a
        if (0, 1) in runs and (0, 2) in runs:
            d1, d2 = (digest_line(runs[(0, k)][1]) for k in (1, 2))
            if d1 != d2:
                problems.append(f"{wl}: report bytes differ between runs with one seed")
            if wl == "cli-pipeline" and not d1:
                problems.append("cli-pipeline: no report digest printed")
    if traced:
        for module in MODULES:
            seen = any(v["value"] for m in traced.values() for n, v in m.items()
                       if n.startswith(module + ".") and n.endswith((".calls", ".self_s",
                                                                     "fraction_ops", "_ms")))
            if not seen:
                problems.append(f"no traced workload produced spans for {module}")
        rbo = traced.get("rbo-search", {})
        busy = [n for n, v in rbo.items() if n.startswith("combinatorics.") and
                n.endswith(".calls") and v["value"]]
        if busy:
            problems.append(f"rbo-search calls combinatorics: {busy}")
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = run(spec["workloads"][0]["name"], 0, cwd=bare)
        printed = any(line.startswith("{") for line in lines)
        if proc.returncode == 0 or printed:
            problems.append(f"without the source: exit {proc.returncode}, result printed: {printed}")
        else:
            print("ok: exits nonzero without the library source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
