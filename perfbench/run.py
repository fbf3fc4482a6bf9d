"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  With ``--trace 0`` the run sets up, then repeats
passes of the workload for the given seconds, with four more set-ups spread
through them (``setup_s`` is their mean).  Each pass makes the same calls,
and each call's time is its mean over the passes, scaled by the machine's
speed during the run (see ``Recorder``): ``wall_s`` is their sum, and the
verdict percentiles are taken over the calls.  With ``--trace 1`` it sets up
once, times untraced passes for half the seconds, then installs span
wrappers for one traced pass and reports the per-layer metrics, including
``trace_overhead``.  The last line of standard output is one JSON object;
the exit status is nonzero when any verdict failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
# A fixed count, so every run does the same work and reaches the same
# memory high-water mark.
SETUP_REPEATS = 5
# Reference blocks timed just before and just after each set-up.
SETUP_REFERENCE_BLOCKS = 20

sys.path.insert(0, str(HERE))

from tracer import SPANS, TO_OBJ, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder, cli_floor, peak_rss_mb  # noqa: E402


def units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as declared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_library():
    """Import the package afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "rotabaxter" or m.startswith("rotabaxter.")]:
        del sys.modules[name]
    pkg = importlib.import_module("rotabaxter")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported {pkg.__file__}, not the checkout's source")
    for sub in ("catalog", "embed", "serialize"):
        importlib.import_module(f"rotabaxter.{sub}")
    return pkg


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_workload(wl, lib, seed, small, workdir):
    if wl.name == "cli-pipeline":
        return wl.setup(lib, seed, small, workdir=workdir)
    return wl.setup(lib, seed, small)


@contextlib.contextmanager
def kept_library():
    """Put the library modules of ``sys.modules`` back as they were on exit,
    so that names a function imports when called resolve to the modules the
    running passes use."""
    kept = {k: m for k, m in sys.modules.items() if k == "rotabaxter" or k.startswith("rotabaxter.")}
    try:
        yield
    finally:
        for name in [k for k in sys.modules if k == "rotabaxter" or k.startswith("rotabaxter.")]:
            del sys.modules[name]
        sys.modules.update(kept)


def run_passes(wl, lib, st, rec, seconds, small):
    """Repeat passes until ``seconds`` have elapsed; returns the pass count."""
    begin = time.perf_counter()
    while True:
        rec.start_pass()
        wl.run_pass(lib, st, rec)
        if small or time.perf_counter() - begin >= seconds:
            return len(rec.pass_times)


def record_checks(rec, checks):
    for label, ok in checks:
        rec.check(label, ok, work=0)


def timed_run(wl, seed, seconds, small, workdir):
    """Set up, then passes, with further set-ups spread through the run, so
    that they see the machine's fast and slow moments as the passes do."""
    rec = Recorder()
    setups = []

    def set_up(i):
        rec.sample_reference(SETUP_REFERENCE_BLOCKS)
        start = time.perf_counter()
        lib = load_library()
        st = setup_workload(wl, lib, seed, small, workdir / f"setup{i}")
        setups.append(time.perf_counter() - start)
        rec.sample_reference(SETUP_REFERENCE_BLOCKS)
        return lib, st

    lib, st = set_up(0)
    record_checks(rec, wl.verify(lib, st))
    repeats = 1 if small else SETUP_REPEATS
    for i in range(1, repeats):
        run_passes(wl, lib, st, rec, seconds / (repeats - 1), small)
        with kept_library():
            set_up(i)
    if small:
        run_passes(wl, lib, st, rec, seconds, small)
    passes = len(rec.pass_times)
    scale = rec.scale
    times = rec.times()
    wall = sum(times)
    lat = [t for t, v in zip(times, rec.is_verdict) if v]
    metrics = {
        "setup_s": scale * statistics.fmean(setups),
        "wall_s": wall,
        "verdicts_per_s": rec.attempted / passes / wall,
        "verdict_p50_ms": 1e3 * percentile(lat, 0.5),
        "verdict_p90_ms": 1e3 * percentile(lat, 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"passes": passes, "setups": len(setups), "verdict_samples": len(lat),
            "samples_beyond_p90": sum(1 for x in lat if x > percentile(lat, 0.9)),
            "scale": scale, "reference_blocks": len(rec.reference),
            "raw_setup_s": statistics.fmean(setups),
            "raw_wall_s": statistics.fmean(rec.pass_times)}
    if "bytes" in st:
        info["report_digest"] = hashlib.sha256(
            b"".join(st["bytes"][k] for k in sorted(st["bytes"]))).hexdigest()
    return metrics, units("end_to_end"), [rec], info


def traced_run(wl, seed, seconds, small, workdir):
    lib = load_library()
    tracer = Tracer(lib)
    if wl.trace_setup:
        tracer.install()
    try:
        st = setup_workload(wl, lib, seed, small, workdir)
    finally:
        tracer.suspend()
    rec = Recorder()
    record_checks(rec, wl.verify(lib, st))
    passes = run_passes(wl, lib, st, rec, seconds / 2, small)
    extra = untraced_layer_metrics(wl, lib, st, rec, passes, small)
    extra.update(cli_floor(3 if small else 5))
    # Reference blocks only around the traced pass: the tracer counts
    # Fraction arithmetic wherever it runs.
    trec = Recorder(interleave=False)
    trec.sample_reference(SETUP_REFERENCE_BLOCKS)
    trec.start_pass()
    tracer.install()
    try:
        wl.run_pass(lib, st, trec)
    finally:
        tracer.suspend()
    trec.sample_reference(SETUP_REFERENCE_BLOCKS)
    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}.spans")
    extra["trace_overhead"] = (trec.scale * trec.pass_times[0]
                               / (rec.scale * statistics.fmean(rec.pass_times)))
    extra.update(st["counts"])
    metrics = layer_metrics(summary, extra)
    declared = units("per_layer")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise SystemExit(f"per-layer metrics not produced: {missing}")
    info = {"untraced_passes": passes, "spans": len(tracer.span_name)}
    return {k: metrics[k] for k in declared}, declared, [rec, trec], info


def untraced_layer_metrics(wl, lib, st, rec, passes, small) -> dict:
    """Search rates, the parallel speed-up and the in-process CLI latency,
    measured with tracing off."""
    out = {"lie.search_rbo.candidates_per_s": 0.0, "lie.search_rbo.parallel_speedup": 0.0,
           "homotopy.search_homotopy_operators.candidates_per_s": 0.0,
           "cli.in_process_ms": 0.0}
    if wl.name == "rbo-search":
        out["lie.search_rbo.candidates_per_s"] = (
            passes * st["counts"]["computed.candidates"] / rec.notes["search_s"])
        record_checks(rec, wl.full_catalogs(lib, st))
        if not small:
            out["lie.search_rbo.parallel_speedup"] = parallel_speedup(lib, st, rec)
    if wl.name == "cli-pipeline":
        out["cli.in_process_ms"] = 1e3 * statistics.median(rec.verdict_times())
    if wl.name == "homotopy-mc" and not small:
        alg, rep = st["two"]
        start = time.perf_counter()
        lib.homotopy.search_homotopy_operators(alg, rep, st["grid"], max_weight=2)
        out["homotopy.search_homotopy_operators.candidates_per_s"] = (
            st["counts"]["computed.candidates"] / (time.perf_counter() - start))
    return out


def parallel_speedup(lib, st, rec) -> float:
    """search_rbo over the full grid on heisenberg with one worker per usable
    CPU, against the sequential search; the two results must be identical."""
    alg = dict(st["algebras"])["heisenberg"]
    workers = len(os.sched_getaffinity(0))
    start = time.perf_counter()
    seq = lib.lie.search_rbo(alg, st["grid"])
    sequential_s = time.perf_counter() - start
    start = time.perf_counter()
    par = lib.lie.search_rbo(alg, st["grid"], processes=workers)
    parallel_s = time.perf_counter() - start
    same = [op.matrix for op in par] == [op.matrix for op in seq]
    rec.check(f"parallel search_rbo ({workers} workers) differs from sequential", same, work=0)
    return sequential_s / parallel_s


def layer_metrics(summary, extra) -> dict:
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    out = {}
    for name, _module, _path in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out[f"{TO_OBJ}.self_s"] = self_s.get(TO_OBJ, 0.0)
    out["scalar.fraction_ops"] = counts.get("scalar.fraction_ops", 0)
    out["homotopy.GradedSymMap.eval.calls"] = counts.get("homotopy.GradedSymMap.eval", 0)
    out["combinatorics.unshuffles.distinct_shapes"] = counts.get(
        "combinatorics.unshuffles.distinct_shapes", 0)
    words = counts.get("deformation.courant_bracket.words", 0)
    out["deformation.courant_bracket.words"] = words
    out["deformation.courant_bracket.unshuffle_terms"] = counts.get(
        "deformation.courant_bracket.unshuffle_terms", 0)
    out["deformation.courant_bracket.nonzero_ratio"] = (
        counts.get("deformation.courant_bracket.nonzero_words", 0) / words if words else 0.0)
    for search in ("lie.search_rbo", "homotopy.search_homotopy_operators"):
        cands = counts.get(f"{search}.candidates", 0)
        out[f"{search}.candidates"] = cands
        out[f"{search}.hit_ratio"] = counts.get(f"{search}.hits", 0) / cands if cands else 0.0
    checks = calls.get("homotopy.is_homotopy_oop", 0)
    out["homotopy.is_homotopy_oop.words_per_check"] = (
        counts.get("homotopy.is_homotopy_oop.words", 0) / checks if checks else 0.0)
    out.update(extra)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="one set-up and one pass on reduced inputs (self-test only)")
    args = parser.parse_args(argv)
    if not (SRC / "rotabaxter" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'rotabaxter'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    workdir = TMP / f"{wl.name}-{os.getpid()}"
    run = traced_run if args.trace else timed_run
    try:
        metrics, unit_of, recs, info = run(wl, args.seed, args.seconds, args.small, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    attempted = sum(r.attempted for r in recs)
    failures = [f for r in recs for f in r.failures]
    for name, value in metrics.items():
        print(f"{name} = {value} {unit_of[name]}")
    for key, value in info.items():
        print(f"# {key} = {value}")
    print(f"# failed_ratio = {len(failures) / attempted} ({len(failures)} of {attempted})")
    for label in failures[:20]:
        print(f"FAILED: {label}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
