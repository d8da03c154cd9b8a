"""The conicbundles benchmark.

    python3 bench/run.py --workload {predict,pencils,local}
        --seed N --seconds S --trace {0,1} [--record]

Run from the root of a checkout.  Every pass of a workload runs in a
fresh interpreter (`worker.py`), so module caches start cold, as they do
for a CLI user; problems run one at a time (a closed loop, one client,
no extra threads).  The run is sized so that the passes take about S
seconds on the reference machine (2 vCPUs); a faster library finishes
the same problems sooner.  bench/layers.json says which layer each
workload loads and which end-to-end metric each layer metric moves.

--trace 0 reports the end-to-end metrics: set-up time (median over
several fresh processes), the time to finish the problem set and peak
resident memory; per-problem latency p50/p90 is printed beside them.
Times are CPU time of the processes doing the work: the benchmark is
single-threaded and never waits, so on a quiet machine CPU time equals
wall time, while on a shared host wall time also counts the time the
host ran other guests.  Wall times are printed beside them.
--trace 1 runs one pass untraced and the same pass traced, and reports
per-layer calls, self time (wall), work counters and self-time shares,
plus the tracing overhead; after the untraced pass it runs one of each
CLI command as a subprocess for the cli.* metrics.

Human-readable lines come first; the last line of stdout is the JSON
result.  --record adds the exact outputs of every problem that passed
its independent checks to refs/<workload>.json; use it only on the
commit whose outputs are the reference.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("predict", "pencils", "local")
# CLI commands run once per traced run, for the cli.* layer metrics
CLI_PROBE = 9
PASSES = 5
SETUP_PROBES = 3
# no numerical library may start worker threads: one problem at a time
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")}
# problems per second of --seconds, measured on the reference machine
RATE = {"predict": 4.5, "pencils": 8.0, "local": 14.0}

LAYER_FUNCTIONS = {
    "exactnum": ("hilbert", "factorize", "squarefree_class"),
    "quadform": ("rho_table", "representation_table", "pell_fundamental"),
    "pencil": ("brauer_group", "torsor_system"),
    "localsolve": ("padic_soluble", "real_soluble",
                   "everywhere_locally_soluble"),
    "brauermanin": ("obstruction_scan", "pairing", "quotient_generators"),
    "counting": ("enumerate_N", "G", "beta_p", "beta_infinity"),
    "delpezzo": ("bundle_from_fgh", "dp2_minimality", "dp1_condition",
                 "dp1_minimality"),
}
COUNTERS = {
    "quadform.rho_table": ("distinct",),
    "quadform.representation_table": ("width",),
    "counting.enumerate_N": ("box_points",),
    "counting.G": ("residues",),
    "localsolve.padic_soluble": ("insoluble",),
    "localsolve.everywhere_locally_soluble": ("places",),
    "brauermanin.obstruction_scan": ("cells",),
}


def spawn(workload, seed, index, problems, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--index", str(index), "--problems", str(problems)] + list(extra)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", **ONE_THREAD)
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("worker failed with exit code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    import importlib.metadata as md
    versions = {}
    for name in ("numpy", "mpmath"):
        try:
            versions[name] = md.version(name)
        except md.PackageNotFoundError:
            versions[name] = "missing"
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions}


def report_failures(results):
    failures = [f for r in results for f in r["failures"]]
    for f in failures[:10]:
        sys.stderr.write("FAILED %s: %s\n" % (f["problem"],
                                              "; ".join(f["errors"])))


def end_to_end(args, n):
    probes = [spawn(args.workload, args.seed, PASSES + i, n, ["--setup-only"])
              for i in range(SETUP_PROBES)]
    results = []
    records = []
    for i in range(PASSES):
        extra = []
        if args.record:
            records.append(record_path(args, i))
            extra = ["--record", records[-1]]
        results.append(spawn(args.workload, args.seed, i, n, extra))
    setups = [r["setup_s"] for r in probes + results]
    wall_setups = [r["setup_wall_s"] for r in probes + results]
    lat = [x for r in results for x in r["latencies_ms"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (sum(r["cpu_s"] for r in results), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    notes = {
        "setup_s": "CPU, median of %d fresh-process set-ups; wall %.3f s"
                   % (len(setups), statistics.median(wall_setups)),
        "cpu_s": "CPU, %d passes of %d problems (%s); wall %.3f s"
                 % (PASSES, n, " ".join("%.3f" % r["cpu_s"] for r in results),
                    sum(r["wall_s"] for r in results)),
        "peak_rss_mb": "largest pass",
    }
    # per-problem latency is printed, not gated: its spread across seeds
    # exceeded every allowed bound on a shared host where cpu_s did not
    for q in (50, 90):
        print("%-48s %14.6g %-5s  (CPU, n = %d problems)" % (
            "problem_p%d_ms" % q, percentile(lat, q), "ms", len(lat)))
    if records:
        merge_records(records)
    return metrics, notes, results


def record_path(args, index):
    return os.path.join(ROOT, ".bench_out", "record-%s-%d-%s.json"
                        % (args.workload, args.seed, index))


def merge_records(paths):
    """Add recorded references to refs/<name>.json, one name at a time."""
    new = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for name, entries in json.load(handle).items():
                new.setdefault(name, {}).update(entries or {})
        os.remove(path)
    for name, entries in new.items():
        refs_path = os.path.join(HERE, "refs", name + ".json")
        with open(refs_path, encoding="utf-8") as handle:
            refs = json.load(handle)
        refs.update(entries)
        with open(refs_path, "w", encoding="utf-8") as handle:
            json.dump(refs, handle, indent=0, sort_keys=True,
                      separators=(",", ":"))
            handle.write("\n")


def per_layer(args, n):
    extra = ["--cli-probe", str(CLI_PROBE)]
    if args.record:
        extra += ["--record", record_path(args, "probe")]
    untraced = spawn(args.workload, args.seed, 0, n, extra)
    if args.record:
        merge_records([extra[-1]])
    trace_file = os.path.join(ROOT, ".bench_out", "trace-%s-%d.json"
                              % (args.workload, args.seed))
    traced = spawn(args.workload, args.seed, 0, n, ["--trace", trace_file])
    stats = traced["layers"]
    base = traced["wall_s"]
    metrics, notes = {}, {}
    for module, functions in LAYER_FUNCTIONS.items():
        module_self = 0.0
        for fn in functions:
            name = "%s.%s" % (module, fn)
            row = stats.get(name, {})
            metrics[name + ".calls"] = (row.get("calls", 0), "count")
            metrics[name + ".self_s"] = (row.get("self_s", 0.0), "s")
            for counter in COUNTERS.get(name, ()):
                metrics[name + "." + counter] = (row.get(counter, 0), "count")
            module_self += row.get("self_s", 0.0)
        metrics[module + ".self_share"] = (100 * module_self / base, "%")
        notes[module + ".self_share"] = "of traced wall_s %.3f s" % base
    metrics["cli.import_ms"] = (statistics.median(
        [untraced["import_ms"], traced["import_ms"]]), "ms")
    metrics["cli.compute_ms"] = (statistics.median(untraced["compute_ms"]),
                                 "ms")
    metrics["cli.startup_ms"] = (statistics.median(untraced["startup_ms"]),
                                 "ms")
    metrics["trace.base_wall_s"] = (base, "s")
    metrics["trace.overhead_pct"] = (
        100 * (traced["cpu_s"] / untraced["cpu_s"] - 1), "%")
    notes["trace.overhead_pct"] = "CPU: traced %.3f s vs untraced %.3f s" % (
        traced["cpu_s"], untraced["cpu_s"])
    notes["cli.compute_ms"] = "median of %d CLI commands" % CLI_PROBE
    return metrics, notes, [untraced, traced]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "conicbundles",
                                       "__init__.py")):
        sys.exit("no src/conicbundles in %s: run from a checkout of the "
                 "repository" % ROOT)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    n = max(1, round(RATE[args.workload] * args.seconds / PASSES))

    info = environment()
    print("conicbundles benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: " + ", ".join("%s=%s" % kv for kv in info.items()))
    if args.trace:
        metrics, notes, results = per_layer(args, n)
    else:
        metrics, notes, results = end_to_end(args, n)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    report_failures(results)
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-48s %14.6g %-5s%s" % (name, value, unit,
                                       "  (%s)" % note if note else ""))
    print("%-48s %14.6g %-5s  (%d of %d problems)" % (
        "failed_frac", failed / attempted, "1", failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
