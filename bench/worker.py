"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --index I --problems N
        --spawned T [--setup-only] [--trace FILE] [--cli-probe K]
        [--record FILE]

Imports `conicbundles` from the checkout's `src/` (and refuses to run
against any other copy), generates the pass's problems, then runs them
one at a time and checks every output.  `--spawned` is the monotonic
clock reading taken just before this process was started, so the
reported set-up wall time includes interpreter start.  `--cli-probe K`
afterwards runs K CLI commands as subprocesses, outside the timed pass,
for the `cli.*` layer metrics.  Prints one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_library():
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import conicbundles
    import_ms = (time.perf_counter() - start) * 1000
    found = os.path.realpath(conicbundles.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit("conicbundles was imported from %s, not from %s"
                 % (found, SRC))
    return conicbundles, import_ms


def load_refs(workload):
    with open(os.path.join(HERE, "refs", workload + ".json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def run_problems(workload, run, cb, problems, refs, recorded, latency):
    """Run and check each problem; returns latencies (ms) and failures."""
    latencies, failures = [], []
    for prob in problems:
        pid = workloads.problem_id(workload, prob)
        t0 = time.process_time()
        try:
            parts, soluble, errors = run(cb, prob)
        except Exception as exc:  # a failed problem is counted, not fatal
            parts, soluble, errors = {}, [], ["%s: %s" % (
                type(exc).__name__, exc)]
        latencies.append(latency(t0))
        if not errors:
            errors = workloads.compare(refs.get(pid), parts, soluble)
        if errors:
            failures.append({"problem": pid, "errors": errors[:3]})
        elif recorded is not None:
            recorded[pid] = workloads.reference(parts, soluble)
    return latencies, failures


def cli_probe(cb, seed, count, recorded):
    """Run `count` CLI commands, checked against the CLI references."""
    workdir = os.path.join(ROOT, ".bench_out", "cli-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = workloads.CliRunner(ROOT, workdir)
        problems = workloads.gen_cli(workloads.rng_for("cli", seed, 0), count)
        _, failures = run_problems("cli", runner, cb, problems,
                                   load_refs("cli"), recorded,
                                   lambda t0: 0.0)
    finally:
        shutil.rmtree(workdir)
    return runner, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--problems", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--cli-probe", type=int, default=0)
    parser.add_argument("--record")
    args = parser.parse_args()

    cb, import_ms = import_library()
    rng = workloads.rng_for(args.workload, args.seed, args.index)
    problems = workloads.GENERATORS[args.workload](rng, args.problems)
    refs = load_refs(args.workload)
    ready = time.monotonic()
    # CPU time since this process started: interpreter start, import and
    # generation, without the time a shared host held the CPU elsewhere
    result = {"setup_s": time.process_time(),
              "setup_wall_s": ready - args.spawned, "import_ms": import_ms}
    if args.setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    recorded = {} if args.record else None
    started, cpu_started = time.perf_counter(), time.process_time()
    latencies, failures = run_problems(
        args.workload, workloads.RUNNERS[args.workload], cb, problems, refs,
        recorded, lambda t0: (time.process_time() - t0) * 1000)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.stats()
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.span_records()}, handle)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(problems)
    cli_recorded = {} if args.record else None
    if args.cli_probe:
        runner, cli_failures = cli_probe(cb, args.seed, args.cli_probe,
                                         cli_recorded)
        result.update(compute_ms=runner.compute_ms,
                      startup_ms=runner.startup_ms)
        attempted += args.cli_probe
        failures += cli_failures
    result.update(cpu_s=cpu, wall_s=wall, latencies_ms=latencies,
                  attempted=attempted, failed=len(failures),
                  failures=failures[:10], peak_rss_mb=peak)
    if args.record:
        # references file name -> new entries
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump({args.workload: recorded, "cli": cli_recorded}, handle)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
