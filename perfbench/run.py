"""Benchmark of quantile-alloc: seeded solve requests, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload utilitarian --seed 1 --seconds 15 --trace 0

One operation is one solve request taken through the steps of ``qalloc
solve``, in memory: ``cli.parse_instance`` on the instance document, then
``cli.dispatch_solve``, then ``cli.to_json(cli.report_to_doc(...))``; in
``certify`` it also computes ``oracle.opt_welfare``.  One caller runs the
operations back to back (a closed loop) in whole rounds until the operations
have taken ``--seconds``; then every output is checked apart from the
program (``checker.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics, end-to-end
ones with ``--trace 0`` and per-layer ones with ``--trace 1``.

``--replay ROUND.SLOT`` runs and checks a single operation of the run and
prints what it found; every failed check prints the command that does so.
``--setup-only`` stops before the first operation; ``setup_s`` is the
median wall time of five such processes.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import speed
import workloads

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "quantile_alloc"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Layers whose self time each workload was chosen to load; their share of
#: the traced operation time is reported as ``trace.split_pct``.
CHOSEN_LAYERS = {
    "utilitarian": ("matching.weighted_bipartite", "chores_solvers.setcover"),
    "egalitarian": (
        "matching.graph_build",
        "matching.cardinality",
        "core.threshold_binary",
        "core.instance_validate",
    ),
    "certify": ("oracle", "core.bundle_value"),
}

#: Per-layer metrics read straight off the spans: "<layer>.self_s" is the
#: layer's self seconds per operation, "<layer>.calls" its spans per operation.
LAYER_METRICS = (
    "cli.parse_instance.self_s",
    "core.instance_validate.self_s",
    "core.threshold_binary.calls",
    "core.threshold_binary.self_s",
    "core.bundle_value.calls",
    "core.bundle_value.self_s",
    "core.welfare.self_s",
    "matching.graph_build.self_s",
    "matching.cardinality.calls",
    "matching.cardinality.self_s",
    "matching.weighted_bipartite.calls",
    "matching.weighted_bipartite.self_s",
    "matching.weighted_general.calls",
    "matching.weighted_general.self_s",
    "esw_solvers.decider.calls",
    "esw_solvers.decider.self_s",
    "esw_solvers.search.self_s",
    "chores_solvers.decider.self_s",
    "chores_solvers.search.self_s",
    "chores_solvers.setcover.self_s",
    "usw_solvers.self_s",
    "oracle.self_s",
    "construct.self_s",
    "op.self_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", default=None, metavar="ROUND.SLOT")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the first operation (timed for setup_s)")
    return parser.parse_args(argv)


def import_package():
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    from quantile_alloc import cli, oracle

    return cli, oracle


#: Set-ups timed for setup_s; the median is reported.
SETUP_REPEATS = 5

#: Interleaved passes over round 0 that trace.overhead_pct is taken from.
OVERHEAD_PASSES = 2

#: Completed operations a run needs at least: more than ten lie beyond
#: op_p90_ms, and egalitarian, whose operations are slowest, still draws six
#: rounds of instances per run.
MIN_SAMPLES = 120


def setup_s(args) -> float:
    """Median wall time of a fresh process that does this run's set-up and
    stops before the first operation: it starts the interpreter, imports the
    package and builds round 0's instance documents (``--setup-only``).
    Each time is scaled to the reference speed timed right after it."""
    command = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(command, check=True)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * speed.NOMINAL_S / speed.reference_s())
    return statistics.median(times)


def make_executor(cli, oracle):
    def execute(op):
        """One operation; returns the solver's JSON and, in certify, the
        oracle's optimum with its witness owners."""
        instance = cli.parse_instance(op.doc)
        slot = op.slot
        report = cli.dispatch_solve(instance, slot.objective, slot.balanced, slot.algorithm)
        output = cli.to_json(cli.report_to_doc(report))
        if not op.with_oracle:
            return output, None
        value, witness = oracle.opt_welfare(instance, slot.objective, slot.balanced)
        return output, (value, list(witness.owner))

    return execute


def check_op(op, result) -> list[str]:
    output, opt = result
    slot = op.slot
    return checker.check(slot.family, op.doc, slot.objective, slot.balanced, output, opt)


def describe_failure(exc: BaseException) -> str:
    """Exception type and the outermost function of the file it was raised in
    (for a deep recursion, the function that started it)."""
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return type(exc).__name__
    entry = next(f for f in frames if f.filename == frames[-1].filename)
    return f"{type(exc).__name__} in {entry.name} ({Path(entry.filename).name})"


def report_problem(op, what: str) -> None:
    seed = "none (input does not depend on the seed)" if op.instance_seed is None else op.instance_seed
    print(
        f"CHECK FAILED {op.label}: {what}\n  instance seed {seed}\n  replay: {op.replay_command()}",
        file=sys.stderr,
    )


def replay(args, execute) -> int:
    round_, index = (int(part) for part in args.replay.split("."))
    op = workloads.build_op(args.workload, args.seed, round_, index)
    print(f"{op.label}, instance seed {op.instance_seed}")
    start = time.perf_counter()
    try:
        result = execute(op)
    except Exception as exc:  # the operation itself failed
        print(f"operation failed after {time.perf_counter() - start:.3f} s: {describe_failure(exc)}")
        return 1
    print(f"operation took {time.perf_counter() - start:.3f} s")
    problems = check_op(op, result)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("checks passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def run_rounds(args, execute, tracer=None):
    """Whole rounds until the operations have taken ``args.seconds`` and at
    least ``MIN_SAMPLES`` of them have completed, or twice as many have been
    attempted (a program whose operations mostly fail still ends its run).

    After every operation the speed reference is timed; each round's times
    are also kept scaled to the reference speed (``speed.py``)."""
    stats = {
        "attempted": 0, "failed": 0, "op_time": 0.0, "latencies": [],
        "scaled_time": 0.0, "scaled_latencies": [], "factors": [],
        "rounds": 0, "problems": 0, "failures": {},
    }
    while stats["op_time"] < args.seconds or (
        len(stats["latencies"]) < MIN_SAMPLES and stats["attempted"] < 2 * MIN_SAMPLES
    ):
        ops = workloads.build_round(args.workload, args.seed, stats["rounds"])
        done = []
        round_time = 0.0
        round_latencies = []
        references = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = execute(op)
                else:
                    result = tracer.run_op(stats["attempted"], execute, op)
                error = None
            except Exception as exc:  # counted as a failed operation
                error = exc
            elapsed = time.perf_counter() - t0
            references.append(speed.reference_s())
            stats["attempted"] += 1
            round_time += elapsed
            if error is None:
                round_latencies.append(elapsed)
                done.append((op, result))
                continue
            stats["failed"] += 1
            key = f"{op.slot.family} {describe_failure(error)}"
            stats["failures"][key] = stats["failures"].get(key, 0) + 1
            if stats["failures"][key] == 1:
                print(f"operation failed: {op.label}: {key}\n  replay: {op.replay_command()}",
                      file=sys.stderr)
        factor = speed.NOMINAL_S / statistics.median(references)
        stats["op_time"] += round_time
        stats["latencies"] += round_latencies
        stats["scaled_time"] += factor * round_time
        stats["scaled_latencies"] += [factor * t for t in round_latencies]
        stats["factors"].append(factor)
        stats["rounds"] += 1
        for op, result in done:
            for problem in check_op(op, result):
                stats["problems"] += 1
                report_problem(op, problem)
    return stats


def timed(call, op) -> float:
    """Seconds ``call(op)`` takes; a failing operation is timed too."""
    t0 = time.perf_counter()
    try:
        call(op)
    except Exception:  # the same operations fail traced and untraced
        pass
    return time.perf_counter() - t0


def tracing_overhead_pct(args, execute) -> float:
    """Tracing overhead on round 0, in percent of its untraced time.

    After one untraced pass to warm up, each operation of the round runs
    untraced and then traced, back to back, so that a drift of the machine's
    speed falls on both alike; the totals of ``OVERHEAD_PASSES`` such passes
    are compared.  The spans of these passes are not kept."""
    import spans

    ops = workloads.build_round(args.workload, args.seed, 0)
    for op in ops:
        timed(execute, op)
    probe = spans.Tracer()
    plain = traced = 0.0
    for _ in range(OVERHEAD_PASSES):
        for op in ops:
            plain += timed(execute, op)
            probe.install()
            traced += timed(lambda traced_op: probe.run_op(0, execute, traced_op), op)
            probe.uninstall()
    return 100 * (traced / plain - 1)


def timing_metrics(latencies: list[float], op_time: float) -> dict:
    return {
        "ops_per_s": {"value": len(latencies) / op_time, "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * statistics.quantiles(latencies, n=10)[8], "unit": "ms"},
    }


def end_to_end_metrics(stats, setup: float) -> dict:
    """Times at the reference speed; memory as measured."""
    return {
        "setup_s": {"value": setup, "unit": "s"},
        **timing_metrics(stats["scaled_latencies"], stats["scaled_time"]),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer_metrics(args, stats, tracer, overhead_pct: float) -> dict:
    import spans

    totals = tracer.layer_totals()
    ops = stats["attempted"]
    metrics = {}
    for metric in LAYER_METRICS:
        layer, stat = metric.rsplit(".", 1)
        count, _, self_ns = totals.get(layer, (0, 0, 0))
        if stat == "calls":
            metrics[metric] = {"value": count / ops, "unit": "count/op"}
        else:
            metrics[metric] = {"value": self_ns / 1e9 / ops, "unit": "s/op"}
    _, oracle_ns, _ = totals.get("oracle", (0, 0, 0))
    allocations = tracer.counters["oracle.allocations"]
    metrics["oracle.allocations"] = {"value": allocations / ops, "unit": "count/op"}
    metrics["oracle.allocs_per_s"] = {
        "value": allocations / (oracle_ns / 1e9) if oracle_ns else 0.0, "unit": "1/s"}
    metrics["matching.graph.edges"] = {
        "value": tracer.counters["matching.graph.edges"] / ops, "unit": "count/op"}
    _, op_ns, _ = totals[spans.ROOT]
    chosen_ns = sum(totals.get(layer, (0, 0, 0))[2] for layer in CHOSEN_LAYERS[args.workload])
    metrics["trace.op_s"] = {"value": op_ns / 1e9 / ops, "unit": "s/op"}
    metrics["trace.split_pct"] = {"value": 100 * chosen_ns / op_ns, "unit": "%"}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, oracle = import_package()
    execute = make_executor(cli, oracle)
    if args.replay is not None:
        return replay(args, execute)
    if args.setup_only:
        workloads.build_round(args.workload, args.seed, 0)
        return 0

    tracer = None
    setup = overhead_pct = 0.0
    if not args.trace:
        setup = setup_s(args)
    else:
        import spans

        overhead_pct = tracing_overhead_pct(args, execute)
        tracer = spans.Tracer()
        tracer.install()
        for target in tracer.missing:
            print(f"warning: trace target {target} not found", file=sys.stderr)

    stats = run_rounds(args, execute, tracer)
    for key, count in stats["failures"].items():
        print(f"failed operations: {count} x {key}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end_metrics(stats, setup)
    else:
        metrics = per_layer_metrics(args, stats, tracer, overhead_pct)
        tracer.write(OUT_DIR / f"spans-{args.workload}")
        chosen = " + ".join(CHOSEN_LAYERS[args.workload])
        print(f"split: {chosen} hold {metrics['trace.split_pct']['value']:.1f}% "
              f"of traced operation time")

    print(f"workload {args.workload} seed {args.seed}: {stats['rounds']} rounds, "
          f"{stats['attempted']} attempted, {stats['failed']} failed, "
          f"{len(stats['latencies'])} latency samples, {stats['problems']} check problems")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.6f} {metric['unit']}")
    print(f"at the measured speed (reference factor {min(stats['factors']):.3f}"
          f"-{max(stats['factors']):.3f}):")
    for name, metric in timing_metrics(stats["latencies"], stats["op_time"]).items():
        print(f"  {name:40s} {metric['value']:14.6f} {metric['unit']}")
    result = {
        "correct": stats["problems"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
