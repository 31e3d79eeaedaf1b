"""Benchmark of the `homflypt` CLI on seeded corpora of links.

Usage, from the repository root:

    python3 perfbench/run.py --workload homfly_braid --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One operation is one in-process CLI call, `homflypt.cli.main(argv, out=buf)`,
on one link, with the argv a user would type.  Load is a closed loop with
one client in one thread.  A run measures whole corpus blocks until
`--seconds` have passed and checks every output; an exception, a nonzero
exit or a wrong output makes that operation failed and the run goes on.

`--trace 0` prints the end-to-end metrics.  `--trace 1` replays a fixed
corpus prefix twice per operation, once through the CLI and once through
the traced layer-by-layer replay in `replay.py`, and prints the per-layer
metrics.  The last line of standard output is one JSON object; a human
summary goes to standard error, per-operation records (with each link's
strands, crossings and components) and the spans go under `.perfbench_run/`.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 3
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "correct_frac": "ratio",
}
_BENCH_MODULES = ("corpus", "checks", "replay")


def _fresh_import(name: str):
    """Import `name` after dropping the package and the benchmark modules."""
    for mod in list(sys.modules):
        if mod == "homflypt" or mod.startswith("homflypt.") or mod in _BENCH_MODULES:
            del sys.modules[mod]
    return importlib.import_module(name)


def setup(workload: str, seed: int, repeats: int = SETUP_REPEATS):
    """Import the package, generate the corpus and write its files; timed
    `repeats` times.  Returns (seconds of each repeat, corpus, cli module)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cli = _fresh_import("homflypt.cli")
        if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
            raise ImportError(f"homflypt was imported from {cli.__file__}, not from this checkout")
        corpus_mod = importlib.import_module("corpus")
        corpus = corpus_mod.Corpus(workload, seed, ROOT)
        for b in range(corpus_mod.SETUP_BLOCKS[workload]):
            corpus.block(b)
        times.append(time.perf_counter() - t0)
    return times, corpus, cli


def call(main, op) -> tuple[int | None, str, float, str | None]:
    """One timed CLI call: (exit code, stdout, seconds, crash or None)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        code, crash = main(list(op.argv), out=buf), None
    except Exception as exc:  # a crash is one failed operation; the run goes on
        code, crash = None, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), time.perf_counter() - t0, crash


def record(op, seconds: float, error: str | None) -> dict:
    return {
        "op": op.op_id,
        "strands": op.strands,
        "crossings": op.crossings,
        "components": op.components,
        "target": op.target,
        "latency_ms": 1e3 * seconds,
        "error": error,
    }


def run_timed(corpus, checker, main, seconds: float, between_blocks) -> list[dict]:
    records = []
    start = time.perf_counter()
    b = 0
    while b == 0 or time.perf_counter() - start < seconds:
        for op in corpus.block(b):
            code, out, dt, crash = call(main, op)
            records.append(record(op, dt, crash or checker.check(op, code, out)))
        b += 1
        between_blocks()
    return records


def end_to_end(records: list[dict], setup_s: float) -> dict:
    lat = sorted(r["latency_ms"] for r in records)
    ok = sum(r["error"] is None for r in records)
    values = {
        "setup_s": setup_s,
        "ops_per_s": ok / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_frac": ok / len(records),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_traced(corpus, checker, main, workload: str):
    """Untraced CLI call, then traced replay, for each op of the trace prefix."""
    replay = importlib.import_module("replay")
    corpus_mod = importlib.import_module("corpus")
    tracer = replay.Tracer()
    fn = replay.replay_verify if workload == "verify_targets" else replay.replay_homfly
    records = []
    nodes = 0
    products = [0, 0.0, 0]
    untraced_s = traced_s = 0.0
    for b in range(corpus_mod.TRACE_BLOCKS[workload]):
        for op in corpus.block(b):
            code, out, dt, crash = call(main, op)
            error = crash or checker.check(op, code, out)
            untraced_s += dt
            tracer.op_id = op.op_id
            first = len(tracer.spans)
            try:
                traced_out, op_nodes, pairs = fn(tracer, op)
            except Exception as exc:  # a crash is one failed operation; the run goes on
                error = error or f"replay {type(exc).__name__}: {exc}"
            else:
                traced_s += (tracer.spans[first][5] - tracer.spans[first][4]) / 1e9
                nodes += op_nodes
                if error is None and traced_out != out:
                    error = "traced replay output differs from the CLI output"
                for i, v in enumerate(replay.time_products(pairs)):
                    products[i] += v
            records.append(record(op, dt, error))
    metrics = replay.layer_metrics(tracer, nodes, products, traced_s, untraced_s)
    return records, metrics, tracer


def _write(name: str, obj) -> None:
    out_dir = os.path.join(ROOT, importlib.import_module("corpus").WORK_DIR)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def summarize(workload: str, records: list[dict], metrics: dict) -> None:
    failed = sum(r["error"] is not None for r in records)
    err = sys.stderr
    print(f"{workload}: {len(records)} operations, failed_frac {failed / len(records):.4f}", file=err)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6f} {m['unit']}", file=err)
    modules: dict[str, float] = {}
    for name, m in metrics.items():
        if m["unit"] == "s" and "." in name:
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + m["value"]
    if modules:
        ranked = sorted(modules.items(), key=lambda kv: -kv[1])
        print("  self time by module: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked), file=err)
    for r in records:
        if r["error"] is not None:
            print(f"  FAILED {r['op']}: {r['error']}", file=err)


def run_one(args) -> int:
    try:
        setup_times, corpus, cli = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    checker = importlib.import_module("checks").Checker(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        records, metrics, tracer = run_traced(corpus, checker, cli.main, args.workload)
        _write(f"spans-{tag}.json", tracer.to_json())
    else:
        # A shared machine has fast and slow spells of several seconds.  One
        # more set-up after each block, outside the timed calls, spreads the
        # repeats over the run, so their median follows the run's mean speed
        # as the operation metrics do, not the speed of one moment.
        def setup_again():
            setup_times.extend(setup(args.workload, args.seed, repeats=1)[0])

        records = run_timed(corpus, checker, cli.main, args.seconds, setup_again)
        metrics = end_to_end(records, statistics.median(setup_times))
    _write(f"ops-{tag}.json", records)
    summarize(args.workload, records, metrics)
    failed = sum(r["error"] is not None for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in a fresh process, so its peak RSS is its own; each
    prints its summary on standard error and its result line on standard output."""
    for workload in workloads:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(argv, check=False).returncode
        if code != 0:
            return code
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        workloads = importlib.import_module("corpus").WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    return run_all(args, workloads) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
