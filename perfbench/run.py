"""calderon-lab benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {lattice,smoothness,cli_sweep} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  With --trace 0 it measures the
end-to-end metrics for about S seconds of ops; with --trace 1 it runs
the traced pass and reports the per-layer metrics.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`failed` counts ops whose outputs failed the benchmark's checks
(non-deterministic report, malformed files); the program's own
failures on known-defective configs are reported as `fail_frac`.
Notes, workload choices and predictions are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common        # noqa: E402
import record        # noqa: E402
import tracer as tracing   # noqa: E402

WORKLOADS = ("lattice", "smoothness", "cli_sweep")
END_TO_END = {
    "items_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SPAN_FIELDS = ["id", "parent", "name", "start", "end", "op", "thread", "error",
               "counters"]
# setup probes per run, spread over the timed ops so that they see the
# same stretch of machine time; the median is reported
SETUP_PROBES = {"lattice": 8, "smoothness": 8, "cli_sweep": 16}
LAYER_PROBES = 3


def _child(args: list[str]) -> tuple[float, dict]:
    """Spawn perfbench/child.py; (spawn time, its JSON line)."""
    cmd = [sys.executable, str(common.BENCH_DIR / "child.py")] + args
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=common.child_env(),
                            cwd=common.ROOT, text=True)
    try:
        line = proc.stdout.readline()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line:
        raise common.BenchError(f"child {' '.join(args)} exited with {code}")
    return spawned, json.loads(line)


def setup_time(workload: str, seed: int) -> float:
    """Time from spawning a process until it has imported what the
    workload imports and generated its inputs."""
    spawned, doc = _child(["setup", workload, str(seed)])
    return doc["ready"] - spawned


def layer_probe() -> dict:
    starts, imports, lazies = [], [], []
    for _ in range(LAYER_PROBES):
        spawned, doc = _child(["layers"])
        starts.append(doc["started"] - spawned)
        imports.append(doc["import_s"])
        lazies.append(doc["lazy_import_s"])
    return {"setup.process_start_s": common.median(starts),
            "setup.import_s": common.median(imports),
            "setup.lazy_import_s": common.median(lazies)}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_sweep" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0     # kB on Linux


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_time(workload, seed)      # discarded: a first spawn may compile bytecode
    setups: list[float] = []

    def probe() -> None:
        setups.append(setup_time(workload, seed))

    if workload == "cli_sweep":
        import cold
        result = cold.measure(seed, seconds, probe, SETUP_PROBES[workload])
    else:
        import warm
        result = warm.measure(workload, seed, seconds, probe, SETUP_PROBES[workload])
    latencies = result["latencies"]
    tail_value, tail_pct = common.tail(latencies)
    values = {
        "items_per_s": result["items"] / sum(latencies),
        "op_s_p50": common.median(latencies),
        "op_s_tail": tail_value,
        "fail_frac": result["failures"] / result["items"],
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": common.median(setups),
    }
    info = {"ops": len(latencies), "items": result["items"],
            "item_failures": result["failures"], "op_s_tail_percentile": tail_pct,
            "op_latencies_s": [round(x, 6) for x in latencies],
            "setup_probes_s": [round(x, 6) for x in setups],
            "problems": result["problems"]}
    return values, info


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    if workload == "cli_sweep":
        import cold
        result = cold.trace(seed)
        per_op = result["launches"]
    else:
        import warm
        result = warm.trace(workload, seed)
        per_op = 1
    spans = result["spans"]
    values = {name: value / per_op for name, value in tracing.layer_metrics(spans).items()}
    values["cli.sweep.parallel_efficiency"] = tracing.parallel_efficiency(
        spans, result.get("workers", 1))
    values.update(layer_probe())
    # the main thread's spans against the untraced wall time; in a CLI
    # child the interpreter start before the first span and the exit
    # after main() returns are added
    accounted = result["main_self_s"] / per_op
    if workload == "cli_sweep":
        values["setup.process_start_s"] = result["process_start_s"]
        accounted += result["process_start_s"] + result["exit_s"]
    values["trace.overhead_frac"] = result["traced_s"] / result["untraced_s"] - 1.0
    values["trace.accounted_frac"] = accounted / (result["untraced_s"] / per_op)
    values["trace.ops"] = result["ops"]
    spans_path = common.RUNS / f"{workload}-seed{seed}-spans.json"
    spans_path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": spans}))
    info = {"traced_spans": len(spans), "spans_file": spans_path.name,
            "per_op_divisor": per_op, "problems": result["problems"]}
    if workload == "cli_sweep":
        info["exit_s"] = result["exit_s"]
    return values, info


def units() -> dict:
    out = {name: unit for name, unit, _, _ in tracing.PER_LAYER}
    out.update(tracing.EXTRA_PER_LAYER)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        common.require_sources()
        common.RUNS.mkdir(exist_ok=True)
        started = time.perf_counter()
        if args.trace:
            values, info = per_layer(args.workload, args.seed)
            names = units()
        else:
            values, info = end_to_end(args.workload, args.seed, args.seconds)
            names = END_TO_END
    except common.BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    problems = info.pop("problems")
    attempted = info.get("ops") or values.get("trace.ops")
    summary = {"correct": not problems, "attempted": int(attempted),
               "failed": len(problems),
               "metrics": {name: {"value": values[name], "unit": unit}
                           for name, unit in names.items()}}
    log = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "wall_s": time.perf_counter() - started,
           "machine": record.machine_record(), **info, "problems": problems,
           "result": summary}
    path = common.RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(log, indent=1) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(common.ROOT)}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
