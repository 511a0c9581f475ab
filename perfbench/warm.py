"""The warm, in-process workloads (`lattice`, `smoothness`): serial
`cli.run` over the seed's configs in one process, one caller, closed
loop.  An op is one config item: parse its text, then run it."""

from __future__ import annotations

import json
import time

import common
import tracer as tracing
import workloads

# Seconds one timed pass over a seed's items took when the benchmark was
# defined (2-vCPU Xeon VM).  The pass count is --seconds over this, not
# a clock reading, so the sample count (and with it the tail percentile)
# stays the same when the program or the machine gets faster or slower.
NOMINAL_PASS_S = {"lattice": 6.5, "smoothness": 6.8}


class WarmRunner:
    def __init__(self, workload: str, seed: int):
        self.program = common.import_program()
        from calderon_lab.errors import ConfigInvalid
        self.config_invalid = ConfigInvalid
        self.texts = workloads.GENERATORS[workload](seed)
        self.references: list[str] = []
        self.problems: list[str] = []

    def execute(self, index: int) -> str:
        cli = self.program.cli
        try:
            return cli.run(cli.parse_config_text(self.texts[index])).to_json()
        except self.config_invalid as exc:
            return json.dumps({"error": f"ConfigInvalid: {exc}", "assertions": {}})

    def warm_up(self) -> None:
        """The untimed pass over every item; its reports are the
        references."""
        self.references = [common.strip_wall_time(self.execute(i))
                           for i in range(len(self.texts))]

    def op(self, index: int) -> tuple[float, bool]:
        """Run one timed item; (latency, item failed)."""
        start = time.perf_counter()
        text = self.execute(index)
        latency = time.perf_counter() - start
        failed = common.item_failed(json.loads(text))
        if common.strip_wall_time(text) != self.references[index]:
            self.problems.append(f"item {index}: report differs from its warm-up pass")
            failed = True
        return latency, failed


def measure(workload: str, seed: int, seconds: float, probe, probes: int) -> dict:
    """A warm-up pass over the items, then whole timed passes, about
    `seconds` of them.  Whole passes keep the item mix, and with it the
    rates and the failure share, the same in every run of a seed.
    `probe()` is called `probes` times, spread evenly between the ops."""
    runner = WarmRunner(workload, seed)
    items = len(runner.texts)
    runner.warm_up()
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    schedule = common.spread_out(passes * items, probes)
    latencies, failures = [], 0
    for number in range(passes * items):
        for _ in range(schedule[number]):
            probe()
        latency, failed = runner.op(number % items)
        latencies.append(latency)
        failures += failed
    return {"latencies": latencies, "items": len(latencies), "failures": failures,
            "problems": runner.problems}


def trace(workload: str, seed: int) -> dict:
    """After a warm-up pass, each item runs once untraced and once
    traced, back to back, so that machine drift falls on both alike.
    Which side goes first alternates between items, because a repeat
    finds the caches the first run filled.  Counts are exact for the
    seed."""
    runner = WarmRunner(workload, seed)
    runner.warm_up()
    recorder = tracing.Tracer()
    untraced, traced = 0.0, 0.0

    def traced_op(item: int) -> float:
        recorder.op = item
        recorder.install(runner.program)
        try:
            return runner.op(item)[0]
        finally:
            recorder.uninstall()

    for item in range(len(runner.texts)):
        if item % 2:
            traced += traced_op(item)
            untraced += runner.op(item)[0]
        else:
            untraced += runner.op(item)[0]
            traced += traced_op(item)
    return {"untraced_s": untraced, "traced_s": traced, "spans": recorder.spans,
            "main_self_s": tracing.main_thread_self(recorder.spans, recorder.main_ident),
            "ops": 2 * len(runner.texts), "problems": runner.problems}
