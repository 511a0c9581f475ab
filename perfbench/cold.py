"""The cold workload (`cli_sweep`): fresh `python -m calderon_lab.cli
sweep` processes over the seed's config directory, one after another,
with `--workers nproc`.  An op is one CLI launch; its items are the
directory's configs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common
import tracer as tracing
import workloads
from child import write_configs

LAUNCH_TIMEOUT_S = 120
TRACED_PAIRS = 5
# Seconds one launch took when the benchmark was defined (2-vCPU Xeon
# VM); the launch count is --seconds over this (see warm.NOMINAL_PASS_S).
NOMINAL_LAUNCH_S = 4.2


class ColdRunner:
    def __init__(self, seed: int, run_dir: Path):
        self.run_dir = run_dir
        self.config_dir = run_dir / "configs"
        self.items = len(write_configs(workloads.GENERATORS["cli_sweep"](seed),
                                       self.config_dir))
        self.workers = common.nproc()
        self.ended = 0.0              # perf_counter when the last launch ended
        self.references: list[str | None] | None = None
        self.problems: list[str] = []

    def launch(self, number: int, spans_path: str | None = None) -> tuple[float, Path, int]:
        """One CLI process; (wall time, output directory, exit code).
        With `spans_path` the CLI runs through `child.py cli` (see there);
        "-" there means the same entry without the tracer."""
        out = self.run_dir / f"launch_{number}"
        args = ["sweep", str(self.config_dir), "--workers", str(self.workers),
                "--out", str(out)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "calderon_lab.cli"] + args
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "child.py"), "cli",
                   spans_path, str(number)] + args
        with open(self.run_dir / f"launch_{number}.log", "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=common.child_env(), cwd=common.ROOT)
            try:
                code = proc.wait(timeout=LAUNCH_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
            self.ended = time.perf_counter()
        return self.ended - start, out, code

    def check(self, number: int, out: Path, code: int) -> int:
        """Check one launch's outputs; returns its failed item count and
        records the launch's output problems as one entry."""
        launch_bad, issues = False, []
        problem = issues.append

        rows = common.read_summary(out / "summary.csv")
        if rows is None or len(rows) != self.items:
            problem("summary.csv missing or not one row per item")
            rows, launch_bad = [{}] * self.items, True
        texts, failed = [], 0
        all_passed = True
        for i, row in enumerate(rows):
            name = f"item_{i:03d}"
            if row and row.get("item") != name:
                problem(f"summary row {i} is not {name}")
                launch_bad = True
            text, issue = common.check_item_dir(out / name)
            bad = False
            if text is None and (row.get("error") or "").startswith("ConfigInvalid"):
                report = {"error": row["error"], "assertions": {}}
            elif issue:
                problem(issue)
                report, bad = {}, True
            else:
                report = json.loads(text)
                if row.get("passed") != str(report["passed"]) \
                        or row.get("scenario") != report["scenario"]:
                    problem(f"{name}: summary row disagrees with report.json")
                    bad = True
            stripped = common.strip_wall_time(text) if text else None
            texts.append(stripped)
            if self.references is not None and stripped != self.references[i]:
                problem(f"{name}: report differs from the warm-up launch")
                bad = True
            failed += bad or common.item_failed(report)
            # the CLI exits 1 unless every report passed (verdicts included)
            all_passed &= bool(report.get("passed")) and not bad
        if code != (0 if all_passed else 1):
            problem(f"exit code {code} does not match the item outcomes")
            launch_bad = True
        if issues:
            self.problems.append(f"launch {number}: " + "; ".join(issues))
        if self.references is None:
            self.references = texts
        shutil.rmtree(out, ignore_errors=True)
        return self.items if launch_bad else failed


def _run_dir(seed: int, mode: str) -> Path:
    path = common.RUNS / f"cli_sweep-{seed}-{mode}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def measure(seed: int, seconds: float, probe, probes: int) -> dict:
    """An untimed warm-up launch, then about `seconds` of timed launches;
    `probe()` is called `probes` times, spread evenly between them."""
    run_dir = _run_dir(seed, "measure")
    try:
        runner = ColdRunner(seed, run_dir)
        runner.check(0, *runner.launch(0)[1:])          # untimed warm-up launch
        launches = max(1, round(seconds / NOMINAL_LAUNCH_S))
        schedule = common.spread_out(launches, probes)
        latencies, failures = [], 0
        for number in range(1, launches + 1):
            for _ in range(schedule[number - 1]):
                probe()
            wall, out, code = runner.launch(number)
            latencies.append(wall)
            failures += runner.check(number, out, code)
        return {"latencies": latencies, "items": runner.items * len(latencies),
                "per_op_items": runner.items, "failures": failures,
                "problems": runner.problems}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def trace(seed: int) -> dict:
    """After a warm-up launch, pairs of launches through `child.py cli`:
    one without and one with the tracer, so that both take the same
    entry and machine drift falls on both alike; which goes first
    alternates between pairs.  Span-derived metrics are per traced
    launch."""
    run_dir = _run_dir(seed, "trace")
    try:
        runner = ColdRunner(seed, run_dir)
        runner.check(0, *runner.launch(0)[1:])
        untraced, traced, spans, starts, exits, main_self = [], [], [], [], [], 0.0

        def untraced_launch(number: int, _: int) -> None:
            wall, out, code = runner.launch(number, "-")
            runner.check(number, out, code)
            untraced.append(wall)

        def traced_launch(number: int, i: int) -> None:
            nonlocal main_self
            spans_path = run_dir / f"spans_{i}.json"
            spawned = time.perf_counter()
            wall, out, code = runner.launch(number, str(spans_path))
            runner.check(number, out, code)
            traced.append(wall)
            doc = json.loads(spans_path.read_text())
            starts.append(doc["started"] - spawned)
            exits.append(runner.ended - doc["main_ended"])
            main_self += tracing.main_thread_self(doc["spans"], doc["main_thread"])
            # span ids restart in every child: keep them apart
            offset = (i + 1) << 40
            spans.extend([s[0] + offset, s[1] + offset if s[1] >= 0 else -1, *s[2:]]
                         for s in doc["spans"])

        for i in range(TRACED_PAIRS):
            first, second = ((traced_launch, untraced_launch) if i % 2
                             else (untraced_launch, traced_launch))
            first(2 * i + 1, i)
            second(2 * i + 2, i)
        return {"untraced_s": sum(untraced), "traced_s": sum(traced), "spans": spans,
                "main_self_s": main_self,
                "launches": TRACED_PAIRS, "ops": 2 * TRACED_PAIRS,
                "workers": runner.workers, "process_start_s": common.median(starts),
                "exit_s": common.median(exits),
                "problems": runner.problems}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
