"""Subprocess entry points of the benchmark.

    python3 perfbench/child.py setup <workload> <seed>
        Import what the workload's process imports and generate its
        inputs, then print the perf_counter reading as one JSON line.
    python3 perfbench/child.py layers
        Print the import time of calderon_lab and the first-call cost of
        `convolve` (its lazy import), as one JSON line.
    python3 perfbench/child.py cli <spans.json> <op> <cli arguments...>
        Run the CLI's main() on <cli arguments>, as `python -m
        calderon_lab.cli` would, with the tracer installed; then write
        the spans to <spans.json>.  With "-" for <spans.json> the same
        entry runs without the tracer, as the untraced side of the
        overhead comparison.

perf_counter is CLOCK_MONOTONIC on Linux, so stamps taken here compare
with the parent's.
"""

import time

STARTED = time.perf_counter()

import json   # noqa: E402
import sys    # noqa: E402
from pathlib import Path   # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common       # noqa: E402
import workloads    # noqa: E402


def setup(workload: str, seed: int) -> dict:
    if workload == "cli_sweep":
        # the cold workload's own process never imports the program
        texts = workloads.GENERATORS[workload](seed)
        run_dir = common.RUNS / f"setup-{seed}-{time.monotonic_ns()}"
        write_configs(texts, run_dir)
        for path in run_dir.iterdir():
            path.unlink()
        run_dir.rmdir()
        return {"ready": time.perf_counter()}
    program = common.import_program()
    for text in workloads.GENERATORS[workload](seed):
        program.parse_config_text(text)
    return {"ready": time.perf_counter()}


def write_configs(texts, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, text in enumerate(texts):
        path = directory / f"item_{i:02d}.cfg"
        path.write_text(text)
        paths.append(path)
    return paths


def layers() -> dict:
    before = time.perf_counter()
    program = common.import_program()
    imported = time.perf_counter()
    kernel = program.KernelSpec(program.BesselMcDonald(nu=0.25), n=1)
    field = program.bump_and_staircase_family(count=1, resolution=256)[0][1]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        program.convolve(kernel, field)
        times.append(time.perf_counter() - start)
    return {"started": STARTED, "import_s": imported - before,
            "lazy_import_s": times[0] - min(times[1:])}


def traced_cli(spans_path: str, op: int, argv: list[str]) -> int:
    """What `python -m calderon_lab.cli <argv>` does, with spans unless
    `spans_path` is "-"."""
    before = time.perf_counter()
    program = common.import_program()
    if spans_path == "-":
        return program.cli.main(argv)
    from tracer import Tracer     # after the program: numpy is its import cost
    tracer = Tracer()
    tracer.op = op
    tracer.span("setup.import", before, time.perf_counter())
    tracer.install(program)
    try:
        return program.cli.main(argv)
    finally:
        main_ended = time.perf_counter()
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(
            {"started": STARTED, "main_ended": main_ended,
             "main_thread": tracer.main_ident, "spans": tracer.spans}))


def main(argv: list[str]) -> int:
    command = argv[0]
    if command == "setup":
        print(json.dumps(setup(argv[1], int(argv[2]))), flush=True)
        return 0
    if command == "layers":
        print(json.dumps(layers()), flush=True)
        return 0
    if command == "cli":
        return traced_cli(argv[1], int(argv[2]), argv[3:])
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
