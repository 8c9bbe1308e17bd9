"""ekrlattice CLI benchmark.

    python3 perfbench/run.py --workload clique|subspace|certify|all \
        --seed N --seconds S --trace 0|1

Run from any directory; the benchmark builds nothing and imports ekrlattice
from the checkout's `src/`.  It prints a metadata line, one line per job and
one line per metric (name, value, unit; null where a workload has no such
job), then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The JSON metrics are those declared in
BENCHMARK.json: its end-to-end list with `--trace 0`, its per-layer list with
`--trace 1`.  With `--workload all` the metric names gain a `<workload>.`
prefix.  Exit code 0 when the run completed (whether or not outputs were
correct), 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys

import harness
from workloads import WORKLOADS


def declared_metrics(trace: int) -> list[str]:
    path = harness.ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise harness.BenchError(f"cannot read {path}: {exc}") from exc
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_report(log: harness.RunLog, metrics: dict, trace: int) -> None:
    print("meta " + json.dumps(harness.metadata(log, trace), sort_keys=True))
    walls: dict[str, list] = {}
    for e in log.executions:
        walls.setdefault((e.job.name, e.traced), []).append(e)
    for (name, traced), runs in walls.items():
        median = statistics.median(e.proc.wall for e in runs)
        rss = max(e.proc.rss_kib for e in runs) / 1024
        tag = "traced" if traced else "plain"
        nodes = (harness.report_result(runs[0].proc.stdout) or {}).get("nodes")
        extra = "" if nodes is None else f"  nodes={nodes}"
        print(f"job {median:9.4f} s  {rss:7.1f} MiB  x{len(runs)} {tag:6s} {name}{extra}")
        for e in runs:
            for problem in e.problems:
                print(f"FAIL {name}: {problem}")
    for name, (value, unit) in metrics.items():
        shown = "null" if value is None else repr(value)
        print(f"metric {log.workload.name} {name} {shown} {unit}")


def run_one(name: str, seed: int, seconds: float, trace: int):
    workload = WORKLOADS[name]
    if trace:
        log = harness.trace_workload(workload, seed)
        metrics = harness.per_layer(log)
    else:
        log = harness.run_workload(workload, seed, seconds)
        metrics = harness.end_to_end(log)
    print_report(log, metrics, trace)
    return log, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its current child (see harness.spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        harness.require_source()
        declared = declared_metrics(args.trace)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        out = {}
        for name in names:
            log, metrics = run_one(name, args.seed, args.seconds, args.trace)
            attempted += log.attempted
            failed += log.failed
            prefix = f"{name}." if args.workload == "all" else ""
            for metric in declared:
                value, unit = metrics[metric]
                out[prefix + metric] = {"value": value, "unit": unit}
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
