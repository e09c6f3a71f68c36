"""cyclokit benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is certify_stream, coeff_sweep, semigroup_census, cli_cold, or `all`
to run each in turn.  Each workload is a closed loop with one caller, and
every worker is a fresh interpreter, so the library's process-wide caches
start empty.

--trace 0 runs WORKERS workers one after the other, each measuring for
SECONDS / WORKERS from its own stretch of the pool, and reports the
end-to-end metrics: ops_per_s, latency_p50_ms and latency_p90_ms over all
ops of the run, setup_s and peak_rss_mb as medians over the workers.  Op
and set-up times are at reference speed (see worker.CAL_REF_NS); their
wall-clock figures go to the table and the result file as well.
--trace 1 runs one untraced and one traced worker on the same ops and
reports the per-layer metrics together with trace.overhead_frac.

A table of the metrics goes to standard output, followed by one JSON line
{"correct", "attempted", "failed", "metrics"}.  The full result, with the
input manifest, the raw latencies and, for traced runs, the span sample, is
written to .bench_out/ in the checkout.  Two results are comparable only
when their manifests' inputs_digest values match.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKERS = 3
# a hung worker costs at most SETUP_LIMIT_S + window + GRACE_S + 2 *
# EXIT_SLACK_S, which keeps a whole run under 180 s at --seconds 26
SETUP_LIMIT_S = 25.0
EXIT_SLACK_S = 8.0

sys.path.insert(0, HERE)
import tracing  # noqa: E402
from worker import CAL_REF_NS, GRACE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def percentile(values, q: float):
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the nearest-rank q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def run_worker(workload: str, seed: int, seconds: float, offset: int, traced: bool, max_ops: int = 0) -> dict:
    """Start one worker interpreter; return its result with setup_s added.

    A worker that does not get ready within SETUP_LIMIT_S, or does not finish
    its window, is killed and reported as one failed op."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        workload,
        str(seed),
        repr(seconds),
        str(offset),
        str(max_ops),
        "1" if traced else "0",
        os.path.join(OUT_DIR, "cli-trace"),
    ]
    lines: queue.Queue = queue.Queue()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def pump():
        for line in proc.stdout:
            lines.put((perf_counter(), line))
        lines.put((perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    failure = {"attempted": 1, "failed": 1, "latencies_ns": [], "sizes": [], "digest": None}
    try:
        ready_at, line = lines.get(timeout=SETUP_LIMIT_S)
        setup_s = ready_at - t0
        if line is None or line.strip() != "READY":
            return dict(failure, errors=["worker exited during set-up"], setup_s=setup_s)
        last = None
        while True:
            _, line = lines.get(timeout=seconds + GRACE_S + EXIT_SLACK_S)
            if line is None:
                break
            last = line
        proc.wait(timeout=EXIT_SLACK_S)
    except (queue.Empty, subprocess.TimeoutExpired):
        return dict(failure, errors=["worker exceeded its time limit"], setup_s=SETUP_LIMIT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
    if proc.returncode != 0 or last is None:
        return dict(failure, errors=[f"worker exited with code {proc.returncode}"], setup_s=setup_s)
    result = json.loads(last)
    result["setup_wall_s"] = setup_s
    result["setup_s"] = setup_s * CAL_REF_NS / result["setup_calibration_ns"]
    return result


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(workload: str, seed: int, seconds: float, results: list[dict]) -> dict:
    digests = {r["digest"] for r in results if r["digest"]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "workers": len(results),
        "inputs_digest": digests.pop() if len(digests) == 1 else None,
        "pool_size": next((r["pool_size"] for r in results if "pool_size" in r), None),
        "op_sizes": [r["sizes"] for r in results],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def end_to_end(results: list[dict], clock: str = "reference") -> dict[str, float]:
    """The end-to-end metrics at reference speed, or by the wall clock."""
    lat_key, setup_key = ("latencies_ns", "setup_s") if clock == "reference" else ("wall_ns", "setup_wall_s")
    latencies = [v for r in results for v in r.get(lat_key, [])]
    busy = sum(latencies) / 1e9
    return {
        "ops_per_s": len(latencies) / busy if busy else 0.0,
        "latency_p50_ms": percentile(latencies, 50) / 1e6 if latencies else 0.0,
        "latency_p90_ms": percentile(latencies, 90) / 1e6 if latencies else 0.0,
        "setup_s": statistics.median(r.get(setup_key, r["setup_s"]) for r in results),
        "peak_rss_mb": statistics.median(r.get("rss_kb", 0) for r in results) / 1024,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        # the traced worker repeats the untraced worker's ops, so the two
        # rates compare the same inputs; it may take up to the whole window
        plain = run_worker(workload, seed, seconds / 2, 0, False)
        traced = run_worker(workload, seed, seconds, 0, True, max_ops=plain["attempted"])
        results = [plain, traced]
        gauges = dict(traced.get("gauges", {}))
        common = min(len(plain["latencies_ns"]), len(traced["latencies_ns"]))
        traced_ns = sum(traced["latencies_ns"][:common])
        gauges["overhead_frac"] = 1 - sum(plain["latencies_ns"][:common]) / traced_ns if traced_ns else 0.0
        totals = traced.get("totals") or tracing.merge_totals([])
        metrics = tracing.summarize(totals, gauges)
        units = {s["name"]: s["unit"] for s in tracing.per_layer_specs()}
    else:
        results = []
        for w in range(WORKERS):
            # each worker starts on its own stretch of the pool
            pool_size = results[0].get("pool_size", 0) if results else 0
            results.append(run_worker(workload, seed, seconds / WORKERS, w * pool_size // WORKERS, False))
        metrics = end_to_end(results)
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    record = {
        "correct": failed == 0 and all(r["digest"] for r in results)
        and len({r["digest"] for r in results}) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    latencies = [v for r in results for v in r["latencies_ns"]]
    detail = {
        "result": record,
        "manifest": manifest(workload, seed, seconds, results),
        "ops_failed_frac": failed / attempted,
        "latency_samples": len(latencies),
        "samples_beyond_p90": beyond(latencies, 90) if latencies else 0,
        "wall_clock": end_to_end(results, clock="wall"),
        "setup_s_samples": [r["setup_s"] for r in results],
        "latencies_ns": [r["latencies_ns"] for r in results],
        "wall_ns": [r.get("wall_ns", []) for r in results],
        "calibration_ns": [r.get("calibration_ns", []) for r in results],
        "errors": [e for r in results for e in r.get("errors", [])],
    }
    if trace:
        detail["spans"] = traced.get("spans", [])
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh)
    return detail


def print_table(workload: str, detail: dict) -> None:
    record = detail["result"]
    print(f"== {workload}: {record['attempted']} ops attempted, {record['failed']} failed, "
          f"{detail['latency_samples']} latency samples, {detail['samples_beyond_p90']} beyond p90, "
          f"inputs {detail['manifest']['inputs_digest']}")
    rows = [(name, m["value"], m["unit"]) for name, m in record["metrics"].items()]
    if "ops_per_s" in record["metrics"]:
        rows.append(("ops_failed_frac", detail["ops_failed_frac"], "frac"))
        units = dict(END_TO_END)
        rows += [
            (f"wall-clock {name}", value, units[name])
            for name, value in detail["wall_clock"].items()
            if name != "peak_rss_mb"
        ]
    for name, value, unit in rows:
        print(f"  {name:<62} {value:>14.6g} {unit}")
    for err in detail["errors"]:
        print(f"  error: {err}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclokit", "__init__.py")):
        print(f"error: no cyclokit sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    details = {}
    for name in names:
        details[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, details[name])
    if args.workload == "all":
        final = {
            "correct": all(d["result"]["correct"] for d in details.values()),
            "attempted": sum(d["result"]["attempted"] for d in details.values()),
            "failed": sum(d["result"]["failed"] for d in details.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, d in details.items()
                for metric, value in d["result"]["metrics"].items()
            },
        }
    else:
        final = details[args.workload]["result"]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
