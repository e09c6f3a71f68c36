"""One measured worker: a fresh interpreter that sets up, then runs ops.

Usage: worker.py WORKLOAD SEED SECONDS OFFSET MAX_OPS TRACE OUT_DIR

Set-up is import, input generation, warm-up on inputs disjoint from the pool,
and a self-test that the checker rejects a corrupted copy of a warm-up
output.  The worker then prints READY, times the reference workload (see
calibrate) for the set-up time, runs pool ops from OFFSET in a closed
loop for SECONDS or MAX_OPS ops (0: no limit), whichever ends first, and
prints one JSON line with its samples.  An op still running GRACE_S after the
window ends is interrupted and counts as failed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import types
from time import perf_counter, perf_counter_ns

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GRACE_S = 8.0
MAX_ERRORS_KEPT = 5

# The host's speed swings by up to 2x over seconds to minutes, so every op
# is timed next to a fixed reference workload and its latency is reported at
# reference speed: wall time * (reference's typical time) / (reference time).
# In-process ops and set-up use a pure-Python loop (calibrate, CAL_REF_NS).
# CLI ops use the start of a bare interpreter before every third op
# (interpreter_start, START_REF_NS): a loop timed in the worker, which sits
# idle while each child runs, does not track the child's speed.  The typical
# times are those of the machine the bounds were set on.
CAL_REF_NS = 600_000
START_REF_NS = 20_000_000
CAL_WINDOW = 7
_CAL_A = [(i * 2654435761 + 12345) % (1 << 40) for i in range(48)]
_CAL_B = [(i * 40503 + 977) % (1 << 40) for i in range(48)]


def calibrate() -> int:
    """ns taken by a dense product of two fixed integer lists, done twice:
    the same kind of work as the library's inner loops."""
    t = perf_counter_ns()
    for _ in range(2):
        out = [0] * (len(_CAL_A) + len(_CAL_B) - 1)
        for i, x in enumerate(_CAL_A):
            for j, y in enumerate(_CAL_B):
                out[i + j] += x * y
    return perf_counter_ns() - t


def interpreter_start() -> int:
    """ns taken to start and stop `python -S -c pass`."""
    t = perf_counter_ns()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return perf_counter_ns() - t


def at_reference_speed(wall_ns: list[int], cal_ns: list[int], ref_ns: int) -> list[float]:
    """Scale each op's wall time by ref_ns over the median reference time of
    the CAL_WINDOW calibrations centred on it."""
    out = []
    half = CAL_WINDOW // 2
    for i, wall in enumerate(wall_ns):
        local = statistics.median(cal_ns[max(0, i - half) : i + half + 1])
        out.append(wall * ref_ns / local)
    return out


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("op exceeded the run's wall-clock limit")


def make_context() -> types.SimpleNamespace:
    """Run state handed to the workloads: the cyclokit package of this
    checkout with every traced module imported, and the CLI settings."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    lib = importlib.import_module("cyclokit")
    if not os.path.abspath(lib.__file__).startswith(src):
        raise ImportError(f"cyclokit imported from {lib.__file__}, not from this checkout")
    for layer in tracing.LAYERS:
        importlib.import_module(f"cyclokit.{layer}")
    return types.SimpleNamespace(
        lib=lib,
        root=ROOT,
        op_id=0,
        tracer_dir=None,
        expected={},
        child_env=dict(os.environ, PYTHONPATH=src),
    )


def digest(specs) -> str:
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


def main(argv) -> int:
    name, seed, seconds, offset, max_ops, traced, out_dir = argv
    seed, seconds, offset, max_ops = int(seed), float(seconds), int(offset), int(max_ops)
    traced = traced == "1"
    wl = WORKLOADS[name]
    ctx = make_context()
    pool = wl.pool(seed)
    warm = wl.warmup(seed)
    pool_keys = {json.dumps(s, sort_keys=True) for s in pool}
    if any(json.dumps(s, sort_keys=True) in pool_keys for s in warm):
        raise RuntimeError("warm-up inputs overlap the timed inputs")
    wl.prepare(ctx, warm + pool)
    for i, spec in enumerate(warm):
        out = wl.run(ctx, spec)
        if not wl.check(spec, out):
            raise RuntimeError(f"warm-up op {i} failed its check")
        if i == 0 and wl.check(spec, wl.corrupt(out)):
            raise RuntimeError("checker accepted a corrupted output")

    tracer = None
    if traced:
        if wl.in_process:
            tracer = tracing.install()
            cache_before = tracer.originals["polyring.cyclotomic"].cache_info()
        else:
            ctx.tracer_dir = out_dir
            os.makedirs(out_dir, exist_ok=True)
    print("READY", flush=True)
    # the process has been busy through set-up, so a reference timed right
    # after it tracks the host's speed during it
    setup_calibration = statistics.median(calibrate() for _ in range(3 * CAL_WINDOW))

    reference, ref_ns, every = (calibrate, CAL_REF_NS, 1) if wl.in_process else (interpreter_start, START_REF_NS, 3)
    wall, calibrations, sizes, errors = [], [], [], []
    attempted = failed = 0
    children: list[dict] = []
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds + GRACE_S)
    deadline = perf_counter() + seconds
    index = offset
    pending = False
    try:
        while attempted == 0 or (perf_counter() < deadline and attempted != max_ops):
            spec = pool[index % len(pool)]
            index += 1
            attempted += 1
            pending = True
            sizes.append(wl.size(spec))
            ctx.op_id = attempted - 1
            if tracer is not None:
                tracer.begin_op(ctx.op_id)
            calibrations.append(reference() if (attempted - 1) % every == 0 else calibrations[-1])
            t0 = perf_counter_ns()
            try:
                out = wl.run(ctx, spec)
            except Exception as exc:  # any raise is a failed op, recorded by type
                out = exc
            t1 = perf_counter_ns()
            if tracer is not None:
                tracer.end_op()
            ok = not isinstance(out, Exception) and wl.check(spec, out)
            pending = False
            wall.append(t1 - t0)
            if not ok:
                failed += 1
                if len(errors) < MAX_ERRORS_KEPT:
                    errors.append({"op": ctx.op_id, "spec": sizes[-1], "error": repr(out) if isinstance(out, Exception) else "wrong result"})
            if ctx.tracer_dir is not None:
                children.append(_read_child(ctx, t1 - t0))
    except OpTimeout:
        if pending:
            failed += 1
            errors.append({"op": ctx.op_id, "spec": sizes[-1], "error": "timed out"})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    result = {
        "attempted": attempted,
        "failed": failed,
        "latencies_ns": at_reference_speed(wall, calibrations, ref_ns),
        "wall_ns": wall,
        "calibration_ns": calibrations,
        "setup_calibration_ns": setup_calibration,
        "sizes": sizes,
        "errors": errors,
        "digest": digest(pool),
        "pool_size": len(pool),
        "rss_kb": resource.getrusage(
            resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    }
    if tracer is not None:
        cache = tracer.originals["polyring.cyclotomic"].cache_info()
        result["totals"] = tracer.totals()
        result["gauges"] = {
            "cyclotomic_hits": cache.hits - cache_before.hits,
            "cyclotomic_misses": cache.misses - cache_before.misses,
            "sieve_entries": len(tracer.originals["numtheory.totient_sieve"](0)),
        }
        result["spans"] = tracer.sample
    elif ctx.tracer_dir is not None:
        result.update(_merge_children(children))
    print(json.dumps(result), flush=True)
    return 0


def _read_child(ctx, latency_ns: int) -> dict:
    path = os.path.join(ctx.tracer_dir, f"op{ctx.op_id}.json")
    try:
        with open(path) as fh:
            child = json.load(fh)
    except (OSError, ValueError):
        return {}
    os.remove(path)
    child["latency_ns"] = latency_ns
    return child


def _merge_children(children: list[dict]) -> dict:
    """Totals, gauges and spans of the traced CLI children, summed over ops."""
    children = [c for c in children if c]
    n = max(len(children), 1)
    import_ns = sum(c["import_ns"] for c in children)
    main_ns = sum(c["main_ns"] for c in children)
    latency_ns = sum(c["latency_ns"] for c in children)
    spans = []
    for c in children:
        spans += c["spans"][: tracing.SPAN_SAMPLE_CAP - len(spans)]
    return {
        "totals": tracing.merge_totals(c["totals"] for c in children),
        "gauges": {
            "cyclotomic_hits": sum(c["cyclotomic_hits"] for c in children),
            "cyclotomic_misses": sum(c["cyclotomic_misses"] for c in children),
            "sieve_entries": max((c["sieve_entries"] for c in children), default=0),
            "cli_import_ms": import_ns / n / 1e6,
            "cli_process_ms": (latency_ns - import_ns - main_ns) / n / 1e6,
        },
        "spans": spans,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
