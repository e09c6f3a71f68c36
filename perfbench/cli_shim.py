"""Traced stand-in for `python -m cyclokit.cli`, one op per process.

Usage: cli_shim.py TRACE_OUT OP_ID ARGV...

Times `import cyclokit.cli`, installs the span wrappers, runs
cyclokit.cli.main(ARGV) and writes the op's trace totals to TRACE_OUT.
The library must be importable (PYTHONPATH pointing at the checkout's src).
"""

import json
import sys
from time import perf_counter_ns

t0 = perf_counter_ns()
import cyclokit.cli  # noqa: E402

import_ns = perf_counter_ns() - t0

import tracing  # noqa: E402


def main() -> int:
    out_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.install()
    tracer.begin_op(op_id)
    try:
        code = cyclokit.cli.main(argv)
    finally:
        main_ns = sum(s[2] - s[1] for s in tracer.op_spans if s[0] == "cli.main")
        tracer.end_op()
        info = tracer.originals["polyring.cyclotomic"].cache_info()
        record = {
            "import_ns": import_ns,
            "main_ns": main_ns,
            "totals": tracer.totals(),
            "spans": tracer.sample,
            "cyclotomic_hits": info.hits,
            "cyclotomic_misses": info.misses,
            "sieve_entries": len(tracer.originals["numtheory.totient_sieve"](0)),
        }
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
