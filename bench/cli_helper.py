"""Traced stand-in for ``python -m vsckinetics.cli`` in the cli-mix workload.

Usage: python3 bench/cli_helper.py SPANS_JSON ARG...

Times ``import vsckinetics.cli`` in this fresh interpreter, installs the
layer wrappers, calls ``vsckinetics.cli.main(ARG...)`` and writes its spans,
work counts and the start and end times of this script (on the shared
monotonic clock) to SPANS_JSON. Exits with main's return code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    code, modules, scipy_loaded = 1, 0, False
    try:
        with tracer.span(tracing.IMPORT_LAYER):
            import vsckinetics.cli
        modules = len(sys.modules)
        scipy_loaded = any(name.split(".")[0] == "scipy" for name in sys.modules)
        tracer.install(tracing.WORK_COUNTERS)
        code = vsckinetics.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"t0": T0, "t1": time.perf_counter(), "spans": tracer.to_json(), "counts": tracer.counts,
                       "modules_loaded": modules, "scipy_loaded": scipy_loaded}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
