"""One patina job in a fresh process, for perfbench/run.py.

Usage: python3 job.py SPEC_JSON, where the spec holds
  argv   -- arguments for patina.cli.run_main
  probe  -- stop at the first solver step (a set-up measurement)
  trace  -- install the per-layer spans of spans.py
  src    -- the source tree patina must be imported from
  result -- path of the JSON result file this process writes

Times are CLOCK_MONOTONIC readings (time.monotonic), which the parent can
compare with its own reading taken just before it started this process.
"""

import json
import os
import resource
import sys
import time


class SetupDone(BaseException):
    """Ends a set-up probe at the first solver step.

    A BaseException, so the solver's and the CLI's ``except Exception``
    handlers let it through.
    """


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {}
    start = time.monotonic()
    import patina.cli
    import patina.simulation
    result["import_s"] = time.monotonic() - start
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(patina.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: patina was imported from {patina.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 1

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    first_step = {}
    step = patina.simulation.imex_midpoint_step

    def first_step_hook(*args, **kwargs):
        first_step["t"] = time.monotonic()
        patina.simulation.imex_midpoint_step = step
        if spec["probe"]:
            raise SetupDone
        return step(*args, **kwargs)

    patina.simulation.imex_midpoint_step = first_step_hook
    try:
        result["rc"] = patina.cli.run_main(spec["argv"])
    except SetupDone:
        result["rc"] = 0
    result["t_end"] = time.monotonic()
    result["t_first_step"] = first_step.get("t")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
