"""Run one benchmark workload; the last line of stdout is its JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the workload runs again under the benchmark's span wrappers
and the result carries the per-layer metrics instead.  Notes (sample
counts, per-kernel times, problems found) go to stderr.  Exit status 0
means a result was printed; anything else means there is none.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: workload name -> why it is in the benchmark
WORKLOADS = {
    "serve-hot": "online users: every timed request is an artifact hit, "
                 "so time goes to parse, fetch, execute and vote",
    "compile-corpus": "cold source-to-program compiles, five that fit and "
                      "one that walks the ladder to partitioning",
    "campaign-recovery": "fault-injection campaigns per recovery policy, "
                         "timed until each report is written",
}
#: the seed runs default to, and one never used while tuning the benchmark
DEFAULT_SEED = 1
HELD_OUT_SEED = 9173


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    """Run the workload and build the result object."""
    from perfbench import campaign, compile_corpus, serve_load
    from perfbench.common import (
        END_TO_END,
        STATE,
        BenchError,
        Ledger,
        cpus,
        pin,
        python_command,
        self_peak_rss_mb,
        timed_setups,
    )
    from perfbench.layers import PER_LAYER, per_layer
    from perfbench.tracing import Tracer, install

    ledger = Ledger(args.workload)
    tracer = None
    if args.workload == "serve-hot":
        outcome = serve_load.run(args.seed, args.seconds, bool(args.trace))
        agg = outcome.layers.pop("trace", None)
    else:
        module = (compile_corpus if args.workload == "compile-corpus"
                  else campaign)
        pin(cpus()[0])
        setup_s = timed_setups(python_command("perfbench/prepare.py",
                                              args.workload))
        fixture = module.prepare()
        if args.trace:
            tracer = install(Tracer())
        try:
            outcome = module.run(fixture, args.seed, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        agg = None
        if tracer is not None:
            agg = tracer.aggregate()
            tracer.write(str(STATE / "traces"
                             / f"{args.workload}-{args.seed}.jsonl"))
        outcome.metrics["setup_s"] = setup_s
        outcome.metrics["peak_rss_mb"] = self_peak_rss_mb()
    outcome.metrics["ok_ratio"] = outcome.ok_ratio

    problems = list(outcome.wrong)
    for key, values in outcome.repeat.items():
        problems += ledger.repeat(key, values)
    if args.trace:
        if agg is None:
            raise BenchError("traced run produced no span aggregate")
        values = per_layer(agg, outcome.layers)
        traced = outcome.metrics["latency_ms"]
        values["trace.latency_ms"] = traced
        untraced = ledger.untraced(args.seed)
        if untraced is None:
            outcome.notes.append("no untraced run recorded yet: tracing "
                                 "overhead reads 0")
        else:
            base = untraced["latency_ms"]
            values["trace.overhead_ms"] = traced - base
            values["trace.overhead_pct"] = 100.0 * (traced - base) / base
        units = PER_LAYER
    else:
        values = {name: outcome.metrics[name] for name in END_TO_END}
        ledger.note_untraced(args.seed, values)
        units = END_TO_END
    ledger.save()
    for line in outcome.notes + [f"problem: {p}" for p in problems]:
        print(line, file=sys.stderr)
    return {"correct": not problems,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    """Entry point; returns the exit status."""
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is not in {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        result = run(args)
    except Exception:  # report and exit without a result line
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
