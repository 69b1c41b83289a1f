"""The server process of the serve-hot workload.

Started by the benchmark as ``python3 perfbench/serve_child.py --cache DIR
--cpu N [--trace-out FILE]``.  It pins itself to CPU ``N``, binds
``serve_tcp`` around a ``CompileService`` on an ephemeral loopback port,
prints ``{"port": N}``, and then takes commands on standard input, one
per line, each acknowledged with one JSON line:

* ``calibrate`` — run the calibration loop here, on the server's CPU,
  and answer with its time (``calibration_s``);
* ``reset`` — forget the spans recorded so far (set-up traffic);
* ``pause`` — stop recording spans;
* ``quit`` — stop the server, print a JSON report (peak RSS, and with
  ``--trace-out`` the span aggregate) and exit.

Keeping the server in its own process means the load generator never
competes with it for the interpreter lock.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading

#: the fleet: three clean arrays, so ``redundancy: 3`` gets three voters
FLEET = (0, 1, 2)
#: compile workers in the service pool (one per core of a 2-core host)
WORKERS = 2
#: admission-control queue bound
QUEUE_LIMIT = 64


def serve_target():
    """The target every served request compiles for."""
    from repro.arch.target import TargetSpec
    from repro.devices import RERAM

    return TargetSpec.square(512, RERAM, num_arrays=16)


def main(argv=None) -> int:
    """Serve until ``quit`` arrives on standard input."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from perfbench.common import calibration_s, pin, self_peak_rss_mb

    pin(args.cpu)  # before any thread starts, so every thread stays here

    tracer = None
    if args.trace_out:
        from perfbench.tracing import Tracer, install

        tracer = install(Tracer())
    from repro.devices import FaultMap
    from repro.serve import ArtifactCache, CompileService, serve_tcp

    service = CompileService(
        serve_target(),
        cache=ArtifactCache(args.cache),
        workers=WORKERS, queue_limit=QUEUE_LIMIT,
        fault_maps={array: FaultMap() for array in FLEET})
    server = serve_tcp(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    report = {}
    try:
        for line in sys.stdin:
            command = line.strip()
            ack = {"ack": command}
            if command == "calibrate":
                ack["calibration_s"] = calibration_s()
            if command == "reset" and tracer is not None:
                tracer.reset()
            if command == "pause" and tracer is not None:
                tracer.enabled = False
            if command == "quit":
                break
            print(json.dumps(ack), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        service.close()
    report["peak_rss_mb"] = self_peak_rss_mb()
    if tracer is not None:
        tracer.write(args.trace_out)
        report["trace"] = tracer.aggregate()
        report["parse_ms"] = {
            span[5]: (span[2] - span[1]) * 1e3
            for span in tracer.spans[tracer.floor:]
            if span[0] == "server.parse" and span[2] is not None}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
