"""One rep of one workload in a fresh interpreter.

    python3 worker.py --workload NAME --root DIR --out DIR --mesh FILE
                      --results FILE [--trace] [--setup-only]

Times the import of ncfem.cli plus the construction of the workload's
manufactured problems (set-up), then runs its CLI commands through
`ncfem.cli.main` one after another.  Writes one JSON line per event to
--results as it goes, so that a rep killed mid-way leaves what it finished.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, argv


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mesh", required=True)
    ap.add_argument("--results", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    with open(args.results, "w") as fh:
        def emit(**event):
            fh.write(json.dumps(event) + "\n")
            fh.flush()

        t0 = perf_counter()
        import ncfem.cli
        import ncfem.problems
        t_import = perf_counter() - t0
        src = Path(args.root, "src", "ncfem").resolve()
        if Path(ncfem.cli.__file__).resolve().parent != src:
            print(f"ncfem was imported from {ncfem.cli.__file__}, not {src}",
                  file=sys.stderr)
            return 2

        tracer = cached = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            cached = tracing.install(tracer)
        t1 = perf_counter()
        for name in workload.problems:
            ncfem.problems.manufactured(name)
        t2 = perf_counter()
        emit(event="setup", setup_s=t_import + (t2 - t1))
        if args.setup_only:
            return 0

        first = last = None
        for command in workload.commands:
            cmd = argv(command, args.mesh, args.out)
            buf = io.StringIO()
            error = None
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = ncfem.cli.main(cmd)
            except SystemExit as exc:      # argparse rejects the argv
                code, error = exc.code, f"SystemExit({exc.code})"
            except Exception:
                code, error = None, traceback.format_exc()
            end = perf_counter()
            first = start if first is None else first
            last = end
            emit(event="command", argv=cmd, code=code, error=error,
                 seconds=end - start, stdout=buf.getvalue())

        end_event = {"event": "end", "wall_s": last - first}
        if tracer is not None:
            end_event["layers"] = tracing.layer_metrics(
                tracer, cached, (first, last), (t1, t2))
        emit(**end_event)
    return 0


if __name__ == "__main__":
    sys.exit(main())
