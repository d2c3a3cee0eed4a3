"""One pass of an in-process workload in a fresh interpreter.

    python perfbench/worker.py <workload> <seed> [<spans-file>]

Runs the workload's job list once, in order, and prints one JSON line: per
job its own wall and CPU time, the machine-speed reference around it (both
from ``calibrate.Meter``), its value and whether it matched the reference.
With a spans file the tracer is installed first and its spans are written
there at the end.  A fresh process per pass keeps the library's module-level
caches cold at the start of every pass, as every CLI user finds them.
"""

import functools
import json
import sys

import calibrate
import spans
import workloads


def _attempt(job):
    try:
        return job.call(), None
    except Exception as exc:  # a job that raises is a failed job, not an aborted pass
        return None, f"{type(exc).__name__}: {exc}"


def main(argv: list[str]) -> None:
    workload, seed = argv[0], int(argv[1])
    spans_file = argv[2] if len(argv) > 2 else None
    jobs = workloads.inprocess_jobs(workload, seed)
    tracer = None
    if spans_file:
        tracer = spans.Tracer()
        tracer.install()
    meter = calibrate.Meter()
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        m = meter.measure(functools.partial(_attempt, job))
        value, error = m.value
        records.append({"name": job.name, "s": m.wall_s, "cpu_s": m.cpu_s, "ref_s": m.ref_s,
                        "ok": job.check(value),
                        "value": None if value is None else str(value), "error": error})
    if tracer is not None:
        tracer.dump(spans_file)
    print(json.dumps({"jobs": records}))


if __name__ == "__main__":
    main(sys.argv[1:])
