"""The fanocount benchmark.

    python3 perfbench/run.py --workload <planes-both|conics|cli-anchors> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``, nothing is installed.  Load model: one client in a closed loop, one
job at a time, one busy process.  A run repeats passes over the workload's
fixed job list until ``--seconds`` are used (at least three passes), each
pass in fresh interpreters, so the library's module-level caches start cold
in every pass as they do for every CLI user.  Every job's output is checked
against ``reference.py``.  Every time is reported at a fixed reference speed,
from reference work timed next to it on the same vCPU (``calibrate.py``);
the times as measured are kept in the record.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one JSON
object; a table of the same numbers precedes it, and the whole result, with
the environment, is written to ``.bench_out/``.  The exit code is 0 when every
job matched its reference, 1 when one did not, and 2 when the run could not
start (for instance in a directory without ``src/fanocount``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# an in-process run takes one pass more: the median job of planes-both is a
# call of a few milliseconds, and its median needs the fourth sample
INPROCESS_MIN_PASSES = 4
PROBES_PER_PASS = 5
TIME_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
TAIL_BEYOND = 10      # samples beyond the tail percentile in a run of MIN_PASSES


@dataclass
class Child:
    code: int
    out: str
    err: str
    spawned: float
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0   # the job list as measured, without probes or set-up
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    setup_s: list[float] = field(default_factory=list)       # at the reference speed
    measured_setup_s: list[float] = field(default_factory=list)
    setup_after: list[int] = field(default_factory=list)      # index of the probe before each
    interpreter_s: list[float] = field(default_factory=list)  # bare interpreter probes
    # name, s, cpu_s (as measured), speed (the factor to the reference
    # speed, calibrate.py), ok, values, error; in-process jobs add ref_s, and
    # their s and cpu_s leave out the reference calls
    jobs: list[dict] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)  # one spans file per traced process


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.module = "fanocount.cli" if workload == "cli-anchors" else "fanocount"

    def child(self, argv: list[str]) -> Child:
        """Run one process to completion; its CPU time and peak RSS come from
        wait4, its output through files so no pipe can fill up."""
        with open(OUT / "child.out", "w+") as out, open(OUT / "child.err", "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read(), err.read(), t0, t1 - t0,
                         usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def setup_probe(self) -> float:
        """Seconds from spawning an interpreter until the import returns."""
        probe = self.child(["-c", f"import time, {self.module}; print(time.perf_counter())"])
        if probe.code != 0:
            raise RuntimeError(f"cannot import {self.module}: {probe.err.strip()}")
        return float(probe.out) - probe.spawned

    def interpreter_probe(self, result: Pass) -> int:
        """Time a bare interpreter, the reference for process times; return
        the probe's index in the pass."""
        result.interpreter_s.append(self.child(["-c", "pass"]).wall_s)
        return len(result.interpreter_s) - 1

    def probed_setup(self, result: Pass) -> None:
        """A set-up probe followed by an interpreter probe."""
        result.measured_setup_s.append(self.setup_probe())
        result.setup_after.append(self.interpreter_probe(result) - 1)

    def run_pass(self, index: int, traced: bool) -> Pass:
        spans_file = str(OUT / f"spans-{self.workload}-{self.seed}-{index}.json")
        result = Pass(traced)
        if self.workload == "cli-anchors":
            jobs = workloads.cli_jobs(self.seed)
            self.interpreter_probe(result)
            for i, job in enumerate(jobs):
                # spread the set-up probes through the pass: the shared
                # machine has slow stretches that last seconds
                if i % (len(jobs) // PROBES_PER_PASS) == 0:
                    self.probed_setup(result)
                if traced:
                    argv = [str(BENCH / "launch.py"), spans_file, job.name, *job.argv]
                else:
                    argv = ["-m", "fanocount", *job.argv]
                Path(spans_file).unlink(missing_ok=True)
                run = self.child(argv)
                after = self.interpreter_probe(result) - 1
                error = None
                if run.code != job.expected_code:
                    error = (f"exit {run.code}, expected {job.expected_code}: "
                             f"{run.err.strip()[-300:]}")
                elif not job.check(run.out, run.err):
                    error = "output differs from reference"
                result.jobs.append({"name": job.name, "s": run.wall_s, "cpu_s": run.cpu_s,
                                    "after": after, "ok": error is None, "error": error,
                                    "values": [] if error else workloads.result_values(run.out)})
                result.wall_s += run.wall_s
                result.cpu_s += run.cpu_s
                result.rss_mb = max(result.rss_mb, run.rss_mb)
                if traced and Path(spans_file).exists():
                    result.traces.append(_load(spans_file))
            for job in result.jobs:
                job["speed"] = calibrate.spawn_speed(result.interpreter_s, job.pop("after"))
        else:
            argv = [str(BENCH / "worker.py"), self.workload, str(self.seed)]
            run = self.child(argv + [spans_file] if traced else argv)
            result.rss_mb = run.rss_mb
            self.interpreter_probe(result)
            for _ in range(PROBES_PER_PASS):
                self.probed_setup(result)
            if run.code == 0:
                report = json.loads(run.out.splitlines()[-1])
                result.wall_s = sum(job["s"] for job in report["jobs"])
                result.cpu_s = sum(job["cpu_s"] for job in report["jobs"])
                result.jobs = [{**job, "speed": calibrate.speed(job["ref_s"]),
                                "values": [] if job["value"] is None else [int(job["value"])]}
                               for job in report["jobs"]]
                if traced:
                    result.traces.append(_load(spans_file))
            else:
                # a crashed worker fails every job of its pass
                error = f"worker exited {run.code}: {run.err.strip()[-300:]}"
                result.wall_s, result.cpu_s = run.wall_s, run.cpu_s
                result.jobs = [{"name": f"pass {index}", "s": run.wall_s, "cpu_s": run.cpu_s,
                                "speed": 1.0, "ok": False, "error": error, "values": []}
                               for _ in range(workloads.job_count(self.workload))]
        result.setup_s = [setup * calibrate.spawn_speed(result.interpreter_s, after)
                          for setup, after in zip(result.measured_setup_s, result.setup_after)]
        return result


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def tail_percentile(jobs_per_pass: int) -> float:
    """The percentile 100 (1 - 10 / 3J) for J jobs per pass.  A run has at
    least three passes, so at least ten samples lie beyond it, and it does
    not depend on how many passes fitted into the run."""
    return 100 * (1 - TAIL_BEYOND / (MIN_PASSES * jobs_per_pass))


def nearest_rank(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def time_metrics(passes: list[Pass], normalise: bool = True, prefix: str = "") -> dict:
    """Wall and CPU time of the job list (medians over the passes); the
    median over the jobs of each job's median time over the passes, which
    a single noisy sample of a short job does not move; and the tail
    percentile of the job times pooled over the passes.  With ``normalise``
    each job's times are multiplied by its speed factor first."""
    def scaled(job: dict, key: str) -> float:
        return job[key] * job["speed"] if normalise else job[key]

    times = [scaled(job, "s") for p in passes for job in p.jobs]
    by_job: dict[str, list[float]] = {}
    for p in passes:
        for job in p.jobs:
            by_job.setdefault(job["name"], []).append(scaled(job, "s"))
    return {
        f"{prefix}wall_s": (statistics.median(sum(scaled(job, "s") for job in p.jobs)
                                              for p in passes), "s"),
        f"{prefix}cpu_s": (statistics.median(sum(scaled(job, "cpu_s") for job in p.jobs)
                                             for p in passes), "s"),
        f"{prefix}job_p50_ms": (
            1e3 * statistics.median(statistics.median(v) for v in by_job.values()), "ms"),
        f"{prefix}job_tail_ms": (
            1e3 * nearest_rank(times, tail_percentile(len(passes[0].jobs))), "ms"),
    }


def end_to_end(passes: list[Pass]) -> tuple[dict, dict, dict]:
    """The named metrics of the run's untraced passes, with the times at
    the reference speed; the same times as measured; and the sample sizes
    behind them.  Set-up is sampled in every pass."""
    plain = [p for p in passes if not p.traced]
    setups = [s for p in passes for s in p.setup_s]
    metrics = {
        **time_metrics(plain),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in plain), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    samples = {"tail_percentile": tail_percentile(len(plain[0].jobs)),
               "job_samples": sum(len(p.jobs) for p in plain), "setup_samples": len(setups),
               "untraced_passes": len(plain),
               "speed_median": statistics.median(job["speed"] for p in plain for job in p.jobs),
               "interpreter_ms": 1e3 * statistics.median(
                   s for p in passes for s in p.interpreter_s)}
    measured = {**time_metrics(plain, False, "measured_"), "measured_setup_s": (
        statistics.median(s for p in passes for s in p.measured_setup_s), "s")}
    return metrics, measured, samples


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, from the spans files of its
    processes (one for an in-process workload, one per job for cli-anchors)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts = dict.fromkeys(spans.COUNTS, 0)
    hits = misses = paper_check_surface = 0
    for doc in traces:
        for name, seconds in spans.self_times(doc["spans"]).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for name, _parent, job, _start, _end in doc["spans"]:
            calls[name] = calls.get(name, 0) + 1
            if name == "invariants.surface_invariants" and job == "paper-check":
                paper_check_surface += 1
        for key, value in doc["counts"].items():
            counts[key] = max(counts[key], value) if key == "polycore.peak_terms" \
                else counts[key] + value
        hits += doc["tau_poly"]["hits"]
        misses += doc["tau_poly"]["misses"]
    pairs = counts["polycore.mul.pair_products"]
    plane_points = counts["planes.bott.fixed_points"]
    conic_points = counts["conics.fixed_points"]
    return {
        "polycore.mul.calls": calls.get("polycore.mul", 0),
        "polycore.mul.self_s": self_s.get("polycore.mul", 0.0),
        "polycore.mul.pair_products": pairs,
        "polycore.mul.kept_ratio": counts["polycore.mul.result_terms"] / pairs if pairs else 0.0,
        "polycore.peak_terms": counts["polycore.peak_terms"],
        "planes.deg_planes_dm.self_s": self_s.get("planes.deg_planes_dm", 0.0),
        "planes.deg_planes_bott.self_s": self_s.get("planes.deg_planes_bott", 0.0),
        "planes.tau_poly.self_s": self_s.get("planes.tau_poly", 0.0),
        "planes.tau_poly.hits": hits,
        "planes.tau_poly.misses": misses,
        "planes.bott.fixed_points": plane_points,
        "planes.bott.us_per_fixed_point":
            1e6 * self_s.get("planes.deg_planes_bott", 0.0) / plane_points if plane_points else 0.0,
        "planes.extraction.self_s": self_s.get("planes.extraction", 0.0),
        "conics.deg_conics_bott.calls": calls.get("conics.deg_conics_bott", 0),
        "conics.deg_conics_bott.self_s": self_s.get("conics.deg_conics_bott", 0.0),
        "conics.fixed_points": conic_points,
        "conics.us_per_fixed_point":
            1e6 * self_s.get("conics.deg_conics_bott", 0.0) / conic_points if conic_points else 0.0,
        "conics.generic_conic_weights.self_s": self_s.get("conics.generic_conic_weights", 0.0),
        "conics.eta_form.self_s": self_s.get("conics.eta_form", 0.0),
        "invariants.surface_invariants.calls": calls.get("invariants.surface_invariants", 0),
        "invariants.surface_invariants.paper_check_calls": paper_check_surface,
        "invariants.surface_invariants.self_s": self_s.get("invariants.surface_invariants", 0.0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "cli.paper_check.self_s": self_s.get("cli.paper_check", 0.0),
        "cli.sweep_rows.self_s": self_s.get("cli.sweep_rows", 0.0),
        "cli.sweep.skipped_cells": counts["cli.sweep.skipped_cells"],
    }


LAYER_UNITS = {"calls": "count", "pair_products": "count", "peak_terms": "count",
               "hits": "count", "misses": "count", "fixed_points": "count",
               "skipped_cells": "count", "paper_check_calls": "count", "kept_ratio": "ratio",
               "us_per_fixed_point": "us", "self_s": "s"}


def per_layer(passes: list[Pass]) -> dict:
    traced = [layer_metrics(p.traces) for p in passes if p.traced]
    # counts repeat exactly from pass to pass; median_low keeps them integers
    metrics = {name: ((statistics.median_low if isinstance(value, int) else statistics.median)
                      (m[name] for m in traced), LAYER_UNITS[name.rsplit(".", 1)[1]])
               for name, value in traced[0].items()}
    plain_wall = time_metrics([p for p in passes if not p.traced])["wall_s"][0]
    traced_wall = time_metrics([p for p in passes if p.traced])["wall_s"][0]
    values = [v for p in passes for job in p.jobs for v in job["values"]]
    metrics["cli.interpreter_s"] = (statistics.median(
        s for p in passes for s in p.interpreter_s), "s")
    metrics["result.max_bits"] = (max((abs(v).bit_length() for v in values), default=0), "bits")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return metrics


def environment(workload: str, seed: int, cpus: set[int]) -> dict:
    """``nproc`` counts the CPUs the run could use before it pinned itself
    to ``pinned_cpu``."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fanocount").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": len(cpus), "pinned_cpu": min(cpus),
            "cpu_model": cpu_model, "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "workload": workload, "seed": seed}


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fanocount" / "__init__.py").is_file():
        print(f"no fanocount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    runner = Runner(args.workload, args.seed, start + TIME_LIMIT_S)
    min_passes = args.trace + (INPROCESS_MIN_PASSES if args.workload in workloads.INPROCESS
                               else MIN_PASSES)
    passes: list[Pass] = []
    # every process of the run shares one vCPU with the interpreter probes
    # that are its speed reference: a shared VM's vCPUs change speed each
    # on its own.  One job runs at a time, so one vCPU is all a run uses.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        while True:
            # a traced run alternates: untraced, traced, untraced, traced, ...
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(runner.run_pass(len(passes), traced))
            elapsed = time.perf_counter() - start
            per_pass = elapsed / len(passes)
            # passes start until --seconds are used, so a run measures at
            # least that long; none starts that could overrun the time limit
            if len(passes) >= min_passes and (elapsed >= args.seconds
                                              or elapsed + 2 * per_pass > TIME_LIMIT_S):
                break
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    result, record = summarize(args.trace, passes)
    record = {"environment": environment(args.workload, args.seed, cpus),
              "seconds": args.seconds, "trace": args.trace, **record}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)

    samples = record["samples"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"jobs/pass {workloads.job_count(args.workload)}  "
          f"tail = p{samples['tail_percentile']:.3g} of {samples['job_samples']} job samples")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        print(f"  {name:<48} {value if isinstance(value, int) else f'{value:.6g}':>16} "
              f"{metric['unit']}")
    if not args.trace:
        print(f"  times above at the reference speed; the median speed factor was "
              f"{samples['speed_median']:.4g}; as measured:")
        for name, value in record["measured"].items():
            print(f"  {name:<48} {value:>16.6g} {name.rsplit('_', 1)[1]}")
    print(f"  {'failed_ratio':<48} {record['failed_ratio']:>16.6g} "
          f"({result['failed']} of {result['attempted']})")
    for job in record["failures"][:5]:
        print(f"  FAILED {job['name']}: {job['error'] or 'value differs from reference'}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def summarize(trace: int, passes: list[Pass]) -> tuple[dict, dict]:
    """The run's result line, and the record written next to it.  Any job
    that failed, in any pass, makes the result incorrect."""
    jobs = [job for p in passes for job in p.jobs]
    failed = [job for job in jobs if not job["ok"]]
    e2e, measured, samples = end_to_end(passes)
    metrics = per_layer(passes) if trace else e2e
    result = {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"samples": samples,
              "end_to_end": {name: value for name, (value, _) in e2e.items()},
              "measured": {name: value for name, (value, _) in measured.items()},
              "failed_ratio": len(failed) / len(jobs), "failures": failed[:20],
              "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                          "rss_mb": p.rss_mb, "setup_s": p.measured_setup_s,
                          "interpreter_s": p.interpreter_s,
                          "jobs": [[j["name"], j["s"], j["speed"]] for j in p.jobs]}
                         for p in passes],
              "result": result}
    return result, record


if __name__ == "__main__":
    raise SystemExit(main())
