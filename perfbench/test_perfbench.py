"""Checks of the benchmark itself."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_wrong_reference_value_is_reported_as_failure(monkeypatch):
    monkeypatch.setitem(reference.PLANES, (4, 3, 1), 321)   # the true count is 320
    jobs = workloads.planes_jobs(seed=7)[:6]                # cells (4,3,1) and (5,3,1)
    records = []
    for job in jobs:
        value = job.call()
        records.append({"name": job.name, "s": 1e-3, "cpu_s": 1e-3, "speed": 1.0, "ok": job.check(value), "values": [value], "error": None})
    passes = [run.Pass(traced=False, wall_s=0.01, cpu_s=0.01, rss_mb=20.0, jobs=records,
                      setup_s=[0.1], measured_setup_s=[0.1], interpreter_s=[0.06])
              for _ in range(run.MIN_PASSES)]
    result, record = run.summarize(0, passes)
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (9, 18)
    assert {job["name"] for job in record["failures"]} == {
        "dm(4, 3, 1)", "bott1(4, 3, 1)", "bott2(4, 3, 1)"}


def test_wrong_cli_reference_is_reported_as_failure(capsys):
    from fanocount.cli import main

    argv, values = reference.ENVELOPES[0]
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert workloads._envelope_check(values)(out, "")
    assert not workloads._envelope_check({**values, "deg": "46"})(out, "")
