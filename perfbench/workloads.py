"""The benchmark's three workloads: fixed job lists, the seeded inputs they
draw, and the check of every output against ``reference.py``.

The workload seed draws the torus weights of the plane Bott jobs and the
``seed`` / ``--seed`` values of the conic and CLI jobs; the cells and the
commands themselves are fixed, so every run of a workload does the same
amount of work up to the weights.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import reference

INPROCESS = ("planes-both", "conics")
WORKLOADS = (*INPROCESS, "cli-anchors")

# Distinct in-regime hypersurface cells (d, r, k): gamma > 0, d >= 3, 2k < r.
# k = 1 cells are cheap; (6,10,2), (3,7,3) and (4,8,3) are where the fold
# and the Bott sum hurt.
PLANES_CELLS = (
    (4, 3, 1), (5, 3, 1), (6, 4, 1), (7, 4, 1), (8, 5, 1),
    (3, 5, 2), (4, 5, 2), (4, 6, 2), (5, 6, 2), (5, 7, 2), (6, 8, 2), (7, 9, 2),
    (6, 10, 2),
    (3, 7, 3), (4, 8, 3),
)

# Distinct epsilon > 0 conic cells (d, r), from the quartic-surface anchor up
# to (8, 5); the cost grows with the 6 C(r+1, 3) fixed points.  The smallest
# r = 6 cell, (9, 6), is left out: it alone would take half of every pass and
# leave too few passes in a run.  An odd number of cells puts the pooled
# median inside one cell's samples instead of between two cells' costs.
CONIC_CELLS = (
    (4, 3), (5, 3), (6, 3), (7, 3), (8, 3), (9, 3), (10, 3), (11, 3),
    (6, 4), (7, 4), (8, 4),
    (7, 5), (8, 5),
)


@dataclass(frozen=True)
class Job:
    """One call into the library, run in the worker process."""

    name: str
    call: Callable[[], int]
    expected: int

    def check(self, value: object) -> bool:
        return value == self.expected


@dataclass(frozen=True)
class CliJob:
    """One ``python -m fanocount`` process and what its output must be."""

    name: str
    argv: tuple[str, ...]
    expected_code: int
    check: Callable[[str, str], bool]


def _draw_weights(rng: random.Random, r: int) -> tuple[int, ...]:
    """r+1 distinct integer torus weights in [-50, 50]."""
    return tuple(rng.sample(range(-50, 51), r + 1))


def planes_jobs(seed: int) -> list[Job]:
    """Per cell: the DM fold, then the Bott sum at two weight draws.  The
    second Bott job of a cell finds ``tau_poly`` already cached."""
    from fanocount import planes

    rng = random.Random(seed)
    jobs = []
    for d, r, k in PLANES_CELLS:
        expected = reference.PLANES[d, r, k]
        first, second = _draw_weights(rng, r), _draw_weights(rng, r)
        jobs.append(Job(f"dm{d, r, k}", lambda d=d, r=r, k=k: planes.deg_planes_dm(d, r, k),
                        expected))
        for label, t in (("bott1", first), ("bott2", second)):
            jobs.append(Job(f"{label}{d, r, k}",
                            lambda d=d, r=r, k=k, t=t: planes.deg_planes_bott(d, r, k, t),
                            expected))
    return jobs


def conics_jobs(seed: int) -> list[Job]:
    from fanocount import conics

    rng = random.Random(seed)
    return [Job(f"conics{d, r}",
                lambda d=d, r=r, s=rng.randrange(2**30): conics.deg_conics(d, r, seed=s),
                reference.CONICS[d, r])
            for d, r in CONIC_CELLS]


def inprocess_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "planes-both":
        return planes_jobs(seed)
    if workload == "conics":
        return conics_jobs(seed)
    raise ValueError(f"{workload!r} is not an in-process workload")


# ---------------------------------------------------------------------------
# cli-anchors
# ---------------------------------------------------------------------------

def _envelope(out: str) -> tuple[str | None, dict | None]:
    """Status and result values of the JSON envelope a CLI job printed;
    (None, None) when it printed none."""
    try:
        payload = json.loads(out)
        return payload["status"], {name: entry["value"]
                                   for name, entry in payload["results"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return None, None


def _envelope_check(expected: dict[str, str]) -> Callable[[str, str], bool]:
    """The envelope is ok and its results carry exactly these values."""
    return lambda out, err: _envelope(out) == ("ok", expected)


def _regime_check(code: str) -> Callable[[str, str], bool]:
    """An empty regime-error envelope, and the stable code on stderr."""
    return lambda out, err: (_envelope(out) == ("regime-error", {})
                             and f"regime error: {code}:" in err)


def _paper_check(out: str, err: str) -> bool:
    lines = out.splitlines()
    return (lines[:len(reference.PAPER_CHECK_LINES)] == list(reference.PAPER_CHECK_LINES)
            and reference.PAPER_CHECK_VERDICT in lines)


def _sweep_check(out: str, err: str) -> bool:
    skipped = [line for line in err.splitlines() if line.startswith("skip ")]
    return (out.splitlines() == list(reference.SWEEP_ROWS)
            and len(skipped) == reference.SWEEP_SKIPPED)


def cli_jobs(seed: int) -> list[CliJob]:
    """About forty short CLI processes: the published anchors, every
    envelope subcommand, a small sweep, and inputs that must exit 2."""
    rng = random.Random(seed)
    jobs = [CliJob("paper-check", ("paper-check",), 0, _paper_check),
            CliJob("sweep", reference.SWEEP_ARGV, 0, _sweep_check)]
    cases = [(argv, 0, _envelope_check(values)) for argv, values in reference.ENVELOPES]
    cases += [(argv, 2, _regime_check(code)) for argv, code in reference.REGIME_ERRORS]
    for argv, code, check in cases:
        seeded = (*argv, "--format", "json", "--seed", str(rng.randrange(2**30)))
        jobs.append(CliJob(" ".join(argv), seeded, code, check))
    return jobs


def result_values(out: str) -> list[int]:
    """The integers a CLI job reported as results: envelope values, the
    value column of sweep rows, the values of paper-check's PASS lines."""
    _, values = _envelope(out)
    if values is not None:
        texts = list(values.values())
    else:
        texts = [line.rsplit(" = ", 1)[1] for line in out.splitlines() if line.startswith("PASS")]
        texts += [line.split(",")[5] for line in out.splitlines()[1:] if line.count(",") == 6]
    return [int(text) for text in texts if text.lstrip("-").isdigit()]


def job_count(workload: str) -> int:
    """Jobs in one pass of the workload; fixed, independent of the seed."""
    if workload == "planes-both":
        return 3 * len(PLANES_CELLS)
    if workload == "conics":
        return len(CONIC_CELLS)
    return 2 + len(reference.ENVELOPES) + len(reference.REGIME_ERRORS)
