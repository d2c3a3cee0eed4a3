"""The CLI's batch subcommands: ``paper-check`` over the published anchor values,
and ``sweep`` over grids of inputs.  Only they import this module, when they run,
so the envelope subcommands start without compiling it."""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterator, Sequence

from .cli import _SURFACE_FIELDS, _SWEEP_TARGETS, CommandRequest, format_exact, run
from .errors import RegimeError
from .extraction import ProblemSpec

__all__ = ["paper_check", "sweep_rows"]

# the anchor whose validated value the conic reconciliation report reuses
_CONIC_ANCHOR = "quartic surfaces with a conic: deg"


def _anchor_checks() -> list[tuple[str, Callable[[], object], object]]:
    """The fixed checklist of published values: one entry per line of the
    regression report."""
    from . import conics, invariants
    checks: list[tuple[str, Callable[[], object], object]] = []

    def surface_family(label: str, degrees: tuple[int, ...], r: int,
                       expected: dict[str, int]) -> None:
        spec = ProblemSpec(degrees, r, expected.pop("_k", 1))
        # one invariant computation per family; a failed one is not cached,
        # so each anchor of the family reports the exception as its FAIL line
        report = cache(lambda: invariants.surface_invariants(spec))
        checks.extend(
            (f"{label}: {anchor}", lambda attr=attr: getattr(report(), attr), expected[name])
            for name, attr, _, anchor in _SURFACE_FIELDS if anchor)

    surface_family("lines on cubic threefolds", (3,), 4,
                   {"deg": 45, "c2": 27, "A": 6, "B": -9, "e": 27, "K2": 45, "chi": 6})
    surface_family("lines on quintic fourfolds", (5,), 5,
                   {"deg": 6125, "c2": 2875, "A": 66, "B": -33,
                    "e": 309375, "K2": 496125, "chi": 67125})
    surface_family("lines on two quadrics in P^5", (2, 2), 5,
                   {"deg": 32, "c2": 16, "A": 3, "B": -6, "e": 0, "K2": 0, "chi": 0})
    surface_family("planes on cubic fivefolds", (3,), 6,
                   {"_k": 2, "deg": 2835, "c2": 1701, "A": 13, "B": -14,
                    "e": 13041, "K2": 25515, "chi": 3213})

    checks.append(("cubic fourfolds with a plane: codimension",
                   lambda: ProblemSpec((3,), 5, 2).gamma, 1))
    checks.append((_CONIC_ANCHOR, lambda: conics.deg_conics(4, 3), 2508))
    checks.append(("fixed conics in P^3: census",
                   lambda: conics.fixed_point_census(3), 24))
    return checks


def paper_check() -> bool:
    """Run every anchor check, print one PASS/FAIL line each plus the
    conic-route reconciliation report; return True iff everything passed."""
    from . import conics
    failures = 0
    checks = _anchor_checks()
    computed: dict[str, object] = {}
    for label, compute, expected in checks:
        try:
            got = computed[label] = compute()
        except Exception as exc:  # a crash in an anchor is a failure, not an abort
            print(f"FAIL  {label}: raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if got == expected:
            print(f"PASS  {label} = {format_exact(got)}")
        else:
            print(f"FAIL  {label}: expected {format_exact(expected)}, "
                  f"got {format_exact(got)}")
            failures += 1
    print(f"{len(checks) - failures} passed, {failures} failed "
          f"(of {len(checks)} anchor checks)")
    print()
    try:   # without a conic anchor the report recomputes it, and may crash the same way
        print(conics.conic_factor_report(computed.get(_CONIC_ANCHOR)))
    except Exception as exc:
        print(f"FAIL  conic reconciliation report: raised {type(exc).__name__}: {exc}")
        failures += 1
    return failures == 0


def _parse_items(text: str, multidegree: bool) -> list[tuple[int, ...]]:
    """A sweep column: comma-separated items, each an int or a lo..hi range of
    ints with lo <= hi, and with ``multidegree`` also degrees joined by '+' (e.g. 2+2)."""
    items: set[tuple[int, ...]] = set()
    for chunk in text.split(","):
        lo, dots, hi = chunk.partition("..")
        if dots:
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {chunk!r} in {text!r}")
            items.update((x,) for x in range(lo, hi + 1))
        else:
            items.add(tuple(int(p) for p in (chunk.split("+") if multidegree else [chunk])))
    return sorted(items)


def sweep_rows(target: str, degree_items: Sequence[tuple[int, ...]],
               r_values: Sequence[int], k_values: Sequence[int],
               skip_log: Callable[[str], None] | None = None) -> Iterator[str]:
    """CSV rows (without header) for a grid sweep, in lexicographic
    (d, r, k) order.  Each cell's value is the target subcommand's ``deg`` by
    its default method, under the same regime checks.  Out-of-regime cells
    produce no row; the reason is passed to ``skip_log``.  Any other error
    fails the sweep."""
    if target not in _SWEEP_TARGETS:
        raise ValueError(f"unknown sweep target {target!r}")
    for degrees in sorted(degree_items):
        for r in sorted(r_values):
            for k in sorted(k_values):
                d_label = "+".join(str(x) for x in degrees)
                try:
                    value = run(CommandRequest(target, degrees, r, k)).results["deg"]["value"]
                    spec = ProblemSpec(degrees, r, k)
                except RegimeError as exc:
                    if skip_log is not None:
                        skip_log(f"skip d={d_label} r={r} k={k}: {exc}")
                    continue
                yield (f"{d_label},{r},{k},{spec.gamma},{spec.delta},{value},"
                       f"{_SWEEP_TARGETS[target]}")
