"""Span tracer for the traced run.

Wrappers are installed from outside, around the public functions of each
fanocount module; nothing under ``src/`` knows about them.  A span records
its name, start, end, parent span and the job it belongs to.  Spans stay in
memory and are written out once, when the traced process ends.  Next to the
spans the wrappers keep exact work counts, computed from the inputs and the
operand sizes, so they repeat bit for bit from run to run.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb

COUNTS = ("polycore.mul.pair_products", "polycore.mul.result_terms", "polycore.peak_terms",
          "planes.bott.fixed_points", "conics.fixed_points", "cli.sweep.skipped_cells")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, parent index or None, job, start, end]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.job: str | None = None
        self._stack: list[int] = []
        self._tau_poly = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.job, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span; ``count(counts, args, result)`` runs after it."""
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def wrap_sweep_rows(self, fn):
        """``cli.sweep_rows`` is a generator: one span per resumption, and the
        ``skip_log`` keyword wrapped to count skipped cells."""
        def wrapper(*args, **kwargs):
            log = kwargs.get("skip_log")

            def counting_log(message):
                self.counts["cli.sweep.skipped_cells"] += 1
                if log is not None:
                    log(message)

            kwargs["skip_log"] = counting_log
            rows = fn(*args, **kwargs)
            while True:
                index = self._open("cli.sweep_rows")
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield row
        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every loaded fanocount namespace
        that binds it (``invariants`` imports ``deg_fano`` by name, the
        package re-exports everything), and ``MultiPoly.mul`` on its class."""
        from fanocount import conics, invariants, planes, polycore

        self._tau_poly = planes.tau_poly
        targets = {
            planes.deg_planes_dm: self.wrap("planes.deg_planes_dm", planes.deg_planes_dm),
            planes.deg_planes_bott: self.wrap("planes.deg_planes_bott", planes.deg_planes_bott,
                                              _count_plane_fixed_points),
            planes.tau_poly: self.wrap("planes.tau_poly", planes.tau_poly),
            planes.deg_fano: self.wrap("planes.extraction", planes.deg_fano),
            planes.c2_fano_integral: self.wrap("planes.extraction", planes.c2_fano_integral),
            planes.deg_ci_planes: self.wrap("planes.extraction", planes.deg_ci_planes),
            conics.deg_conics: self.wrap("conics.deg_conics", conics.deg_conics),
            conics.deg_conics_bott: self.wrap("conics.deg_conics_bott", conics.deg_conics_bott,
                                              _count_conic_fixed_points),
            conics.generic_conic_weights: self.wrap("conics.generic_conic_weights",
                                                    conics.generic_conic_weights),
            conics.eta_form: self.wrap("conics.eta_form", conics.eta_form),
            invariants.surface_invariants: self.wrap("invariants.surface_invariants",
                                                     invariants.surface_invariants),
        }
        cli = sys.modules.get("fanocount.cli")
        if cli is not None:
            targets[cli.run] = self.wrap("cli.run", cli.run)
            targets[cli.paper_check] = self.wrap("cli.paper_check", cli.paper_check)
            targets[cli.sweep_rows] = self.wrap_sweep_rows(cli.sweep_rows)
        by_id = {id(original): (original, wrapper) for original, wrapper in targets.items()}
        for name, module in list(sys.modules.items()):
            if name != "fanocount" and not name.startswith("fanocount."):
                continue
            for attr, value in list(vars(module).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        polycore.MultiPoly.mul = self.wrap("polycore.mul", polycore.MultiPoly.mul, _count_mul)

    def dump(self, path: str) -> None:
        info = self._tau_poly.cache_info()
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "tau_poly": {"hits": info.hits, "misses": info.misses}}, handle)


def _count_mul(counts, args, result) -> None:
    a, b = args[0], args[1]
    counts["polycore.mul.pair_products"] += len(a) * len(b)
    counts["polycore.mul.result_terms"] += len(result)
    counts["polycore.peak_terms"] = max(counts["polycore.peak_terms"],
                                        len(a), len(b), len(result))


def _count_plane_fixed_points(counts, args, result) -> None:
    _, r, k = args[:3]
    counts["planes.bott.fixed_points"] += comb(r + 1, k + 1)


def _count_conic_fixed_points(counts, args, result) -> None:
    r = args[1]
    counts["conics.fixed_points"] += 6 * comb(r + 1, 3)


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: each span's duration minus its child spans."""
    child = [0.0] * len(spans)
    for name, parent, job, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, float] = {}
    for (name, parent, job, start, end), inner in zip(spans, child):
        totals[name] = totals.get(name, 0.0) + (end - start - inner)
    return totals
